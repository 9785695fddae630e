"""One repetition of one workload, in a fresh interpreter.

Run by run.py as ``python3 bench/worker.py '<json job>'``.  The job holds the
workload, seed, whether to trace, whether to check answers against the
references, and the monotonic time at which run.py spawned this process.
Prints one JSON line with the repetition's measurements.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import supergrass  # noqa: E402  (set-up ends when the package is imported)
import supergrass.cli  # noqa: E402

_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def digest(text):
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _calibration_loop():
    acc = {}
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
        key = (i % 13, (i * 7) % 11)
        acc[key] = acc.get(key, 0) + x
    return x


def calibrate():
    """Seconds a fixed loop of benchmark code takes right now.

    The loop does the kind of work supergrass does (Fraction products, dict
    updates keyed by tuples) and never calls supergrass, with the garbage
    collector off so the program's own settings cannot reach it.  run.py
    divides each op's latency by the calibration taken next to it, and a
    repetition's totals by the mean of its calibrations, which cancels the
    host's changing speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _calibration_loop()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def call_cli(argv, stdin=None):
    """One request through the public entry point, output captured."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = supergrass.cli.main(argv)
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


class Clock:
    """Wall time, CPU time and peak memory from the first op to the verdict,
    less the time spent calibrating in between."""

    def __enter__(self):
        self.cals = []
        self.cpu0, self.t0 = cpu_now(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.verdict_s = time.perf_counter() - self.t0 - sum(self.cals)
        self.cpu_s = cpu_now() - self.cpu0 - sum(self.cals)
        self.peak_rss_mb = peak_rss_mb()

    def calibrate(self):
        dt = calibrate()
        self.cals.append(dt)
        return dt

    def result(self, ops, digests, failed, n_ops):
        """ops[i] = (wall s, CPU s, calibration s taken next to op i), for
        the ops timed in this process; n_ops counts every op attempted."""
        lat, cpu, cal = (list(col) for col in zip(*ops)) if ops else ([], [], [])
        return {"verdict_s": self.verdict_s, "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
                "run_cal_s": statistics.fmean(self.cals), "n_ops": n_ops,
                "op_s": lat, "op_cpu_s": cpu, "cal_s": cal, "digests": digests, "failed": sorted(set(failed))}


def timed(fn, *args):
    """(result, wall s, CPU s) of one call."""
    c0, t0 = cpu_now(), time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0, cpu_now() - c0


# ---------------------------------------------------------------------------
# workloads: each returns its Clock result; the tracer is on only around ops
# ---------------------------------------------------------------------------

def run_verify_all(job, tr):
    """verdict_s and cpu_s cover the whole verify call.  Each check is also
    timed on its own for the op percentiles; a check run where this process
    cannot see it (another process) has no op time, which is not a failure.
    A traced repetition calibrates only around the call, so no calibration
    lands inside a suite or check span."""
    clock, checks = Clock(), {}

    def timed_check(check_id, fn):
        def op(*args):
            if job["trace"]:
                result, wall, cpu = timed(fn, *args)
                checks[check_id] = (wall, cpu, None)
                return result
            before = clock.calibrate()  # a check can last seconds: calibrate on both sides
            result, wall, cpu = timed(fn, *args)
            checks[check_id] = (wall, cpu, (before + clock.calibrate()) / 2)
            return result
        return op

    saved = dict(supergrass.suites.SUITES)
    supergrass.suites.SUITES.update({name: [(cid, law, timed_check(cid, fn)) for cid, law, fn in entries]
                                     for name, entries in saved.items()})
    try:
        with clock:
            clock.calibrate()
            tr.on = job["trace"]
            code, out = call_cli(wl.verify_argv(job["seed"]))
            tr.on = False
            clock.calibrate()
    finally:
        supergrass.suites.SUITES.update(saved)
    try:
        report = {c["id"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    except (ValueError, KeyError, TypeError):
        report = {}
    ids = [cid for entries in saved.values() for cid, _, _ in entries]
    digests = [digest(json.dumps(report.get(cid), sort_keys=True)) for cid in ids]
    digests.append(digest(out))  # the whole report must repeat byte for byte
    failed = [i for i, cid in enumerate(ids) if code != 0 or not report.get(cid, {}).get("pass")]
    run_cal = statistics.fmean(clock.cals)
    ops = [(w, c, run_cal if cal is None else cal) for w, c, cal in (checks[cid] for cid in ids if cid in checks)]
    return clock.result(ops, digests, failed, len(ids))


def _poly(table, terms):
    p = table.zero()
    for (re, im), ev, od in terms:
        p = p + table.monomial(supergrass.QI(re, im), ev, od)
    return p


def _derivation(table, spec):
    images = {name: _poly(table, terms) for name, terms in spec["images"].items()}
    return supergrass.Derivation(table, spec["parity"], images)


def kernel_table():
    t = supergrass.SymbolTable("QQi")
    for n in wl.KERNEL_EVENS:
        t.even_symbol(n)
    for n in wl.KERNEL_ODDS:
        t.odd_symbol(n)
    t.clifford_symbol(wl.CLIFFORD, 1)
    return t


def kernel_law(op, v):
    """The timed part of one op: compute and decide one law instance."""
    kind = op["kind"]
    if kind == "assoc":
        lhs = (v["a"] * v["b"]) * v["c"]
        return lhs, lhs == v["a"] * (v["b"] * v["c"])
    if kind == "bracket":
        X, Y, f = v["X"], v["Y"], v["f"]
        sign = -1 if (X.parity and Y.parity) else 1
        lhs = supergrass.super_bracket(X, Y)(f)
        return lhs, lhs == X(Y(f)) - Y(X(f)).scale(sign)
    if kind == "leibniz":
        X, f, g = v["X"], v["f"], v["g"]
        sign = -1 if (X.parity and f.parity()) else 1
        lhs = X(f * g)
        return lhs, lhs == X(f) * g + (f * X(g)).scale(sign)
    lhs = v["a"] * v["b"]
    return lhs, True


def _timed_ops(job, tr, items, run_one):
    """Run the ops one after the other, each right after a calibration."""
    ops, results = [], []
    with Clock() as clock:
        for item in items:
            cal = clock.calibrate()
            tr.on = job["trace"]
            result, wall, cpu = timed(run_one, item)
            tr.on = False
            ops.append((wall, cpu, cal))
            results.append(result)
    return clock, ops, results


def run_kernel_algebra(job, tr, ops=None):
    from supergrass.expr_io import poly_to_jsonable

    ops = wl.kernel_ops(job["seed"]) if ops is None else ops
    table = kernel_table()
    values = [{k: (_derivation(table, s) if k in ("X", "Y") else _poly(table, s))
               for k, s in op.items() if k != "kind"} for op in ops]
    clock, timings, laws = _timed_ops(job, tr, list(zip(ops, values)), lambda ov: kernel_law(*ov))
    results = [(ok, poly_to_jsonable(lhs)) for lhs, ok in laws]
    digests = [digest(json.dumps(r, sort_keys=True)) for r in results]
    failed = [i for i, (ok, _) in enumerate(results) if not ok]
    if job["check"]:
        failed += [i for i, (op, (_, js)) in enumerate(zip(ops, results))
                   if op["kind"] == "product" and not wl.check_product(op, js)]
    return clock.result(timings, digests, failed, len(ops))


def run_cli_session(job, tr, requests=None):
    requests = wl.session_requests(job["seed"]) if requests is None else requests
    clock, timings, outs = _timed_ops(job, tr, requests, lambda req: call_cli(req["argv"], req.get("stdin")))
    digests = [digest(f"{code}\n{out}") for code, out in outs]
    failed = [i for i, (code, _) in enumerate(outs) if code != 0]
    if job["check"]:
        failed += [i for i, (req, (code, out)) in enumerate(zip(requests, outs))
                   if not wl.check_request(req, code, out, outs[:i])]
    return clock.result(timings, digests, failed, len(requests))


WORKLOADS = {"verify_all": run_verify_all, "kernel_algebra": run_kernel_algebra,
             "cli_session": run_cli_session}


def trace_summary(tr):
    names = sorted({n for n, _ in tr.agg})
    return {
        "layers": {n: {"calls": tr.calls(n), "self_s": tr.self_s(n), "total_s": tr.total_s(n)} for n in names},
        "by_parent": [[n, p, *r] for (n, p), r in sorted(tr.agg.items())],
        "counts": tr.counts,
        "spans": tr.spans,
    }


def main():
    job = json.loads(sys.argv[1])
    setup_s = _IMPORTED - job["spawned"]
    here = os.path.realpath(supergrass.__file__)
    if not here.startswith(os.path.realpath(f"{_ROOT}/src") + os.sep):
        print(f"supergrass was imported from {here}, not from this checkout", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "setup_cal_s": statistics.median(calibrate() for _ in range(5))}
    if job["workload"] != "probe":
        tr = tracing.Tracer()
        if job["trace"]:
            tracing.install(tr)
        result.update(WORKLOADS[job["workload"]](job, tr))
        if job["trace"]:
            result["trace"] = trace_summary(tr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
