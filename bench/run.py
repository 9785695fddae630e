"""supergrass benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition is a fresh interpreter
(bench/worker.py), one closed-loop client, no threads, so nothing cached in
one repetition reaches the next.  With --trace 0 the last line of stdout
reports the end-to-end metrics of the untraced repetitions; with --trace 1
it reports the per-layer metrics of traced repetitions, measured from
outside by wrapping the public functions of each module (bench/tracer.py).
The line before it records the environment and the repetitions made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("verify_all", "kernel_algebra", "cli_session")
SETUP_PROBES = 9
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
# The host's speed drifts by tens of percent over minutes (shared cores).
# Every op is timed right after a fixed calibration loop (worker.calibrate),
# and times are reported as if that loop took CAL_REF_S.
CAL_REF_S = 1e-3
DEADLINE_S = 150  # no repetition starts that could end after this

# The verify registry at the time the benchmark was defined: one metric per
# suite and per check, reported as 0 when a check is gone.
SUITE_CHECKS = {
    "divalg": ("alt", "clifford_c", "gamma", "norm", "oct_pairs"),
    "expr_io": ("ast", "json", "value"),
    "kernel": ("assoc", "bracket", "cartan", "leibniz", "nilpotent", "supercomm", "tensoring"),
    "minkowski": ("chiral", "closure", "explaw", "fields", "norm", "null", "qq", "qqter", "r32", "rsym", "table"),
    "models": ("bps", "sigma", "superparticle"),
    "morphisms": ("collapse", "components", "factor", "plane", "point", "pullback"),
    "reductions": ("bridge", "k4", "k8"),
    "superspace": ("berezin", "body", "hinf", "lift", "supertime"),
}
SUBCOMMANDS = ("verify", "expand", "berezin", "bracket", "pullback", "closure", "brackets", "table", "model")
# layers whose calls and self time are reported
TIMED_LAYERS = (
    "scalars.qi_ops", "scalars.format_scalar", "kernel.mul", "kernel.add", "kernel.scale",
    "kernel.derivation_call", "kernel.substitute", "kernel.super_bracket", "divalg.mul",
    "divalg.norm_sq", "minkowski.mat5_matmul", "minkowski.kmat2_matmul", "minkowski.lie_closure",
    "minkowski.invariant_fields", "superspace.berezin", "superspace.hinf_extend",
    "morphisms.pullback_even", "morphisms.exp_Xi", "models.euler_operator", "expr_io.parse",
    "expr_io.evaluate", "expr_io.format_poly",
)
# exact counts that must repeat between traced repetitions of one seed
EXACT = ("kernel.mul.term_pairs", "kernel.mul.terms_out", "kernel.mul.max_terms")


def per_layer_names():
    names = []
    for layer in TIMED_LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["scalars.parse_scalar.calls",
              "kernel.mul.term_pairs", "kernel.mul.terms_out", "kernel.mul.useful_ratio",
              "kernel.mul.max_terms", "kernel.mul.integral_coeff_ratio",
              "kernel.add.terms_copied", "kernel.super_bracket.useful_ratio",
              "minkowski.reduction_charges.self_s", "minkowski.qqter_check_all.self_s",
              "expr_io.parse.chars_per_s", "expr_io.json.self_s", "cli.self_s"]
    names += [f"cli.{c}.p50_ms" for c in SUBCOMMANDS]
    names += [f"suites.{s}.s" for s in SUITE_CHECKS]
    names += [f"suites.check.{s}.{c}.s" for s, checks in SUITE_CHECKS.items() for c in checks]
    return names + ["trace.overhead_ratio"]


END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_p90_ms": "ms"}


def unit_of(name):
    if name.endswith(".calls") or name.endswith("_copied") or name.endswith(("term_pairs", "terms_out", "max_terms")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("chars_per_s"):
        return "1/s"
    return "s"


# verify runs its suites one after the other whatever the caller's shell sets
WORKER_ENV = dict(os.environ, SUPERGRASS_THREADS="1")


class BenchError(RuntimeError):
    pass


def run_worker(job):
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(job)],
                              cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{job['workload']} repetition exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def failed_ops(reps):
    """Failed op indices of each repetition (the repeat guard).

    Every repetition must give the answers of the first, which were checked
    against the references; an op the first got wrong is wrong in all.  A
    digest past the last op (the whole verify report) counts for the last.
    """
    first = reps[0]
    n_ops = first["n_ops"]
    out = []
    for rep in reps:
        bad = set(first["failed"]) | set(rep["failed"])
        if len(rep["digests"]) != len(first["digests"]):
            bad |= set(range(n_ops))
        bad |= {min(i, n_ops - 1) for i, (a, b) in enumerate(zip(rep["digests"], first["digests"])) if a != b}
        out.append(sorted(bad))
    return out


def exact_counts(trace):
    out = {f"{n}.calls": v["calls"] for n, v in trace["layers"].items()}
    out.update({k: trace["counts"].get(k, 0) for k in EXACT})
    return out


def layer_metrics(traced, untraced):
    """Per-layer metrics: counts from the first traced repetition (they repeat
    exactly), times as medians over the traced repetitions."""
    first = traced[0]["trace"]

    def med(fn):
        return statistics.median(fn(r["trace"]) for r in traced)

    def layer(t, name, key):
        return t["layers"].get(name, {}).get(key, 0)

    def spans(t, name, attr):
        return [s["end"] - s["start"] for s in t["spans"] if s["name"] == name and s["attr"] == attr]

    counts = first["counts"]
    m = {}
    for name in TIMED_LAYERS:
        m[f"{name}.calls"] = layer(first, name, "calls")
        m[f"{name}.self_s"] = med(lambda t: layer(t, name, "self_s"))
    m["scalars.parse_scalar.calls"] = layer(first, "scalars.parse_scalar", "calls")
    pairs, out = counts.get("kernel.mul.term_pairs", 0), counts.get("kernel.mul.terms_out", 0)
    m["kernel.mul.term_pairs"] = pairs
    m["kernel.mul.terms_out"] = out
    m["kernel.mul.useful_ratio"] = out / pairs if pairs else 0
    m["kernel.mul.max_terms"] = counts.get("kernel.mul.max_terms", 0)
    m["kernel.mul.integral_coeff_ratio"] = counts.get("kernel.mul.integral_coeffs", 0) / out if out else 0
    m["kernel.add.terms_copied"] = counts.get("kernel.add.terms_copied", 0)
    gens = counts.get("kernel.super_bracket.generators", 0)
    m["kernel.super_bracket.useful_ratio"] = counts.get("kernel.super_bracket.nonzero", 0) / gens if gens else 0
    m["minkowski.reduction_charges.self_s"] = med(lambda t: layer(t, "minkowski.reduction_charges", "self_s"))
    m["minkowski.qqter_check_all.self_s"] = med(lambda t: layer(t, "minkowski.qqter_check_all", "self_s"))
    m["expr_io.parse.chars_per_s"] = med(
        lambda t: t["counts"].get("expr_io.parse.chars", 0) / layer(t, "expr_io.parse", "total_s")
        if layer(t, "expr_io.parse", "total_s") else 0)
    m["expr_io.json.self_s"] = med(lambda t: layer(t, "expr_io.json", "self_s"))
    m["cli.self_s"] = med(lambda t: layer(t, "cli", "self_s"))
    for c in SUBCOMMANDS:
        m[f"cli.{c}.p50_ms"] = med(lambda t: 1000 * statistics.median(spans(t, "cli", c) or [0]))
    for s, checks in SUITE_CHECKS.items():
        m[f"suites.{s}.s"] = med(lambda t: sum(spans(t, "suites.suite", s)))
        for c in checks:
            m[f"suites.check.{s}.{c}.s"] = med(lambda t: sum(spans(t, "suites.check", f"{s}.{c}")))
    m["trace.overhead_ratio"] = (statistics.median(r["verdict_s"] for r in traced)
                                 / statistics.median(r["verdict_s"] for r in untraced)) - 1
    return m


def at_reference_speed(seconds, cal_s):
    """A time measured while the calibration loop took cal_s, rescaled to a
    host on which it takes CAL_REF_S."""
    return seconds * CAL_REF_S / cal_s


def end_to_end_metrics(untraced, setups):
    """Times at reference speed, medians over the repetitions.

    verdict_s and cpu_s scale each repetition by the mean of its
    calibrations; each op is scaled by its own.  The op percentiles pool
    every op of every repetition.
    """
    def per_rep(key):
        return statistics.median(at_reference_speed(r[key], r["run_cal_s"]) for r in untraced)

    pooled = [at_reference_speed(t, c) for r in untraced for t, c in zip(r["op_s"], r["cal_s"])]
    if not pooled:  # no op was timed in the worker process: the mean op stands in
        pooled = [at_reference_speed(r["verdict_s"], r["run_cal_s"]) / r["n_ops"] for r in untraced]
    return {
        "verdict_s": per_rep("verdict_s"),
        "cpu_s": per_rep("cpu_s"),
        "setup_s": statistics.median(at_reference_speed(s, c) for s, c in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "op_p50_ms": 1000 * percentile(pooled, 0.5),
        "op_p90_ms": 1000 * percentile(pooled, 0.9),
    }


def raw_metrics(untraced, setups):
    """The same times as measured, unscaled, for the record."""
    pooled = [t for r in untraced for t in r["op_s"]] or [r["verdict_s"] / r["n_ops"] for r in untraced]
    return {
        "verdict_s": statistics.median(r["verdict_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "setup_s": statistics.median(s for s, _ in setups),
        "op_p50_ms": 1000 * percentile(pooled, 0.5),
        "op_p90_ms": 1000 * percentile(pooled, 0.9),
        "cal_ms": 1000 * statistics.median(r["run_cal_s"] for r in untraced),
    }


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "supergrass", "__init__.py")):
        raise BenchError(f"no supergrass sources under {os.path.join(ROOT, 'src')}")
    base = {"workload": workload, "seed": seed, "trace": 0, "check": 0}
    run_worker(dict(base, workload="probe"))  # compiles bytecode; not measured
    probes = [run_worker(dict(base, workload="probe")) for _ in range(SETUP_PROBES)]
    setups = [(p["setup_s"], p["setup_cal_s"]) for p in probes]

    reps = []
    start = time.monotonic()
    while True:
        n_traced = sum(r["traced"] for r in reps)
        n_plain = len(reps) - n_traced
        if trace:
            done = n_traced >= 2 and n_plain >= 1
            traced_next = n_plain >= 1 and (n_traced < 2 or n_traced <= n_plain)
        else:
            done = len(reps) >= MIN_REPS
            traced_next = False
        elapsed = time.monotonic() - start
        if done and (elapsed >= seconds or elapsed + max(r["wall_s"] for r in reps) > DEADLINE_S):
            break
        t0 = time.monotonic()
        rep = run_worker(dict(base, trace=int(traced_next), check=int(not reps)))
        rep["wall_s"] = time.monotonic() - t0
        rep["traced"] = traced_next
        reps.append(rep)
        setups.append((rep["setup_s"], rep["setup_cal_s"]))

    n_ops = reps[0]["n_ops"]
    failed = failed_ops(reps)
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    counts_repeat = all(exact_counts(r["trace"]) == exact_counts(traced[0]["trace"]) for r in traced)

    attempted = n_ops * len(reps)
    n_failed = sum(len(bad) for bad in failed)
    correct = n_failed == 0 and counts_repeat
    if trace:
        by_name = layer_metrics(traced, untraced)
        metrics = {n: by_name[n] for n in per_layer_names()}  # the names BENCHMARK.json lists
        units = {n: unit_of(n) for n in metrics}
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.json"), "w") as fh:
            json.dump({"workload": workload, "seed": seed, "traces": [r["trace"] for r in traced]}, fh)
    else:
        metrics = end_to_end_metrics(untraced, setups)
        units = END_TO_END_UNITS
    meta = {"workload": workload, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "reps": len(reps), "ops_per_rep": n_ops,
            "traced_reps": len(traced), "setup_samples": len(setups),
            "failed_ops": sorted(set().union(*failed)), "counts_repeat": counts_repeat,
            "as_measured": raw_metrics(untraced, setups)}
    print(json.dumps({"meta": meta}))
    return {"correct": correct, "attempted": attempted, "failed": n_failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
