"""Tests of the benchmark itself: the tracer's self time, the independent
references, a negative control proving the answer checker can fail, and
work added to an op showing in full in the times reported.

    python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import reference as ref
import tracer
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def test_self_time_on_synthetic_span_tree():
    now = [0.0]
    tr = tracer.Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    def hook(t, args, result):
        work(5.0)  # count hooks are charged to no span

    leaf = tr.wrap("leaf", lambda: work(2.0), hook=hook)

    def mid_body():
        work(1.0)
        leaf()
        leaf()
        work(0.5)

    mid = tr.wrap("mid", mid_body)

    def request_body(argv):
        work(3.0)
        mid()
        leaf()

    request = tr.wrap("cli", request_body, attr=lambda a: a[0][0])
    tr.on = True
    request(["expand"])

    assert tr.self_s("cli") == 3.0
    assert tr.self_s("mid") == 1.5
    assert tr.self_s("leaf") == 6.0
    assert tr.calls("leaf") == 3
    assert tr.agg[("leaf", "mid")][0] == 2 and tr.agg[("leaf", "cli")][0] == 1
    assert tr.agg[("mid", "cli")][1] == 1.0 + 2.0 + 5.0 + 2.0 + 5.0 + 0.5
    [span] = tr.spans
    assert span["attr"] == "expand" and span["self_s"] == 3.0 and span["end"] - span["start"] == 25.5


def test_references_on_known_values():
    th = lambda *names: ref.monomial(ref.ONE, odd=names)
    assert ref.mul(th("th2"), th("th1")) == ref.scale(th("th1", "th2"), ref.gneg(ref.ONE))
    assert ref.mul(th("th1", "th2"), th("th1")) == {}
    assert ref.mul(th("eps"), th("eps")) == ref.evaluate("-1")
    # the program may list th10 before th2; both read as one value
    assert ref.from_json({"terms": [{"coeff": "3", "even": {}, "odd": ["th10", "th2"]}]}) == ref.evaluate("-3*th2*th10")
    assert ref.coeff_from_text("1/2-3/4*I") == (Fraction(1, 2), Fraction(-3, 4))
    assert ref.berezin_top(ref.evaluate("5*x*th2*th1 + th1"), ("th1", "th2")) == ref.evaluate("-5*x")
    assert ref.box_integral(ref.evaluate("x^2"), ("x", "y"), Fraction(0), Fraction(1)) == ref.evaluate("1/3")
    tab = ref.octonion_table()
    assert tab[(2, 3)] == (4, 1) and tab[(3, 2)] == (4, -1) and tab[(5, 5)] == (1, -1)
    assert ref.derivation_value("-2*d/dt") == ref.evaluate("-2*d_t")


@pytest.fixture(scope="module")
def worker():
    import worker as w  # puts the checkout's src first on sys.path
    return w


def _flip_first(p):
    key = min(p)
    return {**p, key: ref.gneg(p[key])}


def test_negative_control_session(worker, monkeypatch):
    reqs = wl.session_requests(0)
    i = next(k for k, r in enumerate(reqs) if r.get("role") == "f")
    subset = [r for r in reqs if r["kind"] not in ("pullback", "closure")][:12] + reqs[i:i + 3]
    job = {"seed": 0, "trace": 0, "check": 1}
    assert worker.run_cli_session(job, tracer.Tracer(), subset)["failed"] == []

    target = next(r for r in subset if r["kind"] == "expand")
    evaluate = ref.evaluate
    monkeypatch.setattr(ref, "evaluate", lambda text: _flip_first(evaluate(text)) if text == target["expr"] else evaluate(text))
    assert worker.run_cli_session(job, tracer.Tracer(), subset)["failed"] == [subset.index(target)]


def test_negative_control_kernel(worker, monkeypatch):
    ops = [op for op in wl.kernel_ops(0, n_ops=12) if op["kind"] == "product"]
    job = {"seed": 0, "trace": 0, "check": 1}
    assert worker.run_kernel_algebra(job, tracer.Tracer(), ops)["failed"] == []

    mul, calls = ref.mul, []

    def corrupt_first(p, q):
        calls.append(1)
        out = mul(p, q)
        return _flip_first(out) if len(calls) == 1 else out

    monkeypatch.setattr(ref, "mul", corrupt_first)
    assert worker.run_kernel_algebra(job, tracer.Tracer(), ops)["failed"] == [0]


def test_tracer_rebinds_imported_copies():
    """super_bracket is imported by name into other modules; the traced copy
    must be the one those modules call."""
    code = f"""
import sys, io, contextlib
sys.path[:0] = [{SRC!r}, {BENCH!r}]
import supergrass.cli, supergrass.kernel as k, supergrass.minkowski as m, supergrass.suites as s
import tracer
tr = tracer.Tracer()
tracer.install(tr)
assert m.super_bracket is k.super_bracket is s.super_bracket and hasattr(k.super_bracket, "__wrapped__")
assert hasattr(k.SuperPolynomial.__radd__, "__wrapped__") and hasattr(k.SuperPolynomial.__add__, "__wrapped__")
tr.on = True
with contextlib.redirect_stdout(io.StringIO()):
    assert supergrass.cli.main(["bracket", "D", "D"]) == 0
print(tr.agg[("kernel.super_bracket", "cli")][0], tr.spans[0]["attr"])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "bracket"]


def test_benchmark_json_names_what_run_reports():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run.unit_of(n)) for n in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_repeat_guard_counts_changed_answers():
    import run

    def rep(digests, failed=()):
        return {"n_ops": 3, "digests": list(digests), "failed": list(failed)}

    assert run.failed_ops([rep("abc"), rep("abc")]) == [[], []]
    assert run.failed_ops([rep("abc"), rep("abx"), rep("abc")]) == [[], [2], []]
    assert run.failed_ops([rep("abc", [1]), rep("abc")]) == [[1], [1]]
    assert run.failed_ops([rep("abcR"), rep("abcX")]) == [[], [2]]  # the whole report changed
    assert run.failed_ops([rep("abc"), rep("ab")]) == [[], [0, 1, 2]]


def _busy(loops):
    import worker as w

    for _ in range(loops):
        w._calibration_loop()


def test_added_work_shows_in_reference_units(worker, monkeypatch):
    """Times are reported as if the calibration loop took CAL_REF_S, so an op
    that does 20 more loops of work must read 20 * CAL_REF_S slower, in each
    op and in verdict_s, whatever the host's speed."""
    import run

    ops = wl.kernel_ops(0, n_ops=12)
    job = {"seed": 0, "trace": 0, "check": 0}

    def measure():
        reps = [worker.run_kernel_algebra(job, tracer.Tracer(), ops) for _ in range(3)]
        return run.end_to_end_metrics(reps, [(1.0, 1.0)])

    base = measure()
    law = worker.kernel_law
    monkeypatch.setattr(worker, "kernel_law", lambda op, v: (_busy(20), law(op, v))[1])
    slow = measure()
    added = 20 * run.CAL_REF_S
    assert slow["op_p50_ms"] - base["op_p50_ms"] == pytest.approx(1000 * added, rel=0.25)
    assert slow["verdict_s"] - base["verdict_s"] == pytest.approx(len(ops) * added, rel=0.25)


def test_added_work_shows_in_verify_verdict(worker, monkeypatch):
    """The same for verify_all, whose verdict_s covers the whole verify call:
    100 loops of work added to one check add 100 * CAL_REF_S to verdict_s."""
    import run
    import supergrass.suites

    monkeypatch.setattr(wl, "verify_argv", lambda seed: ["verify", "divalg", "--seed", str(seed), "--cases", "5", "--json"])
    job = {"seed": 0, "trace": 0, "check": 0}

    def measure():
        reps = [worker.run_verify_all(job, tracer.Tracer()) for _ in range(3)]
        return run.end_to_end_metrics(reps, [(1.0, 1.0)])

    base = measure()
    (check_id, law, fn), *rest = supergrass.suites.SUITES["divalg"]
    slower = (check_id, law, lambda *a: (_busy(100), fn(*a))[1])
    monkeypatch.setitem(supergrass.suites.SUITES, "divalg", [slower, *rest])
    slow = measure()
    assert slow["verdict_s"] - base["verdict_s"] == pytest.approx(100 * run.CAL_REF_S, rel=0.25)
