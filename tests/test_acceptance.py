"""Tier-1 run of the claim registry `suites.SUITES`.

Each check gets exactly the input that `supergrass verify all --seed 0
--cases 100` gives it, so a check added to the registry is tested here with
no further edit.  The control at the end proves the registry can fail.
"""

import pytest

from supergrass import suites

CHECKS = [(suite, check_id, fn)
          for suite, entries in suites.SUITES.items() for check_id, _law, fn in entries]


def run_check(check_id, fn):
    return fn(suites._rng_for(0, check_id), 100, suites.ALL_K)


@pytest.mark.parametrize("suite, check_id, fn", CHECKS, ids=[c[1] for c in CHECKS])
def test_registry_check(suite, check_id, fn):
    ok, counterexample, run, _skipped = run_check(check_id, fn)
    assert ok, (f"{check_id} failed: {counterexample or 'no counterexample'}; "
                f"replay with: supergrass verify {suite} --seed 0")
    assert run > 0


def test_forgotten_koszul_sign_fails_supercomm(koszul_sign_dropped):
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "kernel.supercomm"]
    ok, _, _, _ = run_check("kernel.supercomm", fn)
    assert not ok


def test_cases_run_and_skipped_are_counted():
    counts = {r.check_id: (r.run, r.skipped) for r in suites.run_suite("kernel", 0, 100).results}
    # a zero operand has no parity, so these laws skip it
    assert counts["kernel.supercomm"] == (87, 13)
    assert counts["kernel.leibniz"] == (93, 7)
    assert counts["kernel.assoc"] == (100, 0)


@pytest.mark.parametrize("verdict, counterexample", [
    (False, ""), ("th1*th1", "th1*th1"), (1, "1"), (0, "0"),
], ids=["false", "text", "truthy-int", "falsy-int"])
def test_only_true_passes_and_the_first_failure_stops_the_check(verdict, counterexample):
    after = []

    def check(rng, cases, ks):
        yield True
        yield verdict
        after.append("drawn")
        yield True

    assert suites.whole_check(check)(None, 1, ()) == (False, counterexample, 2, 0)
    assert after == []


def test_crash_is_a_failure_with_the_exception_as_counterexample():
    def check(rng, cases, ks):
        yield True
        raise ZeroDivisionError("boom")

    assert suites.whole_check(check)(None, 1, ()) == (False, "ZeroDivisionError: boom", 1, 0)


def test_k_list_is_a_run_parameter():
    def qqter_runs(report):
        (r,) = [r for r in report.results if r.check_id == "minkowski.qqter"]
        assert r.passed
        return r.run

    assert qqter_runs(suites.run_suite("minkowski", 0, 1, (1,))) == 1
    assert qqter_runs(suites.run_suite("minkowski", 0, 1)) == 4
