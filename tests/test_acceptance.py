"""Tier-1 run of the claim registry `suites.SUITES`.

Each check gets exactly the input that `supergrass verify all --seed 0
--cases 100` gives it, so a check added to the registry is tested here with
no further edit.  The control at the end proves the registry can fail.
"""

import pytest

from supergrass import kernel, suites

CHECKS = [(suite, check_id, fn)
          for suite, entries in suites.SUITES.items() for check_id, _law, fn in entries]


def run_check(check_id, fn):
    return fn(suites._rng_for(0, check_id), 100)


@pytest.mark.parametrize("suite, check_id, fn", CHECKS, ids=[c[1] for c in CHECKS])
def test_registry_check(suite, check_id, fn):
    ok, counterexample = run_check(check_id, fn)
    assert ok, (f"{check_id} failed: {counterexample or 'no counterexample'}; "
                f"replay with: supergrass verify {suite} --seed 0")


def test_forgotten_koszul_sign_fails_supercomm(monkeypatch):
    odd_mul = kernel._odd_mul

    def unsigned(o1, o2, symbols):
        out = odd_mul(o1, o2, symbols)
        if out is not None and out[0] == -1:
            return (None, out[1])
        return out

    monkeypatch.setattr(kernel, "_odd_mul", unsigned)
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "kernel.supercomm"]
    ok, _ = run_check("kernel.supercomm", fn)
    assert not ok
