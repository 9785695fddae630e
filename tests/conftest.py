import pytest
from hypothesis import settings

from supergrass import kernel

# Property tests draw the same examples on every run, so Tier-1 stays
# deterministic and its time bounded on a slow, noisy machine.
settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture
def koszul_sign_dropped(monkeypatch):
    """Make every odd-odd product forget its Koszul sign: a known-bad kernel
    that the registry must catch."""
    odd_mul = kernel._odd_mul

    def unsigned(o1, o2, symbols):
        out = odd_mul(o1, o2, symbols)
        if out is not None and out[0]:
            return (0, out[1])
        return out

    monkeypatch.setattr(kernel, "_odd_mul", unsigned)
