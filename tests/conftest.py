import pytest

from supergrass import kernel


@pytest.fixture
def koszul_sign_dropped(monkeypatch):
    """Make every odd-odd product forget its Koszul sign: a known-bad kernel
    that the registry must catch."""
    odd_mul = kernel._odd_mul

    def unsigned(o1, o2, symbols):
        out = odd_mul(o1, o2, symbols)
        if out is not None and out[0] == -1:
            return (None, out[1])
        return out

    monkeypatch.setattr(kernel, "_odd_mul", unsigned)
