from fractions import Fraction

import pytest

from supergrass.kernel import EVEN
from supergrass.models import (BpsSystem, FieldSystem, Sigma32, Superparticle,
                               Superpotential, trig_reduce)


# -- jet machinery -----------------------------------------------------------------

def test_total_derivative_chain_rule():
    fs = FieldSystem(("t",), [("u", EVEN)])
    u, ut = fs.jet("u"), fs.jet("u", "t")
    assert fs.d("t", u * u) == 2 * u * ut


def test_total_derivative_order_guard():
    fs = FieldSystem(("t",), [("u", EVEN)])
    with pytest.raises(ValueError, match="jet order 2 exhausted"):
        fs.d("t", fs.jet("u", "t", "t"))


def test_euler_operator_wave_equation():
    fs = FieldSystem(("t", "x"), [("u", EVEN)])
    ut, ux = fs.jet("u", "t"), fs.jet("u", "x")
    L = (ut * ut - ux * ux).scale(Fraction(1, 2))
    E = fs.euler_operator(L, "u")
    assert E == -(fs.jet("u", "t", "t") - fs.jet("u", "x", "x"))


def test_superpotential_composition():
    fs = FieldSystem(("t",), [("u", EVEN)], extra_even=("a0", "a1", "a2"))
    h = Superpotential.symbolic(fs.table, 2)
    u = fs.jet("u")
    a0, a1, a2 = fs.sym("a0"), fs.sym("a1"), fs.sym("a2")
    assert h.apply(u) == a0 + a1 * u + a2 * u * u
    assert h.derivative().apply(u) == a1 + 2 * a2 * u
    # chain rule through the total derivative
    assert fs.d("t", h.apply(u)) == h.derivative().apply(u) * fs.jet("u", "t")


# -- superparticle -------------------------------------------------------------------

def test_superdensity_components():
    for n in (1, 2):
        sp = Superparticle(n=n)
        assert sp.density_components_ok()


def test_lagrangian_components_n1():
    sp = Superparticle(n=1)
    L = sp.lagrangian
    want = (sp.x(1, "t") * sp.x(1, "t") + sp.ps(1) * sp.ps(1, "t")).scale(Fraction(1, 2))
    assert L == want
    # theta-independent coefficient of the superdensity is -psi xdot / 2
    sd = sp.superdensity()
    assert sd.free_of(("th",)) == sp.pair_velocity().scale(Fraction(-1, 2))


def test_zero_psi_reduces_to_classical():
    sp = Superparticle(n=2)
    L = sp.lagrangian
    subs = {}
    for i in (1, 2):
        subs[f"ps{i}"] = sp.fs.zero()
        subs[f"ps{i}_t"] = sp.fs.zero()
    speed2 = (sp.x(1, "t") ** 2 + sp.x(2, "t") ** 2).scale(Fraction(1, 2))
    assert L.substitute(subs) == speed2


def test_plain_susy_variation():
    for n in (1, 2):
        assert Superparticle(n=n).plain_variation_ok()


def test_susy_algebra_on_fields():
    for n in (1, 2):
        assert Superparticle(n=n).susy_algebra_ok()


def test_berezin_of_exact_density_is_total_derivative():
    # tau contraction of the plain variation is itself d/dt of something:
    # the variation equals a total time derivative in the jet ring
    sp = Superparticle(n=1)
    eta = sp.fs.sym("et1")
    contraction = -sp.variation(eta)
    inner = (eta * sp.pair_velocity()).scale(Fraction(1, 2))
    assert contraction == sp.fs.d("t", inner)


# -- sigma model on R^(3|2) -----------------------------------------------------------

@pytest.fixture(scope="module")
def sigma():
    return Sigma32(h_degree=4)


def test_h_zero_removes_coupling_terms():
    model = Sigma32(h=Superpotential([0]))
    L = model.lagrangian
    fs = model.fs
    # no ps1 ps2 term and no F-linear term: L matches the free component form
    pt, px, py = fs.jet("phi", "t"), fs.jet("phi", "x"), fs.jet("phi", "y")
    F = fs.jet("F")
    want = (pt * pt - px * px - py * py).scale(Fraction(1, 2)) \
        + model.psi_cal_D_psi().scale(Fraction(1, 2)) + (F * F).scale(Fraction(1, 2))
    assert L == want


def test_euler_F_equation(sigma):
    eqs = sigma.euler_equations
    phi = sigma.fs.jet("phi")
    assert eqs["F"] == sigma.fs.jet("F") + sigma.h.derivative().apply(phi)


def test_euler_psi_equations(sigma):
    eqs = sigma.euler_equations
    fs = sigma.fs
    hpp = sigma.h.derivative().derivative()
    assert eqs["ps1"] == sigma.cal_D(2) - hpp.apply(fs.jet("phi")) * fs.jet("ps2")
    assert eqs["ps2"] == -(sigma.cal_D(1) - hpp.apply(fs.jet("phi")) * fs.jet("ps1"))


# -- BPS ---------------------------------------------------------------------------------

def test_trig_reduce():
    from supergrass.kernel import SymbolTable

    t = SymbolTable()
    t.even_symbol("c")
    t.even_symbol("s")
    c, s = t.sym("c"), t.sym("s")
    assert trig_reduce(s * s) == t.one() - c * c
    assert trig_reduce(s * s * s) == s * (t.one() - c * c)
    assert trig_reduce(s ** 4 + c ** 2) == (t.one() - c * c) ** 2 + c * c
    # confluence: reducing twice changes nothing
    p = (c + s) ** 4
    assert trig_reduce(trig_reduce(p)) == trig_reduce(p)


@pytest.fixture(scope="module")
def bps():
    return BpsSystem(h_degree=3)


def test_bps_first_order_pair(bps):
    r1, r2 = bps.first_order_pair
    fs = bps.fs
    # R1 = phi_t + cos(2a) phi_x + sin(2a) phi_y with the trig normal form
    want = fs.jet("phi", "t") + bps.X_apply(fs.jet("phi"))
    assert r1 == trig_reduce(want)


def test_bps_second_order(bps):
    assert bps.second_order_consequences_ok()


def test_bps_wave_equation(bps):
    assert bps.wave_equation_ok()


def test_bps_linear_h():
    # h linear: h'' = 0 and the reduction gives the plain wave equation
    sys = BpsSystem(h_degree=1)
    assert sys.wave_equation_ok()


def test_bps_quarter_turn(bps):
    assert bps.quarter_turn_case_ok()
