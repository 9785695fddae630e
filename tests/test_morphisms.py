import random
from fractions import Fraction

import pytest

from supergrass import morphisms
from supergrass.kernel import SymbolTable
from supergrass.morphisms import (ChartAssumptionError, CommutationError,
                                  FleshMorphism, check_chart_condition,
                                  component_fields, factorize, nonlinear_expansion_check,
                                  odd_plane_obstruction, pullback_factorized, pullback_law,
                                  random_flesh_morphism, skeletal_pullback, vectors_dependent)


def target_ring(*names):
    t = SymbolTable()
    for n in names:
        t.even_symbol(n)
    return t


def make_simple():
    """One even coordinate, two auxiliary odds, phi(x) = x, xi_(1,2) = d/dy."""
    m = FleshMorphism(
        even_coords=("x",),
        odd_coords=("et1", "et2"),
        target_even=("y",),
        phi={"y": 0},
        xi={(1, 2): {"y": 1}},
        n_theta=0,
    )
    # phi(x) = x, set after construction via the working table
    m.phi["y"] = m.table.sym("x")
    return m


def test_pullback_quadratic_example():
    # q = 2, phi(x) = x, xi_12 = d/dy, f = y^2: e^Xi f = f + et1 et2 f'
    m = make_simple()
    y = m.table.sym("y")
    out = m.pullback_even(y ** 2)
    x = m.table.sym("x")
    e12 = m.table.sym("et1") * m.table.sym("et2")
    assert out == x ** 2 + (e12 * x).scale(2)


def test_pullback_of_one():
    m = make_simple()
    assert m.pullback_even(m.table.one()) == m.table.one()


def test_corrupt_odd_length_index_detected():
    m = make_simple()
    # plant Xi = et1 d/dy, an odd-length index the constructor refuses, into
    # the stored Xi that the pullback applies
    _, X = m.xi_fields[(1, 2)]
    m.Xi = X.scale(m.odd_monomial((1,)))
    y = m.table.sym("y")
    assert not pullback_law(m, y * y)


def test_validation_rejects_odd_length_index():
    with pytest.raises(ValueError):
        FleshMorphism(("x",), ("et1", "et2"), ("y",), {"y": 0}, {(1,): {"y": 1}}, n_theta=0)


def test_truncation_of_exp_series():
    rng = random.Random(5)
    m = random_flesh_morphism(rng, k_theta=2, L_eta=4, n_xi=5)
    y = m.table.sym("y1") * m.table.sym("y2") + m.table.sym("y2") ** 3
    # Xi^(q/2 + 1) kills everything
    cur = y
    for _ in range(m.q // 2 + 1):
        cur = m.Xi(cur)
    assert cur.is_zero()


def apply_fields(m, f):
    """sum_I o^I (xi_I f), one field at a time: the oracle for m.Xi."""
    return m.table.sum(mono * X(f) for mono, X in m.xi_fields.values())


@pytest.mark.parametrize("L_eta", [2, 3, 4])
def test_xi_is_the_sum_of_its_fields(L_eta):
    rng = random.Random(40 + L_eta)
    for _ in range(10):
        m = random_flesh_morphism(rng, k_theta=rng.randint(0, 2), L_eta=L_eta, n_xi=rng.randint(1, 5))
        y1, y2 = m.table.sym("y1"), m.table.sym("y2")
        x = m.table.sym("x1")
        th = m.table.sym(m.odd_coords[0])
        for f in (y1, y2 * y1 + x, y2 ** 3 - y1 * th * m.table.sym(m.odd_coords[-1]), m.table.one()):
            cur = f
            for _ in range(3):
                want = apply_fields(m, cur)
                got = m.Xi(cur)
                assert got == want and got.terms == want.terms
                cur = got


def test_xi_of_the_six_eta_morphism():
    # the q = 6 morphism of test_exp_series_needs_the_factorials
    m = FleshMorphism(
        even_coords=("x",),
        odd_coords=tuple(f"et{i+1}" for i in range(6)),
        target_even=("y",),
        phi={"y": 0},
        xi={(1, 2): {"y": 1}, (3, 4): {"y": 1}, (5, 6): {"y": 1}},
        n_theta=0,
    )
    cur = m.table.sym("y") ** 3 + m.table.sym("x") * m.table.sym("y")
    for _ in range(4):
        want = apply_fields(m, cur)
        assert m.Xi(cur).terms == want.terms
        cur = want
    assert cur.is_zero()


@pytest.mark.parametrize("wrong", [lambda n: 1, lambda n: n], ids=["one", "n"])
def test_exp_series_needs_the_factorials(monkeypatch, wrong):
    # q = 6 with xi_(1,2) = xi_(3,4) = xi_(5,6) = d/dy, so Xi^3 y^3 != 0 and
    # dividing by 1 or by n instead of n! breaks the pullback of y^3, while
    # the pulled-back coordinate x + Xi y needs no factorial
    m = FleshMorphism(
        even_coords=("x",),
        odd_coords=tuple(f"et{i+1}" for i in range(6)),
        target_even=("y",),
        phi={"y": 0},
        xi={(1, 2): {"y": 1}, (3, 4): {"y": 1}, (5, 6): {"y": 1}},
        n_theta=0,
    )
    m.phi["y"] = m.table.sym("x")
    y = m.table.sym("y")
    assert pullback_law(m, y ** 3)
    monkeypatch.setattr(morphisms, "factorial", wrong)
    assert not pullback_law(m, y ** 3)


# -- skeletal morphisms: odd line -------------------------------------------------

def test_point_tangent_example():
    t = target_ring("y")
    rt, pull = skeletal_pullback({"y": 2}, ({"y": 3},))
    out = pull(t.sym("y") ** 2)
    assert out == rt.scalar(4) + rt.sym("th1").scale(12)


def test_point_tangent_constant():
    t = target_ring("y")
    rt, pull = skeletal_pullback({"y": 2}, ({"y": 3},))
    assert pull(t.scalar(9)) == rt.scalar(9)


def test_point_tangent_multiplicative():
    t = target_ring("y", "z")
    rt, pull = skeletal_pullback({"y": 2, "z": -1}, ({"y": 3, "z": 5},))
    y, z = t.sym("y"), t.sym("z")
    pairs = [(y, y), (y, z), (y * z, y + z), (y ** 2, z ** 2 + y)]
    for f, g in pairs:
        assert pull(f * g) == pull(f) * pull(g)
    # (2 + 3 th)^2 = 4 + 12 th = pull(y^2)
    assert pull(y) * pull(y) == pull(y ** 2)


# -- odd plane obstruction -------------------------------------------------------

def test_odd_plane_independent_fails():
    t = target_ring("y1", "y2")
    assert not odd_plane_obstruction(t, {"y1": 0, "y2": 0}, {"y1": 1}, {"y2": 1})
    assert not vectors_dependent({"y1": 1}, {"y2": 1}, ("y1", "y2"))


def test_odd_plane_dependent_passes():
    t = target_ring("y1", "y2")
    xi = {"y1": 2, "y2": 1}
    xi2 = {"y1": 4, "y2": 2}
    assert odd_plane_obstruction(t, {"y1": 1, "y2": 2}, xi, xi2)
    assert vectors_dependent(xi, xi2, ("y1", "y2"))


def test_odd_plane_zero_vector_passes():
    t = target_ring("y1", "y2")
    assert odd_plane_obstruction(t, {"y1": 0, "y2": 0}, {}, {"y2": 7})


# -- factorization ----------------------------------------------------------------

def theta_eta_morphism(k, L, xi_spec, n_target=1):
    targets = tuple(f"y{i+1}" for i in range(n_target))
    m = FleshMorphism(
        even_coords=("x",),
        odd_coords=tuple(f"th{i+1}" for i in range(k)) + tuple(f"et{i+1}" for i in range(L)),
        target_even=targets,
        phi={n: 0 for n in targets},
        xi=xi_spec,
        n_theta=k,
    )
    for n in targets:
        m.phi[n] = m.table.sym("x")
    return m


def test_factorization_q3_shape():
    # k = 1, L = 2: Xi = xi_a et1 et2 + xi_b th et1 + xi_c th et2, constants
    m = theta_eta_morphism(1, 2, {
        (2, 3): {"y1": 2},          # et1 et2
        (1, 2): {"y1": 3},          # th1 et1
        (1, 3): {"y1": Fraction(1, 2)},  # th1 et2
    })
    groups = factorize(m)
    assert set(groups) == {(), (1,)}
    y = m.table.sym("y1")
    f = y ** 3 + y
    assert pullback_factorized(m, f) == m.pullback_even(f)


def test_factorization_identity_when_xi_zero():
    m = theta_eta_morphism(1, 2, {})
    y = m.table.sym("y1")
    assert pullback_factorized(m, y ** 2) == m.pullback_even(y ** 2) == m.table.sym("x") ** 2


def test_factorization_k2_four_factors():
    m = theta_eta_morphism(2, 2, {
        (3, 4): {"y1": 1},          # eta part: Xi_empty
        (1, 3): {"y1": 2},          # th1 eta1
        (2, 4): {"y1": -1},         # th2 eta2
        (1, 2): {"y1": 3},          # th1 th2
    })
    groups = factorize(m)
    assert set(groups) == {(), (1,), (2,), (1, 2)}
    y = m.table.sym("y1")
    for f in (y, y ** 2, y ** 3 + 2 * y):
        assert pullback_factorized(m, f) == m.pullback_even(f)


def test_noncommuting_reported():
    # xi_(1,2) = y d/dy and xi_(3,4) = d/dy do not commute
    theta_eta_morphism(0, 4, {})
    # the coefficient y1 of y1 d/dy1 and the base map x, over a chart table
    chart = SymbolTable()
    chart.even_symbol("x")
    chart.even_symbol("y1")
    m2 = FleshMorphism(
        even_coords=("x",),
        odd_coords=("et1", "et2", "et3", "et4"),
        target_even=("y1",),
        phi={"y1": chart.sym("x")},
        xi={(1, 2): {"y1": chart.sym("y1")}, (3, 4): {"y1": 1}},
        n_theta=0,
    )
    with pytest.raises(CommutationError):
        factorize(m2)


# -- component fields and nonlinear expansion -------------------------------------

def sigma_morphism(xi13_y1=1):
    """k = 2 source with chart-condition xi (components constant in y)."""
    xi = {
        (1, 3): {"y1": xi13_y1, "y2": 2},    # th1 et1
        (2, 4): {"y1": -1, "y2": 1},   # th2 et2
        (1, 2): {"y1": 2, "y2": -3},   # th1 th2 -> F
        (3, 4): {"y1": 1, "y2": 1},    # eta-only: Xi_empty
    }
    m = FleshMorphism(
        even_coords=("x",),
        odd_coords=("th1", "th2", "et1", "et2"),
        target_even=("y1", "y2"),
        phi={"y1": 0, "y2": 0},
        xi=xi,
        n_theta=2,
    )
    x = m.table.sym("x")
    m.phi["y1"] = x
    m.phi["y2"] = x ** 2
    return m


def test_component_fields_shapes():
    m = sigma_morphism()
    comps = component_fields(m)
    x = m.table.sym("x")
    e12 = m.table.sym("et1") * m.table.sym("et2")
    # phi component = bare phi + Xi_empty phi
    assert comps["y1"]["phi"] == x + e12
    assert comps["y2"]["phi"] == x ** 2 + e12
    # psi_a = Xi_a phi, F = Xi_12 phi
    assert comps["y1"]["psi1"] == m.table.sym("et1")
    assert comps["y1"]["psi2"] == -m.table.sym("et2")
    assert comps["y1"]["F"] == m.table.scalar(2)


def test_nonlinear_expansion_linear_f_no_second_derivative():
    m = sigma_morphism()
    y1 = m.table.sym("y1")
    assert nonlinear_expansion_check(m, y1.scale(3) + 5)


def test_nonlinear_expansion_quadratic_cross_term():
    m = sigma_morphism()
    f = m.table.sym("y1") * m.table.sym("y2")
    assert nonlinear_expansion_check(m, f)


def test_chart_violation_reported():
    # make xi_(1,3) depend on y1: breaks xi_I xi_J y = 0
    chart = SymbolTable()
    chart.even_symbol("y1")
    m = sigma_morphism(xi13_y1=chart.sym("y1"))
    with pytest.raises(ChartAssumptionError):
        check_chart_condition(m)


def test_xi_fields_are_built_once():
    m = sigma_morphism()
    assert m.xi_field((1, 3)) is m.xi_field((1, 3))
    assert m.xi_field((1, 3))(m.table.sym("y2")) == m.table.scalar(2)
    mono, X = m.xi_fields[(1, 3)]
    assert X is m.xi_field((1, 3)) and mono == m.table.sym("th1") * m.table.sym("et1")


def test_one_theta_component_reading():
    # Phi = x + th psi with k = 1: even part = e^(Xi_empty) y at phi, and the
    # th coefficient = e^(Xi_empty) Xi_1 y at phi
    m = FleshMorphism(
        even_coords=("x",),
        odd_coords=("th1", "et1", "et2"),
        target_even=("y",),
        phi={"y": 0},
        xi={(2, 3): {"y": 1}, (1, 2): {"y": 1}},
        n_theta=1,
    )
    x = m.table.sym("x")
    m.phi["y"] = x

    y = m.table.sym("y")
    f = y ** 2
    pb = m.pullback_even(f)
    # direct operator application
    XiE = {"y": m.table.one()}   # xi_(et1,et2)
    Xi1 = {"y": m.table.one()}   # xi_(th1,et1)
    from supergrass.kernel import Derivation, EVEN

    e12 = m.table.sym("et1") * m.table.sym("et2")
    et1 = m.table.sym("et1")
    DE = Derivation(m.table, EVEN, XiE, "XiE")
    D1 = Derivation(m.table, EVEN, Xi1, "Xi1")
    # e^(Xi_empty) f = f + e12 DE f (here DE^2 f has an (et1 et2)^2 factor)
    exp_f = f + e12 * DE(f)
    expect_even = exp_f.substitute({"y": x})
    exp_psi = (D1(f) + e12 * DE(D1(f)))
    got_th_full = pb.coefficient_of_odd(("th1",))
    want_th_full = (et1 * exp_psi).substitute({"y": x})
    assert got_th_full == want_th_full
    # even part: terms without th1
    assert pb.free_of(("th1",)) == expect_even
