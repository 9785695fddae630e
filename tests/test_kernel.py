import ast
import collections
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import supergrass
from supergrass import kernel
from supergrass.expr_io import Context, parse, poly_from_jsonable, poly_to_jsonable
from supergrass.kernel import (EVEN, MAX_EXPONENT, ODD, Derivation, ParityError, SuperPolynomial,
                               SizeLimitError, SymbolTable, TableMismatchError, cartan_triple,
                               jacobi_check, odd_field_relations_ok, odd_fields, super_bracket)
from supergrass.minkowski import r32_fields
from supergrass.scalars import QI
from supergrass.suites import grassmann_table, random_poly
from supergrass.superspace import supertime
from test_oracles import (COEFFS, KINDS, as_input, clifford, draw_poly, encode, model_table,
                          normalize_odd, parity_part, random_images)


def test_transposition_sign():
    t = grassmann_table(2, evens=())
    th1, th2 = t.sym("th1"), t.sym("th2")
    assert th2 * th1 == -(th1 * th2)


def test_odd_squares_vanish():
    t = grassmann_table(3)
    for n in ("th1", "th2", "th3"):
        s = t.sym(n)
        assert (s * s).is_zero()


def test_top_monomial_nonzero():
    t = grassmann_table(4, evens=())
    top = t.one()
    for n in ("th1", "th2", "th3", "th4"):
        top = top * t.sym(n)
    assert not top.is_zero()


def test_clifford_square_contracts():
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    e = t.sym("eps")
    assert e * e == t.scalar(-1)


def test_a_clifford_generator_squares_to_minus_one_only():
    t = SymbolTable("QQi")
    for square in (2, -1, 0, Fraction(1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="squares to -1"):
            t.clifford_symbol("e", square)
    assert "e" not in t
    assert t.clifford_symbol("e", 1).square == t.clifford_symbol("f").square == 1


def test_clifford_envelope_is_complex_plane():
    # (a + b eps)(c + d eps) = (ac - bd) + (ad + bc) eps
    t = SymbolTable()
    for n in ("a", "b", "c", "d"):
        t.even_symbol(n)
    t.clifford_symbol("eps", 1)
    a, b, c, d, e = (t.sym(n) for n in ("a", "b", "c", "d", "eps"))
    lhs = (a + b * e) * (c + d * e)
    rhs = (a * c - b * d) + (a * d + b * c) * e
    assert lhs == rhs


def test_table_mismatch_raises():
    t1 = grassmann_table(1)
    t2 = grassmann_table(1)
    with pytest.raises(TableMismatchError):
        _ = t1.sym("th1") * t2.sym("th1")


def test_derivation_refuses_an_image_over_another_table():
    t, u = SymbolTable(), SymbolTable()
    for n in ("x", "y"):
        t.even_symbol(n)
    for n in ("y", "x"):
        u.even_symbol(n)
    # u packs x in the field t gives y, so the image would be read as y
    with pytest.raises(TableMismatchError):
        Derivation(t, EVEN, {"x": u.sym("x")})
    assert Derivation(t, EVEN, {"x": 3})(t.sym("x") ** 2) == t.sym("x").scale(6)


def test_empty_operand_returns_an_operand_without_a_copy():
    t = grassmann_table(2)
    f, zero = t.sym("x") * t.sym("th1") + t.sym("th2"), t.zero()
    assert f + zero is f and zero + f is f and f - zero is f
    assert f * zero is zero and zero * f is zero
    other = grassmann_table(2)
    with pytest.raises(TableMismatchError):
        f + other.zero()
    with pytest.raises(TableMismatchError):
        zero * other.sym("x")


def test_coefficient_of_odd_reordered_extraction_sign():
    t = grassmann_table(3, evens=())
    th1, th2, th3 = (t.sym(f"th{i}") for i in (1, 2, 3))
    m = th1 * th2 * th3
    assert m.coefficient_of_odd(("th3", "th1")) == th2
    assert m.coefficient_of_odd(("th2", "th1")) == -th3
    assert m.coefficient_of_odd(("th3", "th2", "th1")) == -t.one()
    # the extracted factors, put back in front in the requested order, give m
    for r in (1, 2, 3):
        for names in itertools.permutations(("th1", "th2", "th3"), r):
            front = t.one()
            for n in names:
                front = front * t.sym(n)
            assert front * m.coefficient_of_odd(names) == m, names
    with pytest.raises(ValueError, match="repeated"):
        m.coefficient_of_odd(("th1", "th1"))


def test_clifford_mixed_ordering_sign():
    # eps anticommutes with odd generators and eps^2 = -1 inside monomials
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    t.odd_symbol("et1")
    t.odd_symbol("et2")
    e, n1, n2 = t.sym("eps"), t.sym("et1"), t.sym("et2")
    assert n1 * e == -(e * n1)
    assert (n1 * e) * (n2 * e) == n1 * n2  # two eps transpositions cancel, eps^2 = -1
    assert (e * n1) * (e * n2) == n1 * n2


def test_odd_derivative_sign_rule():
    # left action: d/dth2 (th1 th2) = -th1, d/dth1 (th1 th2) = th2
    t = grassmann_table(2, evens=())
    d2 = Derivation(t, ODD, {"th2": 1}, "d2")
    d1 = Derivation(t, ODD, {"th1": 1}, "d1")
    m = t.sym("th1") * t.sym("th2")
    assert d2(m) == -t.sym("th1")
    assert d1(m) == t.sym("th2")


def test_even_derivative_ignores_odd_part():
    t = grassmann_table(1)
    dx = Derivation(t, EVEN, {"x": 1}, "dx")
    f = t.sym("x") ** 2 * t.sym("th1")
    assert dx(f) == 2 * t.sym("x") * t.sym("th1")


def test_bracket_even_self_commutes():
    t = grassmann_table(1)
    dx = Derivation(t, EVEN, {"x": 1}, "dx")
    assert super_bracket(dx, dx).is_zero()


def test_supertime_brackets_on_r11():
    t = SymbolTable()
    t.even_symbol("t")
    t.odd_symbol("th")
    th = t.sym("th")
    dt = Derivation(t, EVEN, {"t": 1}, "dt")
    D = Derivation(t, ODD, {"th": t.one(), "t": -th}, "D")
    tau = Derivation(t, ODD, {"th": t.one(), "t": th}, "tau")
    assert super_bracket(D, D) == dt.scale(-2)
    assert super_bracket(D, tau).is_zero()
    assert super_bracket(D, dt).is_zero()
    assert super_bracket(tau, dt).is_zero()
    assert jacobi_check(D, tau, dt)


def test_odd_field_law_fails_for_a_theta_in_T():
    """Negative control: T = dt + th et1 dt does not commute with th."""
    dom, ops = supertime()
    dt = ops["dt"]
    assert odd_field_relations_ok(dom.table, ("th",), {("th", "th"): dt})
    bad = dt + dt.scale(dom.sym("th") * dom.sym("et1"))
    assert not odd_field_relations_ok(dom.table, ("th",), {("th", "th"): bad})


def test_odd_field_law_fails_for_an_asymmetric_T():
    """Negative control: the r32 pairing with T_21 replaced by T_11; only
    the pairs a <= b are compared, so the asymmetry must show there."""
    t, T, _ = r32_fields()
    assert odd_field_relations_ok(t, ("th1", "th2"), T)
    T = dict(T)
    T["th2", "th1"] = T["th1", "th1"]
    assert not odd_field_relations_ok(t, ("th1", "th2"), T)


def test_jacobi_for_coordinate_derivations():
    t = grassmann_table(0, evens=("x", "y", "z"))
    dx = Derivation(t, EVEN, {"x": 1})
    dy = Derivation(t, EVEN, {"y": 1})
    dz = Derivation(t, EVEN, {"z": 1})
    assert jacobi_check(dx, dy, dz)


def test_tensoring_trick():
    # for odd X, Y and distinct flesh generators:
    # ordinary commutator [et1 X, et2 Y] = -et1 et2 [X,Y](super)
    t = SymbolTable()
    t.even_symbol("t")
    t.odd_symbol("th")
    t.odd_symbol("et1")
    t.odd_symbol("et2")
    th = t.sym("th")
    D = Derivation(t, ODD, {"th": t.one(), "t": -th}, "D")
    tau = Derivation(t, ODD, {"th": t.one(), "t": th}, "tau")
    e1, e2 = t.sym("et1"), t.sym("et2")
    for X, Y in [(D, D), (D, tau), (tau, tau)]:
        lhs = super_bracket(X.scale(e1), Y.scale(e2))  # both even: true commutator
        rhs = super_bracket(X, Y).scale(-(e1 * e2))
        assert lhs == rhs


def test_parity_error_on_bad_image():
    t = grassmann_table(1)
    with pytest.raises(ParityError):
        Derivation(t, EVEN, {"th1": 1})  # even operator can't send odd to even


def test_monomial_refuses_a_name_of_the_other_parity():
    t = grassmann_table(1)
    with pytest.raises(ParityError):
        t.monomial(1, [("th1", 1)])
    with pytest.raises(ParityError):
        t.monomial(1, (), ["x"])


def test_zero_polynomial_parity_is_wildcard():
    t = grassmann_table(1)
    assert t.zero().parity() is None


def test_cartan_lie_of_x_dx():
    # xi = d/dx on R^1: Lie(x dx) = dx
    table, d, iota, lie = cartan_triple(1, [lambda t: t.one()])
    x, dx = table.sym("x1"), table.sym("dx1")
    assert lie(x * dx) == dx
    assert d(d(x * dx)).is_zero()


def test_cartan_zero_field():
    table, d, iota, lie = cartan_triple(1, [lambda t: t.zero()])
    assert lie.is_zero()


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_made_derivations_equal_their_public_twins(kind):
    """Brackets, sums, differences and multiples skip the constructor's
    checks; each must equal its twin built through the constructor from its
    values on every generator: the same images, parity and empty label, and
    no empty image stored.  X and Y of both parities over the model tables,
    Clifford generators among them; X - X cancels everywhere."""
    t = model_table(kind)
    gens = [s.name for s in t.symbols]
    for draw in range(8):
        rng = random.Random(f"twins-{kind}:{draw}")
        gx, gy = rng.randint(0, 1), rng.randint(0, 1)
        X, Y, Z = (Derivation(t, g, {t.symbols[i].name: encode(t, v)
                                     for i, v in random_images(t, rng, g).items()}, label)
                   for g, label in ((gx, "X"), (gy, "Y"), (gx, "Z")))
        c = as_input(rng.choice(COEFFS + [(Fraction(0), Fraction(0))]), rng)
        gp = rng.randint(0, 1)
        p = encode(t, parity_part(draw_poly(t, rng, 2, big=False), gp))
        sign = 1 if gx and gy else -1
        made = [
            (super_bracket(X, Y), (gx + gy) % 2, lambda g: X(Y(g)) + Y(X(g)).scale(sign)),
            (X + Z, gx, lambda g: X(g) + Z(g)),
            (X - Z, gx, lambda g: X(g) - Z(g)),
            (X - X, gx, lambda g: t.zero()),
            (X.scale(c), gx, lambda g: X(g).scale(c)),
            (X.scale(p), (gx + gp) % 2 if p else gx, lambda g: p * X(g)),
        ]
        for k, (d, parity, value) in enumerate(made):
            twin = Derivation(t, parity, {n: value(t.sym(n)) for n in gens})
            assert (d.images, d.parity, d.label) == (twin.images, twin.parity, ""), (kind, draw, k)
            assert all(d.images.values()), (kind, draw, k)


def test_cancelling_brackets_store_no_image():
    """[D_a, tau_b] = 0 for the odd fields of a pairing, and [d, d] = 0 for
    the de Rham d: every image cancels, so none is stored."""
    t, T, _ = r32_fields()
    thetas = ("th1", "th2")
    D, tau = odd_fields(t, thetas, T, -1), odd_fields(t, thetas, T, 1)
    assert all(super_bracket(x, y).is_zero() for x in D for y in tau)
    assert not super_bracket(D[0], D[0]).is_zero()
    table, d, _, lie = cartan_triple(2, [lambda t: t.sym("x1") * t.sym("x2"), lambda t: t.sym("x2")])
    assert super_bracket(d, d).is_zero() and super_bracket(d, d).images == {}
    assert super_bracket(d, lie).is_zero()


def test_derivations_over_two_tables_do_not_add():
    t, u = grassmann_table(1), grassmann_table(1)
    with pytest.raises(TableMismatchError):
        Derivation(t, EVEN, {"x": 1}) + Derivation(u, EVEN, {"x": 1})


def test_substitution_is_ring_morphism():
    rng = random.Random(5)
    t = grassmann_table(2)
    # theta -> theta + eta style shift inside one table, and an even image
    # with a soul, which goes through the cached even path
    images = {"th1": t.sym("th1") + t.sym("th2").scale(2),
              "x": t.sym("x") + t.sym("th1") * t.sym("th2")}
    for _ in range(30):
        f = random_poly(t, rng)
        g = random_poly(t, rng)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


def test_power_operator():
    t = grassmann_table(1)
    x = t.sym("x")
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert (x + 1) ** 0 == t.one()


def test_every_table_is_over_the_gaussian_rationals():
    with pytest.raises(ValueError):
        SymbolTable("QQ")
    for t in (SymbolTable("QQi"), SymbolTable()):
        t.even_symbol("x")
        assert (t.sym("x").scale(QI(0, 1)) ** 2).scale(-1) == t.sym("x") ** 2


def test_integral_coefficients_are_stored_as_int():
    t = SymbolTable()
    t.even_symbol("x")
    t.clifford_symbol("eps", 1)
    for i in range(4):
        t.odd_symbol(f"th{i+1}")
    for p in [t.one(), t.scalar(Fraction(6, 3))] + [t.sym(n) for n in t.names()]:
        assert all(type(c) is int for c in p.terms.values()), p
    rng = random.Random(9)
    names = t.names()
    for _ in range(50):
        f, g = (sum((t.monomial(rng.randint(-3, 3), [("x", rng.randint(0, 2))],
                                [n for n in names[1:] if rng.random() < 0.5])
                     for _ in range(4)), t.zero()) for _ in range(2))
        X = Derivation(t, ODD, {"th1": t.sym("x"), "x": t.sym("th2") * 3})
        for p in (f * g, g * f, f - g, X(f * g)):
            assert all(type(c) is int for c in p.terms.values()), p
    # integral results of Fraction arithmetic: a product, a sum, scale, and
    # derivation images through an even factor of power 2 with the image
    # 1/2 and through the image -1/2*eps contracting with eps in 2*eps*th1
    half = t.scalar(Fraction(1, 2))
    x, eps, th1 = t.sym("x"), t.sym("eps"), t.sym("th1")
    X = Derivation(t, EVEN, {"x": half})
    Z = Derivation(t, EVEN, {"th1": eps.scale(Fraction(-1, 2))})
    for p in (half * t.scalar(4), half + half, half.scale(6), (x * th1).scale(Fraction(1, 2)).scale(4),
              X(x ** 2 * th1), Z(eps * th1 * 2), Z(th1 * eps * 2)):
        assert p.terms and all(type(c) is int for c in p.terms.values()), p
    assert X(x ** 2 * th1) == x * th1 and Z(eps * th1 * 2) == t.one()


def _stored_form_violations():
    """The results, by operation, whose term dict or constant term holds a
    value other than an int or a QI that is not a rational integer.  Each
    operation meets non-integral Fractions and QIs and has some results
    that are integral."""
    t = _qi_table()
    half = Fraction(1, 2)
    x, y, th1, eps = t.sym("x"), t.sym("y"), t.sym("th1"), t.sym("eps")
    f = (t.monomial(half, [("x", 2)], ["th1"]) + t.monomial(QI(half, 2), [("y", 1)])
         + t.monomial(Fraction(4, 2), [], ["eps"]) + t.scalar(Fraction(3, 4)))
    g = t.monomial(Fraction(2, 3), [("x", 1)]) - t.monomial(Fraction(3, 2), [], ["th2"]) + QI(0, half)
    X = Derivation(t, EVEN, {"x": t.scalar(half), "th1": eps.scale(Fraction(-1, 2))})
    ctx = Context(t, ("th1",))
    cases = {
        "monomial": [t.monomial(Fraction(6, 4), [("x", 1)]), t.monomial(QI(2, 0), [], ["th1"]),
                     t.monomial(QI(0, 1), [], ["eps", "eps"])],
        "+": [f + g, t.scalar(half) + t.scalar(half), g + g],
        "-": [f - g, t.scalar(QI(Fraction(5, 2), 1)) - t.scalar(QI(half, 1))],
        "*": [f * g, g * g, t.scalar(half) * t.scalar(4), t.scalar(QI(0, 1)) * QI(0, 1)],
        "scale": [f.scale(Fraction(2, 3)), f.scale(Fraction(4)), g.scale(QI(0, 2))],
        "**": [f ** 2, g ** 3, x.scale(half) ** 3, x.scale(QI(0, 1)) ** 2, (y + QI(0, 1)) ** 2],
        "substitute": [f.substitute({"x": y.scale(half), "th1": eps.scale(QI(0, 2))})],
        "eval_even": [f.eval_even({"x": Fraction(2), "y": Fraction(1, 2)}),
                      g.eval_even({"x": Fraction(3, 2)})],
        "diff_even": [f.diff_even("x"), (x ** 3).scale(Fraction(1, 3)).diff_even("x")],
        "integrate_even": [f.integrate_even("x", 0, Fraction(2)),
                           g.integrate_even("y", Fraction(-1, 2), half)],
        "coefficient_of_odd": [f.coefficient_of_odd(["th1"]), (f * g).coefficient_of_odd(["th2"])],
        "derivation": [X(f * g), X(x ** 2 * th1), X(eps * th1 * 2)],
        "poly_from_jsonable": [poly_from_jsonable(poly_to_jsonable(f * g), t)],
        "dsl": [ctx.evaluate(parse(s)) for s in (
            "6/4*x*2/3 + (1/2 + I)^2*th1 - 4/2*I*I", "ber(3/2*th1*th2) + 1/2*x*4/2*2",
            "(2/4*x)^3 - 1/8*x^3 + 6/4*I*x*I")],
    }
    bad = []
    for op, results in cases.items():
        for p in results:
            if not all(type(c) is int or type(c) is QI and not (c.im == 0 and c.re.denominator == 1)
                       for c in [*p.terms.values(), p.constant_term()]):
                bad.append((op, str(p)))
    return bad


def test_every_stored_coefficient_is_an_int_or_a_non_integral_qi():
    assert _stored_form_violations() == []


def test_a_rule_that_keeps_an_integral_qi_is_caught(monkeypatch):
    """Negative control: a rule that stores an integral QI as it is keeps
    every value right, and the stored-form check must still see it."""
    rule = kernel.normalize
    monkeypatch.setattr(kernel, "normalize", lambda c: c if type(c) is QI else rule(c))
    bad = {op for op, _ in _stored_form_violations()}
    assert {"monomial", "+", "-", "*", "scale", "**", "eval_even", "derivation", "dsl"} <= bad


def test_unit_scaling_returns_the_polynomial_or_its_negative():
    t = grassmann_table(2)
    f = t.sym("x") * t.sym("th1") + t.sym("th2").scale(Fraction(1, 3))
    assert f.scale(1) is f and f.scale(Fraction(2, 2)) is f
    assert f.scale(-1) == -f == f.scale(QI(-1, 0))
    assert (f * 1) is f and (-1 * f).terms == (-f).terms


def test_coefficient_types_compare_and_hash_alike():
    t = grassmann_table(2)
    # the kernel's own keys of 1, x^2*th1 and th1*th2, each stored with an
    # int, a Fraction and a QI coefficient
    keys = [next(iter(t.monomial(1, ev, od).terms))
            for ev, od in (((), ()), ((("x", 2),), ("th1",)), ((), ("th1", "th2")))]
    values = [3, -1, Fraction(1, 2)]
    as_int = SuperPolynomial(t, dict(zip(keys, values)))
    as_frac = SuperPolynomial(t, {k: Fraction(v) for k, v in zip(keys, values)})
    as_qi = SuperPolynomial(t, {k: QI(v, 0) for k, v in zip(keys, values)})
    for p, q in itertools.combinations((as_int, as_frac, as_qi), 2):
        assert p == q and hash(p) == hash(q)
        assert p - q == t.zero()
        assert str(p) == str(q)
    assert 3 == Fraction(3) == QI(3, 0) and hash(3) == hash(Fraction(3)) == hash(QI(3, 0))
    assert t.scalar(QI(3, 0)) == t.scalar(3) == 3


# ---------------------------------------------------------------------------
# contracts of the accumulators and of substitute; tests/test_oracles.py
# holds each operation to the naive model
# ---------------------------------------------------------------------------

def _qi_table():
    t = SymbolTable()
    for n in ("x", "y"):
        t.even_symbol(n)
    t.odd_symbol("th1")
    t.clifford_symbol("eps", 1)
    t.odd_symbol("th2")
    t.odd_symbol("th3")
    return t


def test_substitute_refuses_an_image_it_cannot_place():
    """Images over two tables, a symbol left without an image in another
    table and a symbol of another parity there are refused.  A polynomial
    over a table without symbols has no image to name the target table, so
    substitute returns it and adopt moves the scalar itself."""
    t = _qi_table()
    u = SymbolTable()
    for n in ("x", "y"):
        u.even_symbol(n)
    u.odd_symbol("th1")
    xy = t.sym("x") * t.sym("y")
    with pytest.raises(TableMismatchError):
        xy.substitute({"x": u.sym("x"), "y": t.sym("y")})
    with pytest.raises(TableMismatchError, match="no image for 'y'"):
        xy.substitute({"x": u.sym("x")})
    with pytest.raises(TableMismatchError, match="no image for 'th2'"):
        (t.sym("th1") * t.sym("th2")).substitute({"th1": u.sym("th1")})
    # x odd in v: moved by name it would be an odd symbol under an even key
    v = SymbolTable()
    v.odd_symbol("x")
    v.odd_symbol("th1")
    with pytest.raises(TableMismatchError, match="no image for 'x'"):
        (t.sym("x") * t.sym("th1")).substitute({"th1": v.sym("th1")})
    with pytest.raises(ParityError):
        v.adopt(t.sym("x") * t.sym("th1"))
    from supergrass.morphisms import FleshMorphism

    bare = SymbolTable().scalar(QI(1, 2))
    assert bare.substitute({}) is bare
    assert u.adopt(bare).table is u and u.adopt(bare) == u.scalar(QI(1, 2))
    assert u.adopt(Fraction(3, 2)) == u.scalar(Fraction(3, 2)) and u.adopt(0).is_zero()
    m = FleshMorphism(("x",), ("th1",), ("y",), {"y": SymbolTable().scalar(3)}, {})
    assert m.phi["y"].table is m.table and m.phi["y"] == m.table.scalar(3)


def test_substitute_checks_the_term_budget():
    t = SymbolTable()
    for n in ("x", "y", "a", "b"):
        t.even_symbol(n)
    images = {"x": t.sum(t.monomial(1, [("a", k)]) for k in range(400)),
              "y": t.sum(t.monomial(1, [("b", k)]) for k in range(400))}
    msg = "a product of 400 by 400 terms exceeds the budget of 100000 term pairs"
    with pytest.raises(SizeLimitError, match=msg):
        (t.sym("x") * t.sym("y")).substitute(images)


def test_accumulator_cancels_to_absent_key():
    t = _qi_table()
    x, th1, th2, eps = (t.sym(n) for n in ("x", "th1", "th2", "eps"))
    x2 = [((((0, 2),), ()), 1)]
    # the cross terms of each product cancel, and their keys must go
    assert ((x + eps * th1) * (x - eps * th1)).terms_sorted() == x2
    assert ((x + (th1 * th2).scale(QI(0, 1))) * (x - (th1 * th2).scale(QI(0, 1)))).terms_sorted() == x2
    assert (x * th1 + th1 * x.scale(-1)).terms_sorted() == []
    assert (x * x * th1).diff_even("x").coefficient_of_odd(("th1",)).terms_sorted() == [((((0, 1),), ()), 2)]


def test_sum_refuses_a_polynomial_over_another_table():
    t, u = _qi_table(), _qi_table()
    assert t.sum([]) == t.zero() and t.sum([]).table is t
    with pytest.raises(TableMismatchError):
        t.sum([t.sym("x"), u.sym("x")])


def test_slot_product_checks_each_slot(monkeypatch):
    """A nonzero slot over another table raises TableMismatchError, on
    either side; the largest left slot times the largest right slot beyond
    MAX_TERM_PAIRS raises SizeLimitError before any term is formed, even
    when the first slot pair would pass."""
    t, u = _qi_table(), _qi_table()
    x, th1, zero = t.sym("x"), t.sym("th1"), t.zero()
    rows = [[(0, False), (1, False)], [(1, False), (0, True)]]
    assert t.slot_product(rows, [x, zero], [th1, u.zero()], zero) == [x * th1, zero]
    for left, right in (([x, u.sym("th1")], [th1, x]), ([x, th1], [u.sym("x"), th1])):
        with pytest.raises(TableMismatchError):
            t.slot_product(rows, left, right, zero)
    big = t.sum(t.monomial(1, [("x", k)]) for k in range(400))
    formed = []
    add_term = kernel._add_term
    monkeypatch.setattr(kernel, "_add_term", lambda *a: formed.append(a) or add_term(*a))
    msg = "a product of 400 by 400 terms exceeds the budget of 100000 term pairs"
    for left, right in (([x, big], [big, th1]), ([big, x], [th1, big])):
        with pytest.raises(SizeLimitError, match=msg):
            t.slot_product(rows, left, right, zero)
    assert formed == []


def test_a_gaussian_base_counts_against_the_coefficient_budget():
    # |1 + I| = 2^(1/2), so (1+I)^n has parts of n/2 bits; each part of
    # 1 + I alone fits in one bit
    t = SymbolTable()
    t.even_symbol("x")
    x = t.sym("x")
    start = time.process_time()
    for base in (QI(1, 1), QI(1, -1), QI(Fraction(1, 2), 1), QI(-3, 2)):
        with pytest.raises(SizeLimitError, match="coefficient budget"):
            t.scalar(base) ** 99_999_999
        with pytest.raises(SizeLimitError, match="coefficient budget"):
            x.scale(base) ** 99_999_999
    assert time.process_time() - start < 0.5
    # a unit or a small base still powers up
    assert t.scalar(QI(0, 1)) ** 1_000_000 == 1
    assert t.scalar(-1) ** 1_000_001 == -1
    assert t.scalar(QI(1, 1)) ** 1000 == t.scalar(2 ** 500)
    # (1+I)^2 = 2*I: the estimate n*(2 - 1) meets the budget at n = 2^16
    assert t.scalar(QI(1, 1)) ** 65_536 == t.scalar(2 ** 32_768)
    with pytest.raises(SizeLimitError):
        t.scalar(QI(1, 1)) ** 65_537
    with pytest.raises(SizeLimitError):
        t.scalar(2 ** 9999) ** 9999


def test_term_dict_is_read_only_by_the_listed_functions():
    """Outside the kernel and the expr_io codec, no function reads the
    private term dict of a SuperPolynomial or builds one from a dict; all
    go through its projections, so packed keys change two modules only."""
    readers = set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                scan(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "terms":
                readers.add(".".join(scope))
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "SuperPolynomial"):
                readers.add(".".join(scope))
            scan(child, scope)

    for path in sorted(Path(supergrass.__file__).parent.glob("*.py")):
        if path.name not in ("kernel.py", "expr_io.py"):
            scan(ast.parse(path.read_text()), (path.stem,))
    assert readers == set()


def test_only_the_kernel_builds_a_term_dict():
    """No module but the kernel calls the SuperPolynomial constructor: the
    DSL evaluator and the JSON decoder build terms through SymbolTable."""
    builders = set()
    for path in sorted(Path(supergrass.__file__).parent.glob("*.py")):
        if path.name != "kernel.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "SuperPolynomial"):
                    builders.add(path.stem)
    assert builders == set()


def test_only_the_edges_import_fractions():
    """Past the input edge a rational is an int or a real QI: only the
    scalars, the kernel's operand checks, the CLI's --box reader and the
    suites' odd-plane draws import `fractions`, and scalars keeps no
    Fraction-valued reader (`frac`, `rational_part`)."""
    importers, scalar_defs = set(), set()
    for path in sorted(Path(supergrass.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions"
                    or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)):
                importers.add(path.stem)
        if path.stem == "scalars":
            scalar_defs = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert importers <= {"scalars", "kernel", "cli", "suites"}, importers
    assert not scalar_defs & {"frac", "rational_part"}


# ---------------------------------------------------------------------------
# packed even keys: the exponent budget
# ---------------------------------------------------------------------------

_BUDGET = f"exponent budget of {MAX_EXPONENT}"


def test_exponent_budget_bounds_each_even_power():
    t = _qi_table()
    x, y, th1 = t.sym("x"), t.sym("y"), t.sym("th1")
    top = x ** MAX_EXPONENT
    assert str(top * y ** MAX_EXPONENT) == "x^4294967295*y^4294967295"
    assert top.terms_sorted() == [((((0, MAX_EXPONENT),), ()), 1)]
    assert (top * y).diff_even("x").terms_sorted() == [((((0, MAX_EXPONENT - 1), (1, 1)), ()), MAX_EXPONENT)]
    for build in (lambda: t.monomial(1, [("x", MAX_EXPONENT + 1)]),
                  lambda: t.monomial(1, [("x", MAX_EXPONENT), ("y", 1), ("x", 1)]),
                  lambda: t.monomial(1, [("x", 3 << 32)]),
                  lambda: top * x,  # a product of terms
                  lambda: (x ** 3_000_000_000) ** 2,  # the one-term power
                  lambda: (x ** 3_000_000_000 + th1) ** 2,  # a square of two terms
                  lambda: Derivation(t, EVEN, {"x": x * x})(top),  # an even factor
                  lambda: Derivation(t, ODD, {"th1": x})(top * th1),  # an odd factor
                  lambda: (top * y).substitute({"y": x}),  # an unnamed even part
                  lambda: poly_from_jsonable(
                      {"terms": [{"coeff": "1", "even": {"x": MAX_EXPONENT + 1}, "odd": []}]}, t)):
        with pytest.raises(SizeLimitError, match=_BUDGET):
            build()


def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("n", [3, 9, 40, 70, 130])
def test_odd_mul_against_an_inversion_count(n):
    """kernel._odd_mul on bitmasks agrees with the model's normalizer, which counts
    the inversions of the concatenation one adjacent transposition at a
    time, on the model table of width n (even symbols between the odd ones,
    Clifford generators declared after the prefix-parity memo holds
    entries): None on a repeated nilpotent generator, else the sign bit and
    the XOR."""
    rng = random.Random(n)
    t = model_table(f"w{n}")
    cl = clifford(t)
    odd = [s.index for s in t.symbols if s.parity == ODD]
    late = {s.index for s in t.symbols if s.name.startswith("late")}
    outcomes = collections.Counter()
    for _ in range(1600):
        density = rng.choice((0.1, 0.3, 0.6))
        o1 = [i for i in odd if rng.random() < density]
        # o2 mostly repeats Clifford generators only, so that most products
        # survive; a repeated nilpotent generator is drawn now and then
        o2 = [i for i in odd if rng.random() < density and (i not in o1 or i in cl or rng.random() < 0.05)]
        if rng.random() < 0.5:  # a late symbol on both sides
            both = rng.choice(sorted(late))
            o1, o2 = sorted(set(o1) | {both}), sorted(set(o2) | {both})
        for i in set(o1) & set(o2):
            outcomes[i in late, i in cl] += 1
        got, want = kernel._odd_mul(_mask(o1), _mask(o2), t), normalize_odd(o1 + o2, cl)
        if want is None:
            assert got is None, (o1, o2)
            outcomes["zero"] += 1
            continue
        sign, merged = want
        assert got == ((1 - sign) // 2, _mask(merged)), (o1, o2)
        outcomes["minus" if sign < 0 else "plus"] += 1
    assert outcomes["zero"] > 30 and outcomes["minus"] > 100 and outcomes["plus"] > 100, outcomes
    assert outcomes[True, False] and outcomes[True, True], outcomes  # each kind of late symbol repeated
    if n > 3:
        assert outcomes[False, False] and outcomes[False, True] > 100, outcomes
