import ast
import collections
import itertools
import random
import time
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

import supergrass
from supergrass import kernel
from supergrass.indices import merge_sign
from supergrass.expr_io import Context, parse, poly_from_jsonable, poly_to_jsonable
from supergrass.kernel import (EVEN, MAX_DEGREE, MAX_EXPONENT, ODD, Derivation, ParityError,
                               SuperPolynomial, SizeLimitError, SymbolTable, TableMismatchError,
                               _odd_mul, cartan_triple, jacobi_check, odd_field_relations_ok,
                               super_bracket)
from supergrass.minkowski import r32_fields
from supergrass.scalars import QI
from supergrass.suites import grassmann_table, random_poly
from supergrass.superspace import supertime


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
    """The results, by operation, whose term dict holds a value other than an
    int or a QI that is not a rational integer, or whose real constant term
    reads back as other than an int or a Fraction.  Each operation meets
    non-integral Fractions and QIs and has some results that are integral."""
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
            stored = all(type(c) is int or type(c) is QI and not (c.im == 0 and c.re.denominator == 1)
                         for c in p.terms.values())
            s = p.scalar_part()
            plain = type(s) in (int, Fraction) or type(s) is QI and s.im != 0
            if not (stored and plain):
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
# projections, cross-table copies and the one-dict accumulators against the
# per-term loops they replaced, over QI coefficients with a Clifford generator
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


def _random_qi_poly(t, rng, nterms=6):
    odd = [s.name for s in t.symbols if s.parity == ODD]
    p = t.zero()
    for _ in range(nterms):
        im = rng.choice([0, 0, 1, Fraction(-1, 2)])
        c = QI(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), im)
        ev = [(n, rng.randint(0, 2)) for n in ("x", "y") if rng.random() < 0.6]
        od = [n for n in odd if rng.random() < 0.5]
        p = p + t.monomial(c, ev, rng.sample(od, len(od)))
    return p


def _nonzero_terms(p):
    return all(c for c in p.terms.values())


def _term(table, ev, od, c):
    """c times one monomial, given as the (index, power) pairs and the odd
    indices that terms_sorted yields."""
    names = table.symbols
    return table.monomial(c, [(names[i].name, e) for i, e in ev], [names[i].name for i in od])


def _free_of_oracle(p, names):
    # the per-term filter of the former models._theta_free and morphisms._strip
    idx = {p.table.symbol(n).index for n in names}
    out = p.table.zero()
    for (ev, od), c in p.terms_sorted():
        if any(i in idx for i in od) or any(i in idx for i, _ in ev):
            continue
        out = out + _term(p.table, ev, od, c)
    return out


def _parity_part_oracle(p, parity):
    # the former loop of suites.random_homogeneous
    out = p.table.zero()
    for (ev, od), c in p.terms_sorted():
        if len(od) % 2 == parity:
            out = out + _term(p.table, ev, od, c)
    return out


def _support_oracle(p):
    # the former even and odd scans of FieldSystem._check_order
    seen = set()
    for (ev, od), _ in p.terms_sorted():
        for i, _e in ev:
            seen.add(i)
        for i in od:
            seen.add(i)
    return [p.table.symbols[i] for i in sorted(seen)]


def _copy_oracle(p, table, images):
    # the former FleshMorphism._lift and superspace._transport, now
    # SymbolTable.adopt: rebuild each term factor by factor, a symbol
    # without an image going over by name
    out = table.zero()
    for (ev, od), c in p.terms_sorted():
        term = table.scalar(c)
        for i, e in ev:
            name = p.table.symbols[i].name
            term = term * (images[name] if name in images else table.sym(name)) ** e
        for i in od:
            name = p.table.symbols[i].name
            term = term * (images[name] if name in images else table.sym(name))
        out = out + term
    return out


def _derivation_oracle(X, f):
    # the former Derivation.__call__, which summed with out = out + ...
    table = X.table
    out = table.zero()
    for (ev, od), c in f.terms_sorted():
        for j, (i, p) in enumerate(ev):
            img = X.images.get(i)
            if img is None:
                continue
            nev = list(ev)
            if p == 1:
                del nev[j]
            else:
                nev[j] = (i, p - 1)
            left = _term(table, nev, (), c * p)
            out = out + left * img * _term(table, (), od, 1)
        for j, i in enumerate(od):
            img = X.images.get(i)
            if img is None:
                continue
            cc = -c if (X.parity and (j & 1)) else c
            left = _term(table, ev, od[:j], cc)
            out = out + left * img * _term(table, (), od[j + 1:], 1)
    return out


def _two_clifford_table():
    # Clifford generators on both sides of a middle odd generator
    t = SymbolTable()
    for n in ("x", "y"):
        t.even_symbol(n)
    t.clifford_symbol("eps1", 1)
    t.odd_symbol("th1")
    t.clifford_symbol("eps2", 1)
    t.odd_symbol("th2")
    return t


def _random_derivation(t, rng, parity):
    images = {}
    for s in t.symbols:
        if rng.random() < 0.6:
            images[s.name] = _random_qi_poly(t, rng, 3).parity_part((s.parity + parity) % 2)
    return Derivation(t, parity, images)


def test_projections_against_per_term_loops():
    rng = random.Random(11)
    t = _qi_table()
    name_sets = [(), ("th1",), ("x",), ("eps", "y"), ("th2", "th3", "x")]
    for _ in range(40):
        f = _random_qi_poly(t, rng)
        for names in name_sets:
            kept = f.free_of(names)
            assert kept == _free_of_oracle(f, names) and _nonzero_terms(kept)
            # the complement is a sum that cancels every kept key
            rest = f - kept
            assert _nonzero_terms(rest)
            assert rest.free_of(names).is_zero()
            assert not set(rest.terms) & set(kept.terms)
        assert f.free_of(()) == f
        for g in (0, 1):
            part = f.parity_part(g)
            assert part == _parity_part_oracle(f, g) and _nonzero_terms(part)
        assert f.parity_part(0) + f.parity_part(1) == f
        assert f.support() == _support_oracle(f)
        parts = f.odd_components()
        odd = [s.name for s in t.symbols if s.parity == ODD]
        for names, part in parts.items():
            assert part == f.coefficient_of_odd(names).free_of(odd) and _nonzero_terms(part)
        assert t.sum(part * t.monomial(1, (), names) for names, part in parts.items()) == f
    assert t.zero().odd_components() == {}
    assert t.zero().support() == [] and t.scalar(QI(1, 2)).support() == []


def test_cross_table_substitute_against_rebuild():
    rng = random.Random(12)
    t = _qi_table()
    # the same names in another declaration order, plus symbols t lacks
    u = SymbolTable()
    u.odd_symbol("th3")
    u.even_symbol("z")
    u.clifford_symbol("eps", 1)
    u.odd_symbol("th1")
    u.even_symbol("y")
    u.even_symbol("x")
    u.odd_symbol("th2")
    u.odd_symbol("et")
    for _ in range(30):
        f = _random_qi_poly(t, rng)
        copy = f.substitute({s.name: u.sym(s.name) for s in f.support()})
        assert copy.table is u and _nonzero_terms(copy)
        assert copy == _copy_oracle(f, u, {})
        adopted = u.adopt(f)
        assert adopted.table is u and adopted == copy and _nonzero_terms(adopted)
        assert t.adopt(f) is f
        images = {s.name: u.sym(s.name) for s in t.symbols}
        images["th1"] = u.sym("th1") + (u.sym("et") * u.sym("z")).scale(QI(0, 1))
        images["x"] = u.sym("x") - u.sym("y") * 2
        moved = f.substitute(images)
        assert moved.table is u and _nonzero_terms(moved)
        assert moved == _copy_oracle(f, u, images)
    # images over two tables and a symbol left without an image in another
    # table are refused
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
    # a polynomial over a table without symbols: substitute has no image to
    # name the target table, so adopt moves the scalar itself; so it does a
    # plain scalar
    from supergrass.morphisms import FleshMorphism

    bare = SymbolTable().scalar(QI(1, 2))
    assert bare.substitute({}) is bare
    assert u.adopt(bare).table is u and u.adopt(bare) == u.scalar(QI(1, 2))
    assert u.adopt(Fraction(3, 2)) == u.scalar(Fraction(3, 2)) and u.adopt(0).is_zero()
    m = FleshMorphism(("x",), ("th1",), ("y",), {"y": SymbolTable().scalar(3)}, {})
    assert m.phi["y"].table is m.table and m.phi["y"] == m.table.scalar(3)


def test_substitute_against_factor_by_factor():
    rng = random.Random(13)
    # unnamed odd and Clifford symbols between the named ones
    t = SymbolTable()
    for n in ("x", "y", "z"):
        t.even_symbol(n)
    t.odd_symbol("th1")
    t.clifford_symbol("eps1", 1)
    t.odd_symbol("th2")
    t.clifford_symbol("eps2", 1)
    t.odd_symbol("th3")
    t.odd_symbol("et1")
    t.odd_symbol("et2")
    s = t.sym
    images = {
        "x": s("x") + s("et1") * s("et2"),          # an even image with a soul
        "y": s("y").scale(2) + s("eps1") * s("th2"),  # an even image holding eps1
        "th1": s("th1") + s("z") * s("et1"),         # odd translations
        "th3": (s("z") * s("et1")).scale(QI(0, 1)),
    }
    # y*eps1 -> (2*y + eps1*th2)*eps1 = 2*y*eps1 + th2; eps1 left of the
    # even image would give -th2
    assert (s("y") * s("eps1")).substitute(images) == (s("y") * s("eps1")).scale(2) + s("th2")
    # et1*th3 -> et1*z*et1 = 0: a nilpotent product that vanishes
    assert (s("et1") * s("th3")).substitute(images).is_zero()
    # many terms share the named even part x*y^2 and the odd monomial
    # th1*eps1*eps2*th3, and the named even part y with each odd monomial
    shared = t.sum(t.monomial(QI(k, 1), [("z", k), ("x", 1), ("y", 2)], ["th1", "eps1", "eps2", "th3"])
                   for k in range(5))
    shared = shared + t.sum(t.monomial(k + 1, [("y", 1), ("z", k)], odd)
                            for k, odd in enumerate([["eps1"], ["th2", "eps2"], ["eps1", "th1"],
                                                     ["eps2", "eps1", "th2"], ["et2", "th1"]]))
    for _ in range(30):
        f = shared + _random_qi_poly(t, rng, 8)
        got = f.substitute(images)
        assert got.table is t and _nonzero_terms(got)
        assert got == _copy_oracle(f, t, images)


def test_substitute_checks_the_term_budget():
    t = SymbolTable()
    for n in ("x", "y", "a", "b"):
        t.even_symbol(n)
    images = {"x": t.sum(t.monomial(1, [("a", k)]) for k in range(400)),
              "y": t.sum(t.monomial(1, [("b", k)]) for k in range(400))}
    msg = "a product of 400 by 400 terms exceeds the budget of 100000 term pairs"
    with pytest.raises(SizeLimitError, match=msg):
        (t.sym("x") * t.sym("y")).substitute(images)


def test_derivation_call_and_bracket_against_summing_loops():
    rng = random.Random(13)
    for t, _ in itertools.product((_qi_table(), _two_clifford_table()), range(100)):
        X = _random_derivation(t, rng, rng.randint(0, 1))
        Y = _random_derivation(t, rng, rng.randint(0, 1))
        f = _random_qi_poly(t, rng)
        got = X(f)
        assert got == _derivation_oracle(X, f) and _nonzero_terms(got)
        # the bracket evaluated on every generator, untouched ones included
        sign = -1 if (X.parity and Y.parity) else 1
        br = super_bracket(X, Y)
        for s in t.symbols:
            g = t.sym(s.name)
            assert br(g) == X(Y(g)) - sign * Y(X(g))
        assert all(v and _nonzero_terms(v) for v in br.images.values())


def _pair_sum(polys):
    # coefficients summed as (re, im) Fraction pairs, zeros dropped at the end
    acc = {}
    for p in polys:
        for k, c in p.terms_sorted():
            re, im = (c.re, c.im) if isinstance(c, QI) else (Fraction(c), Fraction(0))
            a, b = acc.get(k, (Fraction(0), Fraction(0)))
            acc[k] = (a + re, b + im)
    return {k: v for k, v in acc.items() if v != (0, 0)}


def test_accumulator_cancels_to_absent_key():
    rng = random.Random(14)
    t = _qi_table()
    for _ in range(30):
        polys = [_random_qi_poly(t, rng, 4) for _ in range(3)]
        polys.append(-polys[0].free_of(("th1",)))
        total = t.zero()
        for p in polys:
            total = total + p
        assert dict(total.terms_sorted()) == {k: QI(*v) for k, v in _pair_sum(polys).items()}
        assert t.sum(polys).terms_sorted() == total.terms_sorted() == t.sum(iter(polys)).terms_sorted()
        assert (total - total).terms_sorted() == []
    x, th1, th2, eps = (t.sym(n) for n in ("x", "th1", "th2", "eps"))
    x2 = [((((0, 2),), ()), 1)]
    # the cross terms of each product cancel, and their keys must go
    assert ((x + eps * th1) * (x - eps * th1)).terms_sorted() == x2
    assert ((x + (th1 * th2).scale(QI(0, 1))) * (x - (th1 * th2).scale(QI(0, 1)))).terms_sorted() == x2
    assert (x * th1 + th1 * x.scale(-1)).terms_sorted() == []
    assert (x * x * th1).diff_even("x").coefficient_of_odd(("th1",)).terms_sorted() == [((((0, 1),), ()), 2)]


def test_sum_refuses_a_polynomial_over_another_table():
    t, u = _qi_table(), _qi_table()
    assert t.sum([]) == t.zero()
    with pytest.raises(TableMismatchError):
        t.sum([t.sym("x"), u.sym("x")])


def test_sum_of_products_against_a_left_to_right_sum():
    """sum_of_products equals the sum of its signed products added left to
    right, over evens, nilpotent odds, eps and int or QI coefficients, zero
    operands and cancelling pairs included; an empty list gives zero."""
    rng = random.Random(15)
    t = _qi_table()
    assert t.sum_of_products([]) == t.zero() and t.sum_of_products([]).table is t
    for _ in range(60):
        triples = []
        for _ in range(rng.randint(1, 5)):
            a, b = (_random_qi_poly(t, rng, rng.randint(0, 5)) for _ in range(2))
            if rng.random() < 0.3:
                a = t.sum(t.monomial(rng.randint(-3, 3), [("x", 1)], [n]) for n in ("th1", "eps"))
            triples.append((rng.random() < 0.5, a, b))
        if rng.random() < 0.3:  # a pair that cancels the first
            neg, a, b = triples[0]
            triples.append((not neg, a, b))
        want = t.zero()
        for neg, a, b in triples:
            want = want - a * b if neg else want + a * b
        got = t.sum_of_products(triples)
        assert got.table is t and _nonzero_terms(got)
        assert got.terms_sorted() == want.terms_sorted()
        assert t.sum_of_products(iter(triples)) == got


def test_sum_of_products_checks_each_pair(monkeypatch):
    """An operand over another table raises TableMismatchError, on either
    side; a pair beyond MAX_TERM_PAIRS raises SizeLimitError before any of
    its terms is formed."""
    t, u = _qi_table(), _qi_table()
    x, th1 = t.sym("x"), t.sym("th1")
    for pair in ((x, u.sym("th1")), (u.sym("x"), th1)):
        with pytest.raises(TableMismatchError):
            t.sum_of_products([(False, x, th1), (True, *pair)])
    big = t.sum(t.monomial(1, [("x", k)]) for k in range(400))
    formed = []
    add_term = kernel._add_term
    monkeypatch.setattr(kernel, "_add_term", lambda *a: formed.append(a) or add_term(*a))
    msg = "a product of 400 by 400 terms exceeds the budget of 100000 term pairs"
    with pytest.raises(SizeLimitError, match=msg):
        t.sum_of_products([(True, big, big)])
    assert formed == []


def _power_loop(p, n):
    # square and multiply from one, the path every base other than one
    # even term still takes
    out, base = p.table.one(), p
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


def test_one_even_term_power_against_the_loop():
    t = _qi_table()
    x, y = t.sym("x"), t.sym("y")
    coeffs = [3, -2, Fraction(-2, 3), Fraction(5, 4), QI(0, 1), QI(Fraction(1, 2), -1),
              QI(Fraction(-3, 2), Fraction(1, 3))]
    for c, mono, n in itertools.product(coeffs, (t.one(), x, x * y ** 2), range(5)):
        p = mono.scale(c)
        got, want = p ** n, _power_loop(p, n)
        assert got == want and got.terms == want.terms
        assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]
    # a Clifford generator and an odd generator keep the loop
    eps, th1 = t.sym("eps"), t.sym("th1")
    assert eps ** 2 == -1 and (eps.scale(QI(0, 1)) * x) ** 2 == x ** 2
    assert (th1 ** 2).is_zero() and ((x * th1) ** 1) == x * th1
    # the coefficient budget is checked before the shortcut
    with pytest.raises(SizeLimitError):
        t.scalar(2 ** 9999) ** 9999


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


def _monomial_chain(t, coeff, even, odd):
    """coeff times each even power, then each odd name, multiplied left to right."""
    p = t.scalar(coeff)
    for name, e in even:
        p = p * t.sym(name) ** e
    for name in odd:
        p = p * t.sym(name)
    return p


def test_monomial_against_the_product_chain():
    t = _qi_table()
    rng = random.Random(31)
    coeffs = [0, 1, -3, Fraction(3, 4), Fraction(-4, 2), QI(0, 1), QI(Fraction(1, 2), -1), QI(2, 0)]
    zero = contracted = 0
    for _ in range(600):
        c = rng.choice(coeffs)
        # repeated even names and power 0; repeated odd names and eps
        even = [(rng.choice("xy"), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
        odd = [rng.choice(("th1", "eps", "th2", "th3")) for _ in range(rng.randint(0, 5))]
        got, want = t.monomial(c, even, odd), _monomial_chain(t, c, even, odd)
        assert got == want and got.terms == want.terms
        assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]
        zero += c != 0 and got.is_zero()
        contracted += odd.count("eps") > 1 and not got.is_zero()
    assert zero > 50 and contracted > 20
    assert t.monomial(5, (), ["th2", "th2"]).is_zero()
    # eps*th1*eps = -th1*eps^2 = th1 for eps^2 = -1
    assert t.monomial(1, (), ["eps", "th1", "eps"]) == t.sym("th1")
    assert t.monomial(3, [("x", 0), ("x", 2), ("y", 1), ("x", 1)]) == (t.sym("x") ** 3 * t.sym("y")).scale(3)
    with pytest.raises(ParityError):
        t.monomial(1, [("th1", 1)])
    with pytest.raises(ParityError):
        t.monomial(1, (), ["x"])


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
# the bitmask product of odd monomials against a tuple merge
# ---------------------------------------------------------------------------

def _merge_oracle(o1, o2):
    """o1 * o2 for increasing index tuples whose repeated indices are
    Clifford generators, by counting inversions: the sign bit of sorting the
    concatenation plus one for each repeated index (eps*eps = -1), and the
    merged indices."""
    inversions = sum(len(o1) - bisect_right(o1, b) for b in o2)
    shared = set(o1) & set(o2)
    return (inversions + len(shared)) & 1, tuple(sorted(set(o1) ^ set(o2)))


def _mask(indices):
    return sum(1 << i for i in indices)


def _declare(t, rng, name):
    kind = rng.choice(("even", "odd", "odd", "clifford"))
    if kind == "even":
        t.even_symbol(name)
    elif kind == "odd":
        t.odd_symbol(name)
    else:
        t.clifford_symbol(name)


@pytest.mark.parametrize("n", [3, 9, 40, 70, 130])
def test_odd_mul_against_an_inversion_count(n):
    """_odd_mul on bitmasks agrees with a tuple merge that shares no code with
    it, at table widths below and above 64 bits, with even symbols between
    the odd ones, at least three Clifford generators, and two symbols
    declared after the prefix-parity memo already holds entries: it returns
    None on a repeated nilpotent generator, else the sign bit and the XOR."""
    rng = random.Random(n)
    t = SymbolTable()
    clifford = set(rng.sample(range(n), 3)) if n > 3 else set()
    for k in range(n):
        if k in clifford:
            t.clifford_symbol(f"s{k}")
        else:
            _declare(t, rng, f"s{k}")
    outcomes = collections.Counter()
    for draw in range(1600):
        if draw == 800:
            assert t._below  # the late symbols meet a filled memo
            t.odd_symbol("late_th")
            t.clifford_symbol("late_eps", 1)
        odd = [s.index for s in t.symbols if s.parity == ODD]
        squares = [s.square for s in t.symbols]
        density = rng.choice((0.1, 0.3, 0.6))
        o1 = [i for i in odd if rng.random() < density]
        # o2 mostly repeats Clifford generators only, so that most products
        # survive; a repeated nilpotent generator is drawn now and then
        o2 = [i for i in odd if rng.random() < density
              and (i not in o1 or squares[i] or rng.random() < 0.05)]
        if draw >= 800 and rng.random() < 0.5:  # a late symbol on both sides
            late = rng.choice(odd[-2:])
            o1, o2 = sorted(set(o1) | {late}), sorted(set(o2) | {late})
        shared = set(o1) & set(o2)
        for i in shared:
            outcomes[i >= n, squares[i]] += 1
        got = _odd_mul(_mask(o1), _mask(o2), t)
        if not all(squares[i] for i in shared):
            assert got is None, (o1, o2)
            outcomes["zero"] += 1
            continue
        sign, merged = _merge_oracle(o1, o2)
        assert got == (sign, _mask(merged)), (o1, o2)
        outcomes["minus" if sign else "plus"] += 1
    assert outcomes["zero"] > 30 and outcomes["minus"] > 100 and outcomes["plus"] > 100
    assert outcomes[True, 0] and outcomes[True, 1]  # each late symbol repeated
    if n > 3:
        assert outcomes[False, 0] and outcomes[False, 1] > 100, outcomes


def test_coefficient_of_odd_against_merge_sign():
    """coefficient_of_odd in any requested order agrees with the per-term
    sort sign of the requested names followed by the rest of the term."""
    rng = random.Random(23)
    t = SymbolTable()
    for k in range(70):
        _declare(t, rng, f"s{k}")
    odd = [s.name for s in t.symbols if s.parity == ODD]
    even = [s.name for s in t.symbols if s.parity == EVEN]
    for _ in range(60):
        f = t.sum(t.monomial(rng.randint(-3, 3), [(rng.choice(even), rng.randint(0, 2))],
                             rng.sample(odd, rng.randint(0, 12)))
                  for _ in range(6))
        names = rng.sample(odd, rng.randint(0, 4))
        if rng.random() < 0.5 and f:  # names of one term, in a shuffled order
            (_, od), _c = rng.choice(f.terms_sorted())
            names = rng.sample([t.symbols[i].name for i in od], min(len(od), 4))
        idxs = tuple(t.symbol(n).index for n in names)
        want = t.zero()
        for (ev, od), c in f.terms_sorted():
            if set(idxs) <= set(od):
                rest = [i for i in od if i not in idxs]
                sign = merge_sign(idxs, rest)[0]
                want = want + t.monomial(c * sign, [(t.symbols[i].name, e) for i, e in ev],
                                         [t.symbols[i].name for i in rest])
        assert f.coefficient_of_odd(names) == want, names
    with pytest.raises(ValueError):
        t.sym(odd[0]).coefficient_of_odd((odd[0], odd[0]))


# ---------------------------------------------------------------------------
# packed even keys: the exponent budget, and the projections against the same
# projections on (index, power) tuples over a key wider than 1300 bits
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


def _wide_table():
    """40 even symbols, so an even key spans 40 * 33 = 1320 bits, with the
    odd symbols declared among them: symbol indices and fields differ."""
    t = SymbolTable()
    for k in range(40):
        t.even_symbol(f"x{k}")
        if k in (9, 19, 29):
            t.odd_symbol(f"th{k // 10 + 1}")
    return t


# fields whose powers reach the budget; the others stay at most 3
_BIG = ("x0", "x13", "x26", "x39")


def _acc(d, key, c):
    c = d.pop(key, 0) + c
    if c:
        d[key] = c


def _wide_model(t, rng):
    """Random terms {(((index, power), ...), odd indices): coeff} over the
    wide table, one of them holding x39^MAX_EXPONENT."""
    evens = [s for s in t.symbols if s.parity == EVEN]
    odds = [s.index for s in t.symbols if s.parity == ODD]
    model = {}
    for _ in range(rng.randint(1, 12)):
        ev = tuple(sorted((s.index, rng.choice((1, 2, MAX_EXPONENT - 1, MAX_EXPONENT))
                           if s.name in _BIG else rng.randint(1, 3))
                          for s in rng.sample(evens, rng.randint(0, 5))))
        od = tuple(i for i in odds if rng.random() < 0.4)
        _acc(model, (ev, od), QI(rng.randint(-3, 3), rng.choice((0, 0, 1))))
    _acc(model, (((t.symbol("x39").index, MAX_EXPONENT),), ()), 5)
    return model


def _sorted_model(model):
    return sorted(model.items(), key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0]))


def test_packed_projections_against_decoded_tuples():
    rng = random.Random(41)
    t = _wide_table()
    evens = [s.name for s in t.symbols if s.parity == EVEN]
    odds = [s.name for s in t.symbols if s.parity == ODD]
    # the evens in another order, the odds too, and symbols t lacks
    u = SymbolTable()
    u.odd_symbol("th3")
    u.even_symbol("z")
    for name in reversed(evens):
        u.even_symbol(name)
        if name == "x20":
            u.odd_symbol("th1")
    u.odd_symbol("th2")
    named = {"x5": 2, "x6": 2, "x7": 2}  # image: the symbol of u times this, else 1
    for _ in range(40):
        model = _wide_model(t, rng)
        f = t.sum(_term(t, ev, od, c) for (ev, od), c in model.items())
        assert max(ev for ev, _ in f.terms).bit_length() > 1300
        assert f.terms_sorted() == _sorted_model(model)
        powers = {}  # even index -> the highest power in f
        for ev, _ in model:
            for i, p in ev:
                powers[i] = max(powers.get(i, 0), p)
        assert f.support() == [t.symbols[i] for i in sorted({i for ev, od in model for i in
                                                             [j for j, _ in ev] + list(od)})]
        assert f.max_even_degree() == max(sum(p for _, p in ev) for ev, _ in model)
        for names in ((), ("x39",), ("th2",), rng.sample(evens + odds, 6)):
            idx = {t.symbol(n).index for n in names}
            want = {k: c for k, c in model.items() if not idx & ({i for i, _ in k[0]} | set(k[1]))}
            assert f.free_of(names).terms_sorted() == _sorted_model(want)
        names = rng.sample(evens, 8) + ["th1"]
        values = {n: rng.choice((0, 1, -1, QI(0, 1))) if n in _BIG else
                  rng.choice((2, Fraction(-1, 3), QI(1, 1))) for n in names}
        by_index = {t.symbol(n).index: v for n, v in values.items() if n in evens}
        want = {}
        for (ev, od), c in model.items():
            for i, p in ev:
                c = c * by_index[i] ** p if i in by_index else c
            if c:
                _acc(want, (tuple(e for e in ev if e[0] not in by_index), od), c)
        assert f.eval_even(values).terms_sorted() == _sorted_model(want)
        for name in rng.sample(evens, 4) + ["x39"]:
            i = t.symbol(name).index
            want = {}
            for (ev, od), c in model.items():
                for j, (k, p) in enumerate(ev):
                    if k == i:
                        rest = ev[:j] + (((i, p - 1),) if p > 1 else ()) + ev[j + 1:]
                        _acc(want, (rest, od), c * p)
            assert f.diff_even(name).terms_sorted() == _sorted_model(want)
            if powers.get(i, 0) > MAX_DEGREE:
                with pytest.raises(SizeLimitError, match="degree budget"):
                    f.integrate_even(name, -1, 2)
                continue
            want = {}
            for (ev, od), c in model.items():
                p = dict(ev).get(i, 0)
                _acc(want, (tuple(e for e in ev if e[0] != i), od),
                     c * Fraction(2 ** (p + 1) - (-1) ** (p + 1), p + 1))
            assert f.integrate_even(name, -1, 2).terms_sorted() == _sorted_model(want)
        # into u, every symbol named: the evens land in the fields of u,
        # and the odd monomial takes the sign of its order in u
        images = {n: u.sym(n).scale(named.get(n, 1)) for n in evens + odds}
        want = {}
        for (ev, od), c in model.items():
            for i, p in ev:
                c = c * named.get(t.symbols[i].name, 1) ** p
            seq = [u.symbol(t.symbols[i].name).index for i in od]
            if sum(a > b for j, a in enumerate(seq) for b in seq[j + 1:]) & 1:
                c = -c
            _acc(want, (tuple(sorted((u.symbol(t.symbols[i].name).index, p) for i, p in ev)),
                        tuple(sorted(seq))), c)
        moved = f.substitute(images)
        assert moved.table is u and moved.terms_sorted() == _sorted_model(want)
        # a derivation whose images hold no field that reaches the budget
        X = Derivation(t, EVEN, {"x0": t.sym("x1"), "x39": t.scalar(3),
                                 "x20": t.monomial(1, [("x2", 2)], ["th1", "th2"]),
                                 "th1": t.monomial(QI(0, 1), [("x3", 1)], ["th3"])})
        assert X(f) == _derivation_oracle(X, f)
