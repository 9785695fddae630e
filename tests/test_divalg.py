import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from supergrass import divalg, kernel, minkowski
from supergrass.divalg import C, H, O, R, DAElement, algebra, gamma_constants
from supergrass.kernel import SuperPolynomial, SymbolTable
from supergrass.matrix import Matrix
from supergrass.scalars import QI, num_den


def test_quaternion_units():
    i, j, k = H.unit(2), H.unit(3), H.unit(4)
    assert i * j == k
    assert j * i == -k
    assert i * i == -H.one()
    assert (i * j) * k == -H.one()


def test_octonion_required_pairings():
    assert O.unit(1) * O.unit(2) == O.unit(2)
    assert O.unit(3) * O.unit(4) == O.unit(2)
    assert O.unit(6) * O.unit(7) == O.unit(2)
    assert O.unit(8) * O.unit(5) == O.unit(2)


def test_octonion_basis_closure():
    for a in range(1, 9):
        for b in range(1, 9):
            p = O.unit(a) * O.unit(b)
            nz = [g for g, c in enumerate(p.coeffs, start=1) if c]
            assert len(nz) == 1
            assert abs(p.coeffs[nz[0] - 1]) == 1
            assert O.unit(a) * O.unit(a).conj() == O.one()


def test_conjugation_and_norm():
    assert C.unit(2).conj() == -C.unit(2)
    z = C.element([1, 1])
    assert z.norm_sq() == 2
    w = O.unit(3) * O.unit(4).conj()
    assert w.re() == O.zero_like()
    assert w == -O.unit(2)


def test_gamma_antisymmetry_and_support():
    for alg in (C, H, O):
        G = gamma_constants(alg)
        for (a, b, g), v in G.items():
            assert g >= 2
            assert G.get((b, a, g), Fraction(0)) == -v
        for a in range(1, alg.dim + 1):
            assert all(abs_g != a or True for (abs_g, _, _) in G)


def test_gamma_R_empty():
    assert gamma_constants(R) == {}


def test_gamma_C_value():
    # (u_1 conj(u_2) - u_2 conj(u_1))/2 = -u_2, so the (1,2,2) constant is -1
    assert gamma_constants(C).get((1, 2, 2), 0) == -1
    assert gamma_constants(C).get((2, 1, 2), 0) == 1


def test_gamma_H_23():
    # (u_2 conj(u_3) - u_3 conj(u_2))/2 = -(u_2 u_3) = -u_4
    assert gamma_constants(H).get((2, 3, 4), 0) == -1


def test_polynomial_coefficients():
    # coefficients drawn from a Grassmann envelope multiply in order
    t = SymbolTable()
    t.odd_symbol("et1")
    t.odd_symbol("et2")
    a = H.element([t.sym("et1"), t.zero(), t.zero(), t.zero()])
    b = H.element([t.sym("et2"), t.zero(), t.zero(), t.zero()])
    p = a * b
    assert p.coeffs[0] == t.sym("et1") * t.sym("et2")
    q = b * a
    assert q.coeffs[0] == -(t.sym("et1") * t.sym("et2"))


def test_tag_mismatch():
    with pytest.raises(ValueError):
        _ = C.one() * H.one()


def test_algebra_lookup():
    assert algebra("O") is O
    with pytest.raises(ValueError):
        algebra("S")


@pytest.mark.parametrize("alpha", [0, -1, 5])
def test_unit_refuses_an_index_outside_the_basis(alpha):
    with pytest.raises(ValueError, match="outside 1..4"):
        H.unit(alpha)


# -- the ring-generic element --------------------------------------------------

def _envelope():
    """Clifford envelope with one eps and three odd parameters."""
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    for i in (1, 2, 3):
        t.odd_symbol(f"et{i}")
    return t


def _rand_poly_elem(alg, t, rng):
    """Coefficients mixing even and odd Grassmann parts; about a third of
    the slots are zero."""
    et1, et2, et3 = (t.sym(f"et{i}") for i in (1, 2, 3))
    gens = [t.one(), t.sym("eps"), et1, et2, et3, et1 * et2, t.sym("eps") * et3]
    coeffs = []
    for _ in range(alg.dim):
        if rng.random() < 0.35:
            coeffs.append(t.zero())
        else:
            coeffs.append(sum((g.scale(rng.randint(-2, 2)) for g in rng.sample(gens, 3)), t.zero()))
    return DAElement(alg, coeffs, t.zero())


def _over_table(got, t):
    """Every slot of got, the zero included, is a SuperPolynomial over t."""
    return all(isinstance(slot, SuperPolynomial) and slot.table is t
               for slot in got.coeffs + [got.zero])


def _over_a_den(got, t=None):
    """The form of an element with ring slots: den is a positive int, 1 for
    the zero element, and every numerator slot is a SuperPolynomial over t
    or, without t, a QI."""
    if t is None:
        ring = all(type(n) is QI for n in got.num)
    else:
        ring = all(isinstance(n, SuperPolynomial) and n.table is t for n in got.num)
    return type(got.den) is int and got.den > 0 and (got or got.den == 1) and ring


def _rand_rational_elem(alg, rng):
    return alg.element([rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3)])
                        for _ in range(alg.dim)])


def _naive(op, x, y=None, c=None):
    """Dense coefficient lists straight from the definitions: every slot is
    computed, zero or not, and the left factor stays on the left."""
    return _dense(op, x.alg, x.coeffs, None if y is None else y.coeffs, c, x.zero)


def _dense(op, alg, xs, ys=None, c=None, zero=0):
    """The definitions on plain coefficient lists."""
    k = alg.dim
    if op == "+":
        return [a + b for a, b in zip(xs, ys)]
    if op == "-":
        return [a - b for a, b in zip(xs, ys)]
    if op == "neg":
        return [-a for a in xs]
    if op == "scale":
        return [c * a for a in xs]
    if op == "conj":
        return [xs[0]] + [-a for a in xs[1:]]
    if op == "re":
        return [xs[0]] + [zero] * (k - 1)
    if op == "im":
        return [zero] + list(xs[1:])
    out = [zero] * k
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            g, s = alg.table[(a, b)]
            out[g - 1] = out[g - 1] + (xs[a - 1] * ys[b - 1]) * s
    return out


def _apply(op, x, y=None, c=None):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "neg":
        return -x
    if op == "scale":
        return x.scale(c)
    if op == "*":
        return x * y
    return getattr(x, op)()


OPS = ("+", "-", "neg", "scale", "*", "conj", "re", "im")


@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_polynomial_ring_results_against_naive_oracle(alg):
    """Every slot of a result over a table, the zero included, is a
    SuperPolynomial over that table, and the values match the dense oracle;
    odd coefficients pin the left order of scale and *."""
    t = _envelope()
    rng = random.Random(31 + alg.dim)
    zero = alg.zero_like(t.zero())
    for _ in range(25):
        x, y = _rand_poly_elem(alg, t, rng), _rand_poly_elem(alg, t, rng)
        c = rng.choice([_rand_poly_elem(R, t, rng).coeffs[0], t.sym("et2"), t.zero(),
                        Fraction(rng.randint(-3, 3), 2)])
        for u, v in ((x, y), (x, zero), (zero, x), (zero, zero)):
            for op in OPS:
                got = _apply(op, u, v, c)
                assert got.coeffs == _naive(op, u, v, c), op
                assert _over_table(got, t), op
                assert not got.zero


@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_rational_ring_results_against_naive_oracle(alg):
    rng = random.Random(47 + alg.dim)
    zero = alg.zero_like()
    for _ in range(25):
        x, y = _rand_rational_elem(alg, rng), _rand_rational_elem(alg, rng)
        c = rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
        for u, v in ((x, y), (x, zero), (zero, x), (zero, zero)):
            for op in OPS:
                got = _apply(op, u, v, c)
                assert got.coeffs == _naive(op, u, v, c), op
                assert not any(isinstance(slot, SuperPolynomial) for slot in got.coeffs + [got.zero]), op


def test_scale_by_polynomial_moves_rational_element_into_the_table():
    t = _envelope()
    eps = t.sym("eps")
    got = H.element([0, 1, Fraction(1, 2), 0]).scale(eps)
    assert got.coeffs == [t.zero(), eps, eps.scale(Fraction(1, 2)), t.zero()]
    assert _over_table(got, t)


def test_product_with_a_polynomial_element_lives_in_the_table():
    """The product's zero is the product of the operands' zeros, so a
    rational factor on either side gives a result over the table."""
    t = _envelope()
    x, y = H.unit(2), H.unit(3).scale(t.sym("eps"))
    assert _over_table(x * y, t) and _over_table(y * x, t)
    assert (x * y).coeffs == [t.zero(), t.zero(), t.zero(), t.sym("eps")]


def test_integral_coefficients_stay_int():
    p = O.unit(3) * O.unit(4).conj() + O.one()
    assert p.coeffs == [1, -1, 0, 0, 0, 0, 0, 0]
    assert all(type(c) is int for c in p.coeffs)


# -- mixed rings: rational elements over a denominator meet other rings --------

def _not_integral(alg, rng):
    """A rational element with a slot in sevenths, so den != 1."""
    x = _rand_rational_elem(alg, rng) + alg.unit(rng.randint(1, alg.dim), Fraction(1, 7))
    assert x.den != 1
    return x


def _nonzero_poly_elem(alg, t, rng):
    x = _rand_poly_elem(alg, t, rng)
    return x if x else _nonzero_poly_elem(alg, t, rng)


@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_rational_over_a_denominator_meets_polynomials(alg):
    """* between a rational element with den != 1 and a polynomial element,
    in both orders, and scale of the rational element by a polynomial: the
    result keeps a positive int denominator over polynomial numerators, and
    every slot of the result, the zero included, lives over the table.
    + and - of the two refuse the pair."""
    t = _envelope()
    rng = random.Random(61 + alg.dim)
    for _ in range(20):
        x, p = _not_integral(alg, rng), _nonzero_poly_elem(alg, t, rng)
        for u, v in ((x, p), (p, x)):
            got = u * v
            assert got.coeffs == _naive("*", u, v)
            assert _over_a_den(got, t) and _over_table(got, t)
            for op in ("+", "-"):
                with pytest.raises(TypeError):
                    _apply(op, u, v)
        for c in (_rand_poly_elem(R, t, rng).coeffs[0], t.sym("et2"), t.sym("eps")):
            got = x.scale(c)
            assert got.coeffs == _naive("scale", x, c=c)
            assert _over_a_den(got, t) and _over_table(got, t)


@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_integral_and_zero_operands_meet_polynomials(alg):
    """The same for rational elements with den = 1 and for a zero operand
    on either side: a product lives over the table, its zero included, and
    so do its products with a rational unit; a sum or difference across the
    two rings is refused, a zero operand too."""
    t = _envelope()
    rng = random.Random(73 + alg.dim)
    for _ in range(20):
        x = alg.element([rng.randint(-3, 3) for _ in range(alg.dim)])
        p = _nonzero_poly_elem(alg, t, rng)
        unit = alg.unit(rng.randint(1, alg.dim))
        for u, v in ((x, p), (p, x), (x, alg.zero_like(t.zero())), (alg.zero_like(), p)):
            for w, z in ((u, v), (v, u)):
                got = w * z
                assert got.coeffs == _naive("*", w, z)
                assert got.den == 1 and _over_table(got, t)
                for a, b in ((got, unit), (unit, got)):
                    prod = a * b
                    assert prod.coeffs == _naive("*", a, b) and _over_table(prod, t)
                for op in ("+", "-"):
                    with pytest.raises(TypeError):
                        _apply(op, w, z)
    if alg is H:
        eps = t.sym("eps")
        got = H.unit(3).scale(eps)
        assert got.coeffs == [0, 0, eps, 0] and _over_table(got, t)
        assert _over_table(got * H.unit(2), t)
        with pytest.raises(TypeError):
            H.unit(2) + got
        with pytest.raises(TypeError):
            H.unit(2) + H.zero_like(t.zero())


def test_constructors_take_the_zero_from_a_ring_slot():
    """unit and the constructor read the ring off a slot that is not
    rational (a polynomial or a non-real QI), so one-ring + and * keep every
    slot in that ring; rational slots, real QIs among them, keep the int
    zero, and + of a rational element refuses them."""
    t = _envelope()
    u = t.sym("et1") * t.sym("et2")
    for x in (H.unit(1, u), DAElement(H, [u, 0, 0, 0])):
        assert x.zero == t.zero() and x.zero.table is t
        got = x + H.unit(2, t.one())
        assert got.coeffs == [u, 1, 0, 0] and _over_table(got, t)
        prod = x * H.unit(2)
        assert prod.coeffs == [0, u, 0, 0] and _over_table(prod, t)
        assert _over_table(H.unit(3) * x - x, t)
        with pytest.raises(TypeError):
            x + H.unit(2)
    assert _over_table(H.unit(1, u), t)
    g = H.unit(2, QI(0, 1))
    assert type(g.zero) is QI and all(type(c) is QI for c in (g + H.unit(3, QI(1, 1))).coeffs)
    assert all(type(c) is QI for c in (g * H.unit(3)).coeffs + H.unit(3).scale(QI(0, 1)).coeffs)
    for rational in (H.unit(3), H.unit(3, QI(1))):
        with pytest.raises(TypeError):
            g - rational
    assert type(H.unit(2, Fraction(1, 2)).zero) is int
    assert type(DAElement(H, [Fraction(1, 3), 2, 0, 0]).zero) is int
    # a real QI slot is rational: int numerators under the int zero, passed
    # in or read from the slots
    half = QI(Fraction(1, 2))
    for x in (H.unit(1, half), DAElement(H, [half, 1, 0, 0]), DAElement(H, [half, 1, 0, 0], 0)):
        assert type(x.zero) is int and all(type(n) is int for n in x.num) and x.den == 2
        assert x.coeffs[0] == half and type(x.coeffs[1]) is int
    # the int zero names rational slots, so it refuses a slot of another ring
    for slot in (u, QI(0, 1), QI(Fraction(1, 2), 1)):
        with pytest.raises(TypeError):
            DAElement(H, [slot, 1, 0, 0], 0)


def test_scale_by_a_gaussian_rational_folds_the_denominator():
    """x.scale(c) for a QI c keeps QI numerators over a positive int
    denominator; its slot values are QIs equal to the definition's."""
    rng = random.Random(67)
    for alg in (C, H, O):
        for _ in range(20):
            x = _not_integral(alg, rng)
            c = QI(Fraction(rng.randint(-3, 3), 2), rng.randint(1, 3))
            got = x.scale(c)
            assert _over_a_den(got) and got.coeffs == _naive("scale", x, c=c)
            assert all(isinstance(slot, QI) for slot in got.coeffs)


@pytest.mark.parametrize("alg", [H, O], ids=lambda a: a.which)
def test_gaussian_slots_with_the_int_zero(alg):
    """An element built as `minkowski.reduction_charges` builds its
    conjugates: Gaussian conjugates of one element over QI with a real slot
    and an I-unit slot, made in one constructor call, since a real QI unit
    is rational and does not add to an I-unit.  The zero is a QI that equals
    the int zero; a rational element multiplies such an element but does
    not add to it.  Every result keeps QI numerators over a positive int
    denominator."""
    rng = random.Random(71 + alg.dim)
    for _ in range(20):
        a1, a2 = rng.sample(range(1, alg.dim + 1), 2)
        re, im = QI(Fraction(rng.randint(-3, 3), 2)), QI(0, rng.randint(1, 2))
        with pytest.raises(TypeError):
            alg.unit(a1, re) + alg.unit(a2, im)
        slots = [QI(0)] * alg.dim
        slots[a1 - 1], slots[a2 - 1] = re, im
        v = DAElement(alg, slots)
        assert type(v.zero) is QI and v.coeffs == slots
        z = DAElement(alg, [c.conjugate() for c in v.coeffs])
        assert z.den == 1 and z.zero == 0 and z.coeffs == [c.conjugate() for c in v.coeffs]
        x = _not_integral(alg, rng)
        for u, w in ((z, x), (x, z), (z, v), (v, z)):
            for op in ("+", "-", "*"):
                if op != "*" and (u is x or w is x):
                    with pytest.raises(TypeError):
                        _apply(op, u, w)
                    continue
                got = _apply(op, u, w)
                assert _over_a_den(got) and got.coeffs == _naive(op, u, w), op
        for op in ("neg", "conj", "re", "im"):
            assert _apply(op, z).coeffs == _naive(op, z), op
        assert z.scale(Fraction(1, 3)).coeffs == _naive("scale", z, c=Fraction(1, 3))
        assert z == DAElement(alg, z.coeffs) and z != v


@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_q_matrix_of_a_rational_lambda_keeps_its_den(alg):
    """q_matrix of a rational lam with den != 1 stores its two entries over
    lam's den, with int-coefficient polynomial numerators, so the products
    of the odd sector stay integer arithmetic; the slot values are
    eps * lam_i and eps * conj(lam)_i."""
    ctx = minkowski.MinkContext(alg.dim)
    eps = ctx.eps()
    rng = random.Random(79 + alg.dim)
    for _ in range(10):
        lam = _not_integral(alg, rng)
        a = rng.choice((1, 2))
        m = minkowski.q_matrix(ctx, a, lam)
        for entry, values in ((m[a - 1, 2], lam.coeffs), (m[2, a + 2], lam.conj().coeffs)):
            assert entry.den == lam.den and _over_a_den(entry, ctx.table)
            assert all(type(c) is int for n in entry.num for c in n.terms.values()), entry
            assert entry.coeffs == [eps * v for v in values]
            zero = entry * alg.zero_like(ctx.table.zero())
            assert not zero and _over_a_den(zero, ctx.table) and zero.den == 1


def _operands_in(ring, alg, rng):
    """Two elements over one ring, each with den != 1 where the ring allows,
    and a rational element with den != 1 to multiply them by."""
    x = _not_integral(alg, rng)
    if ring == "rational":
        return x, _not_integral(alg, rng), x
    if ring == "QI":
        c = QI(Fraction(rng.randint(-3, 3), 2), rng.randint(1, 3))
        # each slot non-real, so that R's one slot names the QI ring too
        return x.scale(c), DAElement(alg, [QI(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
                                           for _ in range(alg.dim)]), x
    t = _envelope()
    return x.scale(t.sym("eps")), _nonzero_poly_elem(alg, t, rng), x


@pytest.mark.parametrize("ring", ["rational", "QI", "polynomial"])
@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_operator_results_take_the_ring_from_the_zero(monkeypatch, alg, ring):
    """Once the operands are built, no operator reads a slot to find the
    ring: `_normal` and `_ring_zero` serve only values from outside (the
    constructor, unit and scale), so both raise here.  Every result keeps
    the form of its ring (rational ints in lowest terms, ring numerators
    over a positive den, the zero element over den 1) and the values of
    the definitions."""
    rng = random.Random(83 + alg.dim)
    cases = []
    for _ in range(10):
        x, y, r = _operands_in(ring, alg, rng)
        zero = x.alg.zero_like(x.zero)
        cases += [(op, u, v) for u, v in ((x, y), (y, x), (x, x), (x, zero)) for op in OPS
                  if op != "scale"]
        cases += [("*", u, v) for u, v in ((x, r), (r, y))]

    def refuse(*args):
        raise AssertionError("an operator result read its slots")

    monkeypatch.setattr(divalg, "_normal", refuse)
    monkeypatch.setattr(divalg, "_ring_zero", refuse)
    got = [_apply(op, u, v) for op, u, v in cases]
    assert all(u == u and not u - u for _op, u, _v in cases)
    monkeypatch.undo()
    for (op, u, v), e in zip(cases, got):
        assert e.coeffs == _naive(op, u, v), op
        assert type(e.zero) is type(u.zero * v.zero if op == "*" else u.zero), op
        if ring == "rational":
            assert_canonical(e, e.coeffs)
        else:
            assert _over_a_den(e, None if ring == "QI" else e.zero.table), op
    assert any(e.den != 1 for e in got)


# -- canonical form of rational elements ---------------------------------------

_slots = st.one_of(st.just(0), st.integers(-9, 9),
                   st.builds(Fraction, st.integers(-50, 50), st.integers(1, 24)))


@st.composite
def _rational_operands(draw):
    """An algebra, two coefficient lists over it (often zero) and a scalar."""
    alg = draw(st.sampled_from([R, C, H, O]))
    values = st.one_of(st.just([0] * alg.dim), st.lists(_slots, min_size=alg.dim, max_size=alg.dim))
    return alg, draw(values), draw(values), draw(_slots)


def assert_canonical(e, values):
    """Int numerators over a positive den in lowest terms, equal to the
    unique such form of the values."""
    num, den = e.num, e.den
    assert all(type(n) is int for n in num) and type(den) is int, (num, den)
    assert den > 0 and math.gcd(den, *num) == 1, f"not in lowest terms: {(num, den)}"
    pairs = [num_den(v) for v in values]
    want = math.lcm(*(d for _, d in pairs))
    assert (num, den) == ([n * (want // d) for n, d in pairs], want), values


def check_rational_operators(operands):
    alg, xs, ys, c = operands
    x, y = alg.element(xs), alg.element(ys)
    assert (x == y) == ([Fraction(v) for v in xs] == [Fraction(v) for v in ys])
    for op in OPS:
        got = _apply(op, x, y, c)
        want = _dense(op, alg, xs, ys, c)
        assert got.coeffs == want, op
        assert_canonical(got, want)


@given(_rational_operands())
def test_rational_operators_keep_the_canonical_form(operands):
    check_rational_operators(operands)


def test_a_normalizer_without_the_gcd_is_caught(monkeypatch):
    """Negative control: without the gcd pass every value and every
    cross-multiplied equality stays right, so no registry check can see it;
    the canonical-form check must.  The search stops at the first failure."""
    monkeypatch.setattr(divalg, "gcd", lambda *ints: 1)
    search = settings(phases=[Phase.generate])(given(_rational_operands())(check_rational_operators))
    with pytest.raises(AssertionError, match="not in lowest terms"):
        search()


def test_rational_octonion_arithmetic_builds_no_fraction(monkeypatch):
    xs = [Fraction(1, 2), 3, Fraction(-2, 3), 0, 1, Fraction(5, 4), -1, 2]
    ys = [Fraction(3, 5), 0, 1, Fraction(-1, 5), 2, 0, Fraction(7, 10), 1]
    x, y = O.element(xs), O.element(ys)

    def refuse(*args, **kwargs):
        raise AssertionError("the rational arithmetic built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x, "conj": x.conj()}
    assert x == x and x != y and x * y - y * x != x
    # the slot values come back as ints and real QIs
    values = {op: e.coeffs for op, e in got.items()}
    monkeypatch.undo()
    for op, v in values.items():
        assert v == _dense(op, O, xs, ys), op


# -- the compiled table and the one-call slot product --------------------------

def _slot_sums(x, y):
    """x * y over one table as slot-by-slot sums: slot g is one
    `SymbolTable.sum_of_products` of the (neg, x_a, y_b) pairs the table
    sends to g, over den x.den * y.den (1 for the zero result), with x's
    zero."""
    t, k = x.zero.table, x.alg.dim
    pairs = [[] for _ in range(k)]
    for (a, b), (g, s) in x.alg.table.items():
        if x.num[a - 1] and y.num[b - 1]:
            pairs[g - 1].append((s < 0, x.num[a - 1], y.num[b - 1]))
    num = [t.sum_of_products(p) if p else x.zero for p in pairs]
    return num, x.den * y.den if any(num) else 1, x.zero


@pytest.mark.parametrize("alg", [R, C, H, O], ids=lambda a: a.which)
def test_polynomial_slot_product_against_slot_sums(alg):
    """The one kernel call of a polynomial-slot product against the sum of
    products of each slot, with eps and eta slots, elements over a den,
    zero elements, an element whose zero slots are the int 0 the
    constructor keeps, and the squares x * x, whose cross terms cancel."""
    t = _envelope()
    rng = random.Random(89 + alg.dim)
    zero = alg.zero_like(t.zero())
    for _ in range(20):
        x, y = _rand_poly_elem(alg, t, rng), _rand_poly_elem(alg, t, rng)
        d = _not_integral(alg, rng).scale(rng.choice([t.sym("eps"), t.sym("et1") + t.sym("eps")]))
        m = alg.element([0] * (alg.dim - 1) + [t.sym("eps") * t.sym("et2")])
        for u, v in ((x, y), (y, x), (x, x), (d, y), (y, d), (d, d), (x, zero), (zero, d),
                     (m, x), (x, m), (m, m)):
            got = u * v
            assert (got.num, got.den, got.zero) == _slot_sums(u, v)
            assert got.zero is u.zero and _over_a_den(got, t)


def test_single_monomial_product_multiplies_one_monomial_pair(monkeypatch):
    """At k = 8, two elements whose slots are each a multiple of one
    monomial multiply that pair of monomials once: one `_odd_mul` call,
    where one product per slot pair made 64."""
    t = _envelope()
    m1, m2 = t.sym("eps") * t.sym("et1"), t.sym("eps") * t.sym("et2")
    x = O.element([Fraction(n, 3) for n in range(1, 9)]).scale(m1)
    y = O.element([Fraction(1 - n, 5) for n in range(1, 9)]).scale(m2)
    calls = []
    odd_mul = kernel._odd_mul

    def counted(*args):
        calls.append(args)
        return odd_mul(*args)

    monkeypatch.setattr(kernel, "_odd_mul", counted)
    got = x * y
    assert len(calls) == 1
    monkeypatch.undo()
    assert (got.num, got.den, got.zero) == _slot_sums(x, y) and got


def test_a_table_write_reaches_the_next_product():
    """`table` is the mapping over the compiled rows: on a fresh algebra a
    write after a product changes the next product, rational or over a
    table, and assigning a mapping rebuilds the rows.  The singleton O is
    untouched."""
    alg = divalg.DivisionAlgebra("O")
    t = _envelope()
    eps = t.sym("eps")
    u, v = alg.unit(2), alg.unit(3)
    assert u * v == alg.unit(4) and u.scale(eps) * v.scale(eps) == alg.unit(4).scale(t.scalar(-1))
    alg.table[(2, 3)] = (5, -1)
    assert alg.table[(2, 3)] == (5, -1) and alg.rows[1][2] == (4, True)
    assert u * v == -alg.unit(5) and u.scale(eps) * v.scale(eps) == alg.unit(5).scale(t.one())
    alg.table = O.table
    assert u * v == alg.unit(4) and dict(alg.table) == dict(O.table) and alg.rows == O.rows
    assert alg.rows is not O.rows and O.unit(2) * O.unit(3) == O.unit(4)


def test_the_table_mapping_holds_every_entry():
    alg = divalg.DivisionAlgebra("H")
    assert len(alg.table) == 16 and list(alg.table) == [(a, b) for a in range(1, 5) for b in range(1, 5)]
    assert alg.table[(2, 3)] == (4, 1) and alg.table[(3, 2)] == (4, -1) and alg.table[(2, 2)] == (1, -1)
    for bad in [(0, 1), (1, 5), (5, 5), (-1, 2)]:
        assert bad not in alg.table
        with pytest.raises(KeyError):
            alg.table[bad] = (1, 1)
    with pytest.raises(ValueError, match="outside the basis"):
        alg.table[(2, 3)] = (5, 1)
    with pytest.raises(TypeError):
        del alg.table[(2, 3)]
    with pytest.raises(KeyError):
        alg.table = {(1, 1): (1, 1)}


# -- Matrix.scale reads its scalar once ----------------------------------------

def _scaled_by_normal(e, c):
    """e.scale(c) as each entry computed it: c put over e's den by
    `divalg._normal`, one call per entry."""
    (n,), d = divalg._normal([c], e.den)
    zero = n * e.zero
    return divalg._element(e.alg, [n * a if a else zero for a in e.num], d, zero)


def _form(e):
    return e.num, e.den, type(e.zero), e.zero


def test_matrix_scale_against_entrywise_scale():
    """Matrix.scale(c), which reads c once, and DAElement.scale(c) against
    the entry-by-entry normalization, numerators, den and zero alike: c an
    int, a Fraction, a real and a non-real QI or a polynomial, zero among
    them, on a rational and a polynomial-slot 5x5 matrix at k = 4."""
    ctx = minkowski.MinkContext(4, n_eta=1)
    t = ctx.table
    rng = random.Random(97)
    rational = Matrix([[_rand_rational_elem(H, rng) if rng.random() < 0.6 else H.zero_like()
                        for _ in range(5)] for _ in range(5)], H.zero_like())
    slots = minkowski.anticomm(minkowski.q_unit(ctx, 1, 2), minkowski.q_unit(ctx, 2, 3)) + \
        minkowski.q_matrix(ctx, 1, H.element([1, Fraction(1, 2), 0, -3]))
    for m in (rational, slots):
        assert not m.is_zero()
        for c in (0, 1, -6, Fraction(1, 2), Fraction(-4, 6), QI(Fraction(3, 4)), QI(1, 2),
                  QI(Fraction(1, 3), -1), t.sym("eps"), t.sym("eps") * ctx.eta(1) + 2, t.zero()):
            got = m.scale(c)
            want = [{j: _scaled_by_normal(e, c) for j, e in row.items()} for row in m.rows]
            assert [{j: _form(e) for j, e in row.items()} for row in got.rows] == \
                [{j: _form(e) for j, e in row.items() if e} for row in want], c
            assert _form(got.zero) == _form(_scaled_by_normal(m.zero, c))
            for row in m.rows:
                for e in row.values():
                    assert _form(e.scale(c)) == _form(_scaled_by_normal(e, c))
