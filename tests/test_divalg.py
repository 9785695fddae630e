import random
from fractions import Fraction

import pytest

from supergrass.divalg import C, H, O, R, DAElement, algebra, gamma_constants
from supergrass.kernel import SuperPolynomial, SymbolTable


def rand_elem(alg, rng, span=5):
    return alg.element(
        [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(alg.dim)]
    )


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


def test_norm_multiplicativity_random():
    rng = random.Random(13)
    for alg in (R, C, H, O):
        for _ in range(120):
            a, b = rand_elem(alg, rng), rand_elem(alg, rng)
            assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_octonion_alternativity_random():
    rng = random.Random(17)
    for _ in range(120):
        a, b = rand_elem(O, rng), rand_elem(O, rng)
        assert (a * a) * b == a * (a * b)
        assert (b * a) * a == b * (a * a)


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


def test_clifford_envelope_isomorphic_to_C():
    # kernel envelope on one generator with B = 1 vs the divalg complex
    # plane: 1 -> u_1, eps -> u_2, comparing products on the basis
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    basis_k = [t.one(), t.sym("eps")]
    basis_c = [C.one(), C.unit(2)]
    for i in range(2):
        for j in range(2):
            prod_k = basis_k[i] * basis_k[j]
            prod_c = basis_c[i] * basis_c[j]
            # expand both in their bases and compare coefficients
            ck = [prod_k.terms.get(((), ()), Fraction(0)),
                  prod_k.terms.get(((), (0,)), Fraction(0))]
            assert ck == prod_c.coeffs


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


def _rand_rational_elem(alg, rng):
    return alg.element([rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3)])
                        for _ in range(alg.dim)])


def _naive(op, x, y=None, c=None):
    """Dense coefficient lists straight from the definitions: every slot is
    computed, zero or not, and the left factor stays on the left."""
    k = x.alg.dim
    if op == "+":
        return [a + b for a, b in zip(x.coeffs, y.coeffs)]
    if op == "-":
        return [a - b for a, b in zip(x.coeffs, y.coeffs)]
    if op == "neg":
        return [-a for a in x.coeffs]
    if op == "scale":
        return [c * a for a in x.coeffs]
    if op == "conj":
        return [x.coeffs[0]] + [-a for a in x.coeffs[1:]]
    if op == "re":
        return [x.coeffs[0]] + [x.zero] * (k - 1)
    if op == "im":
        return [x.zero] + list(x.coeffs[1:])
    out = [x.zero] * k
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            g, s = x.alg.table[(a, b)]
            out[g - 1] = out[g - 1] + (x.coeffs[a - 1] * y.coeffs[b - 1]) * s
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
                for slot in got.coeffs + [got.zero]:
                    assert isinstance(slot, SuperPolynomial) and slot.table is t, op
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
    assert all(isinstance(slot, SuperPolynomial) and slot.table is t for slot in got.coeffs + [got.zero])


def test_product_with_a_polynomial_element_lives_in_the_table():
    """The product's zero is the product of the operands' zeros, so a
    rational factor on either side gives a result over the table."""
    t = _envelope()
    x, y = H.unit(2), H.unit(3).scale(t.sym("eps"))
    for got in (x * y, y * x):
        assert all(isinstance(slot, SuperPolynomial) and slot.table is t
                   for slot in got.coeffs + [got.zero])
    assert (x * y).coeffs == [t.zero(), t.zero(), t.zero(), t.sym("eps")]


def test_integral_coefficients_stay_int():
    p = O.unit(3) * O.unit(4).conj() + O.one()
    assert p.coeffs == [1, -1, 0, 0, 0, 0, 0, 0]
    assert all(type(c) is int for c in p.coeffs)
