import random
from fractions import Fraction

import pytest

from supergrass.divalg import C, H, O, R, DAElement
from supergrass.kernel import ParityError, SuperPolynomial
from supergrass.minkowski import (Z_TABLES, Hermitian2, MinkContext, Matrix,
                                  SuperTranslationElement, _z_value, anticomm, comm, exp_element,
                                  group_law_check, kmat2, null_vector_check, q_matrix, q_unit,
                                  r_matrix, r_symmetry_check, reduction_charges, rho_endo,
                                  script_i, sigma_map, sl4c_bridge_check, t_map, wedge_coords,
                                  x_matrix, x_of_pair)
from supergrass.scalars import QI


# -- the ring-generic matrix ---------------------------------------------------------

def _kind(e):
    """Entry type, down to the coefficient types of a DAElement."""
    if isinstance(e, DAElement):
        return DAElement, tuple(type(c) for c in e.coeffs)
    return type(e)


def _ring(ring, rng):
    """(zero, draw, scalars) of a test ring: draw() is a random entry, zero
    about a third of the time; scalars are what scale may multiply by."""
    if ring == "int":
        return 0, lambda: rng.choice([0, rng.randint(-3, 3)]), None
    if ring == "QI":
        return QI(0), lambda: rng.choice([QI(0), QI(rng.randint(-3, 3), rng.randint(-3, 3))]), None
    # K over the Clifford envelope with two odd parameters, so neither K nor
    # the coefficients commute; et1 is a nilpotent scalar
    alg = H if ring == "DAElement" else O
    ctx = MinkContext(alg.dim, n_eta=2)
    t = ctx.table
    gens = [t.one(), ctx.eps(), ctx.eta(1), ctx.eta(1) * ctx.eta(2)]

    def draw():
        if rng.random() < 0.3:
            return alg.zero_like(t.zero())
        return DAElement(alg, [sum((g.scale(rng.randint(-2, 2)) for g in gens), t.zero())
                               for _ in range(alg.dim)])
    return alg.zero_like(t.zero()), draw, [Fraction(1, 2), ctx.eps(), ctx.eta(1), t.zero()]


def _stores_no_zero(m):
    return all(e for row in m.rows for e in row.values())


def _dense(m):
    """The dense rows of m, read entry by entry."""
    return [[m[i, j] for j in range(m.ncols)] for i in range(len(m.rows))]


@pytest.mark.parametrize("ring", ["int", "QI", "DAElement", "octonion"])
def test_matrix_product_and_transpose_against_naive(ring):
    """Every Matrix operation against its dense entrywise definition (no
    zero skipping, left factor first), on a 3x4 times 4x3 product with a
    zero row and a zero column; no result stores an entry that tests false."""
    rng = random.Random(8)
    zero, draw, scalars = _ring(ring, rng)

    def dense(n, m):
        return [[draw() for _ in range(m)] for _ in range(n)]

    for _ in range(10):
        a, a2, b = dense(3, 4), dense(3, 4), dense(4, 3)
        a[1] = [zero] * 4
        for row in b:
            row[2] = zero
        A, A2, B = Matrix(a, zero), Matrix(a2, zero), Matrix(b, zero)
        want = {
            "@": [[sum((a[i][l] * b[l][j] for l in range(4)), zero) for j in range(3)]
                  for i in range(3)],
            "+": [[x + y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)],
            "-": [[x - y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)],
            "neg": [[-x for x in r] for r in a],
            "map": [[x + x for x in r] for r in a],
            "T": [list(col) for col in zip(*a)],
        }
        got = {"@": A @ B, "+": A + A2, "-": A - A2, "neg": -A, "map": A.map(lambda e: e + e),
               "T": A.transpose()}
        for c in scalars or ():
            want[c] = [[x.scale(c) for x in r] for r in a]
            got[c] = A.scale(c)
        for op, m in got.items():
            assert _dense(m) == want[op], op
            assert [[_kind(e) for e in row] for row in _dense(m)] == \
                [[_kind(e) for e in row] for row in want[op]], op
            assert _stores_no_zero(m), op
        # == is the dense compare, equal or not
        assert A == Matrix(a, zero) and (A + A2) - A2 == A
        assert (A == A2) is (a == a2)
        for i, j in [(i, j) for i in range(3) for j in range(4) if a[i][j]][:2]:
            b2 = [list(r) for r in a]
            b2[i][j] = zero
            assert A != Matrix(b2, zero) and A.transpose() != Matrix(b2, zero).transpose()


@pytest.mark.parametrize("ring", ["int", "QI", "DAElement", "octonion"])
def test_matrix_drops_the_zeros_it_makes(ring):
    """Cancelling products and sums, a scale by a nilpotent and a map to zero
    store nothing; dense rows with explicit zeros equal the same matrix
    written entry by entry, in any order."""
    rng = random.Random(9)
    zero, draw, scalars = _ring(ring, rng)
    x = draw()
    while not x:
        x = draw()
    row = Matrix([[x, x]], zero)
    col = Matrix([[x], [-x]], zero)
    assert (row @ col).rows == [{}] and (row @ col).is_zero() and _dense(row @ col) == [[zero]]
    assert (row - row).is_zero() and (row + -row).rows == [{}]
    assert row.map(lambda e: e - e).is_zero()
    if scalars:
        et1 = scalars[2]
        m = Matrix([[zero, x.scale(et1)], [x.scale(et1), zero]], zero)
        assert not m.is_zero() and m.scale(et1).is_zero()
    a = [[draw() for _ in range(4)] for _ in range(4)]
    built = Matrix.zeros(4, zero)
    slots = [(i, j) for i in range(4) for j in range(4)]
    rng.shuffle(slots)
    for i, j in slots:
        built[i, j] = a[i][j]
    assert built == Matrix(a, zero) and _stores_no_zero(built)
    assert all(built[i, j] == a[i][j] for i, j in slots)
    for i, j in slots:
        built[i, j] = zero
    assert built.is_zero() and built == Matrix.zeros(4, zero)
    # no dense view exists to write through: entries are set by m[i, j] = v
    with pytest.raises(AttributeError):
        built.entries
    with pytest.raises(AttributeError):
        built.entries = [[x]]


def test_scaled_matrix_lives_in_the_ring_of_the_scalar():
    """A rational matrix scaled by a polynomial moves into the polynomial
    ring, zero included, so the slots a product leaves empty are polynomial."""
    ctx = MinkContext(2)
    m = kmat2(C, C.one(), C.zero_like(), C.zero_like(), C.one()).scale(ctx.eps())
    p = m @ m
    for e in [p.zero, *(e for row in _dense(p) for e in row)]:
        assert all(isinstance(c, SuperPolynomial) for c in [*e.coeffs, e.zero])
    assert p[0, 1] == C.zero_like(ctx.table.zero())


# -- qq relations -----------------------------------------------------------------

def test_qq_unit_real():
    ctx = MinkContext(1)
    # [Q_1^1, Q_1^1] = -2 X_11
    lhs = anticomm(q_unit(ctx, 1, 1), q_unit(ctx, 1, 1))
    assert lhs == x_matrix(ctx, 1, 1).scale(-2)


def test_qq_quaternion_example():
    ctx = MinkContext(4)
    lam = H.unit(2)
    mu = H.unit(3)
    lhs = anticomm(q_matrix(ctx, 1, lam), q_matrix(ctx, 2, mu))
    rhs = -(x_matrix(ctx, 1, 2, lam * mu.conj()) + x_matrix(ctx, 2, 1, mu * lam.conj()))
    assert lhs == rhs


def test_eps_behavior_inside_entries():
    ctx = MinkContext(2, n_eta=2)
    e = ctx.eps()
    assert e * e == ctx.table.scalar(-1)
    for i in (1, 2):
        et = ctx.eta(i)
        assert et * e == -(e * et)


# -- null vectors and R-symmetry --------------------------------------------------

def test_null_vector_simple():
    lam = (R.element([1]), R.element([0]))
    x = x_of_pair(R, lam, lam)
    assert x.h11 == 1 and x.h22 == 0 and x.det() == 0 and x.t == 1
    assert null_vector_check(R, R.element([1]), R.element([0]))


def test_null_vector_octonion_units():
    assert null_vector_check(O, O.unit(2), O.unit(3))


def test_r_symmetry_complex():
    lam1, lam2 = C.element([1, 0]), C.element([0, 1])
    alpha = C.element([Fraction(3, 5), Fraction(4, 5)])
    assert r_symmetry_check("C", lam1, lam2, alpha)


def test_r_symmetry_trivial_unit():
    assert r_symmetry_check("H", H.unit(2), H.unit(3), H.one())


# -- exponential group law ---------------------------------------------------------

def test_group_law_pure_even():
    ctx = MinkContext(2, n_eta=4)
    e1 = SuperTranslationElement(ctx, v={(1, 1): 2, (1, 2): 3}, w={2: 1})
    e2 = SuperTranslationElement(ctx, v={(2, 2): -1, (1, 2): 5}, w={2: -2})
    assert group_law_check(e1, e2)
    # additive on V: exponent entries match the sum directly
    lhs = exp_element(e1) @ exp_element(e2)
    assert lhs == exp_element(SuperTranslationElement(
        ctx, v={(1, 1): 2, (1, 2): 8, (2, 2): -1}, w={2: -1}))


def test_group_law_theta_example():
    # Theta = et1 Q_1^1, Psi = et2 Q_2^1 over R: the correction term is the
    # R_(12)-weighted et1 et2
    ctx = MinkContext(1, n_eta=2)
    e1 = SuperTranslationElement(ctx, theta={(1, 1): ctx.eta(1)})
    e2 = SuperTranslationElement(ctx, theta={(2, 1): ctx.eta(2)})
    assert group_law_check(e1, e2)
    T1, T2 = e1.theta_matrix(), e2.theta_matrix()
    correction = comm(T1, T2).scale(Fraction(1, 2))
    e12 = ctx.eta(1) * ctx.eta(2)
    assert correction == r_matrix(ctx, 1, 2).scale(e12)


def test_translation_element_parity_validation():
    ctx = MinkContext(1, n_eta=2)
    with pytest.raises(ParityError):
        SuperTranslationElement(ctx, v={(1, 1): ctx.eta(1)})
    with pytest.raises(ParityError):
        SuperTranslationElement(ctx, theta={(1, 1): ctx.eta(1) * ctx.eta(2)})


# -- Lorentz side -------------------------------------------------------------------

def test_rho_rejects_non_tracefree():
    one, zero = C.one(), C.zero_like()
    with pytest.raises(ValueError):
        rho_endo(C, kmat2(C, one, zero, zero, one))


# -- reductions -----------------------------------------------------------------------

def test_reduction_k8_and_z_table():
    ctx = MinkContext(8)
    # Z_12 = I(-u3 + sqrt(-1) u4): entry (1,5) must be (-u3 + i u4)/2
    e = script_i(ctx, _z_value(ctx, Z_TABLES[8][1, 2]))[0, 4]
    assert e.coeffs[2] == ctx.table.scalar(Fraction(-1, 2))
    assert e.coeffs[3] == ctx.table.scalar(QI(0, Fraction(1, 2)))
    for k in (2, 4, 8):
        assert reduction_charges(k) is None
    with pytest.raises(ValueError):
        reduction_charges(1)


# -- the k = 4 bridge ------------------------------------------------------------------

def qi(a, b=0):
    return QI(Fraction(a), Fraction(b))


def test_bridge_unit_vector():
    U = (qi(1), qi(0), qi(0), qi(0))
    y = wedge_coords(U, sigma_map(U))
    assert y[(1, 3)] == qi(1)
    assert all(v == qi(0) for k2, v in y.items() if k2 != (1, 3))
    lam = t_map(U)
    x = x_of_pair(H, lam, lam)
    assert x.h11 == 1 and x.h22 == 0 and not x.z
    assert sl4c_bridge_check(U)


def test_r32_jacobi_triples():
    from supergrass.kernel import jacobi_check
    from supergrass.minkowski import r32_fields

    t, _, ops = r32_fields()
    tau1, tau2, dt = ops["tau1"], ops["tau2"], ops["dt"]
    assert jacobi_check(tau1, tau1, tau2)
    assert jacobi_check(tau1, tau2, tau2)
    assert jacobi_check(tau1, tau2, dt)
    assert jacobi_check(ops["D1"], tau2, ops["D2"])


def test_hermitian2_holds_its_diagonal_in_the_stored_form():
    """The diagonal is an int or a real QI whatever rational form it arrives
    in, and a non-real value is refused, as it was when the diagonal was a
    Fraction."""
    z = H.element([1, Fraction(1, 2), 0, 0])
    h = Hermitian2(Fraction(3, 2), QI(4), z)
    assert (type(h.h11), type(h.h22)) == (QI, int) and (h.h11, h.h22) == (Fraction(3, 2), 4)
    g = Hermitian2.from_txz(Fraction(7, 2), QI(Fraction(1, 2)), z.scale(2))
    assert (g.h11, g.h22, g.z) == (2, Fraction(3, 2), z) and type(g.h11) is int
    assert (g.t, g.x) == (Fraction(7, 2), Fraction(1, 2)) and g.det() == 3 - z.norm_sq()
    for bad in (QI(0, 1), QI(1, 1)):
        with pytest.raises(TypeError):
            Hermitian2(bad, 0, z)
        with pytest.raises(TypeError):
            Hermitian2(1, bad, z)
