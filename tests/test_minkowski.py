import random
from fractions import Fraction

import pytest

from supergrass.divalg import C, H, O, R, DAElement
from supergrass.kernel import ParityError, SuperPolynomial
from supergrass.minkowski import (InvariantFields, MinkContext, Matrix,
                                  SuperTranslationElement, anticomm,
                                  basis_table_check, boost_bracket_check,
                                  centrality_check, chiral_dictionary_ok,
                                  chiral_field_relations_ok,
                                  chiral_matrix_relations_ok, comm,
                                  conj_formal_i,
                                  exp_element, group_law_check,
                                  k4_bridge_dictionary_ok, kmat2,
                                  lie_closure_dim,
                                  lorentz_conjugation, minkowski_norm_identity,
                                  nilpotency_checks, null_vector_check,
                                  q_matrix, q_unit, qq_check, qqbis_rhs,
                                  r_matrix, r_symmetry_check, reduction_charges,
                                  residual_rotations_fix_real_part, rho_endo,
                                  sigma_table, signature_identity_ok,
                                  sl4c_bridge_check, t_map, translation_block,
                                  wedge_coords, sigma_map, quadratic_form,
                                  wedge_square_coefficient, p_coords,
                                  x_matrix, x_of_pair)
from supergrass.scalars import QI


def rand_da(alg, rng, span=4):
    return alg.element([Fraction(rng.randint(-span, span), rng.randint(1, 2))
                        for _ in range(alg.dim)])


# -- the ring-generic matrix ---------------------------------------------------------

def _kind(e):
    """Entry type, down to the coefficient types of a DAElement."""
    if isinstance(e, DAElement):
        return DAElement, tuple(type(c) for c in e.coeffs)
    return type(e)


@pytest.mark.parametrize("ring", ["int", "QI", "DAElement"])
def test_matrix_product_and_transpose_against_naive(ring):
    """Matrix @ against the plain triple sum (no zero skipping, left factor
    first), on a 3x4 times 4x3 product with a zero row and a zero column."""
    rng = random.Random(8)
    if ring == "int":
        zero = 0

        def draw():
            return rng.randint(-3, 3)
    elif ring == "QI":
        zero = QI(0)

        def draw():
            return QI(rng.randint(-3, 3), rng.randint(-3, 3))
    else:
        # quaternions over the Clifford envelope with an odd parameter, so
        # neither K nor the coefficients commute
        ctx = MinkContext(4, n_eta=2)
        zero = H.zero_like(ctx.table.zero())
        gens = [ctx.table.one(), ctx.eps(), ctx.eta(1), ctx.eta(1) * ctx.eta(2)]

        def draw():
            return DAElement(H, [sum((g.scale(rng.randint(-2, 2)) for g in gens), ctx.table.zero())
                                 for _ in range(4)], ctx.table.zero())

    for _ in range(10):
        a = [[draw() if rng.random() < 0.7 else zero for _ in range(4)] for _ in range(3)]
        b = [[draw() if rng.random() < 0.7 else zero for _ in range(3)] for _ in range(4)]
        a[1] = [zero] * 4
        for row in b:
            row[2] = zero
        got = (Matrix(a, zero) @ Matrix(b, zero)).entries
        want = [[zero for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(3):
                for l in range(4):
                    want[i][j] = want[i][j] + a[i][l] * b[l][j]
        assert got == want
        assert [[_kind(e) for e in row] for row in got] == [[_kind(e) for e in row] for row in want]
        t = Matrix(a, zero).transpose().entries
        assert len(t) == 4 and all(len(row) == 3 for row in t)
        assert all(t[j][i] == a[i][j] for i in range(3) for j in range(4))


def test_scaled_matrix_lives_in_the_ring_of_the_scalar():
    """A rational matrix scaled by a polynomial moves into the polynomial
    ring, zero included, so the slots a product leaves empty are polynomial."""
    ctx = MinkContext(2)
    m = kmat2(C, C.one(), C.zero_like(), C.zero_like(), C.one()).scale(ctx.eps())
    p = m @ m
    for e in [p.zero, *(e for row in p.entries for e in row)]:
        assert all(isinstance(c, SuperPolynomial) for c in [*e.coeffs, e.zero])
    assert p.entries[0][1] == C.zero_like(ctx.table.zero())


# -- norm identity ---------------------------------------------------------------

def test_minkowski_norm_identity_random():
    rng = random.Random(3)
    for alg in (R, C, H, O):
        for _ in range(50):
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            z = rand_da(alg, rng)
            assert minkowski_norm_identity(t, x, z)


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


def test_qq_random_all_algebras():
    rng = random.Random(7)
    for k in (1, 2, 4, 8):
        ctx = MinkContext(k)
        for _ in range(8):
            lam, mu = rand_da(ctx.alg, rng), rand_da(ctx.alg, rng)
            for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
                assert qq_check(ctx, a, b, lam, mu)
                assert anticomm(q_matrix(ctx, a, lam), q_matrix(ctx, b, mu)) == \
                    qqbis_rhs(ctx, a, b, lam, mu)


def test_nilpotency_and_centrality():
    for k in (1, 2, 4):
        ctx = MinkContext(k)
        assert nilpotency_checks(ctx)
        assert centrality_check(ctx)
    assert centrality_check(MinkContext(8))


def test_eps_behavior_inside_entries():
    ctx = MinkContext(2, n_eta=2)
    e = ctx.eps()
    assert e * e == ctx.table.scalar(-1)
    for i in (1, 2):
        et = ctx.eta(i)
        assert et * e == -(e * et)


# -- null vectors and R-symmetry --------------------------------------------------

def test_null_vector_simple():
    x = x_of_pair(R, R.element([1]), R.element([0]))
    assert x.h11 == 1 and x.h22 == 0 and x.det() == 0 and x.t == 1
    assert null_vector_check(R, R.element([1]), R.element([0]))


def test_null_vector_octonion_units():
    assert null_vector_check(O, O.unit(2), O.unit(3))


def test_null_vector_random_octonions():
    rng = random.Random(11)
    for _ in range(20):
        assert null_vector_check(O, rand_da(O, rng), rand_da(O, rng))


def test_r_symmetry_complex():
    lam1, lam2 = C.element([1, 0]), C.element([0, 1])
    alpha = C.element([Fraction(3, 5), Fraction(4, 5)])
    assert r_symmetry_check("C", lam1, lam2, alpha)


def test_r_symmetry_quaternion_random():
    rng = random.Random(13)
    for _ in range(10):
        lam1, lam2 = rand_da(H, rng), rand_da(H, rng)
        # unit quaternion via the Cayley transform of an imaginary element
        u = H.element([0, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)),
                       Fraction(rng.randint(-3, 3))])
        n = 1 + u.norm_sq()
        alpha = (H.one() + u) * (H.one() + u)
        alpha = alpha.scale(Fraction(1, 1) / n)
        assert alpha.norm_sq() == 1
        assert r_symmetry_check("H", lam1, lam2, alpha)


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
    s = SuperTranslationElement(ctx, v={(1, 1): 2, (1, 2): 8, (2, 2): -1})
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


def test_group_law_random_k4():
    rng = random.Random(17)
    ctx = MinkContext(4, n_eta=4)
    etas = [ctx.eta(i) for i in (1, 2, 3, 4)]

    def rand_odd():
        p = ctx.table.zero()
        for e in etas:
            if rng.random() < 0.5:
                p = p + e.scale(Fraction(rng.randint(-2, 2)))
        return p

    def rand_even():
        p = ctx.table.scalar(rng.randint(-3, 3))
        p = p + (etas[0] * etas[1]).scale(rng.randint(-2, 2))
        return p

    for _ in range(4):
        e1 = SuperTranslationElement(
            ctx,
            v={(1, 1): rand_even(), (1, 2): rand_even()},
            w={2: rand_even(), 3: rand_even()},
            theta={(a, al): rand_odd() for a in (1, 2) for al in (1, 2, 3, 4)},
        )
        e2 = SuperTranslationElement(
            ctx,
            v={(2, 2): rand_even()},
            w={4: rand_even()},
            theta={(a, al): rand_odd() for a in (1, 2) for al in (1, 2, 3, 4)},
        )
        assert group_law_check(e1, e2)


def test_translation_element_parity_validation():
    ctx = MinkContext(1, n_eta=2)
    with pytest.raises(ParityError):
        SuperTranslationElement(ctx, v={(1, 1): ctx.eta(1)})
    with pytest.raises(ParityError):
        SuperTranslationElement(ctx, theta={(1, 1): ctx.eta(1) * ctx.eta(2)})


# -- Lorentz side -------------------------------------------------------------------

def test_basis_table_all_algebras():
    for alg in (R, C, H, O):
        assert basis_table_check(alg)


def test_boost_brackets_give_rotations():
    for alg in (R, C, H, O):
        assert boost_bracket_check(alg)


def test_residual_rotations():
    for alg in (H, O):
        assert residual_rotations_fix_real_part(alg)


def test_rho_rejects_non_tracefree():
    one, zero = C.one(), C.zero_like()
    with pytest.raises(ValueError):
        rho_endo(C, kmat2(C, one, zero, zero, one))


@pytest.mark.parametrize("k,dim", [(1, 3), (2, 6), (4, 15), (8, 45)])
def test_lie_closure_dimensions(k, dim):
    assert lie_closure_dim(k) == dim


def test_lorentz_conjugation_preserves_norm():
    rng = random.Random(23)
    for alg in (R, C):
        ctx = MinkContext(alg.dim)
        for _ in range(6):
            t = Fraction(rng.randint(-4, 4))
            x = Fraction(rng.randint(-4, 4))
            z = rand_da(alg, rng)
            hm_in = x_matrix(ctx, 1, 1).scale(Fraction(t + x, 2))
            hm_in = hm_in + x_matrix(ctx, 2, 2).scale(Fraction(t - x, 2))
            hm_in = hm_in + x_matrix(ctx, 1, 2, z.scale(Fraction(1, 2)))
            hm_in = hm_in + x_matrix(ctx, 2, 1, z.conj().scale(Fraction(1, 2)))
            b = Fraction(rng.randint(-2, 2))
            S = kmat2(alg, alg.one(), alg.unit(1, b), alg.zero_like(), alg.one())
            out = lorentz_conjugation(alg, S, hm_in)
            hm = translation_block(out)
            assert hm.t ** 2 - hm.x ** 2 - hm.z_full().norm_sq() == t ** 2 - x ** 2 - z.norm_sq()


# -- invariant vector fields ---------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 4])
def test_invariant_field_relations(k):
    assert InvariantFields(k).relations_ok()


def test_chiral_k2():
    assert chiral_matrix_relations_ok()
    assert chiral_field_relations_ok()
    assert chiral_dictionary_ok()


# -- reductions -----------------------------------------------------------------------

def test_reduction_k4():
    rep = reduction_charges(4)
    assert rep["star_ok"] is True


def test_reduction_k8_and_z_table():
    rep = reduction_charges(8)
    assert rep["star_ok"] is True
    # Z_12 = I(-u3 + sqrt(-1) u4): entry (1,5) must be (-u3 + i u4)/2
    z12 = rep["Z"][(1, 2)]
    e = z12.entries[0][4]
    assert e.coeffs[2] == rep["ctx"].table.scalar(Fraction(-1, 2))
    assert e.coeffs[3] == rep["ctx"].table.scalar(QI(0, Fraction(1, 2)))


def test_reduction_star_conjugation_k8():
    rep = reduction_charges(8)
    Z = rep["Z"]
    assert Z[(3, 4)] == conj_formal_i(Z[(1, 2)])
    assert Z[(2, 3)] == conj_formal_i(Z[(1, 4)])
    # *13 = 42 = -(2,4)
    assert (Z[(2, 4)].scale(-1)) == conj_formal_i(Z[(1, 3)])


# -- the k = 4 bridge ------------------------------------------------------------------

def qi(a, b=0):
    return QI(Fraction(a), Fraction(b))


def test_bridge_unit_vector():
    U = (qi(1), qi(0), qi(0), qi(0))
    y = wedge_coords(U, sigma_map(U))
    assert y[(1, 3)] == qi(1)
    assert all(v == qi(0) for k2, v in y.items() if k2 != (1, 3))
    lam1, lam2 = t_map(U)
    x = x_of_pair(H, lam1, lam2)
    assert x.h11 == 1 and x.h22 == 0 and x.z.is_zero()
    assert sl4c_bridge_check(U)


def test_bridge_random_vectors():
    rng = random.Random(29)
    for _ in range(12):
        U = tuple(qi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4))
        V = tuple(qi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4))
        assert sl4c_bridge_check(U)
        assert sl4c_bridge_check(U, V)


def test_bridge_signature_identity():
    rng = random.Random(31)
    for _ in range(25):
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
        z = rand_da(H, rng)
        assert signature_identity_ok(t, x, z)
        y = p_coords(t, x, z)
        assert wedge_square_coefficient(y) == quadratic_form(y) * 2


def test_bridge_dictionaries():
    assert k4_bridge_dictionary_ok()


def test_r32_jacobi_triples():
    from supergrass.kernel import jacobi_check
    from supergrass.minkowski import r32_fields

    t, ops = r32_fields()
    tau1, tau2, dt = ops["tau1"], ops["tau2"], ops["dt"]
    assert jacobi_check(tau1, tau1, tau2)
    assert jacobi_check(tau1, tau2, tau2)
    assert jacobi_check(tau1, tau2, dt)
    assert jacobi_check(ops["D1"], tau2, ops["D2"])


def test_wedge_formula_table():
    from supergrass.minkowski import reality_conditions_ok, wedge_formula_table_ok

    rng = random.Random(71)
    for _ in range(20):
        U = tuple(QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                  for _ in range(4))
        assert wedge_formula_table_ok(U)
        assert reality_conditions_ok(wedge_coords(U, sigma_map(U)))
