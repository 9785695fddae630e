"""Super Minkowski translation algebras over the normed division algebras.

The odd sector is realized by 5x5 matrices over K tensor a Clifford envelope
(one generator eps with eps^2 = -1 plus Grassmann parameters), following the
block embedding in which the even translations occupy the upper-right 2x2
block.  Every matrix product entry is a sum of single binary K-products, so
octonion non-associativity never enters.

Also here: the Lorentz side (the half-spinor action on Hermitian 2x2
matrices over K, its bracket closure), invariant vector fields with their
structure relations, the complexified dimensional reductions with central
charges, the exceptional four-complex-dimensional bridge for K = H, and the
R-symmetry invariance of null vectors.
"""

from __future__ import annotations

from .divalg import (ALGEBRAS, C, DAElement, DivisionAlgebra, H, O, R,
                     gamma_constants)
# super_bracket is unused here, but bench/test_bench.py checks that the
# tracer rebinds this imported copy
from .kernel import (EVEN, ODD, Derivation, ParityError, SymbolTable,
                     odd_field_relations_ok, odd_fields, super_bracket)
from .matrix import Matrix
from .scalars import QI, normalize, num_den, ratio

ALG_BY_K = {1: R, 2: C, 4: H, 8: O}
EPS_AB = {(1, 1): 0, (2, 2): 0, (1, 2): 1, (2, 1): -1}


# ---------------------------------------------------------------------------
# Hermitian 2x2 matrices over K and the Minkowski norm
# ---------------------------------------------------------------------------

class Hermitian2:
    """m = [[h11, z], [conj z, h22]] with z in K and a rational diagonal, an int or a real QI."""

    def __init__(self, h11, h22, z: DAElement):
        self.h11 = normalize(QI(h11))  # QI refuses a non-real value
        self.h22 = normalize(QI(h22))
        self.z = z

    @classmethod
    def from_txz(cls, t, x, z: DAElement):
        half = ratio(1, 2)
        return cls((t + x) * half, (t - x) * half, z.scale(half))

    @property
    def t(self):
        return self.h11 + self.h22

    @property
    def x(self):
        return self.h11 - self.h22

    @classmethod
    def of_block(cls, m: Matrix):
        """The translation block of a 5x5 matrix whose entries are constants."""
        h11, h22, z = translation_block(m)
        return cls(h11.constant_term(), h22.constant_term(),
                   z.alg.element(QI(c.constant_term()) for c in z.coeffs))

    def z_full(self):
        return self.z.scale(2)

    def det(self):
        """h11 h22 - |z|^2: one quarter of the Minkowski norm of (t,x,z)."""
        return self.h11 * self.h22 - self.z.norm_sq()

    def __eq__(self, other):
        return (self.h11 == other.h11 and self.h22 == other.h22 and self.z == other.z)

    def __repr__(self):
        return f"Hermitian2({self.h11}, {self.h22}, {self.z!r})"


def minkowski_norm_identity(t, x, z: DAElement) -> bool:
    """t^2 - x^2 - |z|^2 = 4 det h(t,x,z)."""
    h = Hermitian2.from_txz(t, x, z)
    return t ** 2 - x ** 2 - z.norm_sq() == 4 * h.det()


def kmat2(alg: DivisionAlgebra, e11, e12, e21, e22) -> Matrix:
    """2x2 matrix over K with rational coefficients."""
    return Matrix([[e11, e12], [e21, e22]], alg.zero_like())


# ---------------------------------------------------------------------------
# The 5x5 matrix realization of the odd translations
# ---------------------------------------------------------------------------

class MinkContext:
    """K plus the Clifford envelope C(span(eps) + q Grassmann parameters)."""

    def __init__(self, k, n_eta=0):
        self.k = k
        self.alg = ALG_BY_K[k]
        self.table = SymbolTable()
        self.table.clifford_symbol("eps", 1)
        self.eta_names = tuple(
            self.table.odd_symbol(f"et{i+1}").name for i in range(n_eta)
        )

    def eps(self):
        return self.table.sym("eps")

    def eta(self, i):
        return self.table.sym(f"et{i}")

    def promote(self, v: DAElement) -> DAElement:
        """Rational coefficients -> constant polynomials."""
        return v.scale(self.table.one())

    def zero_matrix(self) -> Matrix:
        return Matrix.zeros(5, self.alg.zero_like(self.table.zero()))

    def identity(self) -> Matrix:
        m = self.zero_matrix()
        one = self.promote(self.alg.one())
        for i in range(5):
            m[i, i] = one
        return m


def anticomm(m: Matrix, n: Matrix) -> Matrix:
    return (m @ n) + (n @ m)


def comm(m: Matrix, n: Matrix) -> Matrix:
    return (m @ n) - (n @ m)


# -- building blocks ----------------------------------------------------------

V_SLOT = {(1, 1): (0, 3), (1, 2): (0, 4), (2, 1): (1, 3), (2, 2): (1, 4)}


def x_matrix(ctx: MinkContext, a, b, value: DAElement = None) -> Matrix:
    """X_ab with an optional K value in place of 1."""
    m = ctx.zero_matrix()
    i, j = V_SLOT[(a, b)]
    m[i, j] = ctx.promote(ctx.alg.one() if value is None else value)
    return m


def r_matrix(ctx: MinkContext, a, b) -> Matrix:
    """R_(ab) = (X_ab + X_ba)/2."""
    return (x_matrix(ctx, a, b) + x_matrix(ctx, b, a)).scale(ratio(1, 2))


def im_matrix(ctx: MinkContext, gamma) -> Matrix:
    """Im_gamma = (u_gamma X_12 - u_gamma X_21)/2."""
    return script_i(ctx, ctx.alg.unit(gamma))


def script_i(ctx: MinkContext, zeta: DAElement) -> Matrix:
    """I_[12](zeta) = Im(zeta) (X_12 - X_21)/2 for purely imaginary zeta."""
    half = zeta.scale(ctx.table.scalar(ratio(1, 2)))
    m = ctx.zero_matrix()
    m[0, 4] = half
    m[1, 3] = -half
    return m


def q_matrix(ctx: MinkContext, a, lam) -> Matrix:
    """The eps-weighted odd matrix with K value lam on row a.

    lam may be a rational DAElement or one with even polynomial coefficients.
    """
    eps = ctx.eps()
    lam_eps = lam.scale(eps)
    # eps is odd and invertible, so eps * c is odd exactly when c is even
    for c in lam_eps.coeffs:
        if c.parity() not in (None, ODD):
            raise ParityError("q_matrix needs even coefficients")
    if a not in (1, 2):
        raise ValueError("row index must be 1 or 2")
    m = ctx.zero_matrix()
    m[a - 1, 2] = lam_eps
    m[2, a + 2] = lam.conj().scale(eps)
    return m


def q_unit(ctx: MinkContext, a, alpha) -> Matrix:
    return q_matrix(ctx, a, ctx.alg.unit(alpha))


# -- anticommutation relations -------------------------------------------------

def qq_rhs(ctx: MinkContext, a, b, lam: DAElement, mu: DAElement) -> Matrix:
    """- lam conj(mu) X_ab - mu conj(lam) X_ba."""
    return -(x_matrix(ctx, a, b, lam * mu.conj()) + x_matrix(ctx, b, a, mu * lam.conj()))


def qq_check(ctx: MinkContext, a, b, lam, mu) -> bool:
    return anticomm(q_matrix(ctx, a, lam), q_matrix(ctx, b, mu)) == qq_rhs(ctx, a, b, lam, mu)


def qqbis_rhs(ctx: MinkContext, a, b, lam: DAElement, mu: DAElement) -> Matrix:
    """-2(Re_(ab)(lam conj mu) + Im_[ab](lam conj mu))."""
    zeta = lam * mu.conj()
    re_part = (x_matrix(ctx, a, b, zeta.re()) + x_matrix(ctx, b, a, zeta.re())).scale(ratio(1, 2))
    im_part = (x_matrix(ctx, a, b, zeta.im()) - x_matrix(ctx, b, a, zeta.im())).scale(ratio(1, 2))
    return -(re_part + im_part).scale(2)


def bracket_terms(k, gammas, a, b, alpha, beta) -> dict:
    """The structure constants of [Q^alpha_a, Q^beta_b] = -2 sum c T over
    T = R_(ab) and Im_gamma: {"R": 1} when alpha = beta, and
    {gamma: eps_ab Gamma^([alpha beta] gamma)} for each nonzero Gamma."""
    out = {"R": 1} if alpha == beta else {}
    e = EPS_AB[(a, b)]
    if e:
        for g in range(2, k + 1):
            c = gammas.get((alpha, beta, g))
            if c:
                out[g] = e * c
    return out


def qqter_rhs(ctx: MinkContext, a, b, alpha, beta, gammas) -> Matrix:
    """-2(delta^(alpha beta) R_(ab) + Gamma^([alpha beta] gamma) eps_ab Im_gamma)."""
    out = ctx.zero_matrix()
    for key, c in bracket_terms(ctx.k, gammas, a, b, alpha, beta).items():
        out = out + (r_matrix(ctx, a, b) if key == "R" else im_matrix(ctx, key)).scale(c)
    return out.scale(-2)


def qqter_check_all(k) -> bool:
    """Every [Q^alpha_a, Q^beta_b] against qqter_rhs; its coefficients on
    R_(ab) and Im_gamma, read as a field on the coordinates v^(ab), w^gamma,
    must be the vector-field bracket [D^alpha_a, D^beta_b]."""
    ctx = MinkContext(k)
    inv = InvariantFields(k)
    qs = {(a, al): q_unit(ctx, a, al) for a in (1, 2) for al in range(1, k + 1)}
    for a in (1, 2):
        for b in (1, 2):
            for al in range(1, k + 1):
                for be in range(1, k + 1):
                    lhs = anticomm(qs[(a, al)], qs[(b, be)])
                    if lhs != qqter_rhs(ctx, a, b, al, be, inv.gammas):
                        return False
                    h11, h22, z = translation_block(lhs)
                    imgs = {inv.vname[1, 1]: h11.constant_term(), inv.vname[2, 2]: h22.constant_term(),
                            inv.vname[1, 2]: 2 * z.coeffs[0].constant_term()}
                    imgs.update((w, 2 * z.coeffs[g - 1].constant_term()) for g, w in inv.wname.items())
                    if Derivation(inv.table, EVEN, imgs) != inv.pair_translation(a, b, al, be, -2):
                        return False
    return True


def nilpotency_checks(ctx: MinkContext) -> bool:
    """X X = X Q = Q X = Q Q Q = 0 in the translation sector."""
    xs = [x_matrix(ctx, a, b) for a in (1, 2) for b in (1, 2)]
    qs = [q_unit(ctx, a, al) for a in (1, 2) for al in range(1, ctx.k + 1)]
    for x1 in xs:
        for x2 in xs:
            if not (x1 @ x2).is_zero():
                return False
        for q in qs:
            if not (x1 @ q).is_zero() or not (q @ x1).is_zero():
                return False
    for q1 in qs[:3]:
        for q2 in qs[:3]:
            q12 = q1 @ q2
            if not all((q12 @ q3).is_zero() for q3 in qs[:3]):
                return False
    return True


def centrality_check(ctx: MinkContext) -> bool:
    """All R_(ab), Im_alpha commute together and with every Q."""
    zs = [r_matrix(ctx, a, b) for (a, b) in ((1, 1), (1, 2), (2, 2))]
    zs += [im_matrix(ctx, g) for g in range(2, ctx.k + 1)]
    qs = [q_unit(ctx, a, al) for a in (1, 2) for al in range(1, ctx.k + 1)]
    for i, z1 in enumerate(zs):
        # [z, z] = 0 and [z2, z1] = -[z1, z2]: each pair is tried once
        for z2 in zs[i + 1:]:
            if not comm(z1, z2).is_zero():
                return False
        for q in qs:
            if not comm(z1, q).is_zero():
                return False
    return True


# -- null vectors and R-symmetries ----------------------------------------------

def hermitian_parts(m: Matrix, i=0, j=0):
    """(h11, h22, z) of the Hermitian 2x2 block [[h11, z], [conj z, h22]]
    over K at row i, column j of m, in the coefficient ring of m."""
    p, z, zbar, q = m[i, j], m[i, j + 1], m[i + 1, j], m[i + 1, j + 1]
    if p.im() or q.im():
        raise ValueError("diagonal entry is not real")
    if zbar != z.conj():
        raise ValueError("block is not Hermitian")
    return p.coeffs[0], q.coeffs[0], z


def translation_block(m: Matrix):
    """hermitian_parts of the V_SLOT block of a 5x5 matrix that is zero
    outside it: the matrix is h11 R_(11) + h22 R_(22) + 2 z_1 R_(12)
    + sum_gamma 2 z_gamma Im_gamma."""
    outside = [(i, j) for i, row in enumerate(m.rows) for j in row if i > 1 or j < 3]
    if outside:
        raise ValueError(f"support outside the translation block at {min(outside)}")
    return hermitian_parts(m, 0, 3)


def x_of_pair(alg: DivisionAlgebra, lam, mu) -> Hermitian2:
    """-[Q^lam, Q^mu]/2 for two spinor pairs lam = (lam1, lam2) and mu, read
    off the matrices; X^lam = x_of_pair(alg, lam, lam)."""
    ctx = MinkContext(alg.dim)
    q_lam, q_mu = (q_matrix(ctx, 1, l1) + q_matrix(ctx, 2, l2) for l1, l2 in (lam, mu))
    return Hermitian2.of_block(anticomm(q_lam, q_mu).scale(ratio(-1, 2)))


def null_vector_check(alg: DivisionAlgebra, lam1: DAElement, lam2: DAElement) -> bool:
    """det X = 0 and the time coordinate of X (its numerator) is nonnegative."""
    x = x_of_pair(alg, (lam1, lam2), (lam1, lam2))
    return x.det() == 0 and num_den(x.t)[0] >= 0


def r_symmetry_check(tag: str, lam1: DAElement, lam2: DAElement, unit: DAElement) -> bool:
    """X^(lam) is unchanged under the R-symmetry action by a unit element:
    left multiplication for C, right multiplication for H."""
    alg = ALGEBRAS[tag]
    if unit.norm_sq() != 1:
        raise ValueError("R-symmetry element must have unit norm")
    lam = (lam1, lam2)
    if tag == "C":
        new = (unit * lam1, unit * lam2)
    elif tag == "H":
        new = (lam1 * unit, lam2 * unit)
    else:
        raise ValueError("R-symmetry action implemented for C and H")
    return x_of_pair(alg, new, new) == x_of_pair(alg, lam, lam)


# ---------------------------------------------------------------------------
# Exponential group law
# ---------------------------------------------------------------------------

class SuperTranslationElement:
    """Coefficients of V + Theta: v[(a,b)] for the symmetric slots, w[gamma]
    for the imaginary directions, theta[(a,alpha)] for the odd charges.

    v and w must be even polynomials, theta odd (checked)."""

    def __init__(self, ctx: MinkContext, v=None, w=None, theta=None):
        self.ctx = ctx
        self.v = {k2: self._even(p) for k2, p in (v or {}).items()}
        self.w = {g: self._even(p) for g, p in (w or {}).items()}
        self.theta = {key: self._odd(p) for key, p in (theta or {}).items()}

    def _even(self, p):
        p = self.ctx.table.zero() + p  # an exact scalar becomes a constant
        if p.parity() not in (None, EVEN):
            raise ParityError("translation coefficients must be even")
        return p

    def _odd(self, p):
        if p.parity() not in (None, ODD):
            raise ParityError("odd charges need odd coefficients")
        return p

    def v_matrix(self) -> Matrix:
        out = self.ctx.zero_matrix()
        for (a, b), p in self.v.items():
            out = out + r_matrix(self.ctx, a, b).scale(p)
        for g, p in self.w.items():
            out = out + im_matrix(self.ctx, g).scale(p)
        return out

    def theta_matrix(self) -> Matrix:
        out = self.ctx.zero_matrix()
        for (a, alpha), p in self.theta.items():
            out = out + q_unit(self.ctx, a, alpha).scale(p)
        return out


def _exp(ctx: MinkContext, V: Matrix, T: Matrix) -> Matrix:
    """e^(V + T) = 1 + V + T + T^2/2 for a translation V and an odd T (the
    series truncates)."""
    return ctx.identity() + V + T + (T @ T).scale(ratio(1, 2))


def exp_element(el: SuperTranslationElement) -> Matrix:
    return _exp(el.ctx, el.v_matrix(), el.theta_matrix())


def group_law_check(e1: SuperTranslationElement, e2: SuperTranslationElement) -> bool:
    """exp(V+Theta) exp(W+Psi) = exp((V+W) + (Theta+Psi) + [Theta,Psi]/2)."""
    lhs = exp_element(e1) @ exp_element(e2)
    T1, T2 = e1.theta_matrix(), e2.theta_matrix()
    V = e1.v_matrix() + e2.v_matrix() + comm(T1, T2).scale(ratio(1, 2))
    return lhs == _exp(e1.ctx, V, T1 + T2)


# ---------------------------------------------------------------------------
# Lorentz side: rho, the basis table, bracket closure
# ---------------------------------------------------------------------------

def h2_basis(alg: DivisionAlgebra):
    """(e_-1, e_0, e_1, ..., e_k) as 2x2 K-matrices."""
    one, zero = alg.one(), alg.zero_like()
    es = [
        kmat2(alg, one, zero, zero, one),
        kmat2(alg, one, zero, zero, -one),
        kmat2(alg, zero, one, one, zero),
    ]
    for j in range(2, alg.dim + 1):
        u = alg.unit(j)
        es.append(kmat2(alg, zero, u, -u, zero))
    return es


def rho_endo(alg: DivisionAlgebra, sigma: Matrix) -> Matrix:
    """Matrix of m -> (sigma m + m conj(sigma)^t)/2 on the e basis; raises if
    sigma is not trace free."""
    if sigma[0, 0] + sigma[1, 1]:
        raise ValueError("sigma must be trace free")
    sig_dag = sigma.transpose().map(DAElement.conj)
    half = ratio(1, 2)
    cols = []
    for e in h2_basis(alg):
        # the coordinates of a Hermitian matrix in the e basis
        p, q, z = hermitian_parts((sigma @ e + e @ sig_dag).scale(half))
        cols.append([(p + q) * half, (p - q) * half, *z.coeffs])
    return Matrix(cols, 0).transpose()


def boost_matrix(alg, j) -> Matrix:
    """B_j: e_-1 <-> e_j, everything else to 0."""
    m = Matrix.zeros(alg.dim + 2, 0)
    m[j + 1, 0] = m[0, j + 1] = 1
    return m


def rotation_matrix(alg, i, j) -> Matrix:
    """A_ij: e_i -> e_j, e_j -> -e_i."""
    m = Matrix.zeros(alg.dim + 2, 0)
    m[j + 1, i + 1] = 1
    m[i + 1, j + 1] = -1
    return m


def sigma_table(alg: DivisionAlgebra):
    """(label, endo, sigma) rows of the displayed correspondence."""
    one, zero = alg.one(), alg.zero_like()
    rows = [("B0", boost_matrix(alg, 0), kmat2(alg, one, zero, zero, -one)),
            ("B1", boost_matrix(alg, 1), kmat2(alg, zero, one, one, zero)),
            ("A01", rotation_matrix(alg, 0, 1), kmat2(alg, zero, -one, one, zero))]
    for j in range(2, alg.dim + 1):
        u = alg.unit(j)
        rows.append((f"B{j}", boost_matrix(alg, j), kmat2(alg, zero, u, -u, zero)))
        rows.append((f"A0{j}", rotation_matrix(alg, 0, j), kmat2(alg, zero, -u, -u, zero)))
        rows.append((f"A1{j}", rotation_matrix(alg, 1, j), kmat2(alg, u, zero, zero, -u)))
    return rows


def basis_table_check(alg: DivisionAlgebra) -> bool:
    return all(rho_endo(alg, sigma) == endo for _, endo, sigma in sigma_table(alg))


def boost_bracket_check(alg: DivisionAlgebra) -> bool:
    """A_ij = -[B_i, B_j] for all 0 <= i < j <= k."""
    for i in range(0, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            bi, bj = boost_matrix(alg, i), boost_matrix(alg, j)
            if rotation_matrix(alg, i, j) != -(bi @ bj - bj @ bi):
                return False
    return True


def residual_rotations_fix_real_part(alg: DivisionAlgebra) -> bool:
    """The excluded rotations A_ij (2 <= i < j) annihilate e_-1, e_0, e_1."""
    for i in range(2, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            m = rotation_matrix(alg, i, j)
            if any(col < 3 for row in m.rows for col in row):
                return False
    return True


def tf2_basis(alg: DivisionAlgebra):
    """Real basis of the trace-free 2x2 matrices over K (3k elements)."""
    zero = alg.zero_like()
    out = []
    for a in range(1, alg.dim + 1):
        u = alg.unit(a)
        out.append(kmat2(alg, u, zero, zero, -u))
        out.append(kmat2(alg, zero, u, zero, zero))
        out.append(kmat2(alg, zero, zero, u, zero))
    return out


class _Echelon:
    """Sparse exact row echelon accumulator over Q, in ints and real QIs."""

    def __init__(self):
        self.rows = {}  # pivot position -> {pos: int or QI} with pivot value 1

    def add(self, vec: dict) -> bool:
        v = dict(vec)
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                inv = QI(1) / v[p]
                self.rows[p] = {i: normalize(x * inv) for i, x in v.items()}
                return True
            c = v[p]
            for i, x in row.items():
                nv = normalize(v.get(i, 0) - c * x)
                if nv:
                    v[i] = nv
                else:
                    v.pop(i, None)
        return False

    @property
    def rank(self):
        return len(self.rows)


def _flatten(m: Matrix):
    return {i * m.ncols + j: v for i, row in enumerate(m.rows) for j, v in row.items()}


def lie_closure(k: int):
    """(dimension, integer basis matrices) of the bracket closure of
    rho(trace-free 2x2 over K).

    Internally works with twice the generators: entries become integers and
    scaling does not change the span.
    """
    alg = ALG_BY_K[k]

    def doubled(x):
        v = normalize(2 * x)
        if type(v) is not int:
            raise ArithmeticError("rho entries should be half-integral")
        return v

    gens = [rho_endo(alg, s).map(doubled) for s in tf2_basis(alg)]
    span = _Echelon()
    basis = []
    for g in gens:
        if span.add(_flatten(g)):
            basis.append(g)
    frontier = list(basis)
    while frontier:
        fresh = []
        old = len(basis) - len(frontier)  # basis ends with the frontier
        for i, a in enumerate(basis):
            # [a, a] = 0, and [b, a] = -[a, b] is in the span once [a, b] was
            # offered, so a frontier element meets only the later ones
            for b in frontier[max(0, i - old + 1):]:
                c = a @ b - b @ a
                if span.add(_flatten(c)):
                    fresh.append(c)
        basis.extend(fresh)
        frontier = fresh
    return span.rank, basis


def closure_spans_lorentz(alg: DivisionAlgebra, basis) -> bool:
    """The closure basis spans exactly the boosts B_j and the rotations A_ij
    (0 <= i < j <= k), not merely a space of the right dimension."""
    span = _Echelon()
    for m in basis:
        span.add(_flatten(m))
    k = alg.dim
    abstract = [boost_matrix(alg, j) for j in range(k + 1)]
    abstract += [rotation_matrix(alg, i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    return span.rank == len(abstract) and not any(span.add(_flatten(m)) for m in abstract)


def lorentz_conjugation(alg: DivisionAlgebra, S: Matrix, m: Matrix) -> Matrix:
    """g e g^-1 with g = blockdiag(S, 1, (S^dagger)^-1); K = R or C only
    (the matrix algebra must be associative and commutative for the block
    inverse formula used here)."""
    if alg.which not in ("R", "C"):
        raise ValueError("conjugation action implemented for R and C only")
    s11, s12, s21, s22 = S[0, 0], S[0, 1], S[1, 0], S[1, 1]
    det = s11 * s22 - s12 * s21
    if det.im():
        raise ValueError("determinant must be real for this helper")
    inv = QI(1) / det.coeffs[0]
    sinv = kmat2(alg, s22.scale(inv), s12.scale(-inv), s21.scale(-inv), s11.scale(inv))

    def blockdiag(upper: Matrix, lower: Matrix) -> Matrix:
        """blockdiag(upper, 1, conj(lower)^t) over the zero of m."""
        out = Matrix.zeros(5, m.zero)
        out[2, 2] = alg.one()
        lower = lower.transpose().map(DAElement.conj)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out[i, j], out[3 + i, 3 + j] = upper[i, j], lower[i, j]
        return out

    # g = blockdiag(S, 1, (S^dagger)^-1) and g^-1 = blockdiag(S^-1, 1, S^dagger)
    return (blockdiag(S, sinv) @ m) @ blockdiag(sinv, S)


def lorentz_conjugation_preserves_norm(alg: DivisionAlgebra, S: Matrix, t, x, z: DAElement) -> bool:
    """g X g^-1 has the Minkowski norm of the translation X = X(t, x, z)."""
    ctx = MinkContext(alg.dim)
    h = Hermitian2.from_txz(t, x, z)
    m = (x_matrix(ctx, 1, 1, alg.unit(1, h.h11)) + x_matrix(ctx, 2, 2, alg.unit(1, h.h22))
         + x_matrix(ctx, 1, 2, h.z) + x_matrix(ctx, 2, 1, h.z.conj()))
    return Hermitian2.of_block(lorentz_conjugation(alg, S, m)).det() == h.det()


# ---------------------------------------------------------------------------
# Invariant vector fields on the super translation group
# ---------------------------------------------------------------------------

class InvariantFields:
    """Coordinates v^(ab) (3 even), w^gamma (k-1 even), th<a>_<alpha> (2k
    odd) with the left and right invariant odd vector fields

        D^alpha_a   = d^alpha_a - th^b_beta (delta ∂_(ab) + eps_ab ∂^[alpha beta])
        tau^alpha_a = d^alpha_a + th^b_beta (delta ∂_(ab) + eps_ab ∂^[alpha beta])
    """

    V_KEYS = ((1, 1), (1, 2), (2, 2))

    def __init__(self, k):
        self.k = k
        self.alg = ALG_BY_K[k]
        self.gammas = gamma_constants(self.alg)
        t = SymbolTable()
        self.vname = {ab: t.even_symbol(f"v{ab[0]}{ab[1]}").name for ab in self.V_KEYS}
        self.wname = {g: t.even_symbol(f"w{g}").name for g in range(2, k + 1)}
        self.thname = {}
        for a in (1, 2):
            for alpha in range(1, k + 1):
                self.thname[(a, alpha)] = t.odd_symbol(f"th{a}_{alpha}").name
        self.table = t

    def pairing(self) -> dict:
        """T pairs th^alpha_a with th^beta_b into pair_translation(a, b, alpha, beta, 1)."""
        return {(self.thname[a, alpha], self.thname[b, beta]):
                self.pair_translation(a, b, alpha, beta, 1)
                for a, alpha in self.thname for b, beta in self.thname}

    def fields(self, sign) -> list:
        """The D (sign -1) or tau (sign +1) fields, in the order of thname."""
        return odd_fields(self.table, tuple(self.thname.values()), self.pairing(), sign)

    def pair_translation(self, a, b, alpha, beta, factor) -> Derivation:
        """factor * (delta^(alpha beta) ∂_(ab) + eps_ab ∂^[alpha beta])."""
        t = self.table
        name = {"R": self.vname[tuple(sorted((a, b)))], **self.wname}
        return Derivation(t, EVEN, {name[key]: t.scalar(factor * c) for key, c in
                                    bracket_terms(self.k, self.gammas, a, b, alpha, beta).items()},
                          "rhs")

    def relations_ok(self) -> bool:
        return odd_field_relations_ok(self.table, tuple(self.thname.values()), self.pairing())


def r32_fields():
    """The three-dimensional specialization in (t, x, y) coordinates: th1
    pairs with itself into dt + dx, with th2 into dy, and th2 with itself
    into dt - dx, so tau_1 = d_1 + th1(dt + dx) + th2 dy,
    tau_2 = d_2 + th1 dy + th2(dt - dx), and D_a with the opposite signs.

    Returns (table, T, {"tau1", "tau2", "D1", "D2", "dt", "dx", "dy"})."""
    t = SymbolTable()
    d = {n: Derivation(t, EVEN, {t.even_symbol(n).name: 1}, "d" + n) for n in ("t", "x", "y")}
    thetas = (t.odd_symbol("th1").name, t.odd_symbol("th2").name)
    T = {("th1", "th1"): d["t"] + d["x"], ("th1", "th2"): d["y"], ("th2", "th1"): d["y"],
         ("th2", "th2"): d["t"] - d["x"]}
    ops = {"d" + n: op for n, op in d.items()}
    for label, sign in (("tau", 1), ("D", -1)):
        ops[label + "1"], ops[label + "2"] = odd_fields(t, thetas, T, sign)
    return t, T, ops


def r32_relations_ok() -> bool:
    t, T, _ = r32_fields()
    return odd_field_relations_ok(t, ("th1", "th2"), T)


def r32_dictionary_ok() -> bool:
    """The k = 1 fields expressed through v^(11) = (t+x)/2, v^(12) = y,
    v^(22) = (t-x)/2 coincide with the displayed (t, x, y) fields."""
    inv = InvariantFields(1)
    t3, _, ops = r32_fields()
    half = ratio(1, 2)
    sub = {
        "v11": (t3.sym("t") + t3.sym("x")).scale(half),
        "v12": t3.sym("y"),
        "v22": (t3.sym("t") - t3.sym("x")).scale(half),
        "th1_1": t3.sym("th1"),
        "th2_1": t3.sym("th2"),
    }

    def conjugated_equal(Xv: Derivation, Xt: Derivation) -> bool:
        # equality of derivations along the coordinate change: check on the
        # generators of the v table (all of which have images in sub)
        for s in inv.table.symbols:
            lhs = Xv(inv.table.sym(s.name)).substitute(sub)
            rhs = Xt(sub[s.name])
            if lhs != rhs:
                return False
        return True

    tau1, tau2 = inv.fields(1)
    D1, D2 = inv.fields(-1)
    pairs = [(tau1, ops["tau1"]), (tau2, ops["tau2"]), (D1, ops["D1"]), (D2, ops["D2"])]
    return all(conjugated_equal(a, b) for a, b in pairs)


# ---------------------------------------------------------------------------
# k = 2: chiral charges, fields and the coordinate dictionary
# ---------------------------------------------------------------------------

def chiral_charges(ctx: MinkContext, alpha, beta):
    """q_a = Q^alpha_a - i Q^beta_a and qbar_a = Q^alpha_a + i Q^beta_a for
    a = 1, 2, with i the formal square root of -1."""
    i = QI(0, 1)
    q = {a: q_unit(ctx, a, alpha) - q_unit(ctx, a, beta).scale(i) for a in (1, 2)}
    qbar = {a: q_unit(ctx, a, alpha) + q_unit(ctx, a, beta).scale(i) for a in (1, 2)}
    return q, qbar


def x_dotted(ctx: MinkContext, a, b) -> Matrix:
    """X_(a b-dot) = (X_ab + X_ba)/2 - i (u_2 X_ab - u_2 X_ba)/2."""
    u2 = ctx.alg.unit(2)
    return r_matrix(ctx, a, b) - (
        x_matrix(ctx, a, b, u2) - x_matrix(ctx, b, a, u2)).scale(ratio(1, 2)).scale(QI(0, 1))


def chiral_field_relations_ok() -> bool:
    """Coordinates x^(a b-dot) (4 even), th^a and thb^a-dot (4 odd): th^a
    pairs with thb^bd into ∂_(a bd), in both orders, and with th^b to 0, so
    D_a = d_a - thb^bd ∂_(a bd), Dbar_ad = dbar_ad - th^b ∂_(b ad) and the
    tau fields take + signs."""
    t = SymbolTable()
    xs = {(a, b): t.even_symbol(f"x{a}{b}").name for a in (1, 2) for b in (1, 2)}
    th = [t.odd_symbol(f"th{a}").name for a in (1, 2)]
    thb = [t.odd_symbol(f"thb{a}").name for a in (1, 2)]
    T = {}
    for (a, b), x in xs.items():
        T[th[a - 1], thb[b - 1]] = T[thb[b - 1], th[a - 1]] = Derivation(t, EVEN, {x: 1}, f"d{a}{b}")
    return odd_field_relations_ok(t, th + thb, T)


def coordinate_dictionary_ok(rows_coords, rows_derivs) -> bool:
    """rows_coords: matrix M with new coordinates = M * old coordinates;
    rows_derivs: claimed coefficients N of the new partials in the old ones.
    The chain rule demands M N^t = identity."""
    n = len(rows_coords)
    M = Matrix(rows_coords, QI(0))
    N = Matrix(rows_derivs, QI(0))
    return M @ N.transpose() == Matrix([[int(i == j) for j in range(n)] for i in range(n)], 0)


def chiral_dictionary_ok() -> bool:
    """x^(a b-dot) in terms of (t, x, z1, z2) against the displayed partials
    ∂_(1 1d) = ∂t + ∂x, ∂_(1 2d) = ∂z1 - i ∂z2, and so on."""
    i = QI(0, 1)
    h = ratio(1, 2)
    M = [  # rows: x11, x12, x21, x22 in terms of (t, x, z1, z2)
        [h, h, 0, 0],
        [0, 0, h, h * i],
        [0, 0, h, -(h * i)],
        [h, -h, 0, 0],
    ]
    N = [  # rows: d11, d12, d21, d22 in terms of (dt, dx, dz1, dz2)
        [1, 1, 0, 0],
        [0, 0, 1, -i],
        [0, 0, 1, i],
        [1, -1, 0, 0],
    ]
    return coordinate_dictionary_ok(M, N)


def k4_bridge_dictionary_ok() -> bool:
    """The six antisymmetric-square coordinates y^(ab) in terms of
    (t, x, z1..z4) against the displayed partials."""
    i = QI(0, 1)
    h = ratio(1, 2)
    # rows: y12, y13, y14, y23, y24, y34 over (t, x, z1, z2, z3, z4)
    M = [
        [0, 0, 0, 0, h, h * i],
        [h, h, 0, 0, 0, 0],
        [0, 0, h, h * i, 0, 0],
        [0, 0, h, -(h * i), 0, 0],
        [h, -h, 0, 0, 0, 0],
        [0, 0, 0, 0, h, -(h * i)],
    ]
    N = [
        [0, 0, 0, 0, 1, -i],
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, -i, 0, 0],
        [0, 0, 1, i, 0, 0],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, i],
    ]
    return coordinate_dictionary_ok(M, N)


# ---------------------------------------------------------------------------
# Dimensional reductions with central charges
# ---------------------------------------------------------------------------

REDUCTION_PAIRS = {2: {1: (1, 2)},
                   4: {1: (1, 2), 2: (3, 4)},
                   8: {1: (1, 2), 2: (3, 4), 3: (6, 7), 4: (8, 5)}}

Z_TABLES = {  # Z_AB = I_[12] of (coeff on u_first) + sqrt(-1)(coeff on u_second)
    2: {},
    4: {(1, 2): ((3, -1), (4, 1))},
    8: {
        (1, 2): ((3, -1), (4, 1)),
        (1, 3): ((6, -1), (7, 1)),
        (1, 4): ((8, -1), (5, 1)),
        (2, 3): ((8, -1), (5, -1)),
        (2, 4): ((6, 1), (7, 1)),
        (3, 4): ((3, -1), (4, -1)),
    },
}

STAR_PAIRS = {(1, 2): (3, 4), (1, 3): (4, 2), (1, 4): (2, 3)}


def _z_value(ctx: MinkContext, entry, i=1) -> DAElement:
    """c1 u_a1 + i sqrt(-1) c2 u_a2 with slots over the context's table, for
    i = 1 or -1: i = -1 gives the conjugate under the formal square root of -1."""
    (a1, c1), (a2, c2) = entry
    t = ctx.table
    coeffs = [t.zero()] * ctx.alg.dim
    coeffs[a1 - 1], coeffs[a2 - 1] = t.scalar(c1), t.scalar(QI(0, i * c2))
    return DAElement(ctx.alg, coeffs)


def reduction_charges(k: int):
    """The relations of the complexified charges Q_aA = Q^alpha_a - i
    Q^beta_a and Qbar_aA = Q^alpha_a + i Q^beta_a, (alpha, beta) the pair A
    of REDUCTION_PAIRS[k]: the chiral charges at k = 2, the reductions with
    central charges Z_AB at k = 4 and 8.  Uses the doubled charges sqrt(2)
    Q, so all right-hand sides carry a factor of 4 instead of 2.  Returns
    the name of the first relation that fails (which would indicate an
    inconsistent multiplication table), or None.
    """
    if k not in REDUCTION_PAIRS:
        raise ValueError("reduction implemented for k = 2, 4 and 8")
    ctx = MinkContext(k)
    pairs = REDUCTION_PAIRS[k]
    Q, Qb = {}, {}
    for A, (al, be) in pairs.items():
        q, qbar = chiral_charges(ctx, al, be)
        for a in (1, 2):
            Q[(a, A)], Qb[(a, A)] = q[a], qbar[a]
    xdot = {(a, b): x_dotted(ctx, a, b) for a in (1, 2) for b in (1, 2)}

    # the K value of each Z_AB and of its conjugate under the formal square
    # root of -1, whose I_[12] is Zbar_AB, in both orders
    zval, zconj = {}, {}
    for (A, B), entry in Z_TABLES[k].items():
        zval[A, B], zconj[A, B] = _z_value(ctx, entry), _z_value(ctx, entry, -1)
        zval[B, A], zconj[B, A] = -zval[A, B], -zconj[A, B]
    Z = {AB: script_i(ctx, v) for AB, v in zval.items()}
    Zbar = {AB: script_i(ctx, v) for AB, v in zconj.items()}

    for A in pairs:
        for B in pairs:
            for a in (1, 2):
                for b in (1, 2):
                    e = EPS_AB[(a, b)] if A != B else 0  # Z_AA = 0
                    want_mixed = xdot[(a, b)].scale(-4) if A == B else ctx.zero_matrix()
                    if anticomm(Q[(a, A)], Qb[(b, B)]) != want_mixed:
                        return f"[Q_{a}{A}, Qbar_{b}{B}]"
                    want_qq = Z[(A, B)].scale(-4 * e) if e else ctx.zero_matrix()
                    if anticomm(Q[(a, A)], Q[(b, B)]) != want_qq:
                        return f"[Q_{a}{A}, Q_{b}{B}]"
                    want_bb = Zbar[(A, B)].scale(-4 * e) if e else ctx.zero_matrix()
                    if anticomm(Qb[(a, A)], Qb[(b, B)]) != want_bb:
                        return f"[Qbar_{a}{A}, Qbar_{b}{B}]"
    if k == 8:
        for (A, B), (sA, sB) in STAR_PAIRS.items():
            if zval[(sA, sB)] != zconj[(A, B)]:
                return f"Z_*({A}{B})"
    return None


# ---------------------------------------------------------------------------
# The exceptional bridge for k = 4 (antisymmetric square of C^4)
# ---------------------------------------------------------------------------

def sigma_map(U):
    """U = (u1, u2, u3, u4) in C^4 -> (-conj u3, -conj u4, conj u1, conj u2)."""
    u1, u2, u3, u4 = U
    return (-u3.conjugate(), -u4.conjugate(), u1.conjugate(), u2.conjugate())


def wedge_coords(U, V):
    """y^(ab) coefficients of U wedge V."""
    out = {}
    for a in range(4):
        for b in range(a + 1, 4):
            out[(a + 1, b + 1)] = U[a] * V[b] - U[b] * V[a]
    return out


def quadratic_form(y):
    """B(Y, Y) = y12 y34 - y13 y24 + y14 y23; the wedge square of Y carries
    twice this value on the top exterior generator."""
    return y[(1, 2)] * y[(3, 4)] - y[(1, 3)] * y[(2, 4)] + y[(1, 4)] * y[(2, 3)]


def wedge_formula_table_ok(U) -> bool:
    """The six displayed coefficient formulas for U wedge sigma(U):
    y12 = u2 conj(u3) - u1 conj(u4), y13 = |u1|^2 + |u3|^2,
    y14 = u1 conj(u2) + u4 conj(u3), y23 = u2 conj(u1) + u3 conj(u4),
    y24 = |u2|^2 + |u4|^2, y34 = u3 conj(u2) - u4 conj(u1)."""
    u1, u2, u3, u4 = U
    want = {
        (1, 2): u2 * u3.conjugate() - u1 * u4.conjugate(),
        (1, 3): u1 * u1.conjugate() + u3 * u3.conjugate(),
        (1, 4): u1 * u2.conjugate() + u4 * u3.conjugate(),
        (2, 3): u2 * u1.conjugate() + u3 * u4.conjugate(),
        (2, 4): u2 * u2.conjugate() + u4 * u4.conjugate(),
        (3, 4): u3 * u2.conjugate() - u4 * u1.conjugate(),
    }
    return wedge_coords(U, sigma_map(U)) == want


def t_map(U):
    """C^4 -> H^2: (u1 + j u3, u2 + j u4), with the quaternion convention
    u2 u3 = u4 (so j (a + b u2) = a u3 - b u4)."""
    def to_h(c, d):
        (a, b, m), (e, f, n) = c.parts(), d.parts()
        return H.element([ratio(a, m), ratio(b, m), ratio(e, n), ratio(-f, n)])

    u1, u2, u3, u4 = U
    return to_h(u1, u3), to_h(u2, u4)


def p_coords(t, x, z: DAElement):
    """P: (t, x, z) -> y coordinates of the embedded Minkowski vector."""
    z1, z2, z3, z4 = z.coeffs
    h = ratio(1, 2)
    return {
        (1, 2): QI(z3 * h, z4 * h),
        (1, 3): QI((t + x) * h),
        (1, 4): QI(z1 * h, z2 * h),
        (2, 3): QI(z1 * h, -z2 * h),
        (2, 4): QI((t - x) * h),
        (3, 4): QI(z3 * h, -z4 * h),
    }


def p_of_hermitian(hm: Hermitian2):
    return p_coords(hm.t, hm.x, hm.z_full())


def reality_conditions_ok(y) -> bool:
    return (y[(1, 2)].conjugate() == y[(3, 4)]
            and y[(1, 4)].conjugate() == y[(2, 3)]
            and y[(1, 3)] == y[(1, 3)].conjugate() and y[(2, 4)] == y[(2, 4)].conjugate())


def sl4c_bridge_check(U, V=None) -> bool:
    """The commuting square: P([Q^(T U), Q^(T U)]) = -2 U wedge sigma(U), and
    by polarization P([Q^(T U), Q^(T V)]) = -(U wedge sigma V + V wedge sigma U)."""
    lam = t_map(U)
    y_from_x = p_of_hermitian(x_of_pair(H, lam, lam))
    y_wedge = wedge_coords(U, sigma_map(U))
    if not reality_conditions_ok(y_wedge):
        return False
    for key in y_wedge:
        if y_from_x[key] != QI(0) + y_wedge[key]:
            return False
    if V is None:
        return True
    lhs = p_of_hermitian(x_of_pair(H, lam, t_map(V)))  # P of -(1/2)[Q^U, Q^V]
    sU, sV = sigma_map(U), sigma_map(V)
    for key in lhs:
        rhs = (wedge_coords(U, sV)[key] + wedge_coords(V, sU)[key]) * ratio(1, 2)
        if lhs[key] != QI(0) + rhs:
            return False
    return True


def signature_identity_ok(t, x, z: DAElement) -> bool:
    """4 B(P v, P v) = -(t^2 - x^2 - |z|^2)."""
    y = p_coords(t, x, z)
    lhs = quadratic_form(y) * 4
    rhs = -(t ** 2 - x ** 2 - z.norm_sq())
    return lhs == QI(0) + rhs
