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

from fractions import Fraction

from .divalg import (ALGEBRAS, C, DAElement, DivisionAlgebra, H, O, R,
                     gamma_constants)
from .kernel import (EVEN, ODD, Derivation, ParityError, SuperPolynomial,
                     SymbolTable, super_bracket)
from .scalars import QI, frac, rational_part

ALG_BY_K = {1: R, 2: C, 4: H, 8: O}
EPS_AB = {(1, 1): 0, (2, 2): 0, (1, 2): 1, (2, 1): -1}


# ---------------------------------------------------------------------------
# Hermitian 2x2 matrices over K and the Minkowski norm
# ---------------------------------------------------------------------------

class Hermitian2:
    """m = [[h11, z], [conj z, h22]] with rational diagonal and z in K."""

    def __init__(self, h11, h22, z: DAElement):
        self.h11 = frac(h11)
        self.h22 = frac(h22)
        self.z = z

    @classmethod
    def from_txz(cls, t, x, z: DAElement):
        return cls(Fraction(frac(t) + frac(x), 2), Fraction(frac(t) - frac(x), 2),
                   z.scale(Fraction(1, 2)))

    @property
    def t(self):
        return self.h11 + self.h22

    @property
    def x(self):
        return self.h11 - self.h22

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
    return frac(t) ** 2 - frac(x) ** 2 - z.norm_sq() == 4 * h.det()


# ---------------------------------------------------------------------------
# Small dense matrices over any ring
# ---------------------------------------------------------------------------

class Matrix:
    """Dense matrix over a ring whose elements support +, - and * and test
    false exactly when zero: int, Fraction, QI, or DAElement with rational or
    polynomial coefficients.

    `zero` is the ring's zero; it fills every slot a product leaves empty, so
    those slots keep the entry type.  Products skip zero factors, and each
    entry is a sum of single binary products in index order, so octonion
    non-associativity never enters.
    """

    __slots__ = ("entries", "zero")

    def __init__(self, entries, zero):
        self.entries = entries
        self.zero = zero

    @classmethod
    def zeros(cls, n, zero):
        return cls([[zero] * n for _ in range(n)], zero)

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)], self.zero)

    def __sub__(self, other):
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)], self.zero)

    def __neg__(self):
        return self.map(lambda a: -a)

    def scale(self, c):
        """Entrywise e.scale(c): c multiplies each entry on the left.  The
        result lives in the ring of the scaled zero, as the entries do."""
        return Matrix([[e.scale(c) for e in row] for row in self.entries], self.zero.scale(c))

    def map(self, f):
        return Matrix([[f(e) for e in row] for row in self.entries], f(self.zero))

    def transpose(self):
        return Matrix([list(col) for col in zip(*self.entries)], self.zero)

    def __matmul__(self, other):
        zero = self.zero
        out = []
        for row in self.entries:
            acc = [zero] * len(other.entries[0])
            for a, orow in zip(row, other.entries):
                if not a:
                    continue
                for j, b in enumerate(orow):
                    if b:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(out, zero)

    def is_zero(self):
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"Matrix({self.entries!r})"


def kmat2(alg: DivisionAlgebra, e11, e12, e21, e22) -> Matrix:
    """2x2 matrix over K with rational (or Gaussian) coefficients."""
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
        """Rational or Gaussian coefficients -> constant polynomials."""
        return v.scale(self.table.one())

    def zero_matrix(self) -> Matrix:
        return Matrix.zeros(5, self.alg.zero_like(self.table.zero()))

    def identity(self) -> Matrix:
        m = self.zero_matrix()
        one = self.promote(self.alg.one())
        for i in range(5):
            m.entries[i][i] = one
        return m


def conj_formal_i(m: Matrix) -> Matrix:
    """Conjugate every scalar coefficient w.r.t. the formal square root of -1
    (entrywise; K-basis coefficients untouched)."""
    def cpoly(p: SuperPolynomial):
        return SuperPolynomial(p.table, {key: c.conjugate() for key, c in p.terms.items()})

    return m.map(lambda e: DAElement(e.alg, [cpoly(c) for c in e.coeffs], e.zero))


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
    m.entries[i][j] = ctx.promote(ctx.alg.one() if value is None else value)
    return m


def r_matrix(ctx: MinkContext, a, b) -> Matrix:
    """R_(ab) = (X_ab + X_ba)/2."""
    return (x_matrix(ctx, a, b) + x_matrix(ctx, b, a)).scale(Fraction(1, 2))


def im_matrix(ctx: MinkContext, gamma) -> Matrix:
    """Im_gamma = (u_gamma X_12 - u_gamma X_21)/2."""
    return script_i(ctx, ctx.alg.unit(gamma))


def script_i(ctx: MinkContext, zeta: DAElement) -> Matrix:
    """I_[12](zeta) = Im(zeta) (X_12 - X_21)/2 for purely imaginary zeta."""
    half = zeta.scale(ctx.table.scalar(Fraction(1, 2)))
    m = ctx.zero_matrix()
    m.entries[0][4] = half
    m.entries[1][3] = -half
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
    lam_bar_eps = lam.conj().scale(eps)
    m = ctx.zero_matrix()
    if a == 1:
        m.entries[0][2] = lam_eps
        m.entries[2][3] = lam_bar_eps
    elif a == 2:
        m.entries[1][2] = lam_eps
        m.entries[2][4] = lam_bar_eps
    else:
        raise ValueError("row index must be 1 or 2")
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
    re_part = (x_matrix(ctx, a, b, zeta.re()) + x_matrix(ctx, b, a, zeta.re())).scale(Fraction(1, 2))
    im_part = (x_matrix(ctx, a, b, zeta.im()) - x_matrix(ctx, b, a, zeta.im())).scale(Fraction(1, 2))
    return -(re_part + im_part).scale(2)


def qqter_rhs(ctx: MinkContext, a, b, alpha, beta, gammas=None) -> Matrix:
    """-2(delta^(alpha beta) R_(ab) + Gamma^([alpha beta] gamma) eps_ab Im_gamma)."""
    if gammas is None:
        gammas = gamma_constants(ctx.alg)
    out = ctx.zero_matrix()
    if alpha == beta:
        out = out + r_matrix(ctx, a, b)
    e = EPS_AB[(a, b)]
    if e:
        for g in range(2, ctx.k + 1):
            c = gammas.get((alpha, beta, g))
            if c:
                out = out + im_matrix(ctx, g).scale(Fraction(c) * e)
    return out.scale(-2)


def qqter_check_all(k) -> bool:
    ctx = MinkContext(k)
    gammas = gamma_constants(ctx.alg)
    qs = {(a, al): q_unit(ctx, a, al) for a in (1, 2) for al in range(1, k + 1)}
    for a in (1, 2):
        for b in (1, 2):
            for al in range(1, k + 1):
                for be in range(1, k + 1):
                    lhs = anticomm(qs[(a, al)], qs[(b, be)])
                    if lhs != qqter_rhs(ctx, a, b, al, be, gammas):
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
            for q3 in qs[:3]:
                if not ((q1 @ q2) @ q3).is_zero():
                    return False
    return True


def centrality_check(ctx: MinkContext) -> bool:
    """All R_(ab), Im_alpha commute together and with every Q."""
    zs = [r_matrix(ctx, a, b) for (a, b) in ((1, 1), (1, 2), (2, 2))]
    zs += [im_matrix(ctx, g) for g in range(2, ctx.k + 1)]
    qs = [q_unit(ctx, a, al) for a in (1, 2) for al in range(1, ctx.k + 1)]
    for z1 in zs:
        for z2 in zs:
            if not comm(z1, z2).is_zero():
                return False
        for q in qs:
            if not comm(z1, q).is_zero():
                return False
    return True


# -- null vectors and R-symmetries ----------------------------------------------

def translation_block(m: Matrix) -> Hermitian2:
    """Read the upper-right 2x2 block as a Hermitian matrix over K."""
    def as_rational(e: DAElement):
        if any(e.coeffs[1:]):
            raise ValueError("diagonal entry is not real")
        return rational_part(e.coeffs[0].scalar_part())

    def as_kelem(e: DAElement):
        return e.alg.element(rational_part(c.scalar_part()) for c in e.coeffs)

    h11 = as_rational(m.entries[0][3])
    h22 = as_rational(m.entries[1][4])
    z = as_kelem(m.entries[0][4])
    zbar = as_kelem(m.entries[1][3])
    if zbar != z.conj():
        raise ValueError("block is not Hermitian")
    return Hermitian2(h11, h22, z)


def x_of_pair(alg: DivisionAlgebra, lam1: DAElement, lam2: DAElement) -> Hermitian2:
    """X with [Q^(lam1,lam2), Q^(lam1,lam2)] = -2X, extracted from the matrices."""
    ctx = MinkContext(alg.dim)
    q = q_matrix(ctx, 1, lam1) + q_matrix(ctx, 2, lam2)
    a = anticomm(q, q).scale(Fraction(-1, 2))
    return translation_block(a)


def null_vector_check(alg: DivisionAlgebra, lam1: DAElement, lam2: DAElement) -> bool:
    """det X = 0 and the time coordinate of X is nonnegative."""
    x = x_of_pair(alg, lam1, lam2)
    return x.det() == 0 and x.t >= 0


def r_symmetry_check(tag: str, lam1: DAElement, lam2: DAElement, unit: DAElement) -> bool:
    """X^(lam) is unchanged under the R-symmetry action by a unit element:
    left multiplication for C, right multiplication for H."""
    alg = ALGEBRAS[tag]
    if unit.norm_sq() != 1:
        raise ValueError("R-symmetry element must have unit norm")
    if tag == "C":
        new1, new2 = unit * lam1, unit * lam2
    elif tag == "H":
        new1, new2 = lam1 * unit, lam2 * unit
    else:
        raise ValueError("R-symmetry action implemented for C and H")
    return x_of_pair(alg, new1, new2) == x_of_pair(alg, lam1, lam2)


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


def exp_element(el: SuperTranslationElement) -> Matrix:
    """e^(V + Theta) = 1 + V + Theta + Theta^2/2 (the series truncates)."""
    V = el.v_matrix()
    T = el.theta_matrix()
    return el.ctx.identity() + V + T + (T @ T).scale(Fraction(1, 2))


def group_law_check(e1: SuperTranslationElement, e2: SuperTranslationElement) -> bool:
    """exp(V+Theta) exp(W+Psi) = exp((V+W) + (Theta+Psi) + [Theta,Psi]/2)."""
    ctx = e1.ctx
    lhs = exp_element(e1) @ exp_element(e2)
    T1, T2 = e1.theta_matrix(), e2.theta_matrix()
    V = e1.v_matrix() + e2.v_matrix() + comm(T1, T2).scale(Fraction(1, 2))
    T = T1 + T2
    rhs = ctx.identity() + V + T + (T @ T).scale(Fraction(1, 2))
    return lhs == rhs


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


def hermitian_to_vector(alg: DivisionAlgebra, m: Matrix):
    """Coordinates of a Hermitian matrix in the e basis (length k+2)."""
    (p, z), (zbar, q) = m.entries
    if any(p.coeffs[1:]) or any(q.coeffs[1:]):
        raise ValueError("diagonal must be real")
    if zbar != z.conj():
        raise ValueError("matrix is not Hermitian")
    pr, qr = p.coeffs[0], q.coeffs[0]
    vec = [Fraction(pr + qr, 2), Fraction(pr - qr, 2)]
    vec.extend(z.coeffs)
    return vec


def rho_endo(alg: DivisionAlgebra, sigma: Matrix) -> Matrix:
    """Matrix of m -> (sigma m + m conj(sigma)^t)/2 on the e basis; raises if
    sigma is not trace free."""
    if sigma.entries[0][0] + sigma.entries[1][1]:
        raise ValueError("sigma must be trace free")
    sig_dag = sigma.transpose().map(DAElement.conj)
    cols = [hermitian_to_vector(alg, (sigma @ e + e @ sig_dag).scale(Fraction(1, 2)))
            for e in h2_basis(alg)]
    return Matrix(cols, Fraction(0)).transpose()


def boost_matrix(alg, j) -> Matrix:
    """B_j: e_-1 <-> e_j, everything else to 0."""
    m = Matrix.zeros(alg.dim + 2, Fraction(0))
    m.entries[j + 1][0] = m.entries[0][j + 1] = Fraction(1)
    return m


def rotation_matrix(alg, i, j) -> Matrix:
    """A_ij: e_i -> e_j, e_j -> -e_i."""
    m = Matrix.zeros(alg.dim + 2, Fraction(0))
    m.entries[j + 1][i + 1] = Fraction(1)
    m.entries[i + 1][j + 1] = Fraction(-1)
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
            if any(row[col] for row in m.entries for col in (0, 1, 2)):
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
    """Sparse exact row echelon accumulator over Q."""

    def __init__(self):
        self.rows = {}  # pivot position -> {pos: Fraction} with pivot value 1

    def add(self, vec: dict) -> bool:
        v = dict(vec)
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                c = v[p]
                self.rows[p] = {i: x / c for i, x in v.items()}
                return True
            c = v[p]
            for i, x in row.items():
                nv = v.get(i, Fraction(0)) - c * x
                if nv:
                    v[i] = nv
                else:
                    v.pop(i, None)
        return False

    @property
    def rank(self):
        return len(self.rows)


def _flatten(m: Matrix):
    n = len(m.entries)
    return {i * n + j: Fraction(v)
            for i, row in enumerate(m.entries) for j, v in enumerate(row) if v}


def lie_closure(k: int):
    """(dimension, integer basis matrices) of the bracket closure of
    rho(trace-free 2x2 over K).

    Internally works with twice the generators: entries become integers and
    scaling does not change the span.
    """
    alg = ALG_BY_K[k]

    def doubled(x):
        v = 2 * x
        if v.denominator != 1:
            raise ArithmeticError("rho entries should be half-integral")
        return v.numerator

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


def lie_closure_dim(k: int) -> int:
    return lie_closure(k)[0]


def lorentz_conjugation(alg: DivisionAlgebra, S: Matrix, m: Matrix) -> Matrix:
    """g e g^-1 with g = blockdiag(S, 1, (S^dagger)^-1); K = R or C only
    (the matrix algebra must be associative and commutative for the block
    inverse formula used here)."""
    if alg.which not in ("R", "C"):
        raise ValueError("conjugation action implemented for R and C only")
    (s11, s12), (s21, s22) = S.entries
    det = s11 * s22 - s12 * s21
    if any(det.coeffs[1:]):
        raise ValueError("determinant must be real for this helper")
    inv = Fraction(1) / det.coeffs[0]
    sinv = kmat2(alg, s22.scale(inv), s12.scale(-inv), s21.scale(-inv), s11.scale(inv))

    def blockdiag(upper: Matrix, lower: Matrix) -> Matrix:
        """blockdiag(upper, 1, conj(lower)^t) over the zero of m."""
        out = Matrix.zeros(5, m.zero)
        out.entries[2][2] = alg.one()
        lower = lower.transpose().map(DAElement.conj)
        for i in range(2):
            for j in range(2):
                out.entries[i][j] = upper.entries[i][j]
                out.entries[3 + i][3 + j] = lower.entries[i][j]
        return out

    # g = blockdiag(S, 1, (S^dagger)^-1) and g^-1 = blockdiag(S^-1, 1, S^dagger)
    return (blockdiag(S, sinv) @ m) @ blockdiag(sinv, S)


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

    def __init__(self, k, n_eta=0):
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
        for i in range(n_eta):
            t.odd_symbol(f"et{i+1}")
        self.table = t

    def _field(self, a, alpha, sign, label):
        t = self.table
        imgs = {self.thname[(a, alpha)]: t.one()}
        for b in (1, 2):
            key = self.vname[tuple(sorted((a, b)))]
            inc = t.sym(self.thname[(b, alpha)]).scale(sign)
            imgs[key] = imgs.get(key, t.zero()) + inc
        b = 2 if a == 1 else 1
        e = EPS_AB[(a, b)]
        for beta in range(1, self.k + 1):
            for g in range(2, self.k + 1):
                c = self.gammas.get((alpha, beta, g))
                if c:
                    key = self.wname[g]
                    inc = t.sym(self.thname[(b, beta)]).scale(sign * e * c)
                    imgs[key] = imgs.get(key, t.zero()) + inc
        return Derivation(t, ODD, imgs, label)

    def D(self, a, alpha) -> Derivation:
        return self._field(a, alpha, Fraction(-1), f"D{a}_{alpha}")

    def tau(self, a, alpha) -> Derivation:
        return self._field(a, alpha, Fraction(1), f"tau{a}_{alpha}")

    def pair_translation(self, a, b, alpha, beta, factor) -> Derivation:
        """factor * (delta^(alpha beta) ∂_(ab) + eps_ab ∂^[alpha beta])."""
        t = self.table
        imgs = {}
        if alpha == beta:
            imgs[self.vname[tuple(sorted((a, b)))]] = t.scalar(factor)
        e = EPS_AB[(a, b)]
        if e:
            for g in range(2, self.k + 1):
                c = self.gammas.get((alpha, beta, g))
                if c:
                    imgs[self.wname[g]] = t.scalar(factor * e * c)
        return Derivation(t, EVEN, imgs, "rhs")

    def relations_ok(self) -> bool:
        slots = [(a, alpha) for a in (1, 2) for alpha in range(1, self.k + 1)]
        tau = {s: self.tau(*s) for s in slots}
        D = {s: self.D(*s) for s in slots}
        for a in (1, 2):
            for b in (1, 2):
                for alpha in range(1, self.k + 1):
                    for beta in range(1, self.k + 1):
                        tt = super_bracket(tau[a, alpha], tau[b, beta])
                        dd = super_bracket(D[a, alpha], D[b, beta])
                        td = super_bracket(tau[a, alpha], D[b, beta])
                        if tt != self.pair_translation(a, b, alpha, beta, Fraction(2)):
                            return False
                        if dd != self.pair_translation(a, b, alpha, beta, Fraction(-2)):
                            return False
                        if not td.is_zero():
                            return False
        return True


def r32_fields(n_eta=0):
    """The three-dimensional specialization in (t, x, y) coordinates:
    tau_1 = d_1 + th1(dt + dx) + th2 dy, tau_2 = d_2 + th1 dy + th2(dt - dx),
    and D_a with the opposite signs."""
    t = SymbolTable()
    for n in ("t", "x", "y"):
        t.even_symbol(n)
    t.odd_symbol("th1")
    t.odd_symbol("th2")
    for i in range(n_eta):
        t.odd_symbol(f"et{i+1}")
    th1, th2 = t.sym("th1"), t.sym("th2")

    def mk(sign, label):
        one = t.one()
        f1 = Derivation(t, ODD, {
            "th1": one, "t": th1.scale(sign), "x": th1.scale(sign), "y": th2.scale(sign)
        }, label + "1")
        f2 = Derivation(t, ODD, {
            "th2": one, "y": th1.scale(sign), "t": th2.scale(sign), "x": th2.scale(-sign)
        }, label + "2")
        return f1, f2

    tau1, tau2 = mk(Fraction(1), "tau")
    D1, D2 = mk(Fraction(-1), "D")
    dt = Derivation(t, EVEN, {"t": 1}, "dt")
    dx = Derivation(t, EVEN, {"x": 1}, "dx")
    dy = Derivation(t, EVEN, {"y": 1}, "dy")
    return t, {"tau1": tau1, "tau2": tau2, "D1": D1, "D2": D2, "dt": dt, "dx": dx, "dy": dy}


def r32_relations_ok() -> bool:
    t, ops = r32_fields()
    dt, dx, dy = ops["dt"], ops["dx"], ops["dy"]
    checks = [
        super_bracket(ops["tau1"], ops["tau1"]) == (dt + dx).scale(2),
        super_bracket(ops["tau1"], ops["tau2"]) == dy.scale(2),
        super_bracket(ops["tau2"], ops["tau2"]) == (dt - dx).scale(2),
        super_bracket(ops["D1"], ops["D1"]) == (dt + dx).scale(-2),
        super_bracket(ops["D1"], ops["D2"]) == dy.scale(-2),
        super_bracket(ops["D2"], ops["D2"]) == (dt - dx).scale(-2),
        super_bracket(ops["D1"], ops["tau1"]).is_zero(),
        super_bracket(ops["D1"], ops["tau2"]).is_zero(),
        super_bracket(ops["D2"], ops["tau1"]).is_zero(),
        super_bracket(ops["D2"], ops["tau2"]).is_zero(),
    ]
    return all(checks)


def r32_dictionary_ok() -> bool:
    """The k = 1 fields expressed through v^(11) = (t+x)/2, v^(12) = y,
    v^(22) = (t-x)/2 coincide with the displayed (t, x, y) fields."""
    inv = InvariantFields(1)
    t3, ops = r32_fields()
    half = Fraction(1, 2)
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

    pairs = [
        (inv.tau(1, 1), ops["tau1"]),
        (inv.tau(2, 1), ops["tau2"]),
        (inv.D(1, 1), ops["D1"]),
        (inv.D(2, 1), ops["D2"]),
    ]
    return all(conjugated_equal(a, b) for a, b in pairs)


# ---------------------------------------------------------------------------
# k = 2: chiral charges, fields and the coordinate dictionary
# ---------------------------------------------------------------------------

def chiral_matrix_relations_ok() -> bool:
    """With q_a = Q^1_a - i Q^2_a and qbar_a = Q^1_a + i Q^2_a (the square
    root of 2 normalization dropped; all displayed relations are quadratic):
    [q_a, q_b] = [qbar_a, qbar_b] = 0 and [q_a, qbar_b] = -4 X_(a b-dot),
    where X_(a b-dot) = (X_ab + X_ba)/2 - i (u_2 X_ab - u_2 X_ba)/2."""
    ctx = MinkContext(2)
    i = QI(0, 1)

    def q(a):
        return q_unit(ctx, a, 1) - q_unit(ctx, a, 2).scale(i)

    def qbar(a):
        return q_unit(ctx, a, 1) + q_unit(ctx, a, 2).scale(i)

    for a in (1, 2):
        for b in (1, 2):
            if not anticomm(q(a), q(b)).is_zero():
                return False
            if not anticomm(qbar(a), qbar(b)).is_zero():
                return False
            xab = r_matrix(ctx, a, b) - (
                x_matrix(ctx, a, b, ctx.alg.unit(2)) - x_matrix(ctx, b, a, ctx.alg.unit(2))
            ).scale(Fraction(1, 2)).scale(i)
            if anticomm(q(a), qbar(b)) != xab.scale(-4):
                return False
    return True


def chiral_fields(n_eta=0):
    """Coordinates x^(a b-dot) (4 even), th^a and thb^a-dot (4 odd), with
    D_a = d_a - thb^bd ∂_(a bd), Dbar_ad = dbar_ad - th^b ∂_(b ad) and the
    tau fields with + signs."""
    t = SymbolTable()
    xs = {}
    for a in (1, 2):
        for b in (1, 2):
            xs[(a, b)] = t.even_symbol(f"x{a}{b}").name
    th = {a: t.odd_symbol(f"th{a}").name for a in (1, 2)}
    thb = {a: t.odd_symbol(f"thb{a}").name for a in (1, 2)}
    for i in range(n_eta):
        t.odd_symbol(f"et{i+1}")

    def mk(names_main, names_other, row_is_first, sign, label):
        out = {}
        for a in (1, 2):
            imgs = {names_main[a]: t.one()}
            for b in (1, 2):
                key = xs[(a, b)] if row_is_first else xs[(b, a)]
                imgs[key] = t.sym(names_other[b]).scale(sign)
            out[a] = Derivation(t, ODD, imgs, f"{label}{a}")
        return out

    D = mk(th, thb, True, Fraction(-1), "D")
    Dbar = mk(thb, th, False, Fraction(-1), "Dbar")
    tau = mk(th, thb, True, Fraction(1), "tau")
    taubar = mk(thb, th, False, Fraction(1), "taubar")
    dx = {(a, b): Derivation(t, EVEN, {xs[(a, b)]: 1}, f"d{a}{b}") for a in (1, 2) for b in (1, 2)}
    return t, {"D": D, "Dbar": Dbar, "tau": tau, "taubar": taubar, "dx": dx}


def chiral_field_relations_ok() -> bool:
    t, ops = chiral_fields()
    D, Db, tau, taub, dx = ops["D"], ops["Dbar"], ops["tau"], ops["taubar"], ops["dx"]
    for a in (1, 2):
        for b in (1, 2):
            if not super_bracket(D[a], D[b]).is_zero():
                return False
            if not super_bracket(Db[a], Db[b]).is_zero():
                return False
            if super_bracket(D[a], Db[b]) != dx[(a, b)].scale(-2):
                return False
            if super_bracket(tau[a], taub[b]) != dx[(a, b)].scale(2):
                return False
            for c in (1, 2):
                if not super_bracket(D[a], tau[c]).is_zero():
                    return False
                if not super_bracket(D[a], taub[c]).is_zero():
                    return False
                if not super_bracket(Db[a], tau[c]).is_zero():
                    return False
                if not super_bracket(Db[a], taub[c]).is_zero():
                    return False
    return True


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
    h = Fraction(1, 2)
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
    h = Fraction(1, 2)
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

REDUCTION_PAIRS = {4: {1: (1, 2), 2: (3, 4)},
                   8: {1: (1, 2), 2: (3, 4), 3: (6, 7), 4: (8, 5)}}

Z_TABLE_8 = {  # Z_AB = I_[12] of (coeff on u_first) + sqrt(-1)(coeff on u_second)
    (1, 2): ((3, -1), (4, 1)),
    (1, 3): ((6, -1), (7, 1)),
    (1, 4): ((8, -1), (5, 1)),
    (2, 3): ((8, -1), (5, -1)),
    (2, 4): ((6, 1), (7, 1)),
    (3, 4): ((3, -1), (4, -1)),
}

Z_TABLE_4 = {(1, 2): ((3, -1), (4, 1))}

STAR_PAIRS = {(1, 2): (3, 4), (1, 3): (4, 2), (1, 4): (2, 3)}


class ReductionError(AssertionError):
    pass


def _z_value(alg: DivisionAlgebra, entry) -> DAElement:
    (a1, c1), (a2, c2) = entry
    return alg.unit(a1, c1) + alg.unit(a2, QI(0, c2))


def reduction_charges(k: int):
    """Complexified charge bases for k = 4 or 8 and the verified relations.

    Uses the doubled charges sqrt(2) Q, so all right-hand sides carry a
    factor of 4 instead of 2.  Returns a report dict; raises ReductionError
    naming the first failing identity (which would indicate an inconsistent
    multiplication table).
    """
    if k not in REDUCTION_PAIRS:
        raise ValueError("reduction implemented for k = 4 and k = 8")
    ctx = MinkContext(k)
    i = QI(0, 1)
    pairs = REDUCTION_PAIRS[k]
    Q = {}
    Qb = {}
    for A, (al, be) in pairs.items():
        for a in (1, 2):
            Q[(a, A)] = q_unit(ctx, a, al) - q_unit(ctx, a, be).scale(i)
            Qb[(a, A)] = q_unit(ctx, a, al) + q_unit(ctx, a, be).scale(i)
    # X_(a b-dot) as in the complex specialization
    def xdot(a, b):
        return r_matrix(ctx, a, b) - (
            x_matrix(ctx, a, b, ctx.alg.unit(2)) - x_matrix(ctx, b, a, ctx.alg.unit(2))
        ).scale(Fraction(1, 2)).scale(i)

    table = Z_TABLE_4 if k == 4 else Z_TABLE_8
    Z = {}
    for A in pairs:
        for B in pairs:
            if A == B:
                Z[(A, B)] = ctx.zero_matrix()
            elif (A, B) in table:
                Z[(A, B)] = script_i(ctx, _z_value(ctx.alg, table[(A, B)]))
            else:
                Z[(A, B)] = -script_i(ctx, _z_value(ctx.alg, table[(B, A)]))

    def fail(name):
        raise ReductionError(f"identity {name} fails: division-algebra table inconsistent")

    for A in pairs:
        for B in pairs:
            for a in (1, 2):
                for b in (1, 2):
                    e = EPS_AB[(a, b)]
                    want_mixed = xdot(a, b).scale(-4) if A == B else ctx.zero_matrix()
                    if anticomm(Q[(a, A)], Qb[(b, B)]) != want_mixed:
                        fail(f"[Q_{a}{A}, Qbar_{b}{B}]")
                    want_qq = Z[(A, B)].scale(-4 * e) if e else ctx.zero_matrix()
                    if anticomm(Q[(a, A)], Q[(b, B)]) != want_qq:
                        fail(f"[Q_{a}{A}, Q_{b}{B}]")
                    zbar = conj_formal_i(Z[(A, B)])
                    want_bb = zbar.scale(-4 * e) if e else ctx.zero_matrix()
                    if anticomm(Qb[(a, A)], Qb[(b, B)]) != want_bb:
                        fail(f"[Qbar_{a}{A}, Qbar_{b}{B}]")
    star_ok = True
    if k == 8:
        for (A, B), (sA, sB) in STAR_PAIRS.items():
            if Z[(sA, sB)] != conj_formal_i(Z[(A, B)]):
                star_ok = False
                fail(f"Z_*({A}{B})")
    return {"ctx": ctx, "Q": Q, "Qbar": Qb, "Z": Z, "star_ok": star_ok}


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


def wedge_square_coefficient(y):
    return quadratic_form(y) * 2


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
        return H.element([c.re, c.im, d.re, -d.im])

    u1, u2, u3, u4 = U
    return to_h(u1, u3), to_h(u2, u4)


def p_coords(t, x, z: DAElement):
    """P: (t, x, z) -> y coordinates of the embedded Minkowski vector."""
    t, x = frac(t), frac(x)
    z1, z2, z3, z4 = z.coeffs
    h = Fraction(1, 2)
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
            and y[(1, 3)].im == 0 and y[(2, 4)].im == 0)


def sl4c_bridge_check(U, V=None) -> bool:
    """The commuting square: P([Q^(T U), Q^(T U)]) = -2 U wedge sigma(U), and
    by polarization P([Q^(T U), Q^(T V)]) = -(U wedge sigma V + V wedge sigma U)."""
    lam1, lam2 = t_map(U)
    x = x_of_pair(H, lam1, lam2)
    y_from_x = p_of_hermitian(x)
    y_wedge = wedge_coords(U, sigma_map(U))
    if not reality_conditions_ok(y_wedge):
        return False
    for key in y_wedge:
        if y_from_x[key] != QI(0) + y_wedge[key]:
            return False
    if V is None:
        return True
    mu1, mu2 = t_map(V)
    ctx = MinkContext(4)
    qU = q_matrix(ctx, 1, lam1) + q_matrix(ctx, 2, lam2)
    qV = q_matrix(ctx, 1, mu1) + q_matrix(ctx, 2, mu2)
    hm = translation_block(anticomm(qU, qV).scale(Fraction(-1, 2)))
    lhs = p_of_hermitian(hm)  # P of -(1/2)[Q^U, Q^V]
    sU, sV = sigma_map(U), sigma_map(V)
    for key in lhs:
        rhs = (wedge_coords(U, sV)[key] + wedge_coords(V, sU)[key]) * Fraction(1, 2)
        if lhs[key] != QI(0) + rhs:
            return False
    return True


def signature_identity_ok(t, x, z: DAElement) -> bool:
    """4 B(P v, P v) = -(t^2 - x^2 - |z|^2)."""
    y = p_coords(t, x, z)
    lhs = quadratic_form(y) * 4
    rhs = -(frac(t) ** 2 - frac(x) ** 2 - z.norm_sq())
    return lhs == QI(0) + rhs


# ---------------------------------------------------------------------------
# Coefficient extraction on the translation sector
# ---------------------------------------------------------------------------

def decompose_translation(m: Matrix):
    """Write a translation-sector matrix as sum c_v[(ab)] R_(ab) +
    sum c_w[g] Im_g; raises if the support or symmetry is wrong.

    Inverse of SuperTranslationElement.v_matrix on its image; used to
    cross-check matrix-algebra computations against vector-field ones.
    """
    for i in range(5):
        for j in range(5):
            if (i, j) in ((0, 3), (0, 4), (1, 3), (1, 4)):
                continue
            if not m.entries[i][j].is_zero():
                raise ValueError(f"support outside the translation block at {(i, j)}")

    def real_coeff(e: DAElement):
        if any(e.coeffs[1:]):
            raise ValueError("diagonal slot carries an imaginary part")
        return e.coeffs[0]

    c_v = {(1, 1): real_coeff(m.entries[0][3]), (2, 2): real_coeff(m.entries[1][4])}
    upper = m.entries[0][4]
    lower = m.entries[1][3]
    if upper.coeffs[0] != lower.coeffs[0]:
        raise ValueError("symmetric slot mismatch")
    c_v[(1, 2)] = upper.coeffs[0] + lower.coeffs[0]
    c_w = {}
    for g in range(2, upper.alg.dim + 1):
        if upper.coeffs[g - 1] != -lower.coeffs[g - 1]:
            raise ValueError("antisymmetric slot mismatch")
        val = upper.coeffs[g - 1] + upper.coeffs[g - 1]
        if val:
            c_w[g] = val
    return c_v, c_w


def compose_elements(e1: SuperTranslationElement, e2: SuperTranslationElement):
    """Product in exponential coordinates: add the even and odd parts and
    absorb half the odd-odd commutator into the even part."""
    ctx = e1.ctx
    corr = comm(e1.theta_matrix(), e2.theta_matrix()).scale(Fraction(1, 2))
    c_v, c_w = decompose_translation(corr)
    z = ctx.table.zero()
    v = {}
    for key in set(e1.v) | set(e2.v) | set(k for k, val in c_v.items() if val):
        v[key] = e1.v.get(key, z) + e2.v.get(key, z) + c_v.get(key, z)
    w = {}
    for key in set(e1.w) | set(e2.w) | set(c_w):
        w[key] = e1.w.get(key, z) + e2.w.get(key, z) + c_w.get(key, z)
    theta = {}
    for key in set(e1.theta) | set(e2.theta):
        theta[key] = e1.theta.get(key, z) + e2.theta.get(key, z)
    return SuperTranslationElement(ctx, v=v, w=w, theta=theta)


def field_bracket_constants(inv: "InvariantFields", a, alpha, b, beta):
    """Structure constants of [tau^alpha_a, tau^beta_b] read off the images
    of the coordinate symbols."""
    br = super_bracket(inv.tau(a, alpha), inv.tau(b, beta))
    c_v = {}
    for ab, name in inv.vname.items():
        c_v[ab] = br.image(name).scalar_part()
    c_w = {}
    for g, name in inv.wname.items():
        val = br.image(name).scalar_part()
        if val:
            c_w[g] = val
    for key, name in inv.thname.items():
        if not br.image(name).is_zero():
            raise ValueError("bracket is not a translation")
    return c_v, c_w
