"""Maps between superdomains as pullback morphisms.

A morphism from (x^1..x^m, odd o^1..o^q) to a polynomial target chart
(y^1..y^n) is stored in exponential normal form: a base map phi and a family
of vector fields xi_I indexed by even-length odd multi-indices I.  Pulling
back f applies the truncated series of Xi = sum_I o^I xi_I to f, one
`exp_series` for the whole of Xi or for each factor of a factorization, and
then substitutes y -> phi(x).  Xi is one even derivation, built once per
morphism by `sum_field` (the image of each target coordinate y is
sum_I o^I xi_I(y)), so each step of the series is one derivation call; a
factorization builds one such Xi_A per theta prefix.  The skeletal
morphisms to the odd line and the odd plane are one `skeletal_pullback`.
"""

from __future__ import annotations

from itertools import combinations, count
from math import factorial

from .kernel import EVEN, ODD, Derivation, SuperPolynomial, SymbolTable
from .scalars import normalize, ratio
from .superspace import even_subsets_pos


class ChartAssumptionError(ValueError):
    """xi_I xi_J y != 0 for the reported pair."""

    def __init__(self, pair):
        super().__init__(f"chart assumption fails for index pair {pair}")


class CommutationError(ValueError):
    def __init__(self, pair):
        super().__init__(f"vector fields at {pair} do not commute")


def sum_field(table: SymbolTable, pairs, label="Xi") -> Derivation:
    """The even derivation sum_I o^I xi_I over the (o^I, xi_I) pairs, a
    collection read once per generator: o^I is even, so each o^I xi_I is a
    derivation, and the image of each generator is one `SymbolTable.sum`
    of o^I times the image under each field that moves it."""
    moved = sorted({i for _, X in pairs for i in X.images})
    images = {table.symbols[i].name: table.sum(
        mono * X.images[i] for mono, X in pairs if i in X.images) for i in moved}
    return Derivation(table, EVEN, images, label)


def exp_series(X: Derivation, f: SuperPolynomial, q: int) -> SuperPolynomial:
    """Truncated series sum_n X^n f / n! for X = sum_I o^I xi_I (one
    `sum_field`), with o^I in q odd coordinates: X^(q+1) = 0."""
    out = cur = f
    for n in count(1):
        cur = X(cur)
        if cur.is_zero():
            return out
        out = out + cur.scale(ratio(1, factorial(n)))
        if n > q:
            raise RuntimeError("series failed to terminate")


class FleshMorphism:
    """Pullback data (phi, {xi_I}).

    even_coords: names of the source even coordinates x.
    odd_coords:  names of all q odd source coordinates; the first k of them
                 are the distinguished thetas (k given by n_theta).
    target_even: names of the target even coordinates y.
    phi:         {y-name: polynomial in x} over the working table.
    xi:          {I: {y-name: polynomial in x and y}} with I a multi-index
                 (1-based positions into odd_coords) of even length >= 2.

    The working table holds x's, then y's, then the source odd coordinates.
    xi_fields holds {I: (o^I, xi_I)}, the monomials and the vector fields,
    and Xi the one even derivation sum_I o^I xi_I that `exp_Xi` applies,
    all built once at construction.
    """

    def __init__(self, even_coords, odd_coords, target_even, phi, xi, n_theta=None):
        self.even_coords = tuple(even_coords)
        self.odd_coords = tuple(odd_coords)
        self.target_even = tuple(target_even)
        self.n_theta = len(odd_coords) if n_theta is None else n_theta
        self.q = len(self.odd_coords)

        self.table = SymbolTable()
        for n in self.even_coords:
            self.table.even_symbol(n)
        for n in self.target_even:
            self.table.even_symbol(n)
        for n in self.odd_coords:
            self.table.odd_symbol(n)

        self.phi = {n: self.table.adopt(p) for n, p in phi.items()}
        if set(self.phi) != set(self.target_even):
            raise ValueError("phi must give every target even coordinate")
        self.xi_fields = {}
        for I, comps in xi.items():
            I = tuple(I)
            if len(I) % 2 or len(I) < 2 or any(not 1 <= i <= self.q for i in I):
                raise ValueError(f"invalid multi-index {I}: need even length >= 2")
            if tuple(sorted(set(I))) != I:
                raise ValueError(f"multi-index {I} must be strictly increasing")
            comps = {n: self.table.adopt(c) for n, c in comps.items()}
            self.xi_fields[I] = (self.odd_monomial(I), Derivation(self.table, EVEN, comps, f"xi_{I}"))
        self.Xi = sum_field(self.table, self.xi_fields.values())

    # -- plumbing ---------------------------------------------------------
    def odd_monomial(self, I) -> SuperPolynomial:
        m = self.table.one()
        for i in I:
            m = m * self.table.sym(self.odd_coords[i - 1])
        return m

    def xi_field(self, I) -> Derivation:
        return self.xi_fields[I][1]

    def exp_Xi(self, f: SuperPolynomial) -> SuperPolynomial:
        """Truncated series sum_n Xi^n f / n!; terminates by nilpotency."""
        return exp_series(self.Xi, f, self.q)

    def substitute_base(self, f: SuperPolynomial) -> SuperPolynomial:
        return f.substitute(dict(self.phi))

    def pullback_even(self, f: SuperPolynomial) -> SuperPolynomial:
        """(1 x phi)^*(e^Xi f) for f a polynomial in the target evens."""
        return self.substitute_base(self.exp_Xi(self.table.adopt(f)))


def pullback_law(m: FleshMorphism, h) -> bool:
    """The pullback of h is h of the pulled-back coordinates: each
    y^ = pullback_even(y) is even, and pullback_even(h) is h with every
    target coordinate y replaced by y^, one `substitute` that never sees Xi."""
    coords = {y: m.pullback_even(m.table.sym(y)) for y in m.target_even}
    return (not any(c.parity_part(ODD) for c in coords.values())
            and m.pullback_even(h) == m.table.adopt(h).substitute(coords))


def collapse_tables(n_even, target_odd_count):
    """A purely even source (x1..) and an odd target (ps1..).

    Maps from such a source to such a target collapse: every positive odd
    monomial squares to zero, no nonzero polynomial in the even coordinate
    ring does, so the only morphism sends F to its constant-in-odd part.
    That collapse map is itself checked to be a ring morphism."""
    src = SymbolTable()
    for i in range(n_even):
        src.even_symbol(f"x{i+1}")
    tgt = SymbolTable()
    for j in range(target_odd_count):
        tgt.odd_symbol(f"ps{j+1}")
    return src, tgt


def odd_monomials_square_to_zero(tgt) -> bool:
    """Every positive odd monomial of the target squares to zero."""
    names = tgt.names()
    for r in range(1, len(names) + 1):
        for J in combinations(names, r):
            mono = tgt.one()
            for n in J:
                mono = mono * tgt.sym(n)
            if not (mono * mono).is_zero():
                return False
    return True


def collapse_case(src, tgt, rng) -> bool:
    """One drawn case: a nonzero even polynomial does not square to zero,
    and the collapse map F -> F_empty is multiplicative."""
    p = src.zero()
    for _ in range(rng.randint(1, 3)):
        p = p + src.monomial(rng.randint(1, 4),
                             [(n, rng.randint(0, 2)) for n in src.names()])
    if p and (p * p).is_zero():
        return False
    f = _random_odd_poly(tgt, rng)
    g = _random_odd_poly(tgt, rng)
    return (f * g).constant_term() == f.constant_term() * g.constant_term()


def _random_odd_poly(t, rng):
    p = t.scalar(rng.randint(-3, 3))
    names = t.names()
    for _ in range(3):
        od = [n for n in names if rng.random() < 0.5]
        p = p + t.monomial(rng.randint(-3, 3), [], od)
    return p


def skeletal_pullback(point: dict, xis):
    """The skeletal morphism f -> f(m) + sum_a df_m(xi_a) th_a into
    R[th1..thk], one theta per vector in xis: the odd line for one vector,
    the odd plane for two.

    Returns (result_table, pull) where pull maps polynomials in the target
    evens to polynomials in R[th1..thk].
    """
    rt = SymbolTable()
    for a in range(len(xis)):
        rt.odd_symbol(f"th{a + 1}")
    ths = [rt.sym(n) for n in rt.names()]
    # the names in first-seen order, so a refused name is the same each run
    names = list(dict.fromkeys(n for xi in xis for n in xi))
    # the point and the vectors in the stored scalar form, read once
    point = {n: normalize(v) for n, v in point.items()}
    xis = [{n: normalize(c) for n, c in xi.items()} for xi in xis]

    def pull(f: SuperPolynomial) -> SuperPolynomial:
        # f(m) and each partial derivative at m in one pass, shared by every xi
        value, partials = f.jet_at(point, names)
        df = dict(zip(names, partials))
        out = rt.scalar(value)
        for th, xi in zip(ths, xis):
            out = out + th.scale(sum(c * df[n] for n, c in xi.items()))
        return out

    return rt, pull


def odd_plane_obstruction(target_table: SymbolTable, point: dict, xi1: dict,
                          xi2: dict) -> bool:
    """Multiplicativity of the skeletal odd-plane morphism on all monomial
    pairs up to degree 2: holds iff xi1 and xi2 are linearly dependent, as
    the th1 th2 coefficient of pull(fg) - pull(f) pull(g) is
    df(xi1) dg(xi2) - df(xi2) dg(xi1), whatever th1 th2 term pull has."""
    _, pull = skeletal_pullback(point, (xi1, xi2))
    names = target_table.names()
    monos = [target_table.sym(n) for n in names]
    monos += [target_table.sym(a) * target_table.sym(b)
              for i, a in enumerate(names) for b in names[i:]]
    pulled = [pull(f) for f in monos]
    for f, pf in zip(monos, pulled):
        for g, pg in zip(monos, pulled):
            if pull(f * g) != pf * pg:
                return False
    return True


def vectors_dependent(xi1: dict, xi2: dict, names) -> bool:
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            d = xi1.get(a, 0) * xi2.get(b, 0) - xi1.get(b, 0) * xi2.get(a, 0)
            if d != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Factorization into ordered exponentials
# ---------------------------------------------------------------------------

def check_commuting(m: FleshMorphism):
    """All xi_I must commute pairwise; raises CommutationError otherwise."""
    items = sorted(m.xi_fields)
    for i, I in enumerate(items):
        X = m.xi_field(I)
        for J in items[i + 1:]:
            Y = m.xi_field(J)
            for name in m.target_even:
                y = m.table.sym(name)
                if X(Y(y)) != Y(X(y)):
                    raise CommutationError((I, J))


def factorize(m: FleshMorphism):
    """Group Xi by theta prefix: Xi = sum_A theta^A Xi_A with A running over
    subsets of the first n_theta odd coordinates.  Returns {A: [I]}, the
    multi-indices I = A + I_eta of the fields in Xi_A."""
    check_commuting(m)
    groups = {}
    for I in m.xi_fields:
        A = tuple(i for i in I if i <= m.n_theta)
        groups.setdefault(A, []).append(I)
    return groups


def pullback_factorized(m: FleshMorphism, f) -> SuperPolynomial:
    """Apply e^(Xi_empty) prod_A e^(theta^A Xi_A) f and substitute the base
    map; agrees with the direct exponential pullback when the xi commute."""
    groups = factorize(m)
    g = m.table.adopt(f)
    # empty prefix last so that e^(Xi_empty) is leftmost; the factors
    # commute, so application order is immaterial.
    for A in sorted(groups, key=lambda a: (len(a), a), reverse=True):
        g = exp_series(sum_field(m.table, [m.xi_fields[I] for I in groups[A]], f"Xi_{A}"), g, m.q)
    return m.substitute_base(g)


# ---------------------------------------------------------------------------
# Component fields and the nonlinear expansion
# ---------------------------------------------------------------------------

def check_chart_condition(m: FleshMorphism):
    """xi_I xi_J y = 0 for every pair and every chart coordinate."""
    items = sorted(m.xi_fields)
    for I in items:
        X = m.xi_field(I)
        for J in items:
            Y = m.xi_field(J)
            for name in m.target_even:
                if X(Y(m.table.sym(name))) != m.table.zero():
                    raise ChartAssumptionError((I, J))


def component_fields(m: FleshMorphism):
    """Read the components of Phi^* y^i by theta coefficients (two-theta
    source): phi, psi_1, psi_2, F per target coordinate."""
    if m.n_theta != 2:
        raise ValueError("component dictionary is for two theta coordinates")
    check_chart_condition(m)
    ths = m.odd_coords[:2]
    monos = {"phi": (), "psi1": ths[:1], "psi2": ths[1:], "F": ths}
    out = {}
    for yname in m.target_even:
        p = m.pullback_even(m.table.sym(yname))
        # the coefficient of each theta monomial, with no other thetas left
        out[yname] = {key: p.coefficient_of_odd(mono).free_of(ths) for key, mono in monos.items()}
    return out


def random_flesh_morphism(rng, k_theta=2, L_eta=2, deg=2, n_xi=3, commuting=False):
    """Random morphism from (x1 | k_theta thetas, L_eta etas) to (y1, y2).

    commuting=True keeps the xi components free of target coordinates, so
    the fields commute pairwise and xi_I xi_J y = 0 holds.
    """
    evens = ("x1",)
    odds = tuple(f"th{i+1}" for i in range(k_theta)) + tuple(f"et{i+1}" for i in range(L_eta))
    targets = ("y1", "y2")
    q = len(odds)

    proto = SymbolTable()
    for n in evens:
        proto.even_symbol(n)
    for n in targets:
        proto.even_symbol(n)

    def rand_phi():
        p = proto.zero()
        for _ in range(rng.randint(1, 2)):
            p = p + proto.monomial(rng.randint(-3, 3),
                                   [(n, rng.randint(0, deg)) for n in evens])
        return p

    def rand_component():
        p = proto.zero()
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(-2, 2)
            powers = [(n, rng.randint(0, 1)) for n in evens]
            if not commuting:  # commuting: x-dependence only, constant in the target chart
                powers += [(n, rng.randint(0, deg)) for n in targets if rng.random() < 0.5]
            p = p + proto.monomial(c, powers)
        return p

    indices = list(even_subsets_pos(q))
    rng.shuffle(indices)
    xi = {}
    for I in indices[: min(n_xi, len(indices))]:
        xi[I] = {n: rand_component() for n in targets if rng.random() < 0.8}
        if not xi[I]:
            xi[I] = {targets[0]: rand_component()}
    phi = {n: rand_phi() for n in targets}
    return FleshMorphism(evens, odds, targets, phi, xi, n_theta=k_theta)


def nonlinear_expansion_check(m: FleshMorphism, f) -> bool:
    """Pullback of a nonlinear f agrees with the two-derivative component
    expansion: f(phi) + th^a d_i f(phi) psi_a^i
    + th1 th2 (d_i f(phi) F^i - d_ij f(phi) psi_1^i psi_2^j)."""
    comps = component_fields(m)
    f = m.table.adopt(f)
    th1 = m.table.sym(m.odd_coords[0])
    th2 = m.table.sym(m.odd_coords[1])
    phi_sub = {y: comps[y]["phi"] for y in m.target_even}

    def at_phi(g):
        return g.substitute(phi_sub)

    rhs = at_phi(f)
    for a, key in ((th1, "psi1"), (th2, "psi2")):
        acc = m.table.zero()
        for y in m.target_even:
            acc = acc + at_phi(f.diff_even(y)) * comps[y][key]
        rhs = rhs + a * acc
    accF = m.table.zero()
    acc2 = m.table.zero()
    for y in m.target_even:
        accF = accF + at_phi(f.diff_even(y)) * comps[y]["F"]
        for y2 in m.target_even:
            acc2 = acc2 + at_phi(f.diff_even(y).diff_even(y2)) * comps[y]["psi1"] * comps[y2]["psi2"]
    rhs = rhs + th1 * th2 * (accF - acc2)
    return m.pullback_even(f) == rhs
