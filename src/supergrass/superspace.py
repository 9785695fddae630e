"""Superdomains, Berezin integration, the supertime operators, Taylor
extension of polynomials to even Grassmann points, and the lift of even
functions to the exterior-square coordinate space.

Even-coordinate dependence is polynomial with exact coefficients; the even
coordinates integrate one at a time over rational bounds
(`SuperPolynomial.integrate_even`).
"""

from __future__ import annotations

from itertools import combinations

from .kernel import (EVEN, ODD, Derivation, ParityError, SuperPolynomial, SymbolTable,
                     odd_field_relations_ok, odd_fields, super_bracket)
from .scalars import QI, normalize, ratio


class SuperDomain:
    """Omega in R^(m|k) x R^(0|L): m even coordinates, k odd coordinates
    theta^a, L auxiliary odd parameters eta^i, all in one symbol table (evens
    first, then thetas, then etas)."""

    def __init__(self, even=(), theta=(), eta=()):
        self.table = SymbolTable()
        self.even_names = tuple(even)
        self.theta_names = tuple(theta)
        self.eta_names = tuple(eta)
        for n in self.even_names:
            self.table.even_symbol(n)
        for n in self.theta_names:
            self.table.odd_symbol(n)
        for n in self.eta_names:
            self.table.odd_symbol(n)

    def sym(self, name):
        return self.table.sym(name)

    def odd_derivative(self, name) -> Derivation:
        """Built-in d/d(theta): graded Leibniz left action."""
        return Derivation(self.table, ODD, {name: 1}, f"d/d{name}")


def berezin(domain: SuperDomain, f: SuperPolynomial) -> SuperPolynomial:
    """Berezin integral over all odd theta coordinates of the domain: the
    coefficient of the top theta monomial, written to the left of the
    remaining odd factors (still a polynomial in the evens and etas)."""
    if not domain.theta_names:
        raise ValueError("domain has no odd theta coordinates")
    return f.coefficient_of_odd(domain.theta_names)


def odd_translate(domain: SuperDomain, f: SuperPolynomial, shifts: dict) -> SuperPolynomial:
    """Substitute theta^a -> theta^a + zeta^a (zeta odd, usually in the etas)."""
    images = {}
    for name, zeta in shifts.items():
        s = domain.table.symbol(name)
        if s.parity != ODD:
            raise ParityError(f"{name} is even; odd translation only")
        if zeta.parity() not in (None, ODD):
            raise ParityError("shift must be odd")
        images[name] = domain.table.sym(name) + zeta
    return f.substitute(images)


def berezin_translation_check(domain: SuperDomain, f: SuperPolynomial, shifts: dict) -> bool:
    """Translation invariance of the Berezin integral in the odd variables,
    plus vanishing on every d/d(theta)-exact integrand."""
    lhs = berezin(domain, odd_translate(domain, f, shifts))
    rhs = berezin(domain, f)
    if lhs != rhs:
        return False
    for name in domain.theta_names:
        d = domain.odd_derivative(name)
        if not berezin(domain, d(f)).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Supertime R^(1|1)
# ---------------------------------------------------------------------------

def supertime():
    """R^(1|1) with coordinates (t, th) and two auxiliary odd parameters.

    Returns (domain, {"dt", "D", "tau"}).  th pairs with itself into dt, so
    D = d/dth - th d/dt is the left invariant odd field and
    tau = d/dth + th d/dt the right invariant one.
    """
    dom = SuperDomain(even=("t",), theta=("th",), eta=("et1", "et2"))
    dt = Derivation(dom.table, EVEN, {"t": 1}, "dt")
    (D,), (tau,) = (odd_fields(dom.table, ("th",), {("th", "th"): dt}, s) for s in (-1, 1))
    return dom, {"dt": dt, "D": D, "tau": tau}


def supertime_relations_ok(dom, ops) -> bool:
    """The odd-field law for T = dt, brackets with dt vanish, and the
    dependency tau - D = 2 th dt."""
    dt, D, tau = ops["dt"], ops["D"], ops["tau"]
    return (odd_field_relations_ok(dom.table, ("th",), {("th", "th"): dt})
            and super_bracket(D, dt).is_zero() and super_bracket(tau, dt).is_zero()
            and tau - D == dt.scale(dom.sym("th")).scale(2))


# ---------------------------------------------------------------------------
# Body/soul and the Taylor extension to even Grassmann arguments
# ---------------------------------------------------------------------------

class EvenGrassmannPoint:
    """Element of Lambda_L^0: rational body plus nilpotent even soul."""

    def __init__(self, value: SuperPolynomial):
        if value.parity() not in (None, EVEN):
            raise ParityError("even Grassmann point must be even")
        if any(s.parity == EVEN for s in value.support()):
            raise ValueError("point must be constant in the even coordinates")
        self.value = value
        self.body = normalize(QI(value.constant_term()))  # QI refuses a non-real body
        self.soul = value - value.table.scalar(self.body)

    @property
    def table(self):
        return self.value.table

    def soul_powers(self):
        """[soul^0, soul^1, ...] until the power vanishes (nilpotency)."""
        out = [self.value.table.one()]
        p = self.value.table.one()
        while True:
            p = p * self.soul
            if p.is_zero():
                return out
            out.append(p)


def body(value: SuperPolynomial):
    return EvenGrassmannPoint(value).body


def hinf_extend(f: SuperPolynomial, points) -> SuperPolynomial:
    """Taylor extension of a real polynomial in m even symbols to an m-tuple
    of even Grassmann arguments: sum_r d^r f(body) soul^r / r!.

    The sum is finite by nilpotency; on a polynomial it is the substitution
    of the points' values, which `superspace.hinf` compares it with.
    """
    points = list(points)
    if any(s.parity == ODD for s in f.support()):
        raise ParityError("extend only plain even polynomials")
    names = f.table.names()
    if len(points) != len(names):
        raise ValueError("need one argument per symbol")
    if not points:
        return f
    target = points[0].table
    powers = [p.soul_powers() for p in points]
    bodies = {n: p.body for n, p in zip(names, points)}

    def expand(g, i):
        """Taylor-expand variable i of g at its body; returns a polynomial
        over the target table."""
        if i == len(names):
            return target.adopt(g)
        name = names[i]
        out = target.zero()
        cur = g
        fact = 1
        for r in range(len(powers[i])):
            if r > 0:
                cur = cur.diff_even(name)
                fact *= r
                if cur.is_zero():
                    break
            tail = expand(cur.eval_even({name: bodies[name]}), i + 1)
            term = tail * powers[i][r]
            if r > 1:
                term = term.scale(ratio(1, fact))
            out = out + term
        return out

    return expand(f, 0)


# ---------------------------------------------------------------------------
# Lift of even functions to the exterior-square coordinate space
# ---------------------------------------------------------------------------

def even_subsets_pos(q):
    """The multi-indices of even length >= 2 over q odd positions, 1-based, increasing."""
    return [I for r in range(2, q + 1, 2) for I in combinations(range(1, q + 1), r)]


class LiftSpace:
    """|Omega| x Lambda^2*_+ for an even superfunction space with q odd
    coordinates: one even coordinate s_I per even multi-index I of length
    >= 2, plus copies of the even coordinates of the base domain.

    `lower` sends s_I to the odd monomial eta^I of the base domain; it is a
    ring map that kills the relation ideal, in which a product of s
    coordinates is the sign of the product of their etas times the s of the
    merged index (or 0 on a repeated position).  `lift` picks the
    representative linear in the s coordinates.
    """

    def __init__(self, domain: SuperDomain):
        q = len(domain.theta_names) + len(domain.eta_names)
        self.domain = domain
        self.q = q
        self.odd_names = list(domain.theta_names) + list(domain.eta_names)
        self.table = SymbolTable()
        for n in domain.even_names:
            self.table.even_symbol(n)
        self.s_name = {}
        self._lower = {n: domain.sym(n) for n in domain.even_names}
        for I in even_subsets_pos(q):
            name = "s_" + "".join(str(i) for i in I)
            self.table.even_symbol(name)
            self.s_name[I] = name
            self._lower[name] = domain.table.monomial(1, (), [self.odd_names[i - 1] for i in I])

    def s(self, I):
        return self.table.sym(self.s_name[tuple(I)])

    def reduce(self, frak: SuperPolynomial) -> SuperPolynomial:
        """Normal form modulo the relation ideal: the s-linear representative
        of frak."""
        return self.lift(self.lower(frak))

    def lift(self, f: SuperPolynomial) -> SuperPolynomial:
        """Canonical representative, linear in the s coordinates, of an even
        superfunction f = sum_I f_I(x) eta^I."""
        if f.parity() not in (None, EVEN):
            raise ParityError("only even functions lift")
        parts = f.odd_components()
        out = [self.table.adopt(parts.get((), 0))]
        for I, name in self.s_name.items():
            f_I = parts.get(tuple(self.odd_names[i - 1] for i in I))
            if f_I:
                out.append(self.table.adopt(f_I) * self.table.sym(name))
        return self.table.sum(out)

    def lower(self, frak: SuperPolynomial) -> SuperPolynomial:
        """Evaluate e^(theta-lift vector field) at s = 0: replace every s_I
        factor by the odd monomial eta^I of the base domain, and every even
        coordinate by its namesake there."""
        return frak.substitute(self._lower)


def theta_lift_vectorfield_law(case: int, q: int):
    """One of the three displayed vector-field correspondences
    X f = lower(X~ f~):

    1. even fields on the base extend s-constantly;
    2. eta^1 eta^2 X corresponds to s_12 X;
    3. eta^1 d/d(eta^2) corresponds to sum_* s_(1*) d/d s_(2*).

    Returns `law(rng) -> bool`, which draws one random lifted function (and,
    in cases 1 and 2, one coefficient of X) and compares both sides.
    """
    if case not in (1, 2, 3):
        raise ValueError("case must be 1, 2 or 3")
    if q < 2 or q > 6:
        raise ValueError("desk scale is 2 <= q <= 6")
    if case == 3 and q < 3:
        raise ValueError("case 3 needs q >= 3: with two eta both sides vanish")
    dom = SuperDomain(even=("x",), theta=(), eta=tuple(f"et{i+1}" for i in range(q)))
    space = LiftSpace(dom)
    x = space.table.sym("x")
    if case == 3:
        d2 = dom.odd_derivative("et2")
        # I within {3..q}: 1 and 2 join I in front, with no sign
        Z = Derivation(space.table, EVEN, {space.s_name[(2, *I)]: space.s((1, *I))
                                           for r in range(1, q - 1, 2)
                                           for I in combinations(range(3, q + 1), r)}, "Z")

    def law(rng) -> bool:
        frak = space.reduce(_random_lift_poly(space, rng))
        f = space.lower(frak)
        if case == 3:
            return dom.sym("et1") * d2(f) == space.lower(Z(frak))
        coeff = x ** rng.randint(0, 2) * rng.randint(-3, 3)
        # the even field c(x) d/dx on the lift space (s-constant) and on the base
        X = Derivation(space.table, EVEN, {"x": coeff}, "X")
        lhs = Derivation(dom.table, EVEN, {"x": dom.table.adopt(coeff)}, "X")(f)
        if case == 1:
            return lhs == space.lower(X(frak))
        e12 = dom.sym("et1") * dom.sym("et2")
        return e12 * lhs == space.lower(space.s((1, 2)) * X(frak))

    return law


def _random_lift_poly(space: LiftSpace, rng) -> SuperPolynomial:
    """Random polynomial on the lift space: x-dependence up to degree 2 and
    s-degree up to 2 (quadratic terms exercise the ideal reduction)."""
    x = space.table.sym("x")
    names = list(space.s_name.values())
    out = space.table.scalar(rng.randint(-2, 2))
    for _ in range(4):
        term = space.table.scalar(rng.randint(-3, 3)) * x ** rng.randint(0, 2)
        for _ in range(rng.randint(0, 2)):
            term = term * space.table.sym(rng.choice(names))
        out = out + term
    return out
