"""Superdomains, Berezin integration, the supertime operators, Taylor
extension of polynomials to even Grassmann points, and the lift of even
functions to the exterior-square coordinate space.

Even-coordinate dependence is polynomial with exact coefficients; definite
integration is over axis-aligned rational boxes only.
"""

from __future__ import annotations

from fractions import Fraction
from .indices import even_subsets_pos, merge_sign, odd_subsets
from .kernel import (EVEN, ODD, Derivation, ParityError, SuperPolynomial,
                     SymbolTable, super_bracket)
from .scalars import frac, rational_part


class SuperDomain:
    """Omega in R^(m|k) x R^(0|L): m even coordinates, k odd coordinates
    theta^a, L auxiliary odd parameters eta^i, all in one symbol table (evens
    first, then thetas, then etas), plus an optional rational box for
    definite even integration."""

    def __init__(self, even=(), theta=(), eta=(), box=None):
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
        self.box = None
        if box is not None:
            self.box = [(frac(a), frac(b)) for a, b in box]
            if len(self.box) != len(self.even_names):
                raise ValueError("box needs one interval per even coordinate")

    def sym(self, name):
        return self.table.sym(name)

    def zero(self):
        return self.table.zero()

    def one(self):
        return self.table.one()

    def scalar(self, c):
        return self.table.scalar(c)

    def odd_derivative(self, name) -> Derivation:
        """Built-in d/d(theta): graded Leibniz left action."""
        return Derivation(self.table, ODD, {name: 1}, f"d/d{name}")


def berezin(domain: SuperDomain, f: SuperPolynomial, definite=None):
    """Berezin integral over all odd theta coordinates of the domain.

    Returns the coefficient of the top theta monomial, written to the left of
    the remaining odd factors (still a polynomial in the evens and etas).
    With definite=True (or a box set on the domain), the even polynomial part
    is integrated exactly over the box as well.
    """
    if not domain.theta_names:
        raise ValueError("domain has no odd theta coordinates")
    g = f.coefficient_of_odd(domain.theta_names)
    box = domain.box if definite in (None, True) else None
    if definite and domain.box is None:
        raise ValueError("definite integration needs a box")
    if box is None or definite is False:
        return g
    return integrate_box(domain, g)


def integrate_box(domain: SuperDomain, g: SuperPolynomial) -> SuperPolynomial:
    """Exact iterated integral of the even part over the domain's box."""
    if domain.box is None:
        raise ValueError("no box on this domain")
    out = domain.zero()
    ev_index = {domain.table.symbol(n).index: k for k, n in enumerate(domain.even_names)}
    for (ev, od), c in g.terms.items():
        val = c
        seen = dict(ev)
        for idx, k in ev_index.items():
            lo, hi = domain.box[k]
            p = seen.get(idx, 0)
            val = val * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
        out = out + SuperPolynomial(domain.table, {((), od): Fraction(1)}).scale(val)
    return out


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
    lhs = berezin(domain, odd_translate(domain, f, shifts), definite=False)
    rhs = berezin(domain, f, definite=False)
    if lhs != rhs:
        return False
    for name in domain.theta_names:
        d = domain.odd_derivative(name)
        if not berezin(domain, d(f), definite=False).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Supertime R^(1|1)
# ---------------------------------------------------------------------------

def supertime(n_eta=2):
    """R^(1|1) with coordinates (t, th) and n_eta auxiliary odd parameters.

    Returns (domain, {"dt", "D", "tau"}).  D = d/dth - th d/dt is the left
    invariant odd field, tau = d/dth + th d/dt the right invariant one.
    """
    dom = SuperDomain(even=("t",), theta=("th",), eta=tuple(f"et{i+1}" for i in range(n_eta)))
    t = dom.sym("t")
    th = dom.sym("th")
    dt = Derivation(dom.table, EVEN, {"t": 1}, "dt")
    D = Derivation(dom.table, ODD, {"th": dom.one(), "t": -th}, "D")
    tau = Derivation(dom.table, ODD, {"th": dom.one(), "t": th}, "tau")
    return dom, {"dt": dt, "D": D, "tau": tau}


def supertime_relations_ok(dom, ops) -> bool:
    """[D,D] = -2 dt, [tau,tau] = 2 dt, [D,tau] = 0, brackets with dt vanish,
    and the dependency tau - D = 2 th dt."""
    dt, D, tau = ops["dt"], ops["D"], ops["tau"]
    th = dom.sym("th")
    checks = [
        super_bracket(D, D) == dt.scale(-2),
        super_bracket(tau, tau) == dt.scale(2),
        super_bracket(D, tau).is_zero(),
        super_bracket(D, dt).is_zero(),
        super_bracket(tau, dt).is_zero(),
        (tau - D) == dt.scale(th).scale(2),
    ]
    return all(checks)


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
        self.body = rational_part(value.scalar_part())
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


def body(value: SuperPolynomial) -> Fraction:
    return EvenGrassmannPoint(value).body


def soul(value: SuperPolynomial) -> SuperPolynomial:
    return EvenGrassmannPoint(value).soul


def hinf_extend(f: SuperPolynomial, points) -> SuperPolynomial:
    """Taylor extension of a real polynomial in m even symbols to an m-tuple
    of even Grassmann arguments: sum_r d^r f(body) soul^r / r!.

    The sum is finite by nilpotency and the map is a ring morphism.
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
            return target.scalar(g.scalar_part())
        name = names[i]
        out = target.zero()
        cur = g
        fact = Fraction(1)
        for r in range(len(powers[i])):
            if r > 0:
                cur = cur.diff_even(name)
                fact *= r
                if cur.is_zero():
                    break
            tail = expand(cur.eval_even({name: bodies[name]}), i + 1)
            term = tail * powers[i][r]
            if r > 1:
                term = term.scale(Fraction(1, fact))
            out = out + term
        return out

    return expand(f, 0)


# ---------------------------------------------------------------------------
# Lift of even functions to the exterior-square coordinate space
# ---------------------------------------------------------------------------

class LiftSpace:
    """|Omega| x Lambda^2*_+ for an even superfunction space with q odd
    coordinates: one even coordinate s_I per even multi-index I of length
    >= 2, plus copies of the even coordinates of the base domain.

    Products of s coordinates reduce, modulo the relation ideal, to a sign
    times the s of the merged index (or 0 on a repeated position); the
    canonical lift is linear in the s coordinates.
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
        self._idx_to_I = {}
        for I in even_subsets_pos(q):
            name = "s_" + "".join(str(i) for i in I)
            s = self.table.even_symbol(name)
            self.s_name[I] = name
            self._idx_to_I[s.index] = I

    def s(self, I):
        return self.table.sym(self.s_name[tuple(I)])

    def _s_index(self, idx):
        return self._idx_to_I.get(idx)

    def reduce(self, frak: SuperPolynomial) -> SuperPolynomial:
        """Normal form modulo the relation ideal: every s monomial collapses
        to eps * s_(merged) with eps in {0, +1, -1}."""
        out = self.table.zero()
        for (ev, od), c in frak.terms.items():
            s_parts = []
            rest = []
            for i, p in ev:
                I = self._s_index(i)
                if I is None:
                    rest.append((i, p))
                else:
                    s_parts.extend([I] * p)
            if len(s_parts) <= 1:
                out = out + SuperPolynomial(self.table, {(ev, od): c})
                continue
            ms = merge_sign(*s_parts)
            if ms is None:
                continue
            sign, merged = ms
            mono = SuperPolynomial(self.table, {(tuple(rest), od): c * sign})
            out = out + mono * self.s(merged)
        return out

    def lift(self, f: SuperPolynomial) -> SuperPolynomial:
        """Canonical representative, linear in the s coordinates, of an even
        superfunction f = sum_I f_I(x) eta^I."""
        if f.parity() not in (None, EVEN):
            raise ParityError("only even functions lift")
        odd_idx = {self.domain.table.symbol(n).index: k + 1 for k, n in enumerate(self.odd_names)}
        out = self.table.zero()
        for (ev, od), c in f.terms.items():
            I = tuple(odd_idx[i] for i in od)
            base = SuperPolynomial(self.table, {(self._map_even(ev), ()): c})
            if I:
                base = base * self.s(I)
            out = out + base
        return out

    def _map_even(self, ev):
        out = []
        for i, p in ev:
            name = self.domain.table.symbols[i].name
            out.append((self.table.symbol(name).index, p))
        return tuple(sorted(out))

    def lower(self, frak: SuperPolynomial) -> SuperPolynomial:
        """Evaluate e^(theta-lift vector field) at s = 0: replace every s_I
        factor by the odd monomial eta^I of the base domain."""
        dom = self.domain
        images = {}
        for s in frak.support():
            I = self._s_index(s.index)
            if I is None:
                images[s.name] = dom.sym(s.name)
            else:
                images[s.name] = dom.table.monomial(1, (), [self.odd_names[pos - 1] for pos in I])
        return frak.substitute(images) if images else dom.scalar(frak.scalar_part())

    def extend_even_field(self, coeffs: dict) -> Derivation:
        """Vector field sum c_x(base evens) d/dx on the lift space, constant
        in the s coordinates."""
        imgs = {}
        for name, c in coeffs.items():
            imgs[name] = c if isinstance(c, SuperPolynomial) else self.table.scalar(c)
        return Derivation(self.table, EVEN, imgs, "X")


def theta_lift(domain: SuperDomain, f: SuperPolynomial):
    space = LiftSpace(domain)
    return space, space.lift(f)


def theta_lower(space: LiftSpace, frak: SuperPolynomial) -> SuperPolynomial:
    return space.lower(space.reduce(frak))


def theta_lift_vectorfield_check(case: int, q: int, rng, samples=5) -> bool:
    """The three displayed vector-field correspondences X f = lower(X~ f~):

    1. even fields on the base extend s-constantly;
    2. eta^1 eta^2 X corresponds to s_12 X;
    3. eta^1 d/d(eta^2) corresponds to sum_* s_(1*) d/d s_(2*).
    """
    if q < 2 or q > 6:
        raise ValueError("desk scale is 2 <= q <= 6")
    if case == 3 and q < 3:
        raise ValueError("case 3 needs q >= 3: with two eta both sides vanish")
    dom = SuperDomain(even=("x",), theta=(), eta=tuple(f"et{i+1}" for i in range(q)))
    space = LiftSpace(dom)
    x = space.table.sym("x")

    for _ in range(samples):
        frak = _random_lift_poly(space, rng)
        frak = space.reduce(frak)
        f = space.lower(frak)
        if case == 1:
            coeff = x ** rng.randint(0, 2) * rng.randint(-3, 3)
            X = space.extend_even_field({"x": coeff})
            lhs = _apply_even_field_on_base(dom, {"x": coeff}, f)
            rhs = theta_lower(space, X(frak))
        elif case == 2:
            coeff = x ** rng.randint(0, 2) * rng.randint(-3, 3)
            X = space.extend_even_field({"x": coeff})
            e12 = dom.sym("et1") * dom.sym("et2")
            lhs = e12 * _apply_even_field_on_base(dom, {"x": coeff}, f)
            rhs = theta_lower(space, space.s((1, 2)) * X(frak))
        elif case == 3:
            d2 = dom.odd_derivative("et2")
            lhs = dom.sym("et1") * d2(f)
            imgs = {}
            for I in odd_subsets(q):
                if 1 in I or 2 in I or not I:
                    continue
                m1 = merge_sign((1,), I)
                m2 = merge_sign((2,), I)
                if m1 is None or m2 is None:
                    continue
                s1 = space.s(m1[1]).scale(m1[0])
                imgs[space.s_name[m2[1]]] = s1.scale(m2[0])
            Z = Derivation(space.table, EVEN, imgs, "Z")
            rhs = theta_lower(space, Z(frak))
        else:
            raise ValueError("case must be 1, 2 or 3")
        if lhs != rhs:
            return False
    return True


def _apply_even_field_on_base(dom: SuperDomain, coeffs, f):
    imgs = {}
    for name, c in coeffs.items():
        imgs[name] = _transport(dom, c)
    X = Derivation(dom.table, EVEN, imgs, "X")
    return X(f)


def _transport(dom: SuperDomain, poly: SuperPolynomial) -> SuperPolynomial:
    """Copy a polynomial in shared even names into the domain table."""
    images = {s.name: dom.sym(s.name) for s in poly.support()}
    return poly.substitute(images) if images else dom.scalar(poly.scalar_part())


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
