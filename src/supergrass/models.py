"""The two worked supersymmetric models: the superparticle on the odd-time
line (flat target) and the scalar sigma model on the three-dimensional
super Minkowski space with a polynomial superpotential.

Fields live in a jet algebra: one symbol per field and derivative
multi-index, with total-derivative operators moving jets up one order.
Variational derivatives of odd fields act from the left.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement

from .kernel import EVEN, ODD, Derivation, SuperPolynomial, SymbolTable, odd_fields, super_bracket
from .scalars import ratio

# Jets up to second order: the field equations of a first-order Lagrangian.
JET_ORDER = 2


class FieldSystem:
    """Jet coordinates for fields over base coordinates.

    Jet symbols are named <field> or <field>_<letters> with the derivative
    letters sorted in base-coordinate order; parities follow the fields.
    jet_names maps (field, J) to the jet name and jet_of is its inverse.
    Total derivatives are defined on jets of order < JET_ORDER and refuse
    polynomials that already contain top-order jets.
    """

    def __init__(self, coords, fields, extra_even=(), theta=(), flesh=()):
        self.coords = tuple(coords)
        t = SymbolTable()
        for n in extra_even:
            t.even_symbol(n)
        for n in theta:
            t.odd_symbol(n)
        self.fields = tuple(fields)
        self.order_of = {c: i for i, c in enumerate(self.coords)}
        self.jet_names = {}
        for fname, parity in self.fields:
            declare = t.even_symbol if parity == EVEN else t.odd_symbol
            for order in range(JET_ORDER + 1):
                for J in combinations_with_replacement(self.coords, order):
                    name = fname if not J else f"{fname}_{''.join(J)}"
                    declare(name)
                    self.jet_names[(fname, J)] = name
        self.jet_of = {name: key for key, name in self.jet_names.items()}
        for n in flesh:
            t.odd_symbol(n)
        self.table = t
        self._dops = {}

    def sym(self, name):
        return self.table.sym(name)

    def jet(self, field, *derivs):
        J = tuple(sorted(derivs, key=self.order_of.get))
        return self.table.sym(self.jet_names[(field, J)])

    def zero(self):
        return self.table.zero()

    def one(self):
        return self.table.one()

    # -- total derivatives -------------------------------------------------
    def total_derivative(self, coord) -> Derivation:
        if coord in self._dops:
            return self._dops[coord]
        imgs = {}
        for (fname, J), name in self.jet_names.items():
            if len(J) >= JET_ORDER:
                continue
            J2 = tuple(sorted(J + (coord,), key=self.order_of.get))
            imgs[name] = self.table.sym(self.jet_names[(fname, J2)])
        d = Derivation(self.table, EVEN, imgs, f"D_{coord}")
        self._dops[coord] = d
        return d

    def _check_order(self, p: SuperPolynomial):
        for s in p.support():
            if s.name in self.jet_of and len(self.jet_of[s.name][1]) >= JET_ORDER:
                raise ValueError(f"{s.name}: jet order {JET_ORDER} exhausted")

    def d(self, coord, p: SuperPolynomial) -> SuperPolynomial:
        self._check_order(p)
        return self.total_derivative(coord)(p)

    def d_multi(self, J, p: SuperPolynomial) -> SuperPolynomial:
        for c in J:
            p = self.d(c, p)
        return p

    # -- variational calculus ----------------------------------------------
    def left_partial(self, p: SuperPolynomial, jet_name) -> SuperPolynomial:
        s = self.table.symbol(jet_name)
        return Derivation(self.table, s.parity, {jet_name: 1}, f"d/d{jet_name}")(p)

    def euler_operator(self, L: SuperPolynomial, field) -> SuperPolynomial:
        """sum_J (-1)^|J| D_J (dL/d field_J) with graded left derivatives."""
        out = self.zero()
        for (fname, J), name in self.jet_names.items():
            if fname != field:
                continue
            p = self.left_partial(L, name)
            if p.is_zero():
                continue
            term = self.d_multi(J, p)
            if len(J) % 2:
                term = -term
            out = out + term
        return out


# ---------------------------------------------------------------------------
# Superpotential
# ---------------------------------------------------------------------------

class Superpotential:
    """Univariate polynomial with exact or symbolic coefficients.

    coeffs: list of scalars or table polynomials, low degree first; apply(p)
    composes with any even polynomial of the same table.
    """

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def symbolic(cls, table, degree):
        return cls([table.sym(name) for name in symbolic_coeff_names(degree)])

    def derivative(self) -> "Superpotential":
        return Superpotential([c * i for i, c in enumerate(self.coeffs)][1:] or [0])

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        table = p.table
        out = table.zero()
        power = table.one()
        for c in self.coeffs:
            out = out + power * c
            power = power * p
        return out


def symbolic_coeff_names(degree):
    return tuple(f"a{i}" for i in range(degree + 1))


# ---------------------------------------------------------------------------
# Superparticle on the odd-time line
# ---------------------------------------------------------------------------

class Superparticle:
    """Phi^i = x^i + th psi^i on supertime, flat target of dimension n."""

    def __init__(self, n=1, modulated=False):
        fields = []
        for i in range(1, n + 1):
            fields.append((f"x{i}", EVEN))
            fields.append((f"ps{i}", ODD))
        if modulated:
            fields.append(("chi", EVEN))
        self.n = n
        self.fs = FieldSystem(("t",), fields, theta=("th",), flesh=("et1", "et2"))
        self.th = self.fs.sym("th")
        # D = d/dth - th d/dt and tau = d/dth + th d/dt on the superfield
        # ring: th pairs with itself into the total time derivative
        self.dt = self.fs.total_derivative("t")
        (self.D,), (self.tau,) = (odd_fields(self.fs.table, ("th",), {("th", "th"): self.dt}, s)
                                  for s in (-1, 1))

    def x(self, i, *J):
        return self.fs.jet(f"x{i}", *J)

    def ps(self, i, *J):
        return self.fs.jet(f"ps{i}", *J)

    def superfield(self, i):
        return self.x(i) + self.th * self.ps(i)

    # -- the action ---------------------------------------------------------
    def superdensity(self) -> SuperPolynomial:
        """-1/2 <D Phi, dPhi/dt>."""
        out = self.fs.zero()
        for i in range(1, self.n + 1):
            Phi = self.superfield(i)
            out = out + self.D(Phi) * self.dt(Phi)
        return out.scale(ratio(-1, 2))

    def pair_velocity(self):
        """<psi, xdot> = sum psi^i x^i_t."""
        out = self.fs.zero()
        for i in range(1, self.n + 1):
            out = out + self.ps(i) * self.x(i, "t")
        return out

    def density_components_ok(self) -> bool:
        """-1/2<D Phi, dPhi/dt> = -1/2<psi, xdot> + (th/2)(|xdot|^2 + <psi, psidot>)."""
        sd = self.superdensity()
        speed2 = self.fs.zero()
        pair_dot = self.fs.zero()
        for i in range(1, self.n + 1):
            speed2 = speed2 + self.x(i, "t") * self.x(i, "t")
            pair_dot = pair_dot + self.ps(i) * self.ps(i, "t")
        want = self.pair_velocity().scale(ratio(-1, 2)) \
            + (self.th * (speed2 + pair_dot)).scale(ratio(1, 2))
        return sd == want

    @cached_property
    def lagrangian(self) -> SuperPolynomial:
        """Berezin integral of the superdensity: the theta coefficient."""
        return self.superdensity().coefficient_of_odd(("th",))

    # -- supersymmetry variation ---------------------------------------------
    def susy_images(self, eta: SuperPolynomial, chi_name=None):
        """x -> x - eta chi psi, psi -> psi + eta chi xdot, prolonged to jets."""
        fs = self.fs
        chi = fs.sym(chi_name) if chi_name else fs.one()
        images = {}
        for i in range(1, self.n + 1):
            for J in ((), ("t",)):
                dx = fs.d_multi(J, chi * self.ps(i))
                dps = fs.d_multi(J, chi * self.x(i, "t"))
                xname = fs.jet_names[(f"x{i}", J)]
                pname = fs.jet_names[(f"ps{i}", J)]
                images[xname] = fs.sym(xname) - eta * dx
                images[pname] = fs.sym(pname) + eta * dps
        return images

    def variation(self, eta, chi_name=None) -> SuperPolynomial:
        L = self.lagrangian
        return L.substitute(self.susy_images(eta, chi_name)) - L

    def plain_variation_ok(self) -> bool:
        """tau contraction with delta L = (1/2) eta d/dt <psi, xdot>."""
        eta = self.fs.sym("et1")
        contraction = -self.variation(eta)
        want = (eta * self.fs.d("t", self.pair_velocity())).scale(ratio(1, 2))
        return contraction == want

    def modulated_variation_ok(self) -> bool:
        """Split the chi-modulated variation into the chi and chi-dot parts
        and integrate the latter by parts."""
        fs = self.fs
        eta = fs.sym("et1")
        chi = fs.sym("chi")
        chi_t = fs.jet("chi", "t")
        delta = -self.variation(eta, chi_name="chi")
        part_chi = delta.free_of(("chi_t",))
        part_chit = delta - part_chi
        if part_chi.free_of(("chi",)):
            raise AssertionError("variation term without modulation factor")
        pair = self.pair_velocity()
        total_ibp = part_chi + integrate_by_parts_chi(fs, part_chit)
        return (part_chi == (eta * chi * fs.d("t", pair)).scale(ratio(1, 2))
                and part_chit == (eta * chi_t * pair).scale(ratio(3, 2))
                and total_ibp == -(eta * chi * fs.d("t", pair)))

    def noether_charge_conserved_on_shell(self) -> bool:
        """d/dt <psi, xdot> vanishes modulo the flat field equations."""
        fs = self.fs
        expr = fs.d("t", self.pair_velocity())
        subs = {}
        for i in range(1, self.n + 1):
            subs[fs.jet_names[(f"x{i}", ("t", "t"))]] = fs.zero()
            subs[fs.jet_names[(f"ps{i}", ("t",))]] = fs.zero()
        return expr.substitute(subs).is_zero()

    def susy_algebra_ok(self) -> bool:
        """[Q_1, Q_2] = -2 et1 et2 d/dt on the fields, Q_i = -et_i tau."""
        e1, e2 = self.fs.sym("et1"), self.fs.sym("et2")
        Q1 = self.tau.scale(-e1)
        Q2 = self.tau.scale(-e2)
        br = super_bracket(Q1, Q2)
        want = -2 * (e1 * e2)
        for i in range(1, self.n + 1):
            if br(self.x(i)) != want * self.x(i, "t"):
                return False
            if br(self.ps(i)) != want * self.ps(i, "t"):
                return False
        return br(self.th).is_zero()


def integrate_by_parts_chi(fs: FieldSystem, p: SuperPolynomial) -> SuperPolynomial:
    """Rewrite chi_t g -> -chi D_t(g), discarding the boundary term."""
    chit = fs.jet_names[("chi", ("t",))]
    g = p.diff_even(chit)
    if g.diff_even(chit):
        raise ValueError("quadratic modulation terms cannot be integrated by parts")
    return p.free_of((chit,)) - fs.sym("chi") * fs.d("t", g)


# ---------------------------------------------------------------------------
# The scalar sigma model on R^(3|2)
# ---------------------------------------------------------------------------

class Sigma32:
    """Phi = phi + th1 psi_1 + th2 psi_2 + th1 th2 F with superpotential h.

    Base coordinates (t, x, y); the symmetric-slot total derivatives are
    D_(11) = D_t + D_x, D_(12) = D_(21) = D_y and D_(22) = D_t - D_x.
    """

    def __init__(self, h: Superpotential = None, h_degree=4, extra_even=()):
        names = symbolic_coeff_names(h_degree) if h is None else ()
        self.fs = fs = FieldSystem(
            ("t", "x", "y"),
            [("phi", EVEN), ("ps1", ODD), ("ps2", ODD), ("F", EVEN)],
            extra_even=tuple(names) + tuple(extra_even),
            theta=("th1", "th2"),
        )
        self.h = h if h is not None else Superpotential.symbolic(fs.table, h_degree)
        self.th1 = fs.sym("th1")
        self.th2 = fs.sym("th2")
        dt, dx, dy = (fs.total_derivative(c) for c in "txy")
        self.slot = {(1, 1): dt + dx, (1, 2): dy, (2, 1): dy, (2, 2): dt - dx}
        # D_a = d_a - th^b D_(ab) and tau_a = d_a + th^b D_(ab): th^a pairs
        # with th^b through the slot total derivative
        T = {(f"th{a}", f"th{b}"): d for (a, b), d in self.slot.items()}
        self.D, self.tau = (odd_fields(fs.table, ("th1", "th2"), T, s) for s in (-1, 1))
        # h(phi), h'(phi), h''(phi), h'''(phi)
        phi = fs.jet("phi")
        self.h_phi = [self.h.apply(phi)]
        hk = self.h
        for _ in range(3):
            hk = hk.derivative()
            self.h_phi.append(hk.apply(phi))

    def superfield(self):
        fs = self.fs
        return (fs.jet("phi") + self.th1 * fs.jet("ps1") + self.th2 * fs.jet("ps2")
                + self.th1 * self.th2 * fs.jet("F"))

    # -- displayed expansions ---------------------------------------------------
    def cal_D(self, a):
        """(cal D psi)_1 = D_(12) ps1 - D_(11) ps2, (cal D psi)_2 = D_(22) ps1 - D_(21) ps2."""
        return self.slot[a, 2](self.fs.jet("ps1")) - self.slot[a, 1](self.fs.jet("ps2"))

    def d_phi(self, a, b):
        return self.slot[a, b](self.fs.jet("phi"))

    def dphi_expansions_ok(self) -> bool:
        fs = self.fs
        Phi = self.superfield()
        D1, D2 = self.D
        th1, th2 = self.th1, self.th2
        F = fs.jet("F")
        want1 = (fs.jet("ps1") - th1 * self.d_phi(1, 1) + th2 * (F - self.d_phi(2, 1))
                 + th1 * th2 * self.cal_D(1))
        want2 = (fs.jet("ps2") - th1 * (F + self.d_phi(1, 2)) - th2 * self.d_phi(2, 2)
                 + th1 * th2 * self.cal_D(2))
        return D1(Phi) == want1 and D2(Phi) == want2

    def psi_cal_D_psi(self):
        fs = self.fs
        return fs.jet("ps1") * self.cal_D(2) - fs.jet("ps2") * self.cal_D(1)

    def kinetic_component_ok(self) -> bool:
        """Berezin of (1/4) eps^(ab) D_a Phi D_b Phi against both displayed
        component forms."""
        fs = self.fs
        Phi = self.superfield()
        D1, D2 = self.D
        quarter = (D1(Phi) * D2(Phi) - D2(Phi) * D1(Phi)).scale(ratio(1, 4))
        top = quarter.coefficient_of_odd(("th1", "th2"))
        F = fs.jet("F")
        slot_form = (self.d_phi(1, 1) * self.d_phi(2, 2)).scale(ratio(1, 2)) \
            - (self.d_phi(1, 2) ** 2).scale(ratio(1, 2)) \
            + self.psi_cal_D_psi().scale(ratio(1, 2)) + (F * F).scale(ratio(1, 2))
        pt = fs.jet("phi", "t")
        px = fs.jet("phi", "x")
        py = fs.jet("phi", "y")
        txy_form = (pt * pt - px * px - py * py).scale(ratio(1, 2)) \
            + self.psi_cal_D_psi().scale(ratio(1, 2)) + (F * F).scale(ratio(1, 2))
        return top == slot_form and top == txy_form

    def superpotential_pullback_ok(self) -> bool:
        """h(Phi) = h(phi) + h'(phi)(th1 ps1 + th2 ps2 + th1 th2 F)
        - h''(phi) th1 th2 ps1 ps2."""
        fs = self.fs
        h, hp, hpp, _ = self.h_phi
        lhs = self.h.apply(self.superfield())
        odd_sum = self.th1 * fs.jet("ps1") + self.th2 * fs.jet("ps2") \
            + self.th1 * self.th2 * fs.jet("F")
        rhs = h + hp * odd_sum - hpp * (self.th1 * self.th2 * (fs.jet("ps1") * fs.jet("ps2")))
        return lhs == rhs

    @cached_property
    def lagrangian(self) -> SuperPolynomial:
        """Berezin integral of (1/4) eps^(ab) D_a Phi D_b Phi + h(Phi)."""
        Phi = self.superfield()
        D1, D2 = self.D
        supd = (D1(Phi) * D2(Phi) - D2(Phi) * D1(Phi)).scale(ratio(1, 4)) \
            + self.h.apply(Phi)
        return supd.coefficient_of_odd(("th1", "th2"))

    def component_action_ok(self) -> bool:
        fs = self.fs
        F = fs.jet("F")
        _, hp, hpp, _ = self.h_phi
        pt, px, py = fs.jet("phi", "t"), fs.jet("phi", "x"), fs.jet("phi", "y")
        want = (pt * pt - px * px - py * py).scale(ratio(1, 2)) \
            + self.psi_cal_D_psi().scale(ratio(1, 2)) \
            - hpp * fs.jet("ps1") * fs.jet("ps2") \
            + (F * F).scale(ratio(1, 2)) + hp * F
        return self.lagrangian == want

    def completed_square_ok(self) -> bool:
        """L = (1/2)[phi_t^2 - |grad phi|^2 + psi cal-D psi - 2 h'' ps1 ps2
        - h'(phi)^2] + (1/2)(F + h'(phi))^2."""
        fs = self.fs
        F = fs.jet("F")
        _, hp, hpp, _ = self.h_phi
        pt, px, py = fs.jet("phi", "t"), fs.jet("phi", "x"), fs.jet("phi", "y")
        bulk = (pt * pt - px * px - py * py + self.psi_cal_D_psi()
                - (hpp * fs.jet("ps1") * fs.jet("ps2")).scale(2)
                - hp * hp).scale(ratio(1, 2))
        square = ((F + hp) * (F + hp)).scale(ratio(1, 2))
        return self.lagrangian == bulk + square

    # -- Euler-Lagrange system ----------------------------------------------------
    @cached_property
    def euler_equations(self):
        fs = self.fs
        return {f: fs.euler_operator(self.lagrangian, f) for f in ("phi", "ps1", "ps2", "F")}

    def box_phi(self):
        fs = self.fs
        return (fs.jet("phi", "t", "t") - fs.jet("phi", "x", "x")
                - fs.jet("phi", "y", "y"))

    def euler_system_ok(self) -> bool:
        """Against the displayed system, with the global sign conventions:
        the F equation comes out as written, the phi equation with an overall
        minus after eliminating F, and the psi pair with an eps twist
        (varying ps1 yields the second displayed component, varying ps2 minus
        the first)."""
        fs = self.fs
        eqs = self.euler_equations
        _, hp, hpp, hppp = self.h_phi
        if eqs["F"] != fs.jet("F") + hp:
            return False
        # psi equations: cal-D psi = h'' psi with the eps twist
        if eqs["ps1"] != self.cal_D(2) - hpp * fs.jet("ps2"):
            return False
        if eqs["ps2"] != -(self.cal_D(1) - hpp * fs.jet("ps1")):
            return False
        # phi equation after eliminating F by its own equation
        got = eqs["phi"].substitute({"F": -hp})
        want = -(self.box_phi() + hpp * hp + hppp * fs.jet("ps1") * fs.jet("ps2"))
        return got == want


# ---------------------------------------------------------------------------
# Invariance constraints and the energy identity
# ---------------------------------------------------------------------------

def trig_reduce(p: SuperPolynomial) -> SuperPolynomial:
    """Normal form with s^2 -> 1 - c^2 (s survives to degree <= 1): p is the
    sum of p_n s^n over the Taylor coefficients p_n = (d_s^n p)|_(s=0) / n!,
    and s^(2m+r) becomes (1 - c^2)^m s^r."""
    t = p.table
    c, s = t.sym("c"), t.sym("s")
    out = t.zero()
    n = 0
    while p:  # p is d_s^n of the input over n!
        m, r = divmod(n, 2)
        term = p.eval_even({"s": 0}) * (t.one() - c * c) ** m
        out = out + (term * s if r else term)
        n += 1
        p = p.diff_even("s").scale(ratio(1, n))
    return out


class BpsSystem:
    """psi = 0, F = -h'(phi) fields invariant under cos tau_1 + sin tau_2.

    Works in the sigma-model jet ring extended by the two even symbols c, s
    subject to s^2 -> 1 - c^2.
    """

    def __init__(self, h_degree=3):
        self.model = Sigma32(h_degree=h_degree, extra_even=("c", "s"))
        self.fs = self.model.fs
        self.c = self.fs.sym("c")
        self.s = self.fs.sym("s")
        self.cos2a = (self.c * self.c).scale(2) - 1
        self.sin2a = (self.c * self.s).scale(2)

    def constraint_components(self):
        """theta coefficients of (c tau_1 + s tau_2) Phi with psi = 0."""
        fs = self.fs
        Phi0 = fs.jet("phi") + self.model.th1 * self.model.th2 * fs.jet("F")
        tau1, tau2 = self.model.tau
        combo = self.c * tau1(Phi0) + self.s * tau2(Phi0)
        eq1 = combo.coefficient_of_odd(("th1",)).free_of(("th1", "th2"))
        eq2 = combo.coefficient_of_odd(("th2",)).free_of(("th1", "th2"))
        return eq1, eq2

    def X_apply(self, p):
        return trig_reduce(self.cos2a * self.fs.d("x", p) + self.sin2a * self.fs.d("y", p))

    def Y_apply(self, p):
        return trig_reduce(-(self.sin2a * self.fs.d("x", p)) + self.cos2a * self.fs.d("y", p))

    @cached_property
    def first_order_pair(self):
        """R1 = phi_t + X phi and R2 = Y phi - h'(phi) from the constraint,
        checked against the displayed combinations."""
        eq1, eq2 = self.constraint_components()
        fs = self.fs
        phi = fs.jet("phi")
        r1 = trig_reduce(self.c * eq1 + self.s * eq2)
        want1 = trig_reduce(fs.jet("phi", "t") + self.X_apply(phi))
        if r1 != want1:
            raise AssertionError("R1 combination mismatch")
        r2f = trig_reduce(-(self.s * eq1) + self.c * eq2)
        hp = self.model.h_phi[1]
        # -s eq1 + c eq2 = Y phi + F; eliminating F by F = -h'(phi):
        r2 = r2f.substitute({"F": -hp})
        want2 = trig_reduce(self.Y_apply(phi) - hp)
        if r2 != want2:
            raise AssertionError("R2 combination mismatch")
        return want1, want2

    def eliminate_t(self, p):
        """Substitute phi_(t J) -> -(X phi)_J recursively (prolonged R1)."""
        fs = self.fs
        while True:
            jets = filter(None, (fs.jet_of.get(s.name) for s in p.support()))
            J = next((J for field, J in jets if field == "phi" and "t" in J), None)
            if J is None:
                return trig_reduce(p)
            rest = tuple(c for c in J if c != "t") + ("t",) * (J.count("t") - 1)
            img = -fs.d_multi(rest, self.X_apply(fs.jet("phi")))
            p = p.substitute({fs.jet_names["phi", J]: img})

    def second_order_consequences_ok(self) -> bool:
        """(d_t^2 - X^2) phi = 0 under prolonged R1, and Y^2 phi - h'' h'
        lies in the ideal of R2 with the explicit certificate
        Y^2 phi - h'' h' = Y(R2) + h''(phi) R2."""
        fs = self.fs
        phi = fs.jet("phi")
        _, hp, hpp, _ = self.model.h_phi
        first = self.eliminate_t(fs.jet("phi", "t", "t") - self.X_apply(self.X_apply(phi)))
        if not first.is_zero():
            return False
        _, r2 = self.first_order_pair
        lhs = trig_reduce(self.Y_apply(self.Y_apply(phi)) - hpp * hp)
        cert = trig_reduce(self.Y_apply(r2) + hpp * r2)
        return lhs == cert

    def wave_equation_ok(self) -> bool:
        """box phi + h''(phi) h'(phi) reduces to zero modulo the first-order
        system: eliminate t by R1, then subtract the R2 certificate."""
        _, hp, hpp, _ = self.model.h_phi
        _, r2 = self.first_order_pair
        target = self.eliminate_t(self.model.box_phi() + hpp * hp)
        cert = trig_reduce(self.Y_apply(r2) + hpp * r2)
        return trig_reduce(target + cert).is_zero()

    def quarter_turn_case_ok(self) -> bool:
        """s = c (with c^2 = 1/2): the constraints become
        phi_t + phi_y = 0 and phi_x = -h'(phi)."""
        fs = self.fs
        eq1, eq2 = self.constraint_components()
        eq1 = eq1.substitute({"s": self.c})
        eq2 = eq2.substitute({"s": self.c})
        hp = self.model.h_phi[1]
        plus = eq1 + eq2
        minus = eq1 - eq2
        want_plus = (self.c * (fs.jet("phi", "t") + fs.jet("phi", "y"))).scale(2)
        want_minus = (self.c * (fs.jet("phi", "x") - fs.jet("F"))).scale(2)
        if plus != want_plus or minus != want_minus:
            return False
        constrained = minus.substitute({"F": -hp})
        return constrained == (self.c * (fs.jet("phi", "x") + hp)).scale(2)


def bogomolnyi_identity_ok(h_degree=4) -> bool:
    """(1/2)[phi_t^2 + phi_x^2 + h'(phi)^2]
    = (1/2)[phi_t^2 + (phi_x -/+ h'(phi))^2 +/- 2 d_x(h(phi))], both signs."""
    names = symbolic_coeff_names(h_degree)
    fs = FieldSystem(("t", "x"), [("phi", EVEN)], extra_even=names)
    h = Superpotential.symbolic(fs.table, h_degree)
    hp = h.derivative()
    phi = fs.jet("phi")
    pt, px = fs.jet("phi", "t"), fs.jet("phi", "x")
    hp_phi = hp.apply(phi)
    lhs = (pt * pt + px * px + hp_phi * hp_phi).scale(ratio(1, 2))
    for sign in (1, -1):
        shifted = px - hp_phi.scale(sign)
        rhs = (pt * pt + shifted * shifted).scale(ratio(1, 2)) \
            + fs.d("x", h.apply(phi)).scale(sign)
        if lhs != rhs:
            return False
    return True
