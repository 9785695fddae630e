"""Named verification suites behind the `verify` subcommand.

Each check is (id, law, callable(rng, cases) -> (ok, counterexample-text)).
Checks are seeded individually from (seed, check id), so reports are
deterministic regardless of execution order; the JSON form of a report
contains no timing and is byte-identical for a fixed seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import divalg, minkowski, models, morphisms, superspace
from .expr_io import (Add, Ber, Bracket, Context, DApp, Lit, Mul, Neg, Pow, Sym,
                      format_poly, parse, poly_from_json, poly_to_json, print_ast)
from .kernel import (EVEN, ODD, Derivation, SymbolTable,
                     cartan_triple, jacobi_check, skew_check, super_bracket)
from .scalars import QI


@dataclass
class CheckResult:
    check_id: str
    law: str
    passed: bool
    counterexample: str = ""

    def jsonable(self):
        out = {"id": self.check_id, "law": self.law, "pass": self.passed}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class SuiteReport:
    suite: str
    results: list
    wall_ms: float = 0.0

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def jsonable(self):
        return {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [r.jsonable() for r in sorted(self.results, key=lambda r: r.check_id)],
        }


def _rng_for(seed, check_id):
    return random.Random(f"{seed}:{check_id}")


_K_LIST = (1, 2, 4, 8)


def set_k_filter(k=None):
    """Restrict the k-parameterized checks to a single algebra (None resets)."""
    global _K_LIST
    _K_LIST = (1, 2, 4, 8) if k is None else (k,)


def _k_list():
    return _K_LIST


def _algebras():
    return [divalg.ALGEBRAS[{1: "R", 2: "C", 4: "H", 8: "O"}[k]] for k in _K_LIST]


# ---------------------------------------------------------------------------
# random generators shared by several checks
# ---------------------------------------------------------------------------

def fraction(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def grassmann_table(k=4, evens=("x",)):
    t = SymbolTable()
    for n in evens:
        t.even_symbol(n)
    for i in range(k):
        t.odd_symbol(f"th{i+1}")
    return t


def random_poly(t, rng, nterms=4, deg=2):
    odd = [s.name for s in t.symbols if s.parity == ODD]
    even = [s.name for s in t.symbols if s.parity == EVEN]
    p = t.zero()
    for _ in range(nterms):
        ev = [(n, rng.randint(0, deg)) for n in even if rng.random() < 0.6]
        od = [n for n in odd if rng.random() < 0.5]
        p = p + t.monomial(fraction(rng), ev, od)
    return p


def random_homogeneous(t, rng, parity):
    return random_poly(t, rng).parity_part(parity)


def rand_ast(rng, depth=0):
    """Random canonical AST: nested sums/products are parenthesized by the
    printer, so any shape round-trips."""
    choices = ["lit", "sym", "add", "mul", "pow", "neg"]
    if depth < 1:
        choices += ["dapp", "bracket", "ber"]
    kind = rng.choice(choices if depth < 3 else ["lit", "sym"])
    if kind == "lit":
        return Lit(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
    if kind == "sym":
        return Sym(rng.choice(["x", "th1", "et2", "eps", "u3", "phi_t"]))
    if kind == "add":
        return Add(tuple(rand_ast(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    if kind == "mul":
        return Mul(tuple(rand_ast(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    if kind == "pow":
        return Pow(rand_ast(rng, depth + 1), rng.randint(0, 4))
    if kind == "neg":
        return Neg(rand_ast(rng, depth + 1))
    if kind == "dapp":
        return DApp("dt", rand_ast(rng, depth + 1))
    if kind == "bracket":
        return Bracket(rand_ast(rng, depth + 1), rand_ast(rng, depth + 1))
    return Ber(rand_ast(rng, depth + 1))


# ---------------------------------------------------------------------------
# kernel suite
# ---------------------------------------------------------------------------

def check_associativity(rng, cases):
    t = grassmann_table()
    for _ in range(cases):
        a, b, c = (random_poly(t, rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return False, format_poly(a)
    return True, ""


def check_graded_commutativity(rng, cases):
    t = grassmann_table(4, evens=())
    for _ in range(cases):
        a = random_homogeneous(t, rng, rng.randint(0, 1))
        b = random_homogeneous(t, rng, rng.randint(0, 1))
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            continue
        sign = -1 if (pa and pb) else 1
        if a * b != (b * a).scale(sign):
            return False, format_poly(a)
    return True, ""


def check_nilpotency_and_top(rng, cases):
    t = grassmann_table(4, evens=())
    top = t.one()
    for i in (1, 2, 3, 4):
        s = t.sym(f"th{i}")
        if not (s * s).is_zero():
            return False, f"th{i}^2"
        top = top * s
    return (not top.is_zero()), ""


def check_leibniz(rng, cases):
    t = grassmann_table(3)
    x = t.sym("x")
    gens = [
        Derivation(t, ODD, {"th1": t.one()}, "d1"),
        Derivation(t, ODD, {"th2": x, "x": t.sym("th3")}, "X"),
        Derivation(t, EVEN, {"x": x + 1, "th3": t.sym("th3").scale(2)}, "Y"),
    ]
    for _ in range(cases):
        D = rng.choice(gens)
        f = random_homogeneous(t, rng, rng.randint(0, 1))
        g = random_poly(t, rng)
        pf = f.parity()
        if pf is None:
            continue
        sign = -1 if (D.parity and pf) else 1
        if D(f * g) != D(f) * g + (f * D(g)).scale(sign):
            return False, format_poly(f)
    return True, ""


def check_bracket_laws(rng, cases):
    t = grassmann_table(3)
    x = t.sym("x")
    gens = [
        Derivation(t, ODD, {"th1": t.one()}, "a"),
        Derivation(t, ODD, {"th2": x, "x": t.sym("th1")}, "b"),
        Derivation(t, EVEN, {"x": x + 2}, "c"),
        Derivation(t, EVEN, {"th3": t.sym("th3"), "x": t.one()}, "d"),
        Derivation(t, ODD, {"th3": x ** 2, "x": t.sym("th2").scale(Fraction(1, 2))}, "e"),
    ]
    for _ in range(max(1, cases // 3)):
        X, Y, Z = (rng.choice(gens) for _ in range(3))
        if not skew_check(X, Y):
            return False, X.label
        if not jacobi_check(X, Y, Z):
            return False, f"({X.label},{Y.label},{Z.label})"
    return True, ""


def check_tensoring(rng, cases):
    t = SymbolTable()
    t.even_symbol("t")
    t.odd_symbol("th")
    t.odd_symbol("et1")
    t.odd_symbol("et2")
    th = t.sym("th")
    D = Derivation(t, ODD, {"th": t.one(), "t": -th}, "D")
    tau = Derivation(t, ODD, {"th": t.one(), "t": th}, "tau")
    e1, e2 = t.sym("et1"), t.sym("et2")
    for X, Y in ((D, D), (D, tau), (tau, tau)):
        lhs = super_bracket(X.scale(e1), Y.scale(e2))
        if lhs != super_bracket(X, Y).scale(-(e1 * e2)):
            return False, X.label
    return True, ""


def check_cartan(rng, cases):
    table, d, iota, lie = cartan_triple(2, [lambda t: t.sym("x1") ** 2, lambda t: t.one()])
    ok = (super_bracket(d, d).is_zero() and super_bracket(iota, iota).is_zero()
          and super_bracket(d, iota) == lie
          and super_bracket(lie, d).is_zero() and super_bracket(lie, iota).is_zero())
    return ok, ""


# ---------------------------------------------------------------------------
# divalg suite
# ---------------------------------------------------------------------------

def check_clifford_complex_plane(rng, cases):
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    bk = [t.one(), t.sym("eps")]
    bc = [divalg.C.one(), divalg.C.unit(2)]
    for i in range(2):
        for j in range(2):
            pk = bk[i] * bk[j]
            ck = [pk.scalar_part(), pk.coefficient_of_odd(("eps",)).scalar_part()]
            if ck != (bc[i] * bc[j]).coeffs:
                return False, f"e{i}*e{j}"
    return True, ""


def check_octonion_pairings(rng, cases):
    O = divalg.O
    pairs = ((1, 2), (3, 4), (6, 7), (8, 5))
    for a, b in pairs:
        if O.unit(a) * O.unit(b) != O.unit(2):
            return False, f"u{a}*u{b}"
    return True, ""


def check_norm_multiplicative(rng, cases):
    for alg in (divalg.R, divalg.C, divalg.H, divalg.O):
        for _ in range(cases):
            a = alg.element([fraction(rng) for _ in range(alg.dim)])
            b = alg.element([fraction(rng) for _ in range(alg.dim)])
            if (a * b).norm_sq() != a.norm_sq() * b.norm_sq():
                return False, alg.which
    return True, ""


def check_gamma_relation(rng, cases):
    for alg in (divalg.R, divalg.C, divalg.H, divalg.O):
        G = divalg.gamma_constants(alg)
        for a in range(1, alg.dim + 1):
            for b in range(1, alg.dim + 1):
                lhs = (alg.unit(a) * alg.unit(b).conj()
                       - alg.unit(b) * alg.unit(a).conj()).scale(Fraction(1, 2))
                rhs = alg.zero_like()
                for g in range(2, alg.dim + 1):
                    rhs = rhs + alg.unit(g, G.get((a, b, g), Fraction(0)))
                if lhs != rhs:
                    return False, f"{alg.which}:({a},{b})"
    return True, ""


def check_alternativity(rng, cases):
    O = divalg.O
    for _ in range(cases):
        a = O.element([fraction(rng) for _ in range(8)])
        b = O.element([fraction(rng) for _ in range(8)])
        if (a * a) * b != a * (a * b) or (b * a) * a != b * (a * a):
            return False, "octonion alternativity"
    return True, ""


# ---------------------------------------------------------------------------
# superspace suite
# ---------------------------------------------------------------------------

def check_supertime(rng, cases):
    dom, ops = superspace.supertime()
    return superspace.supertime_relations_ok(dom, ops), ""


def check_berezin_translation(rng, cases):
    d = superspace.SuperDomain(even=("x",), theta=("th1", "th2"), eta=("et1", "et2"))
    t = d.table
    for _ in range(cases):
        f = random_poly(t, rng)
        shifts = {
            "th1": d.sym("et1").scale(rng.randint(-2, 2)),
            "th2": d.sym("et2").scale(rng.randint(-2, 2)) + d.sym("et1").scale(rng.randint(-1, 1)),
        }
        if not superspace.berezin_translation_check(d, f, shifts):
            return False, format_poly(f)
    return True, ""


def check_hinf_morphism(rng, cases):
    t = SymbolTable()
    t.even_symbol("x")
    t.even_symbol("y")
    tf = SymbolTable()
    for i in range(4):
        tf.odd_symbol(f"et{i+1}")
    ets = [tf.sym(f"et{i+1}") for i in range(4)]
    for _ in range(cases):
        def rpoly():
            p = t.zero()
            for _ in range(3):
                p = p + t.monomial(fraction(rng),
                                   [("x", rng.randint(0, 2)), ("y", rng.randint(0, 2))])
            return p

        def rpoint():
            z = tf.scalar(rng.randint(-3, 3))
            for a in range(4):
                for b in range(a + 1, 4):
                    if rng.random() < 0.5:
                        z = z + (ets[a] * ets[b]).scale(rng.randint(-2, 2))
            return superspace.EvenGrassmannPoint(z)

        f, g = rpoly(), rpoly()
        zs = [rpoint(), rpoint()]
        if superspace.hinf_extend(f * g, zs) != superspace.hinf_extend(f, zs) * superspace.hinf_extend(g, zs):
            return False, format_poly(f)
    return True, ""


def check_body_soul(rng, cases):
    tf = SymbolTable()
    for i in range(4):
        tf.odd_symbol(f"et{i+1}")
    ets = [tf.sym(f"et{i+1}") for i in range(4)]
    for _ in range(cases):
        def rpoint():
            z = tf.scalar(fraction(rng))
            for a in range(4):
                for b in range(a + 1, 4):
                    if rng.random() < 0.4:
                        z = z + (ets[a] * ets[b]).scale(rng.randint(-2, 2))
            return z

        z, w = rpoint(), rpoint()
        if superspace.body(z * w) != superspace.body(z) * superspace.body(w):
            return False, format_poly(z)
        soul = superspace.soul(z)
        powers = superspace.EvenGrassmannPoint(z).soul_powers()
        if len(powers) > 3:
            return False, "soul nilpotency order"
    return True, ""


def check_theta_lift(rng, cases):
    for case in (1, 2, 3):
        for q in (3, 4, 6):
            if not superspace.theta_lift_vectorfield_check(case, q, rng, samples=2):
                return False, f"case {case}, q={q}"
    d = superspace.SuperDomain(even=("x",), theta=(), eta=tuple(f"et{i+1}" for i in range(4)))
    for _ in range(cases // 4 or 1):
        f = random_homogeneous(d.table, rng, 0)
        space, frak = superspace.theta_lift(d, f)
        if superspace.theta_lower(space, frak) != f:
            return False, format_poly(f)
    return True, ""


# ---------------------------------------------------------------------------
# morphisms suite
# ---------------------------------------------------------------------------

def check_pullback_morphism(rng, cases):
    for _ in range(cases):
        m = morphisms.random_flesh_morphism(
            rng, m_even=1, n_target=2,
            k_theta=rng.choice((0, 1, 2)), L_eta=rng.choice((2, 3)),
            deg=rng.choice((2, 3)),
        )
        ys = [m.table.sym(n) for n in m.target_even]
        f = ys[0] ** rng.randint(1, 3) + ys[-1].scale(rng.randint(-2, 2))
        g = ys[-1] ** rng.randint(1, 2) + rng.randint(-2, 2)
        if not morphisms.morphism_check(m, f, g, rng):
            return False, format_poly(f)
    return True, ""


def check_collapse(rng, cases):
    return morphisms.collapse_morphism_check(2, 3, rng, cases=min(cases, 30)), ""


def check_point_tangent(rng, cases):
    t = SymbolTable()
    t.even_symbol("y")
    t.even_symbol("z")
    for _ in range(cases):
        pt = {"y": fraction(rng), "z": fraction(rng)}
        xi = {"y": fraction(rng), "z": fraction(rng)}
        rt, pull = morphisms.point_tangent_pullback(t, pt, xi)
        f = t.sym("y") ** rng.randint(1, 3) + t.sym("z").scale(rng.randint(-2, 2))
        g = t.sym("z") ** rng.randint(1, 2) + rng.randint(-2, 2)
        if pull(f * g) != pull(f) * pull(g):
            return False, format_poly(f)
    return True, ""


def check_odd_plane(rng, cases):
    t = SymbolTable()
    t.even_symbol("y1")
    t.even_symbol("y2")
    names = ("y1", "y2")
    for _ in range(cases):
        xi1 = {n: Fraction(rng.randint(-2, 2)) for n in names}
        xi2 = {n: Fraction(rng.randint(-2, 2)) for n in names}
        pt = {n: Fraction(rng.randint(-2, 2)) for n in names}
        ok = morphisms.odd_plane_obstruction(t, pt, xi1, xi2)
        if ok != morphisms.vectors_dependent(xi1, xi2, names):
            return False, str(xi1)
    return True, ""


def check_factorization(rng, cases):
    for _ in range(max(1, cases // 5)):
        m = morphisms.random_flesh_morphism(rng, k_theta=2, L_eta=2, commuting=True, n_xi=4)
        y = m.table.sym("y1")
        f = y ** 3 + y * m.table.sym("y2")
        if morphisms.pullback_factorized(m, f) != m.pullback_even(f):
            return False, "factorized pullback"
    return True, ""


def check_components_nonlinear(rng, cases):
    for _ in range(max(1, cases // 5)):
        m = morphisms.random_flesh_morphism(rng, k_theta=2, L_eta=2, chart=True,
                                            commuting=True, n_xi=4)
        y1, y2 = m.table.sym("y1"), m.table.sym("y2")
        f = (y1 ** rng.randint(1, 3) + y2 ** rng.randint(1, 2) * y1.scale(rng.randint(-2, 2))
             + rng.randint(-2, 2))
        if not morphisms.nonlinear_expansion_check(m, f):
            return False, format_poly(f)
    return True, ""


# ---------------------------------------------------------------------------
# minkowski suite
# ---------------------------------------------------------------------------

def check_norm_identity(rng, cases):
    for alg in _algebras():
        for _ in range(max(1, cases // 4)):
            z = alg.element([fraction(rng) for _ in range(alg.dim)])
            if not minkowski.minkowski_norm_identity(fraction(rng), fraction(rng), z):
                return False, alg.which
    return True, ""


def check_qq_relations(rng, cases):
    for k in _k_list():
        ctx = minkowski.MinkContext(k)
        for _ in range(max(1, cases // 20)):
            lam = ctx.alg.element([fraction(rng) for _ in range(k)])
            mu = ctx.alg.element([fraction(rng) for _ in range(k)])
            a, b = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
            if not minkowski.qq_check(ctx, a, b, lam, mu):
                return False, f"k={k}"
            if minkowski.anticomm(minkowski.q_matrix(ctx, a, lam),
                                  minkowski.q_matrix(ctx, b, mu)) != \
                    minkowski.qqbis_rhs(ctx, a, b, lam, mu):
                return False, f"k={k} bis"
    return True, ""


def check_qqter(rng, cases):
    for k in _k_list():
        if not minkowski.qqter_check_all(k):
            return False, f"k={k}"
    return True, ""


def check_null_vectors(rng, cases):
    for alg in _algebras():
        for _ in range(max(1, cases // 8)):
            lam1 = alg.element([fraction(rng) for _ in range(alg.dim)])
            lam2 = alg.element([fraction(rng) for _ in range(alg.dim)])
            if not minkowski.null_vector_check(alg, lam1, lam2):
                return False, alg.which
    return True, ""


def check_basis_table(rng, cases):
    for alg in _algebras():
        if not minkowski.basis_table_check(alg):
            return False, alg.which
        if not minkowski.boost_bracket_check(alg):
            return False, f"{alg.which} brackets"
    return True, ""


def check_closures(rng, cases):
    want = {1: 3, 2: 6, 4: 15, 8: 45}
    for k in _k_list():
        dim = want[k]
        if minkowski.lie_closure_dim(k) != dim:
            return False, f"k={k}"
    return True, ""


def check_group_law(rng, cases):
    ctx = minkowski.MinkContext(4, n_eta=4)
    etas = [ctx.eta(i) for i in (1, 2, 3, 4)]

    def rand_odd():
        p = ctx.table.zero()
        for e in etas:
            if rng.random() < 0.5:
                p = p + e.scale(Fraction(rng.randint(-2, 2)))
        return p

    def rand_even():
        return ctx.table.scalar(rng.randint(-3, 3)) + (etas[0] * etas[1]).scale(rng.randint(-2, 2))

    for _ in range(max(1, cases // 25)):
        e1 = minkowski.SuperTranslationElement(
            ctx, v={(1, 1): rand_even()}, w={2: rand_even()},
            theta={(a, al): rand_odd() for a in (1, 2) for al in (1, 2, 3, 4)})
        e2 = minkowski.SuperTranslationElement(
            ctx, v={(2, 2): rand_even()},
            theta={(a, al): rand_odd() for a in (1, 2) for al in (1, 2, 3, 4)})
        if not minkowski.group_law_check(e1, e2):
            return False, "group law"
    return True, ""


def check_invariant_fields(rng, cases):
    for k in _k_list():
        if not minkowski.InvariantFields(k).relations_ok():
            return False, f"k={k}"
    return True, ""


def check_r32(rng, cases):
    return (minkowski.r32_relations_ok() and minkowski.r32_dictionary_ok()), ""


def check_chiral(rng, cases):
    ok = (minkowski.chiral_matrix_relations_ok()
          and minkowski.chiral_field_relations_ok()
          and minkowski.chiral_dictionary_ok())
    return ok, ""


def check_r_symmetry(rng, cases):
    for _ in range(max(1, cases // 10)):
        lam1 = divalg.C.element([fraction(rng), fraction(rng)])
        lam2 = divalg.C.element([fraction(rng), fraction(rng)])
        m = rng.randint(1, 5)
        alpha = divalg.C.element([Fraction(m * m - 1, m * m + 1), Fraction(2 * m, m * m + 1)])
        if not minkowski.r_symmetry_check("C", lam1, lam2, alpha):
            return False, "C"
        q1 = divalg.H.element([fraction(rng) for _ in range(4)])
        q2 = divalg.H.element([fraction(rng) for _ in range(4)])
        u = divalg.H.element([0, rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)])
        n = 1 + u.norm_sq()
        alpha = ((divalg.H.one() + u) * (divalg.H.one() + u)).scale(Fraction(1, 1) / n)
        if not minkowski.r_symmetry_check("H", q1, q2, alpha):
            return False, "H"
    return True, ""


# ---------------------------------------------------------------------------
# reductions suite
# ---------------------------------------------------------------------------

def check_reduction_k4(rng, cases):
    try:
        minkowski.reduction_charges(4)
    except minkowski.ReductionError as e:
        return False, str(e)
    return True, ""


def check_reduction_k8(rng, cases):
    try:
        rep = minkowski.reduction_charges(8)
    except minkowski.ReductionError as e:
        return False, str(e)
    return rep["star_ok"], ""


def check_bridge(rng, cases):
    for _ in range(max(1, cases // 10)):
        U = tuple(QI(fraction(rng), fraction(rng)) for _ in range(4))
        V = tuple(QI(fraction(rng), fraction(rng)) for _ in range(4))
        if not minkowski.sl4c_bridge_check(U, V):
            return False, "bridge"
        z = divalg.H.element([fraction(rng) for _ in range(4)])
        if not minkowski.signature_identity_ok(fraction(rng), fraction(rng), z):
            return False, "signature"
    return minkowski.k4_bridge_dictionary_ok(), ""


# ---------------------------------------------------------------------------
# models suite
# ---------------------------------------------------------------------------

def check_superparticle(rng, cases):
    sp = models.Superparticle(n=2)
    if not sp.density_components_ok():
        return False, "density"
    if not sp.plain_variation_ok():
        return False, "plain variation"
    if not sp.susy_algebra_ok():
        return False, "susy algebra"
    spm = models.Superparticle(n=1, modulated=True)
    rep = spm.modulated_variation_report()
    if not (rep["chi_ok"] and rep["chidot_ok"] and rep["total_ok"]):
        return False, "modulated variation"
    return spm.noether_charge_conserved_on_shell(), ""


def check_sigma_model(rng, cases):
    sig = models.Sigma32(h_degree=4)
    for name, ok in (
        ("D expansions", sig.dphi_expansions_ok()),
        ("kinetic", sig.kinetic_component_ok()),
        ("superpotential", sig.superpotential_pullback_ok()),
        ("action", sig.component_action_ok()),
        ("square", sig.completed_square_ok()),
        ("euler", sig.euler_system_ok()),
    ):
        if not ok:
            return False, name
    return True, ""


def check_bps(rng, cases):
    bps = models.BpsSystem(h_degree=4)
    for name, ok in (
        ("second order", bps.second_order_consequences_ok()),
        ("wave equation", bps.wave_equation_ok()),
        ("quarter turn", bps.quarter_turn_case_ok()),
    ):
        if not ok:
            return False, name
    return models.bogomolnyi_identity_ok(4), ""


# ---------------------------------------------------------------------------
# expr_io suite
# ---------------------------------------------------------------------------

def check_ast_round_trip(rng, cases):
    for _ in range(max(cases, 1000)):
        ast = rand_ast(rng)
        if parse(print_ast(ast)) != ast:
            return False, print_ast(ast)
    return True, ""


def check_value_round_trip(rng, cases):
    t = grassmann_table(3, evens=("x", "y"))
    ctx = Context(t)
    for _ in range(cases):
        p = random_poly(t, rng)
        if ctx.evaluate(parse(format_poly(p))) != p:
            return False, format_poly(p)
    return True, ""


def check_json_round_trip(rng, cases):
    t = grassmann_table(2, evens=("x",))
    for _ in range(cases):
        p = random_poly(t, rng)
        blob = poly_to_json(p)
        q = poly_from_json(blob, t)
        if q != p or poly_to_json(q) != blob:
            return False, blob
    return True, ""


# ---------------------------------------------------------------------------
# registry and the runner
# ---------------------------------------------------------------------------

SUITES = {
    "kernel": [
        ("kernel.assoc", "(ab)c = a(bc)", check_associativity),
        ("kernel.supercomm", "ab = (-1)^(|a||b|) ba on odd generators", check_graded_commutativity),
        ("kernel.nilpotent", "th^2 = 0; top monomial nonzero", check_nilpotency_and_top),
        ("kernel.leibniz", "X(fg) = X(f)g + (-1)^(|X||f|) f X(g)", check_leibniz),
        ("kernel.bracket", "super skew-symmetry and graded Jacobi", check_bracket_laws),
        ("kernel.tensoring", "[e1 X, e2 Y] = -e1 e2 [X,Y]", check_tensoring),
        ("kernel.cartan", "[d,iota] = Lie; d, iota square to zero", check_cartan),
    ],
    "divalg": [
        ("divalg.clifford_c", "one-generator Clifford envelope is the complex plane", check_clifford_complex_plane),
        ("divalg.oct_pairs", "u1u2 = u3u4 = u6u7 = u8u5 = u2", check_octonion_pairings),
        ("divalg.norm", "|ab|^2 = |a|^2 |b|^2", check_norm_multiplicative),
        ("divalg.gamma", "(u_a conj u_b - u_b conj u_a)/2 = G u_g", check_gamma_relation),
        ("divalg.alt", "(aa)b = a(ab) in the octonions", check_alternativity),
    ],
    "superspace": [
        ("superspace.supertime", "[D,D] = -2 dt, [tau,tau] = 2 dt, [D,tau] = 0", check_supertime),
        ("superspace.berezin", "odd translation invariance; exact integrands vanish", check_berezin_translation),
        ("superspace.hinf", "Taylor extension is a ring morphism", check_hinf_morphism),
        ("superspace.body", "body is multiplicative; soul nilpotent", check_body_soul),
        ("superspace.lift", "lift/lower round trip and field correspondences", check_theta_lift),
    ],
    "morphisms": [
        ("morphisms.pullback", "exponential pullback is an even ring morphism", check_pullback_morphism),
        ("morphisms.collapse", "even-to-odd maps collapse", check_collapse),
        ("morphisms.point", "odd-line maps are point plus tangent", check_point_tangent),
        ("morphisms.plane", "odd-plane obstruction iff dependent vectors", check_odd_plane),
        ("morphisms.factor", "ordered exponential factorization", check_factorization),
        ("morphisms.components", "component dictionary and nonlinear expansion", check_components_nonlinear),
    ],
    "minkowski": [
        ("minkowski.norm", "t^2 - x^2 - |z|^2 = 4 det h", check_norm_identity),
        ("minkowski.qq", "[Q_a, Q_b] = -lam mubar X_ab - mu lambar X_ba", check_qq_relations),
        ("minkowski.qqter", "structure constants over the unit basis", check_qqter),
        ("minkowski.null", "X of a spinor pair is null with t >= 0", check_null_vectors),
        ("minkowski.table", "sigma table rows; A_ij = -[B_i,B_j]", check_basis_table),
        ("minkowski.closure", "bracket closure dims 3, 6, 15, 45", check_closures),
        ("minkowski.explaw", "exp(V+T) exp(W+P) = exp(sum + [T,P]/2)", check_group_law),
        ("minkowski.fields", "[tau,D] = 0 and displayed pair relations", check_invariant_fields),
        ("minkowski.r32", "three-dimensional specialization and dictionary", check_r32),
        ("minkowski.chiral", "four-dimensional chiral relations and dictionary", check_chiral),
        ("minkowski.rsym", "null vectors invariant under R-symmetries", check_r_symmetry),
    ],
    "reductions": [
        ("reductions.k4", "six-to-four central charges", check_reduction_k4),
        ("reductions.k8", "ten-to-four central charges and the star pairing", check_reduction_k8),
        ("reductions.bridge", "antisymmetric-square bridge and signature", check_bridge),
    ],
    "models": [
        ("models.superparticle", "density components, variations, charge algebra", check_superparticle),
        ("models.sigma", "component action, completed square, field equations", check_sigma_model),
        ("models.bps", "first-order invariance implies the field equations", check_bps),
    ],
    "expr_io": [
        ("expr_io.ast", "parse(print(e)) = e", check_ast_round_trip),
        ("expr_io.value", "canonical printing evaluates back", check_value_round_trip),
        ("expr_io.json", "bit-exact JSON round trip", check_json_round_trip),
    ],
}


def run_suite(name, seed=0, cases=100) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    t0 = time.monotonic()
    results = []
    for check_id, law, fn in SUITES[name]:
        rng = _rng_for(seed, check_id)
        try:
            ok, ce = fn(rng, cases)
        except Exception as exc:  # a crash is a failure with the message as witness
            ok, ce = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check_id, law, ok, ce))
    return SuiteReport(name, results, wall_ms=(time.monotonic() - t0) * 1000.0)


def run_many(names, seed=0, cases=100):
    return sorted((run_suite(n, seed, cases) for n in names), key=lambda r: r.suite)


def reports_to_json(reports) -> str:
    return json.dumps({"suites": [r.jsonable() for r in reports]},
                      sort_keys=True, separators=(",", ":"))
