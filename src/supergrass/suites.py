"""Named verification suites behind the `verify` subcommand.

Each check is a generator `check(rng, cases, ks)` that yields one verdict
per case, a case being one law on one input.  A verdict of `True` means the
law holds, `None` means the case was skipped, and anything else is the
counterexample text (`False` is a failure with no text).  `ks` lists the
division algebras, by dimension, that the k-parameterized checks cover.

`whole_check` drives a generator through all its cases.  It counts the
cases run and skipped and stops at the first failure, so no later case is
drawn; a check that ran no case fails.  `SUITES` holds these driven
callables, not the generators, so that one call is one whole check: the
benchmark times each check by wrapping and timing that call.

Checks are seeded individually from (seed, check id), so reports are
deterministic regardless of execution order; the JSON form of a report
contains no timing and no case counts, and is byte-identical for a fixed
seed.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import divalg, minkowski, models, morphisms, superspace
from .expr_io import (Add, Ber, Context, Lit, Mul, Neg, Pow, Sym, format_poly, parse,
                      poly_from_json, poly_to_json, print_ast)
from .kernel import (EVEN, ODD, Derivation, SymbolTable,
                     cartan_triple, jacobi_check, skew_check, super_bracket)
from .scalars import QI, ratio

ALL_K = (1, 2, 4, 8)


@dataclass
class CheckResult:
    check_id: str
    law: str
    passed: bool
    counterexample: str = ""
    run: int = 0
    skipped: int = 0

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


def whole_check(check):
    """The callable `(rng, cases, ks) -> (passed, counterexample, run,
    skipped)` that runs the generator `check` through all its cases.  A
    crash is a failure with the exception as counterexample."""
    def run_check(rng, cases, ks):
        run = skipped = 0
        try:
            for verdict in check(rng, cases, ks):
                if verdict is None:
                    skipped += 1
                    continue
                run += 1
                if verdict is not True:
                    return False, "" if verdict is False else str(verdict), run, skipped
        except Exception as exc:
            return False, f"{type(exc).__name__}: {exc}", run, skipped
        return (True, "", run, skipped) if run else (False, "no case ran", run, skipped)
    return run_check


def _algebras(ks):
    return [alg for alg in divalg.ALGEBRAS.values() if alg.dim in ks]


# ---------------------------------------------------------------------------
# random generators shared by several checks
# ---------------------------------------------------------------------------

def fraction(rng, span=4, den=3):
    return ratio(rng.randint(-span, span), rng.randint(1, den))


def gaussian(rng, span=4, den=3):
    return QI(fraction(rng, span, den), fraction(rng, span, den))


def grassmann_table(k=4, evens=("x",), odd="th"):
    t = SymbolTable()
    for n in evens:
        t.even_symbol(n)
    for i in range(k):
        t.odd_symbol(f"{odd}{i+1}")
    return t


def random_poly(t, rng, nterms=4, deg=2, coeff=fraction):
    odd = [s.name for s in t.symbols if s.parity == ODD]
    even = [s.name for s in t.symbols if s.parity == EVEN]
    p = t.zero()
    for _ in range(nterms):
        ev = [(n, rng.randint(0, deg)) for n in even if rng.random() < 0.6]
        od = [n for n in odd if rng.random() < 0.5]
        p = p + t.monomial(coeff(rng), ev, od)
    return p


def random_homogeneous(t, rng, parity, coeff=fraction):
    return random_poly(t, rng, coeff=coeff).parity_part(parity)


def rand_ast(rng, depth=0):
    """Random canonical AST: nested sums/products are parenthesized by the
    printer, so any shape round-trips."""
    choices = ["lit", "sym", "add", "mul", "pow", "neg"]
    if depth < 1:
        choices.append("ber")
    kind = rng.choice(choices if depth < 3 else ["lit", "sym"])
    if kind == "lit":
        return Lit(ratio(rng.randint(0, 9), rng.randint(1, 9)))
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
    return Ber(rand_ast(rng, depth + 1))


# ---------------------------------------------------------------------------
# kernel suite
# ---------------------------------------------------------------------------

def check_associativity(rng, cases, ks):
    t = grassmann_table()
    for _ in range(cases):
        ring = rng.choice((fraction, gaussian))
        a, b, c = (random_poly(t, rng, coeff=ring) for _ in range(3))
        yield (a * b) * c == a * (b * c) or format_poly(a)


def check_graded_commutativity(rng, cases, ks):
    t = grassmann_table(4, evens=())
    for _ in range(cases):
        ring = rng.choice((fraction, gaussian))
        a = random_homogeneous(t, rng, rng.randint(0, 1), ring)
        b = random_homogeneous(t, rng, rng.randint(0, 1), ring)
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            yield None
        else:
            sign = -1 if (pa and pb) else 1
            yield a * b == (b * a).scale(sign) or format_poly(a)


def check_nilpotency_and_top(rng, cases, ks):
    t = grassmann_table(4, evens=())
    top = t.one()
    for i in (1, 2, 3, 4):
        s = t.sym(f"th{i}")
        yield (s * s).is_zero() or f"th{i}^2"
        top = top * s
    yield not top.is_zero()


def derivations(t):
    """The built-in derivations of the kernel checks, over a table with x
    and th1..th3 at least."""
    x = t.sym("x")
    return [
        Derivation(t, ODD, {"th1": t.one()}, "d/dth1"),
        Derivation(t, EVEN, {"x": t.one()}, "d/dx"),
        Derivation(t, ODD, {"th2": x, "x": t.sym("th3")}, "X"),
        Derivation(t, EVEN, {"x": x + 1, "th3": t.sym("th3").scale(2)}, "Y"),
        Derivation(t, ODD, {"th3": x ** 2, "x": t.sym("th2").scale(ratio(1, 2))}, "Z"),
        Derivation(t, ODD, {"th1": x, "th2": t.one(), "x": t.sym("th3")}, "W"),
    ]


def check_leibniz(rng, cases, ks):
    t = grassmann_table(4)
    gens = derivations(t)
    for _ in range(cases):
        D = rng.choice(gens)
        f = random_homogeneous(t, rng, rng.randint(0, 1))
        g = random_poly(t, rng)
        pf = f.parity()
        if pf is None:
            yield None
        else:
            sign = -1 if (D.parity and pf) else 1
            yield D(f * g) == D(f) * g + (f * D(g)).scale(sign) or format_poly(f)


def check_bracket_laws(rng, cases, ks):
    gens = derivations(grassmann_table(4))
    # skew-symmetry of (Y, X) is that of (X, Y) times a sign, and a rotation
    # of (X, Y, Z) only permutes the terms of the graded Jacobi sum
    for X, Y in itertools.combinations_with_replacement(gens, 2):
        yield skew_check(X, Y) or f"({X.label},{Y.label})"
    for i, j, k in itertools.product(range(len(gens)), repeat=3):
        if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j):
            X, Y, Z = gens[i], gens[j], gens[k]
            yield jacobi_check(X, Y, Z) or f"({X.label},{Y.label},{Z.label})"


def check_tensoring(rng, cases, ks):
    t = superspace.SuperDomain(even=("t",), theta=("th",), eta=("et1", "et2")).table
    th = t.sym("th")
    D = Derivation(t, ODD, {"th": t.one(), "t": -th}, "D")
    tau = Derivation(t, ODD, {"th": t.one(), "t": th}, "tau")
    e1, e2 = t.sym("et1"), t.sym("et2")
    for X, Y in ((D, D), (D, tau), (tau, tau)):
        lhs = super_bracket(X.scale(e1), Y.scale(e2))
        yield lhs == super_bracket(X, Y).scale(-(e1 * e2)) or X.label


def check_cartan(rng, cases, ks):
    table, d, iota, lie = cartan_triple(2, [lambda t: t.sym("x1") ** 2, lambda t: t.one()])
    yield super_bracket(d, d).is_zero() or "[d,d] = 0"
    yield super_bracket(iota, iota).is_zero() or "[iota,iota] = 0"
    yield super_bracket(d, iota) == lie or "[d,iota] = Lie"
    yield super_bracket(lie, d).is_zero() or "[Lie,d] = 0"
    yield super_bracket(lie, iota).is_zero() or "[Lie,iota] = 0"


# ---------------------------------------------------------------------------
# divalg suite
# ---------------------------------------------------------------------------

def check_clifford_complex_plane(rng, cases, ks):
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    bk = [t.one(), t.sym("eps")]
    bc = [divalg.C.one(), divalg.C.unit(2)]
    for i in range(2):
        for j in range(2):
            pk = bk[i] * bk[j]
            ck = [pk.scalar_part(), pk.coefficient_of_odd(("eps",)).scalar_part()]
            yield ck == (bc[i] * bc[j]).coeffs or f"e{i}*e{j}"


def check_octonion_pairings(rng, cases, ks):
    O = divalg.O
    for a, b in ((1, 2), (3, 4), (6, 7), (8, 5)):
        yield O.unit(a) * O.unit(b) == O.unit(2) or f"u{a}*u{b}"


def check_norm_multiplicative(rng, cases, ks):
    for alg in (divalg.R, divalg.C, divalg.H, divalg.O):
        for _ in range(cases):
            a = alg.element([fraction(rng) for _ in range(alg.dim)])
            b = alg.element([fraction(rng) for _ in range(alg.dim)])
            yield (a * b).norm_sq() == a.norm_sq() * b.norm_sq() or alg.which


def check_gamma_relation(rng, cases, ks):
    for alg in (divalg.R, divalg.C, divalg.H, divalg.O):
        G = divalg.gamma_constants(alg)
        for a in range(1, alg.dim + 1):
            for b in range(1, alg.dim + 1):
                lhs = (alg.unit(a) * alg.unit(b).conj()
                       - alg.unit(b) * alg.unit(a).conj()).scale(ratio(1, 2))
                rhs = alg.zero_like()
                for g in range(2, alg.dim + 1):
                    rhs = rhs + alg.unit(g, G.get((a, b, g), 0))
                yield lhs == rhs or f"{alg.which}:({a},{b})"


def check_alternativity(rng, cases, ks):
    O = divalg.O
    for _ in range(cases):
        a = O.element([fraction(rng) for _ in range(8)])
        b = O.element([fraction(rng) for _ in range(8)])
        yield (a * a) * b == a * (a * b) and (b * a) * a == b * (a * a) or "octonion alternativity"


# ---------------------------------------------------------------------------
# superspace suite
# ---------------------------------------------------------------------------

def check_supertime(rng, cases, ks):
    dom, ops = superspace.supertime()
    yield superspace.supertime_relations_ok(dom, ops)


def check_berezin_translation(rng, cases, ks):
    d = superspace.SuperDomain(even=("x",), theta=("th1", "th2"), eta=("et1", "et2"))
    t = d.table
    for _ in range(cases):
        f = random_poly(t, rng)
        shifts = {
            "th1": d.sym("et1").scale(rng.randint(-2, 2)),
            "th2": d.sym("et2").scale(rng.randint(-2, 2)) + d.sym("et1").scale(rng.randint(-1, 1)),
        }
        yield superspace.berezin_translation_check(d, f, shifts) or format_poly(f)


def check_hinf_substitution(rng, cases, ks):
    t, tf = grassmann_table(0, evens=("x", "y")), grassmann_table(4, evens=(), odd="et")
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
        h = f * g
        yield (superspace.hinf_extend(h, zs)
               == h.substitute({"x": zs[0].value, "y": zs[1].value}) or format_poly(f))


def check_body_soul(rng, cases, ks):
    tf = grassmann_table(4, evens=(), odd="et")
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
        yield superspace.body(z * w) == superspace.body(z) * superspace.body(w) or format_poly(z)
        yield len(superspace.EvenGrassmannPoint(z).soul_powers()) <= 3 or "soul nilpotency order"


def check_theta_lift(rng, cases, ks):
    for case in (1, 2, 3):
        for q in range(2 if case < 3 else 3, 7):  # case 3 moves a third eta
            law = superspace.theta_lift_vectorfield_law(case, q)
            for _ in range(2):
                yield law(rng) or f"case {case}, q={q}"
    d = superspace.SuperDomain(even=("x",), theta=(), eta=tuple(f"et{i+1}" for i in range(6)))
    space = superspace.LiftSpace(d)
    for _ in range(cases // 4 or 1):
        f = random_homogeneous(d.table, rng, 0)
        yield space.lower(space.lift(f)) == f or format_poly(f)


# ---------------------------------------------------------------------------
# morphisms suite
# ---------------------------------------------------------------------------

def check_pullback_substitution(rng, cases, ks):
    # designed: q = 6, xi_(12) = xi_(34) = xi_(56) = d/dy, Xi^3 y^3 != 0 needs 1/3!
    m = morphisms.FleshMorphism(("x",), tuple(f"et{i+1}" for i in range(6)), ("y",),
                                {"y": grassmann_table(0).sym("x")},
                                {I: {"y": 1} for I in ((1, 2), (3, 4), (5, 6))}, n_theta=0)
    yield morphisms.pullback_law(m, m.table.sym("y") ** 3) or "q = 6, y^3"
    for _ in range(cases):
        m = morphisms.random_flesh_morphism(
            rng, k_theta=rng.choice((0, 1, 2)), L_eta=rng.choice((2, 3, 4)),
            deg=rng.choice((2, 3)),
        )
        ys = [m.table.sym(n) for n in m.target_even]
        f = ys[0] ** rng.randint(1, 3) + ys[-1].scale(rng.randint(-2, 2))
        g = ys[-1] ** rng.randint(1, 2) + rng.randint(-2, 2)
        yield morphisms.pullback_law(m, f * g) or format_poly(f)


def check_collapse(rng, cases, ks):
    src, tgt = morphisms.collapse_tables(2, 3)
    yield morphisms.odd_monomials_square_to_zero(tgt) or "an odd monomial squares to nonzero"
    for _ in range(min(cases, 30)):
        yield morphisms.collapse_case(src, tgt, rng) or "collapse map"


def check_point_tangent(rng, cases, ks):
    # first order: pull(h) = h(m) + dh_m(xi) th1 against h(m + xi e), e = et1 et2
    t = grassmann_table(0, evens=("y", "z"))
    te = grassmann_table(2, evens=(), odd="et")
    e = te.sym("et1") * te.sym("et2")
    for _ in range(cases):
        pt = {"y": fraction(rng), "z": fraction(rng)}
        xi = {"y": fraction(rng), "z": fraction(rng)}
        _, pull = morphisms.skeletal_pullback(pt, (xi,))
        f = t.sym("y") ** rng.randint(1, 3) + t.sym("z").scale(rng.randint(-2, 2))
        g = t.sym("z") ** rng.randint(1, 2) + rng.randint(-2, 2)
        h = f * g
        p = pull(h)
        H = h.substitute({n: te.scalar(pt[n]) + e.scale(xi[n]) for n in pt})
        yield (p.constant_term() == H.constant_term()
               and p.coefficient_of_odd(["th1"]).constant_term()
               == H.coefficient_of_odd(["et1", "et2"]).constant_term() or format_poly(f))


def check_odd_plane(rng, cases, ks):
    names = ("y1", "y2")
    t = grassmann_table(0, evens=names)
    for _ in range(cases):
        xi1 = {n: Fraction(rng.randint(-2, 2)) for n in names}
        xi2 = {n: Fraction(rng.randint(-2, 2)) for n in names}
        pt = {n: Fraction(rng.randint(-2, 2)) for n in names}
        yield (morphisms.odd_plane_obstruction(t, pt, xi1, xi2)
               == morphisms.vectors_dependent(xi1, xi2, names) or str(xi1))


def check_factorization(rng, cases, ks):
    for _ in range(max(1, cases // 5)):
        m = morphisms.random_flesh_morphism(rng, k_theta=2, L_eta=2, commuting=True, n_xi=4)
        y = m.table.sym("y1")
        f = y ** 3 + y * m.table.sym("y2")
        yield morphisms.pullback_factorized(m, f) == m.pullback_even(f) or "factorized pullback"


def check_components_nonlinear(rng, cases, ks):
    for _ in range(max(1, cases // 5)):
        m = morphisms.random_flesh_morphism(rng, k_theta=2, L_eta=2, commuting=True, n_xi=5)
        y1, y2 = m.table.sym("y1"), m.table.sym("y2")
        f = (y1 ** rng.randint(1, 3) + y2 ** rng.randint(1, 2) * y1.scale(rng.randint(-2, 2))
             + rng.randint(-2, 2))
        yield morphisms.nonlinear_expansion_check(m, f) or format_poly(f)


# ---------------------------------------------------------------------------
# minkowski suite
# ---------------------------------------------------------------------------

def check_norm_identity(rng, cases, ks):
    for alg in _algebras(ks):
        for _ in range(max(1, cases // 4)):
            z = alg.element([fraction(rng) for _ in range(alg.dim)])
            yield minkowski.minkowski_norm_identity(fraction(rng), fraction(rng), z) or alg.which
    # the block conjugation by g(S), S = [[1, b], [0, 1]], needs K = R or C
    for alg in _algebras(ks):
        if alg.dim > 2:
            continue
        for _ in range(max(1, cases // 10)):
            b = alg.element([fraction(rng) for _ in range(alg.dim)])
            S = minkowski.kmat2(alg, alg.one(), b, alg.zero_like(), alg.one())
            z = alg.element([fraction(rng) for _ in range(alg.dim)])
            yield (minkowski.lorentz_conjugation_preserves_norm(alg, S, fraction(rng), fraction(rng), z)
                   or f"{alg.which} conjugation")


def check_qq_relations(rng, cases, ks):
    for k in ks:
        ctx = minkowski.MinkContext(k)
        # draw n takes the n-th (a, b) in turn, so each k meets all four
        for n in range(max(1, cases // 20)):
            lam = ctx.alg.element([fraction(rng) for _ in range(k)])
            mu = ctx.alg.element([fraction(rng) for _ in range(k)])
            a, b = ((1, 1), (1, 2), (2, 1), (2, 2))[n % 4]
            yield minkowski.qq_check(ctx, a, b, lam, mu) or f"k={k}"
            yield (minkowski.anticomm(minkowski.q_matrix(ctx, a, lam), minkowski.q_matrix(ctx, b, mu))
                   == minkowski.qqbis_rhs(ctx, a, b, lam, mu) or f"k={k} bis")


def check_qqter(rng, cases, ks):
    for k in ks:
        yield minkowski.qqter_check_all(k) or f"k={k}"
    for k in ks:
        ctx = minkowski.MinkContext(k)
        yield minkowski.nilpotency_checks(ctx) or f"k={k} nilpotency"
        yield minkowski.centrality_check(ctx) or f"k={k} centrality"


def check_null_vectors(rng, cases, ks):
    for alg in _algebras(ks):
        for _ in range(max(1, cases // 8)):
            lam1 = alg.element([fraction(rng) for _ in range(alg.dim)])
            lam2 = alg.element([fraction(rng) for _ in range(alg.dim)])
            yield minkowski.null_vector_check(alg, lam1, lam2) or alg.which


def check_basis_table(rng, cases, ks):
    for alg in _algebras(ks):
        yield minkowski.basis_table_check(alg) or alg.which
        yield minkowski.boost_bracket_check(alg) or f"{alg.which} brackets"
        if alg.dim > 2:  # for R and C no rotation is left out
            yield minkowski.residual_rotations_fix_real_part(alg) or f"{alg.which} residual rotations"


def check_closures(rng, cases, ks):
    want = {1: 3, 2: 6, 4: 15, 8: 45}
    for k in ks:
        dim, basis = minkowski.lie_closure(k)
        yield dim == want[k] or f"k={k}"
        yield minkowski.closure_spans_lorentz(minkowski.ALG_BY_K[k], basis) or f"k={k} span"


def check_group_law(rng, cases, ks):
    ctx = minkowski.MinkContext(4, n_eta=4)
    etas = [ctx.eta(i) for i in (1, 2, 3, 4)]

    def rand_odd():
        p = ctx.table.zero()
        for e in etas:
            if rng.random() < 0.5:
                p = p + e.scale(rng.randint(-2, 2))
        return p

    def rand_even():
        return ctx.table.scalar(rng.randint(-3, 3)) + (etas[0] * etas[1]).scale(rng.randint(-2, 2))

    for _ in range(max(1, cases // 25)):
        e1 = minkowski.SuperTranslationElement(
            ctx, v={(1, 1): rand_even(), (1, 2): rand_even()}, w={2: rand_even(), 3: rand_even()},
            theta={(a, al): rand_odd() for a in (1, 2) for al in (1, 2, 3, 4)})
        e2 = minkowski.SuperTranslationElement(
            ctx, v={(2, 2): rand_even()}, w={4: rand_even()},
            theta={(a, al): rand_odd() for a in (1, 2) for al in (1, 2, 3, 4)})
        yield minkowski.group_law_check(e1, e2) or "group law"


def check_invariant_fields(rng, cases, ks):
    for k in ks:
        yield minkowski.InvariantFields(k).relations_ok() or f"k={k}"


def check_r32(rng, cases, ks):
    yield minkowski.r32_relations_ok() or "field relations"
    yield minkowski.r32_dictionary_ok() or "dictionary"


def check_chiral(rng, cases, ks):
    yield minkowski.chiral_matrix_relations_ok() or "matrix relations"
    yield minkowski.chiral_field_relations_ok() or "field relations"
    yield minkowski.chiral_dictionary_ok() or "dictionary"


def check_r_symmetry(rng, cases, ks):
    for _ in range(max(1, cases // 10)):
        lam1 = divalg.C.element([fraction(rng), fraction(rng)])
        lam2 = divalg.C.element([fraction(rng), fraction(rng)])
        m = rng.randint(1, 5)
        alpha = divalg.C.element([ratio(m * m - 1, m * m + 1), ratio(2 * m, m * m + 1)])
        yield minkowski.r_symmetry_check("C", lam1, lam2, alpha) or "C"
        q1 = divalg.H.element([fraction(rng) for _ in range(4)])
        q2 = divalg.H.element([fraction(rng) for _ in range(4)])
        u = divalg.H.element([0, rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)])
        n = 1 + u.norm_sq()
        alpha = ((divalg.H.one() + u) * (divalg.H.one() + u)).scale(ratio(1, n))
        yield minkowski.r_symmetry_check("H", q1, q2, alpha) or "H"


# ---------------------------------------------------------------------------
# reductions suite
# ---------------------------------------------------------------------------

def reduction_check(k):
    """The check of the k = 4 or 8 reduction relations, the star pairing
    included: `reduction_charges` raises on the first that fails."""
    def check(rng, cases, ks):
        try:
            minkowski.reduction_charges(k)
        except minkowski.ReductionError as e:
            yield str(e)
        else:
            yield True
    return check


def check_bridge(rng, cases, ks):
    for _ in range(max(1, cases // 10)):
        U = tuple(QI(fraction(rng), fraction(rng)) for _ in range(4))
        V = tuple(QI(fraction(rng), fraction(rng)) for _ in range(4))
        yield minkowski.sl4c_bridge_check(U, V) or "bridge"
        yield minkowski.wedge_formula_table_ok(U) or "wedge formulas"
        z = divalg.H.element([fraction(rng) for _ in range(4)])
        yield minkowski.signature_identity_ok(fraction(rng), fraction(rng), z) or "signature"
    yield minkowski.k4_bridge_dictionary_ok()


# ---------------------------------------------------------------------------
# models suite
# ---------------------------------------------------------------------------

def check_superparticle(rng, cases, ks):
    sp = models.Superparticle(n=2)
    yield sp.density_components_ok() or "density"
    yield sp.plain_variation_ok() or "plain variation"
    yield sp.susy_algebra_ok() or "susy algebra"
    spm = models.Superparticle(n=1, modulated=True)
    yield spm.modulated_variation_ok() or "modulated variation"
    yield spm.noether_charge_conserved_on_shell()


def check_sigma_model(rng, cases, ks):
    sig = models.Sigma32(h_degree=4)
    for name, ok in (
        ("D expansions", sig.dphi_expansions_ok()),
        ("kinetic", sig.kinetic_component_ok()),
        ("superpotential", sig.superpotential_pullback_ok()),
        ("action", sig.component_action_ok()),
        ("square", sig.completed_square_ok()),
        ("euler", sig.euler_system_ok()),
    ):
        yield ok or name


def check_bps(rng, cases, ks):
    bps = models.BpsSystem(h_degree=4)
    for name, ok in (
        ("second order", bps.second_order_consequences_ok()),
        ("wave equation", bps.wave_equation_ok()),
        ("quarter turn", bps.quarter_turn_case_ok()),
    ):
        yield ok or name
    yield models.bogomolnyi_identity_ok(4)


# ---------------------------------------------------------------------------
# expr_io suite
# ---------------------------------------------------------------------------

def check_ast_round_trip(rng, cases, ks):
    for _ in range(max(cases, 1000)):
        ast = rand_ast(rng)
        yield parse(print_ast(ast)) == ast or print_ast(ast)


def check_value_round_trip(rng, cases, ks):
    t = grassmann_table(3, evens=("x", "y"))
    ctx = Context(t)
    for _ in range(cases):
        p = random_poly(t, rng, rng.randint(1, 5), 3, lambda r: fraction(r, 9, 9))
        yield ctx.evaluate(parse(format_poly(p))) == p or format_poly(p)


def check_json_round_trip(rng, cases, ks):
    t = grassmann_table(2, evens=("x",))
    for _ in range(cases):
        ring = rng.choice((fraction, gaussian))
        p = random_poly(t, rng, rng.randint(1, 4), 3, lambda r: ring(r, 9, 9))
        blob = poly_to_json(p)
        q = poly_from_json(blob, t)
        yield q == p and poly_to_json(q) == blob or blob


# ---------------------------------------------------------------------------
# registry and the runner
# ---------------------------------------------------------------------------

_CHECKS = {
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
        ("superspace.hinf", "Taylor extension at z is substitution of z", check_hinf_substitution),
        ("superspace.body", "body is multiplicative; soul nilpotent", check_body_soul),
        ("superspace.lift", "lift/lower round trip and field correspondences", check_theta_lift),
    ],
    "morphisms": [
        ("morphisms.pullback", "pullback of f is f of the pulled-back coordinates", check_pullback_substitution),
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
        ("reductions.k4", "six-to-four central charges", reduction_check(4)),
        ("reductions.k8", "ten-to-four central charges and the star pairing", reduction_check(8)),
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
SUITES = {suite: [(check_id, law, whole_check(check)) for check_id, law, check in entries]
          for suite, entries in _CHECKS.items()}


def run_suite(name, seed=0, cases=100, ks=ALL_K) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    t0 = time.monotonic()
    results = [CheckResult(check_id, law, *fn(_rng_for(seed, check_id), cases, ks))
               for check_id, law, fn in SUITES[name]]
    return SuiteReport(name, results, wall_ms=(time.monotonic() - t0) * 1000.0)


def run_many(names, seed=0, cases=100, ks=ALL_K):
    return sorted((run_suite(n, seed, cases, ks) for n in names), key=lambda r: r.suite)


def reports_to_json(reports) -> str:
    return json.dumps({"suites": [r.jsonable() for r in reports]},
                      sort_keys=True, separators=(",", ":"))
