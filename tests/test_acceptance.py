"""Tier-1 run of the claim registry `suites.SUITES`.

Each check gets exactly the input that `supergrass verify all --seed 0
--cases 100` gives it, so a check added to the registry is tested here with
no further edit.  The negative controls after it prove the registry can
fail.
"""

import pytest

from supergrass import (divalg, expr_io, kernel, minkowski, models, morphisms, scalars,
                        superspace, suites)
from supergrass.matrix import Matrix

CHECKS = [(suite, check_id, fn)
          for suite, entries in suites.SUITES.items() for check_id, _law, fn in entries]


def run_check(check_id, fn):
    return fn(suites._rng_for(0, check_id), 100, suites.ALL_K)


@pytest.mark.parametrize("suite, check_id, fn", CHECKS, ids=[c[1] for c in CHECKS])
def test_registry_check(suite, check_id, fn):
    ok, counterexample, run, skipped = run_check(check_id, fn)
    assert ok, (f"{check_id} failed: {counterexample or 'no counterexample'}; "
                f"replay with: supergrass verify {suite} --seed 0")
    assert run > 0
    assert (run, skipped) == RUN_AND_SKIPPED[check_id]


def test_forgotten_koszul_sign_fails_supercomm(koszul_sign_dropped):
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "kernel.supercomm"]
    ok, _, _, _ = run_check("kernel.supercomm", fn)
    assert not ok


def test_wrong_gaussian_product_fails_assoc_and_supercomm(monkeypatch):
    """kernel.assoc and kernel.supercomm draw Gaussian coefficients: a QI
    product whose imaginary part is a*e - b*c instead of a*e + b*c is
    neither associative nor commutative, and both checks must see it."""
    QI = scalars.QI
    mul = QI.__mul__

    def wrong(self, other):
        if type(other) is not QI:
            return mul(self, other)
        return scalars._reduced(self._a * other._a - self._b * other._b,
                                self._a * other._b - self._b * other._a, self._d * other._d)

    monkeypatch.setattr(QI, "__mul__", wrong)
    monkeypatch.setattr(QI, "__rmul__", wrong)
    for check_id in ("kernel.assoc", "kernel.supercomm"):
        (fn,) = [fn for _suite, cid, fn in CHECKS if cid == check_id]
        ok, _, _, _ = run_check(check_id, fn)
        assert not ok, check_id


def test_flipped_field_bracket_sign_fails_qqter(monkeypatch):
    """The matrix-vs-field link of minkowski.qqter sees a sign error in the
    vector-field structure constants."""
    pair_translation = minkowski.InvariantFields.pair_translation

    def flipped(self, a, b, alpha, beta, factor):
        return pair_translation(self, a, b, alpha, beta, -factor)

    monkeypatch.setattr(minkowski.InvariantFields, "pair_translation", flipped)
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "minkowski.qqter"]
    ok, counterexample, _, _ = run_check("minkowski.qqter", fn)
    assert not ok and counterexample == "k=1"


def test_negated_im_structure_constants_fail_qqter(monkeypatch):
    """minkowski.qqter sees the one structure-constant table with every
    Im_gamma coefficient negated: the matrices no longer match it from k = 2
    on, where the first Im_gamma appears."""
    bracket_terms = minkowski.bracket_terms

    def negated(k, gammas, a, b, alpha, beta):
        return {key: c if key == "R" else -c
                for key, c in bracket_terms(k, gammas, a, b, alpha, beta).items()}

    monkeypatch.setattr(minkowski, "bracket_terms", negated)
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "minkowski.qqter"]
    ok, counterexample, _, _ = run_check("minkowski.qqter", fn)
    assert not ok and counterexample == "k=2"


def test_broken_star_pairing_fails_k8(monkeypatch):
    """reductions.k8 sees a star pairing that sends Z_12 to -Z_34."""
    monkeypatch.setitem(minkowski.STAR_PAIRS, (1, 2), (4, 3))
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "reductions.k8"]
    ok, counterexample, _, _ = run_check("reductions.k8", fn)
    assert not ok and counterexample.startswith("identity Z_*(12) fails")


def test_charge_paired_with_itself_fails_chiral(monkeypatch):
    """minkowski.chiral sees the k = 2 charges q = Q^1 - i Q^1 and
    qbar = Q^1 + i Q^1, whose [q_1, q_1] = 4i X_11 is not zero."""
    monkeypatch.setitem(minkowski.REDUCTION_PAIRS, 2, {1: (1, 1)})
    assert minkowski.reduction_charges(2) == "[Q_11, Q_11]"
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "minkowski.chiral"]
    ok, counterexample, _, _ = run_check("minkowski.chiral", fn)
    assert not ok and counterexample == "matrix relations"


def test_dropped_denominator_fails_rsym_and_k4(monkeypatch):
    """`divalg._element` forms every operator and `scale` result.  If it
    drops the denominator of a result over a ring zero (polynomial slots)
    instead of keeping it, rational K values scaled into the Clifford
    envelope lose their den; minkowski.rsym and reductions.k4 must see it,
    and so do the other checks of the odd sector and of the central
    charges."""
    element = divalg._element

    def dropped(alg, num, den, zero):
        return element(alg, num, den if type(zero) is int else 1, zero)

    monkeypatch.setattr(divalg, "_element", dropped)
    for check_id in ("minkowski.rsym", "reductions.k4", "minkowski.norm", "minkowski.qq",
                     "minkowski.qqter", "minkowski.explaw", "minkowski.chiral",
                     "reductions.k8", "reductions.bridge"):
        (fn,) = [fn for _suite, cid, fn in CHECKS if cid == check_id]
        ok, _, _, _ = run_check(check_id, fn)
        assert not ok, check_id


def test_unsigned_slot_sums_fail_the_odd_sector(monkeypatch):
    """A slot product that drops the table sign of each slot pair adds
    where the table subtracts, in every polynomial-slot division-algebra
    product; the checks that multiply the odd sector's matrices must see
    it."""
    slot_product = kernel.SymbolTable.slot_product

    def unsigned(self, rows, left, right, zero):
        return slot_product(self, [[(g, False) for g, _neg in row] for row in rows], left, right, zero)

    monkeypatch.setattr(kernel.SymbolTable, "slot_product", unsigned)
    for check_id in ("minkowski.chiral", "minkowski.null", "minkowski.qq", "minkowski.qqter",
                     "minkowski.rsym", "reductions.bridge", "reductions.k4", "reductions.k8"):
        (fn,) = [fn for _suite, cid, fn in CHECKS if cid == check_id]
        ok, _, _, _ = run_check(check_id, fn)
        assert not ok, check_id


def test_product_that_drops_a_row_fails_qq_qqter_null(monkeypatch):
    """A matrix product that loses the entries of its first nonzero row:
    the sparse == compares what is stored, so the laws must still see it
    rather than pass on empty rows."""
    matmul = Matrix.__matmul__

    def dropped(self, other):
        out = matmul(self, other)
        next((row for row in out.rows if row), {}).clear()
        return out

    monkeypatch.setattr(Matrix, "__matmul__", dropped)
    for check_id in ("minkowski.qq", "minkowski.qqter", "minkowski.null"):
        (fn,) = [fn for _suite, cid, fn in CHECKS if cid == check_id]
        ok, _, _, _ = run_check(check_id, fn)
        assert not ok, check_id


def test_lower_in_reversed_eta_order_fails_lift(monkeypatch):
    """superspace.lift sees a lower that sends s_I to the etas of I in
    reversed order: a ring map that still kills the relation ideal, but
    flips the sign of every s_I with |I| = 2 against the base domain.  The
    even coordinates of the domain are named too, as any substitution into
    another table must, so only the eta order is wrong."""

    def reversed_lower(self, frak):
        dom = self.domain
        images = {n: dom.sym(n) for n in dom.even_names}
        for I, name in self.s_name.items():
            images[name] = dom.table.monomial(1, (), [self.odd_names[i - 1] for i in I[::-1]])
        return frak.substitute(images)

    monkeypatch.setattr(superspace.LiftSpace, "lower", reversed_lower)
    (fn,) = [fn for _suite, check_id, fn in CHECKS if check_id == "superspace.lift"]
    ok, counterexample, _, _ = run_check("superspace.lift", fn)
    assert not ok and counterexample == "case 2, q=2"


@pytest.mark.parametrize("move", [lambda p: setattr(p, "body", p.body + 1),
                                  lambda p: setattr(p, "soul", -p.soul)],
                         ids=["shifted-body", "negated-soul"])
def test_moved_point_fails_hinf(monkeypatch, move):
    """superspace.hinf sees a Taylor extension taken at another point: one
    whose body is shifted by 1, or whose soul is negated.  Each is still a
    ring morphism, so only the comparison with substitution sees it."""
    init = superspace.EvenGrassmannPoint.__init__

    def moved(self, value):
        init(self, value)
        move(self)

    monkeypatch.setattr(superspace.EvenGrassmannPoint, "__init__", moved)
    (fn,) = [fn for _suite, cid, fn in CHECKS if cid == "superspace.hinf"]
    ok, _, _, _ = run_check("superspace.hinf", fn)
    assert not ok


@pytest.mark.parametrize("wrong", [lambda n: n, lambda n: 1], ids=["n", "one"])
def test_wrong_factorial_fails_pullback(monkeypatch, wrong):
    """morphisms.pullback sees the exponential series divided by n or by 1
    instead of n!, on its designed q = 6 morphism, where Xi^3 y^3 != 0."""
    monkeypatch.setattr(morphisms, "factorial", wrong)
    (fn,) = [fn for _suite, cid, fn in CHECKS if cid == "morphisms.pullback"]
    ok, counterexample, _, _ = run_check("morphisms.pullback", fn)
    assert not ok and counterexample == "q = 6, y^3"


def test_shifted_point_fails_point(monkeypatch):
    """morphisms.point sees a skeletal pullback taken at the point shifted
    by 1: still a ring morphism, but not h at m + xi e to first order."""
    skeletal = morphisms.skeletal_pullback
    monkeypatch.setattr(morphisms, "skeletal_pullback",
                        lambda point, xis: skeletal({n: v + 1 for n, v in point.items()}, xis))
    (fn,) = [fn for _suite, cid, fn in CHECKS if cid == "morphisms.point"]
    ok, _, _, _ = run_check("morphisms.point", fn)
    assert not ok


@pytest.mark.parametrize("check_id, counterexample", [("models.sigma", "superpotential"),
                                                      ("models.bps", "second order")])
def test_underived_superpotential_fails_models(monkeypatch, check_id, counterexample):
    """With h' = h every model law built from h_phi sees h(phi) where
    h'(phi) belongs; the first such law must fail.  This shows each law
    compares h_phi against h applied to the superfield or against a total
    derivative, not h_phi against itself."""
    monkeypatch.setattr(models.Superpotential, "derivative", lambda self: self)
    (fn,) = [fn for _suite, cid, fn in CHECKS if cid == check_id]
    ok, got, _, _ = run_check(check_id, fn)
    assert not ok and got == counterexample


def test_unparenthesized_nested_sum_fails_ast(monkeypatch):
    """expr_io.ast sees a printer that writes a sum inside a product, power
    or negation without parentheses: the text parses to another tree."""
    pr = expr_io._pr
    monkeypatch.setattr(expr_io, "_pr",
                        lambda node, prec: pr(node, 0 if isinstance(node, expr_io.Add) else prec))
    (fn,) = [fn for _suite, cid, fn in CHECKS if cid == "expr_io.ast"]
    ok, _, _, _ = run_check("expr_io.ast", fn)
    assert not ok


def test_reversed_odd_order_fails_json(monkeypatch):
    """expr_io.json sees a reader that takes each term's odd factors in
    reverse: a pair of odd factors then flips the sign of its term."""
    read = expr_io.poly_from_jsonable

    def reversed_odd(data, table):
        return read({"terms": [{**t, "odd": t.get("odd", [])[::-1]} for t in data["terms"]]},
                    table)

    monkeypatch.setattr(expr_io, "poly_from_jsonable", reversed_odd)
    (fn,) = [fn for _suite, cid, fn in CHECKS if cid == "expr_io.json"]
    ok, _, _, _ = run_check("expr_io.json", fn)
    assert not ok


# (cases run, cases skipped) of every check at seed 0 and 100 cases: the
# --json report holds only pass flags, so these pin what each check ran
RUN_AND_SKIPPED = {
    "divalg.alt": (100, 0), "divalg.clifford_c": (4, 0), "divalg.gamma": (85, 0),
    "divalg.norm": (400, 0), "divalg.oct_pairs": (4, 0),
    "expr_io.ast": (1000, 0), "expr_io.json": (100, 0), "expr_io.value": (100, 0),
    "kernel.assoc": (100, 0), "kernel.cartan": (5, 0),
    # skew-symmetry per unordered pair, then Jacobi per triple up to rotation
    "kernel.bracket": (97, 0),
    # a zero operand has no parity, so these laws skip it
    "kernel.leibniz": (95, 5), "kernel.supercomm": (87, 13),
    "kernel.nilpotent": (5, 0), "kernel.tensoring": (3, 0),
    "minkowski.chiral": (3, 0),
    # per k: the dimension and the span
    "minkowski.closure": (8, 0),
    "minkowski.explaw": (4, 0), "minkowski.fields": (4, 0), "minkowski.norm": (120, 0),
    "minkowski.null": (48, 0), "minkowski.qq": (40, 0),
    # per k: the structure constants; then nilpotency and centrality
    "minkowski.qqter": (12, 0),
    "minkowski.r32": (2, 0), "minkowski.rsym": (20, 0),
    # per algebra: the table rows and A_ij = -[B_i,B_j]; for H and O the
    # residual rotations
    "minkowski.table": (10, 0),
    "models.bps": (4, 0), "models.sigma": (6, 0), "models.superparticle": (5, 0),
    # the fixed nilpotency scan, then one case per drawn pair, at most 30
    "morphisms.collapse": (31, 0),
    "morphisms.components": (20, 0), "morphisms.factor": (20, 0),
    "morphisms.plane": (100, 0), "morphisms.point": (100, 0),
    # the designed q = 6 morphism, then one case per drawn morphism
    "morphisms.pullback": (101, 0),
    # per drawn case: the bridge, the wedge formulas, the signature; then
    # the dictionary
    "reductions.bridge": (31, 0),
    "reductions.k4": (1, 0), "reductions.k8": (1, 0),
    "superspace.berezin": (100, 0), "superspace.body": (200, 0), "superspace.hinf": (100, 0),
    # two draws per (case, q), then the round trips
    "superspace.lift": (53, 0),
    "superspace.supertime": (1, 0),
}


def test_cases_run_and_skipped_are_counted():
    # test_registry_check compares each check's counts in its one run
    assert sorted(RUN_AND_SKIPPED) == sorted(check_id for _suite, check_id, _fn in CHECKS)


@pytest.mark.parametrize("verdict, counterexample", [
    (False, ""), ("th1*th1", "th1*th1"), (1, "1"), (0, "0"),
], ids=["false", "text", "truthy-int", "falsy-int"])
def test_only_true_passes_and_the_first_failure_stops_the_check(verdict, counterexample):
    after = []

    def check(rng, cases, ks):
        yield True
        yield verdict
        after.append("drawn")
        yield True

    assert suites.whole_check(check)(None, 1, ()) == (False, counterexample, 2, 0)
    assert after == []


def test_crash_is_a_failure_with_the_exception_as_counterexample():
    def check(rng, cases, ks):
        yield True
        raise ZeroDivisionError("boom")

    assert suites.whole_check(check)(None, 1, ()) == (False, "ZeroDivisionError: boom", 1, 0)


def test_k_list_is_a_run_parameter():
    def qqter_runs(report):
        (r,) = [r for r in report.results if r.check_id == "minkowski.qqter"]
        assert r.passed
        return r.run

    assert qqter_runs(suites.run_suite("minkowski", 0, 1, (1,))) == 3
    assert qqter_runs(suites.run_suite("minkowski", 0, 1)) == 12
