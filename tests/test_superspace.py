import random
from fractions import Fraction

import pytest

from supergrass.kernel import ParityError, SymbolTable
from supergrass.suites import random_homogeneous
from supergrass.superspace import (EvenGrassmannPoint, LiftSpace, SuperDomain,
                                   berezin, berezin_translation_check, body,
                                   hinf_extend, odd_translate, supertime,
                                   theta_lift_vectorfield_law,
                                   _random_lift_poly)
from test_oracles import merge_sign, term


def dom22():
    return SuperDomain(even=("x",), theta=("th1", "th2"), eta=("et1", "et2"))


def test_berezin_picks_top_coefficient():
    d = SuperDomain(even=(), theta=("th1", "th2"), eta=())
    t = d.table
    # f = a + b th1 + c th2 + d th1 th2 with constant coefficients
    f = t.scalar(3) + t.sym("th1").scale(5) + t.sym("th2").scale(-2) \
        + (t.sym("th1") * t.sym("th2")).scale(Fraction(7, 2))
    assert berezin(d, f) == t.scalar(Fraction(7, 2))


def test_berezin_reorder_sign():
    d = SuperDomain(even=(), theta=("th1", "th2"), eta=())
    f = d.sym("th2") * d.sym("th1")
    assert berezin(d, f) == d.table.scalar(-1)


def test_berezin_no_top_monomial():
    d = dom22()
    f = d.sym("x") + d.sym("th1")
    assert berezin(d, f).is_zero()


def test_berezin_keeps_eta_dependence():
    d = dom22()
    f = d.sym("th1") * d.sym("th2") * d.sym("et1")
    assert berezin(d, f) == d.sym("et1")


def test_berezin_box_integration():
    d = SuperDomain(even=("x",), theta=("th1", "th2"), eta=())
    f = d.sym("th1") * d.sym("th2") * d.sym("x") ** 2
    assert berezin(d, f).integrate_even("x", 0, 1) == d.table.scalar(Fraction(1, 3))


def test_translation_invariance_explicit():
    d = dom22()
    f = d.sym("th1") * d.sym("th2")
    shifted = odd_translate(d, f, {"th1": d.sym("et1"), "th2": d.sym("et2")})
    # (th1+et1)(th2+et2): the th1 th2 coefficient is unchanged
    assert berezin(d, shifted) == berezin(d, f) == d.table.one()
    assert berezin_translation_check(d, f, {"th1": d.sym("et1"), "th2": d.sym("et2")})


def test_translation_invariance_k1():
    d = SuperDomain(even=(), theta=("th1",), eta=("et1",))
    f = d.sym("th1")
    assert berezin_translation_check(d, f, {"th1": d.sym("et1")})


def test_exact_integrands_vanish():
    d = dom22()
    dth1 = d.odd_derivative("th1")
    f = d.sym("th1") * d.sym("th2")
    assert berezin(d, dth1(f)).is_zero()


# -- supertime ----------------------------------------------------------------

def test_supertime_D_squared_on_superfield():
    # D^2 (f(t) + th g(t)) = -f' - th g'
    dom, ops = supertime()
    t, th = dom.sym("t"), dom.sym("th")
    D = ops["D"]
    f = t ** 3
    g = t ** 2
    val = D(D(f + th * g))
    fdot = dom.table.zero() + 3 * t ** 2
    gdot = 2 * t
    assert val == -fdot - th * gdot


def test_tau_squared_is_dt_on_basis():
    dom, ops = supertime()
    tau, dt = ops["tau"], ops["dt"]
    t, th = dom.sym("t"), dom.sym("th")
    for f in (dom.table.one(), th, t, t * th, t ** 2, t ** 2 * th):
        assert tau(tau(f)) == dt(f)


def test_D_squared_is_minus_dt_on_basis():
    dom, ops = supertime()
    D, dt = ops["D"], ops["dt"]
    t, th = dom.sym("t"), dom.sym("th")
    for f in (dom.table.one(), th, t, t * th, t ** 2, t ** 2 * th):
        assert D(D(f)) == -dt(f)


def test_flesh_commutator_of_D_and_tau_vanishes():
    dom, ops = supertime()
    from supergrass.kernel import super_bracket

    e1, e2 = dom.sym("et1"), dom.sym("et2")
    lhs = super_bracket(ops["D"].scale(e1), ops["tau"].scale(e2))
    assert lhs.is_zero()


# -- body / soul / Taylor extension --------------------------------------------

def flesh_table(L=4):
    t = SymbolTable()
    for i in range(L):
        t.odd_symbol(f"et{i+1}")
    return t


def test_body_soul():
    t = flesh_table()
    z = t.scalar(2) + t.sym("et1") * t.sym("et2")
    assert body(z) == 2
    assert EvenGrassmannPoint(z).soul == t.sym("et1") * t.sym("et2")
    p = EvenGrassmannPoint(z)
    assert (p.soul * p.soul).is_zero()


def one_var_poly():
    t = SymbolTable()
    t.even_symbol("x")
    return t


def test_hinf_square_example():
    # f = x^2 at z = 1 + et1 et2 gives 1 + 2 et1 et2
    tx = one_var_poly()
    tf = flesh_table(2)
    z = EvenGrassmannPoint(tf.one() + tf.sym("et1") * tf.sym("et2"))
    out = hinf_extend(tx.sym("x") ** 2, [z])
    assert out == tf.one() + (tf.sym("et1") * tf.sym("et2")).scale(2)


def test_hinf_constant_and_identity():
    tx = one_var_poly()
    tf = flesh_table(2)
    z = EvenGrassmannPoint(tf.scalar(5) + (tf.sym("et1") * tf.sym("et2")).scale(3))
    assert hinf_extend(tx.scalar(7), [z]) == tf.scalar(7)
    assert hinf_extend(tx.sym("x"), [z]) == z.value


def test_soul_nilpotency_order():
    t = flesh_table(4)
    z = t.one() + t.sym("et1") * t.sym("et2") + t.sym("et3") * t.sym("et4")
    p = EvenGrassmannPoint(z)
    assert len(p.soul_powers()) <= 3  # soul^3 = 0 with L = 4


# -- theta lift ----------------------------------------------------------------

def test_lift_lower_round_trip():
    d = SuperDomain(even=("x",), theta=(), eta=("et1", "et2", "et3", "et4"))
    x = d.sym("x")
    f = x ** 2 + (d.sym("et1") * d.sym("et2")).scale(3) * x \
        + (d.sym("et1") * d.sym("et2") * d.sym("et3") * d.sym("et4")).scale(Fraction(1, 2))
    space = LiftSpace(d)
    frak = space.lift(f)
    assert space.lower(frak) == f
    # lift chooses the s-linear representative
    s_names = set(space.s_name.values())
    for (ev, _), _c in frak.terms_sorted():
        assert sum(p for i, p in ev if space.table.symbols[i].name in s_names) <= 1


def test_lift_of_one():
    d = SuperDomain(even=(), theta=(), eta=("et1", "et2"))
    space = LiftSpace(d)
    frak = space.lift(d.table.one())
    assert frak == space.table.one()
    assert space.lower(frak) == d.table.one()


def test_lift_rejects_odd():
    d = SuperDomain(even=(), theta=(), eta=("et1", "et2"))
    with pytest.raises(ParityError):
        LiftSpace(d).lift(d.sym("et1"))


def test_ideal_reduction_confluent():
    rng = random.Random(8)
    d = SuperDomain(even=(), theta=(), eta=tuple(f"et{i+1}" for i in range(6)))
    space = LiftSpace(d)
    names = list(space.s_name.values())
    for _ in range(60):
        picks = [space.table.sym(rng.choice(names)) for _ in range(3)]
        a = space.reduce(space.reduce(picks[0] * picks[1]) * picks[2])
        b = space.reduce(picks[0] * space.reduce(picks[1] * picks[2]))
        c = space.reduce(picks[0] * picks[1] * picks[2])
        assert a == b == c


def _reduce_oracle(space, frak):
    # the former per-term LiftSpace.reduce: the s factors of each term merge
    # through merge_sign into sign * s_(merged), or vanish on a repeat
    s_index = {space.table.symbol(name).index: I for I, name in space.s_name.items()}
    out = space.table.zero()
    for (ev, od), c in frak.terms_sorted():
        s_parts, rest = [], []
        for i, p in ev:
            if i in s_index:
                s_parts.extend([s_index[i]] * p)
            else:
                rest.append((i, p))
        if len(s_parts) <= 1:
            out = out + term(space.table, ev, od, c)
            continue
        ms = merge_sign(*s_parts)
        if ms is not None:
            sign, merged = ms
            out = out + term(space.table, rest, od, c * sign) * space.s(merged)
    return out


def _lift_oracle(space, f):
    # the former per-term LiftSpace.lift: c * x^a * eta^I goes to c * x^a * s_I
    dom = space.domain.table
    pos = {dom.symbol(n).index: k + 1 for k, n in enumerate(space.odd_names)}
    out = space.table.zero()
    for (ev, od), c in f.terms_sorted():
        I = tuple(pos[i] for i in od)
        base = space.table.monomial(c, [(dom.symbols[i].name, p) for i, p in ev])
        out = out + (base * space.s(I) if I else base)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_reduce_and_lift_against_per_term_oracles(q):
    """reduce = lift . lower and the component-wise lift agree with the
    per-term rewrites they replace, on polynomials with quadratic s terms
    and on domains with thetas before the etas."""
    rng = random.Random(40 + q)
    k = q // 3
    d = SuperDomain(even=("x",), theta=tuple(f"th{i+1}" for i in range(k)),
                    eta=tuple(f"et{i+1}" for i in range(q - k)))
    space = LiftSpace(d)
    s_names = set(space.s_name.values())
    quadratic = 0
    for _ in range(30):
        frak = _random_lift_poly(space, rng)
        quadratic += any(sum(p for i, p in ev if space.table.symbols[i].name in s_names) >= 2
                         for (ev, _), _c in frak.terms_sorted())
        assert space.reduce(frak) == _reduce_oracle(space, frak)
        f = random_homogeneous(d.table, rng, 0)
        assert space.lift(f) == _lift_oracle(space, f)
    assert quadratic >= 10


def test_example_lower_of_s12():
    d = SuperDomain(even=("x",), theta=(), eta=("et1", "et2"))
    space = LiftSpace(d)
    g = space.table.sym("x")
    frak = g + space.s((1, 2)) * g ** 2
    lowered = space.lower(frak)
    assert lowered == d.sym("x") + d.sym("x") ** 2 * (d.sym("et1") * d.sym("et2"))


def test_vectorfield_case3_needs_three_etas():
    # with two eta both sides of case 3 vanish, so the law is refused
    with pytest.raises(ValueError):
        theta_lift_vectorfield_law(3, 2)


def test_case3_explicit_example():
    # Z = et1 d/det2 on f = et2 et3 gives et1 et3
    d = SuperDomain(even=(), theta=(), eta=("et1", "et2", "et3"))
    dd = d.odd_derivative("et2")
    f = d.sym("et2") * d.sym("et3")
    assert d.sym("et1") * dd(f) == d.sym("et1") * d.sym("et3")
