"""Independent brute-force oracles for the sign-critical kernel paths.

The product normalizer and the Berezin extraction each get a second,
deliberately naive implementation, and the even integral is compared with
sympy; agreement is checked on random input.
"""

import random
from fractions import Fraction

import sympy

from supergrass.kernel import Derivation, ODD, SymbolTable
from supergrass.superspace import SuperDomain, berezin


def naive_normalize(seq, symbols):
    """Normalize a raw odd-factor sequence by adjacent transpositions only:
    returns (scalar, sorted tuple) or None when the product vanishes."""
    seq = list(seq)
    coef = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            a, b = seq[i], seq[i + 1]
            if a > b:
                seq[i], seq[i + 1] = b, a
                coef = -coef
                changed = True
            elif a == b:
                sq = symbols[a].square
                if sq == 0:
                    return None
                coef = coef * (-sq)
                del seq[i:i + 2]
                changed = True
                break
    return coef, tuple(seq)


def naive_mul(p, q):
    """Term-by-term product using the transposition normalizer."""
    t = p.table
    out = {}
    for (e1, o1), c1 in p.terms_sorted():
        for (e2, o2), c2 in q.terms_sorted():
            res = naive_normalize(list(o1) + list(o2), t.symbols)
            if res is None:
                continue
            coef, od = res
            ev = {}
            for i, pw in list(e1) + list(e2):
                ev[i] = ev.get(i, 0) + pw
            key = (tuple(sorted(ev.items())), od)
            s = out.get(key, 0) + c1 * c2 * coef
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    names = t.symbols
    return t.sum(t.monomial(c, [(names[i].name, e) for i, e in ev], [names[i].name for i in od])
                 for (ev, od), c in out.items())


def mixed_table():
    t = SymbolTable()
    t.even_symbol("x")
    t.clifford_symbol("eps", 1)
    t.clifford_symbol("eps2", 1)
    for i in range(3):
        t.odd_symbol(f"th{i+1}")
    return t


def rand_poly(t, rng):
    odd = [s.name for s in t.symbols if s.parity == ODD]
    p = t.zero()
    for _ in range(rng.randint(1, 5)):
        ev = [("x", rng.randint(0, 2))]
        od = [n for n in odd if rng.random() < 0.5]
        p = p + t.monomial(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), ev, od)
    return p


def test_product_against_transposition_oracle():
    rng = random.Random(61)
    t = mixed_table()
    for _ in range(250):
        a, b = rand_poly(t, rng), rand_poly(t, rng)
        assert a * b == naive_mul(a, b)


def test_berezin_against_derivative_oracle():
    # the top-coefficient extraction agrees with iterating the left odd
    # derivatives d/dth1, then d/dth2, ..., then d/dthk
    rng = random.Random(67)
    d = SuperDomain(even=("x",), theta=("th1", "th2", "th3"), eta=("et1", "et2"))
    derivs = [Derivation(d.table, ODD, {n: 1}, n) for n in ("th1", "th2", "th3")]
    for _ in range(150):
        f = rand_domain_poly(d, rng)
        g = f
        for D in derivs:
            g = D(g)
        assert berezin(d, f) == g


def rand_domain_poly(d, rng):
    t = d.table
    odd = list(d.theta_names) + list(d.eta_names)
    p = t.zero()
    for _ in range(rng.randint(1, 6)):
        ev = [("x", rng.randint(0, 2))]
        od = [n for n in odd if rng.random() < 0.5]
        p = p + t.monomial(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), ev, od)
    return p


def test_integrate_even_against_sympy():
    """integrate_even over x, then over y, agrees with sympy.integrate on
    every odd component of random polynomials in x and y, with rational
    bounds in either order."""
    X, Y = sympy.symbols("x y")
    rng = random.Random(71)
    d = SuperDomain(even=("x", "y"), theta=("th1", "th2"), eta=("et1",))
    t = d.table
    odd = ("th1", "th2", "et1")
    monos = [(), ("th1",), ("th1", "th2"), ("th2", "et1"), ("th1", "th2", "et1")]

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def from_sympy(expr):
        out = t.zero()
        for (a, b), c in sympy.Poly(expr, X, Y).terms():
            out = out + t.monomial(Fraction(int(c.p), int(c.q)), [("x", a), ("y", b)])
        return out

    for _ in range(12):
        f, comps = t.zero(), {}
        for od in monos:
            comps[od] = sympy.Integer(0)
            for _ in range(rng.randint(0, 4)):
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                a, b = rng.randint(0, 4), rng.randint(0, 3)
                comps[od] += rational(c) * X ** a * Y ** b
                f = f + t.monomial(c, [("x", a), ("y", b)], od)
        xlo, xhi, ylo, yhi = (Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4))
        gx = f.integrate_even("x", xlo, xhi)
        gxy = gx.integrate_even("y", ylo, yhi)
        for od, e in comps.items():
            ex = sympy.integrate(e, (X, rational(xlo), rational(xhi)))
            exy = sympy.integrate(ex, (Y, rational(ylo), rational(yhi)))
            assert gx.coefficient_of_odd(od).free_of(odd) == from_sympy(ex)
            assert gxy.coefficient_of_odd(od).free_of(odd) == from_sympy(exy)
        assert not any(s.name == "x" for s in gx.support())
