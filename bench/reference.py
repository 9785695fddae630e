"""Answer references for the benchmark, written without supergrass.

Polynomials are dicts {(even, odd): coeff}:
  even  -- sorted tuple of (name, power) pairs;
  odd   -- tuple of odd names sorted by ``odd_key``;
  coeff -- Gaussian rational (re, im), a pair of Fractions.

Every value read back from supergrass (its JSON term lists, its canonical
text) is normalized into this form with the Koszul sign of sorting its odd
factors, so answers are compared as values, never as strings: the program
may order ``th10`` before ``th2``.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

# eps is the Clifford generator with eps*eps = -1; other odd names square to 0
CLIFFORD = frozenset({"eps"})

# The seven oriented octonion triples: u_a u_b = u_c cyclically on each.
OCTONION_TRIPLES = ((2, 3, 4), (2, 6, 7), (2, 8, 5), (3, 6, 8), (3, 5, 7), (4, 5, 6), (4, 8, 7))
CLOSURE_DIMS = {1: 3, 2: 6, 4: 15}
EPS_AB = {(1, 1): 0, (2, 2): 0, (1, 2): 1, (2, 1): -1}


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gmul(a, b):
    if not (a[1] or b[1]):
        return (a[0] * b[0], a[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gneg(a):
    return (-a[0], -a[1])


def is_odd_name(name):
    return name.startswith("th") or name.startswith("et") or name == "eps"


@functools.lru_cache(maxsize=None)
def odd_key(name):
    """Our own total order on odd names: letters first, then the number."""
    m = re.fullmatch(r"([A-Za-z_]+?)(\d*)", name)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _acc(out, key, c):
    s = gadd(out.get(key, ZERO), c)
    if s[0] or s[1]:
        out[key] = s
    else:
        out.pop(key, None)


def normalize_odd(seq):
    """Sort an odd-factor sequence by adjacent transpositions only.

    Returns (sign, sorted tuple), or None when a nilpotent factor repeats.
    """
    seq = list(seq)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            a, b = seq[i], seq[i + 1]
            if a == b:
                if a not in CLIFFORD:
                    return None
                sign = -sign
                del seq[i:i + 2]
                changed = True
                break
            if odd_key(a) > odd_key(b):
                seq[i], seq[i + 1] = b, a
                sign = -sign
                changed = True
    return sign, tuple(seq)


def monomial(coeff, even=(), odd=()):
    """coeff * prod(even) * prod(odd in the given order), normalized."""
    res = normalize_odd(odd)
    if res is None:
        return {}
    sign, od = res
    ev = {}
    for n, p in even:
        ev[n] = ev.get(n, 0) + p
    c = coeff if sign > 0 else gneg(coeff)
    if not (c[0] or c[1]):
        return {}
    return {(tuple(sorted(ev.items())), od): c}


def add(p, q):
    out = dict(p)
    for k, c in q.items():
        _acc(out, k, c)
    return out


def scale(p, c):
    out = {}
    for k, v in p.items():
        _acc(out, k, gmul(c, v))
    return out


def mul(p, q):
    """Naive product: concatenate odd factors and sort by transpositions."""
    out = {}
    for (e1, o1), c1 in p.items():
        for (e2, o2), c2 in q.items():
            res = normalize_odd(o1 + o2)
            if res is None:
                continue
            sign, od = res
            ev = dict(e1)
            for n, pw in e2:
                ev[n] = ev.get(n, 0) + pw
            c = gmul(c1, c2)
            _acc(out, (tuple(sorted(ev.items())), od), c if sign > 0 else gneg(c))
    return out


def power(p, n):
    out = {((), ()): ONE}
    for _ in range(n):
        out = mul(out, p)
    return out


def odd_degrees(p):
    return {len(od) for (_, od) in p}


# ---------------------------------------------------------------------------
# the expression language, enough to read inputs and canonical outputs
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()*^/+-]))")


def tokenize(text):
    toks, pos = [], 0
    while pos < len(text):
        if not text[pos:].strip():
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        toks.append(("int", m.group(1)) if m.group(1) else
                    ("name", m.group(2)) if m.group(2) else ("op", m.group(3)))
        pos = m.end()
    return toks


def names_in(text):
    return {v for kind, v in tokenize(text) if kind == "name" and v != "I"}


class _Reader:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self, value=None):
        tok = self.peek()
        if tok[0] is None or (value is not None and tok[1] != value):
            raise ValueError(f"expected {value!r} at token {self.i}")
        self.i += 1
        return tok

    def expr(self):
        out = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            t = self.term()
            out = add(out, t if op == "+" else scale(t, gneg(ONE)))
        return out

    def term(self):
        out = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            out = mul(out, self.factor())
        return out

    def factor(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return power(base, int(self.take()[1]))
        return base

    def atom(self):
        kind, v = self.take()
        if kind == "int":
            num = Fraction(int(v))
            if self.peek() == ("op", "/"):
                self.take()
                num = num / int(self.take()[1])
            return monomial((num, Fraction(0)))
        if kind == "name":
            if v == "I":
                return monomial((Fraction(0), Fraction(1)))
            if is_odd_name(v):
                return monomial(ONE, odd=(v,))
            return monomial(ONE, even=((v, 1),))
        if v == "-":
            return scale(self.factor(), gneg(ONE))
        if v == "(":
            out = self.expr()
            self.take(")")
            return out
        raise ValueError(f"unexpected {v!r}")


def evaluate(text):
    """Value of a DSL sum of products, computed with the naive product."""
    r = _Reader(text)
    out = r.expr()
    if r.peek()[0] is not None:
        raise ValueError(f"trailing input in {text[:40]!r}")
    return out


def coeff_from_text(text):
    if "I" not in text:
        return (Fraction(text), Fraction(0))
    return evaluate(text).get(((), ()), ZERO)


def from_json(data):
    """Read the program's polynomial JSON ({"terms": [...]}) as a value."""
    out = {}
    for t in data["terms"]:
        mono = monomial(coeff_from_text(t["coeff"]), tuple(t["even"].items()), t["odd"])
        out = add(out, mono)
    return out


def derivation_value(text):
    """Read a printed derivation such as '-2*d/dt' as a polynomial in
    placeholder even symbols d_<name>."""
    return evaluate(text.replace("d/d", "d_"))


# ---------------------------------------------------------------------------
# Berezin integral, box integral, octonions, odd-odd brackets
# ---------------------------------------------------------------------------

def _inversions(seq, key):
    ks = [key(s) for s in seq]
    return sum(1 for i in range(len(ks)) for j in range(i + 1, len(ks)) if ks[i] > ks[j])


def berezin_top(p, thetas):
    """Coefficient of thetas[0]...thetas[-1] moved to the left of the
    remaining odd factors, with the Koszul sign of that move."""
    want = set(thetas)
    pos = {n: i for i, n in enumerate(thetas)}
    out = {}
    for (ev, od), c in p.items():
        if not want <= set(od):
            continue
        rest = tuple(n for n in od if n not in want)
        # od is sorted by odd_key; target order is thetas + rest
        target = {n: (0, pos[n]) if n in want else (1, odd_key(n)) for n in od}
        sign = -1 if _inversions(od, target.__getitem__) & 1 else 1
        _acc(out, (ev, rest), gmul(c, (Fraction(sign), Fraction(0))))
    return out


def box_integral(p, even_names, lo, hi):
    """Integrate every even name in even_names over [lo, hi]."""
    out = {}
    for (ev, od), c in p.items():
        powers = dict(ev)
        val = Fraction(1)
        for n in even_names:
            k = powers.get(n, 0) + 1
            val *= (hi ** k - lo ** k) / k
        _acc(out, ((), od), gmul(c, (val, Fraction(0))))
    return out


def octonion_table():
    """{(a, b): (c, sign)} with u_a u_b = sign u_c, from the seven triples."""
    tab = {}
    for a in range(1, 9):
        tab[(1, a)] = (a, 1)
        tab[(a, 1)] = (a, 1)
    for a in range(2, 9):
        tab[(a, a)] = (1, -1)
    for a, b, c in OCTONION_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            tab[(x, y)] = (z, 1)
            tab[(y, x)] = (z, -1)
    return tab


def gamma_constants(k):
    """G with (u_a conj u_b - u_b conj u_a)/2 = sum_g G[(a, b, g)] u_g over the
    k-dimensional subalgebra spanned by u_1..u_k."""
    tab = octonion_table()
    conj = {a: (1 if a == 1 else -1) for a in range(1, k + 1)}
    out = {}
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            acc = {}
            c1, s1 = tab[(a, b)]
            acc[c1] = acc.get(c1, 0) + Fraction(conj[b] * s1, 2)
            c2, s2 = tab[(b, a)]
            acc[c2] = acc.get(c2, 0) - Fraction(conj[a] * s2, 2)
            for g, v in acc.items():
                if v and g >= 2:
                    out[(a, b, g)] = v
    return out


def odd_brackets(k):
    """The brackets JSON entries for the k-dimensional algebra."""
    gammas = gamma_constants(k)
    out = []
    for a in (1, 2):
        for b in (1, 2):
            for al in range(1, k + 1):
                for be in range(1, k + 1):
                    terms = {}
                    if al == be:
                        terms[f"R({min(a, b)}{max(a, b)})"] = Fraction(-2)
                    e = EPS_AB[(a, b)]
                    for g in range(2, k + 1):
                        c = gammas.get((al, be, g))
                        if e and c:
                            terms[f"Im{g}"] = -2 * e * c
                    out.append(((a, b, al, be), terms))
    return out
