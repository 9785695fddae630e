"""One naive model of the kernel, and the tests that hold the kernel to it.

A polynomial in the model is the decoded dict of `terms_sorted()`:
{(even, odd): coeff}, even the (index, power) pairs of its even factors,
odd the increasing tuple of its odd symbol indices, coeff a Gaussian
rational as a pair (re, im) of Fractions.  Each kernel operation is written
here once, by the textbook rule and calling no kernel arithmetic: odd
factors are sorted one adjacent transposition at a time, a sign each, a
repeated nilpotent generator kills the term and a repeated Clifford one
contracts by eps*eps = -1; even factors commute, their powers add, and a
power above `MAX_EXPONENT` raises the kernel's `SizeLimitError`.  The
kernel only builds the operands (`encode`, one `monomial` per term).

Each case of `CASES` draws one operation's operands and `check` compares
the kernel's result with the model's, on every table of `KINDS`.  Draw d of
a case on a table draws from its own `random.Random`, so the draw a failing
assert names reruns alone.  The Berezin extraction against iterated odd
derivatives and the even integral against sympy stand apart.
"""

import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from supergrass.kernel import (EVEN, MAX_DEGREE, MAX_EXPONENT, MAX_TERM_PAIRS, ODD, Derivation,
                               SizeLimitError, SuperPolynomial, SymbolTable, super_bracket)
from supergrass.scalars import QI
from supergrass.superspace import SuperDomain, berezin

# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

ZERO, ONE, MINUS = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1] if a[1] or b[1] else a[1])


def gmul(a, b):
    if not (a[1] or b[1]):
        return (a[0] * b[0], a[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pow(times, a, n, one):
    """a^n, squaring and multiplying from the top bit of n down."""
    out = one
    for bit in format(n, "b"):
        out = times(out, out)
        if bit == "1":
            out = times(out, a)
    return out


def pair(c):
    """A kernel scalar (int, Fraction or QI) as a model coefficient."""
    return (c.re, c.im) if type(c) is QI else (Fraction(c), Fraction(0))


def normalize_odd(seq, clifford):
    """The product of the odd generators seq, in that order, as (sign,
    increasing indices), or None when it vanishes.  Each generator is carried
    left one adjacent transposition at a time, each a sign, until it meets
    its equal: a Clifford one (an index in clifford) contracts, eps*eps = -1,
    and a nilpotent one makes the product vanish."""
    out, sign = [], 1
    for a in seq:
        j = len(out)
        while j and out[j - 1] > a:
            j -= 1
            sign = -sign
        if j and out[j - 1] == a:
            if a not in clifford:
                return None
            del out[j - 1]
            sign = -sign
        else:
            out.insert(j, a)
    return sign, tuple(out)


def merge_sign(*parts):
    """Concatenate disjoint multi-indices; return (sign, merged) or None if a
    position repeats.  sign is the signature of the sort permutation."""
    return normalize_odd([i for part in parts for i in part], ())


def _put(out, clifford, evens, odd, c):
    """Add c times the even factors of evens (runs of (index, power) pairs)
    and the odd generators odd, in that order, into out; a sum that cancels
    leaves no key."""
    res = normalize_odd(odd, clifford)
    if res is None:
        return
    sign, od = res
    powers = collections.Counter()
    for run in evens:
        for i, p in run:
            powers[i] += p
    ev = tuple(sorted((i, p) for i, p in powers.items() if p))
    if any(p > MAX_EXPONENT for _, p in ev):
        raise SizeLimitError(f"exponent budget of {MAX_EXPONENT}")
    c = gadd(out.pop((ev, od), ZERO), c if sign > 0 else gmul(MINUS, c))
    if c[0] or c[1]:
        out[ev, od] = c


def clifford(t):
    return {s.index for s in t.symbols if s.square}


def add(*polys):
    out = {}
    for p in polys:
        for (ev, od), c in p.items():
            _put(out, (), [ev], od, c)
    return out


def scale(p, c):
    return {k: gmul(c, v) for k, v in p.items()} if c != ZERO else {}


def mul(t, a, b):
    cl, out = clifford(t), {}
    for (e1, o1), c1 in a.items():
        for (e2, o2), c2 in b.items():
            _put(out, cl, [e1, e2], o1 + o2, gmul(c1, c2))
    return out


def power(t, p, n):
    return _pow(lambda a, b: mul(t, a, b), p, n, {((), ()): ONE})


def monomial(t, c, even, odd):
    """c times the even names to their powers, then the odd names in order."""
    out = {}
    _put(out, clifford(t), [[(t.symbol(n).index, e) for n, e in even]],
         [t.symbol(n).index for n in odd], c)
    return out


def generator(t, name):
    s = t.symbol(name)
    return {(((s.index, 1),), ()) if s.parity == EVEN else ((), (s.index,)): ONE}


def derive(t, parity, images, f):
    """The graded Leibniz rule on each term in its stored order, images
    {index: model}: an even factor x^p gives p * x^(p-1) * X(x) left of the
    odd factors, and the j-th odd factor gives (-1)^(parity * j) times the
    factors before it, X of it and the factors after it."""
    cl, out = clifford(t), {}
    for (ev, od), c in f.items():
        for k, (i, p) in enumerate(ev):
            rest = ev[:k] + ((i, p - 1),) + ev[k + 1:]
            for (e2, o2), c2 in images.get(i, {}).items():
                _put(out, cl, [rest, e2], o2 + od, gmul((Fraction(p), Fraction(0)), gmul(c, c2)))
        for j, i in enumerate(od):
            cs = gmul(MINUS, c) if parity and j & 1 else c
            for (e2, o2), c2 in images.get(i, {}).items():
                _put(out, cl, [ev, e2], od[:j] + o2 + od[j + 1:], gmul(cs, c2))
    return out


def substitute(t, u, images, f):
    """Each term c * x^p ... * o1 ... ok of f over t as c times the images of
    its factors in that order (even by index, then odd), over u: images
    {name: model over u}, and a symbol without one goes over by name."""
    out = {}
    for (ev, od), c in f.items():
        term = {((), ()): c}
        for i in [i for i, _ in ev] + list(od):
            name = t.symbols[i].name
            image = images[name] if name in images else generator(u, name)
            term = mul(u, term, power(u, image, dict(ev).get(i, 1)))
        out = add(out, term)
    return out


def free_of(f, idx):
    return {(ev, od): c for (ev, od), c in f.items()
            if not idx & ({i for i, _ in ev} | set(od))}


def parity_part(f, g):
    return {(ev, od): c for (ev, od), c in f.items() if len(od) % 2 == g}


def support(f):
    return sorted({i for ev, od in f for i in [j for j, _ in ev] + list(od)})


def coefficient_of_odd(f, idxs):
    """The terms holding the odd indices idxs, those factors moved to the
    front in the order of idxs, with the sign of that move."""
    out = {}
    for (ev, od), c in f.items():
        if set(idxs) <= set(od):
            rest = tuple(i for i in od if i not in idxs)
            sign, _ = merge_sign(idxs, rest)
            _put(out, (), [ev], rest, c if sign > 0 else gmul(MINUS, c))
    return out


def eval_even(f, values):
    """values {index: model coefficient} for even symbols."""
    out = {}
    for (ev, od), c in f.items():
        for i, p in ev:
            if i in values:
                c = gmul(c, _pow(gmul, values[i], p, ONE))
        _put(out, (), [tuple((i, p) for i, p in ev if i not in values)], od, c)
    return out


def diff_even(f, i):
    out = {}
    for (ev, od), c in f.items():
        p = dict(ev).get(i, 0)
        if p:
            _put(out, (), [ev, ((i, -1),)], od, gmul((Fraction(p), Fraction(0)), c))
    return out


def integrate_even(f, i, lo, hi):
    """The integral over lo <= x_i <= hi, real bounds given as Fractions."""
    out = {}
    for (ev, od), c in f.items():
        p = dict(ev).get(i, 0)
        if p > MAX_DEGREE:
            raise SizeLimitError(f"degree budget {MAX_DEGREE}")
        c = gmul(c, ((hi ** (p + 1) - lo ** (p + 1)) / (p + 1), Fraction(0)))
        _put(out, (), [tuple(e for e in ev if e[0] != i)], od, c)
    return out


def slot_product(t, rows, left, right):
    """The slots of a division-algebra product: (-1)^neg * left[a] *
    right[b] added into slot g, for rows[a][b] = (g, neg); refused when
    the largest left slot times the largest right slot passes the
    term-pair budget, as the product of that pair would be."""
    if max(map(len, left)) * max(map(len, right)) > MAX_TERM_PAIRS:
        raise SizeLimitError(f"the budget of {MAX_TERM_PAIRS} term pairs")
    out = [{} for _ in rows]
    for a, p in enumerate(left):
        for b, q in enumerate(right):
            g, neg = rows[a][b]
            out[g] = add(out[g], scale(mul(t, p, q), MINUS if neg else ONE))
    return out


# ---------------------------------------------------------------------------
# between the model and the kernel
# ---------------------------------------------------------------------------

def term(t, ev, od, c):
    """c times one monomial, given as the (index, power) pairs and the odd
    indices that terms_sorted yields."""
    names = t.symbols
    return t.monomial(c, [(names[i].name, e) for i, e in ev], [names[i].name for i in od])


def encode(t, m):
    return t.sum(term(t, ev, od, QI(*c)) for (ev, od), c in m.items())


def _stored(c):
    return type(c) is int and c != 0 or type(c) is QI and c.parts()[1:] != (0, 1)


def _outcome(f):
    try:
        return f()
    except SizeLimitError as e:
        return e


def check(where, run, model):
    """run(), a kernel operation, against model(), its model: the same terms
    in the order of terms_sorted, each stored as a nonzero int or a QI that
    is not a rational integer; where the model passes a budget, the kernel's
    SizeLimitError for that budget; any other result, equal."""
    want, got = _outcome(model), _outcome(run)
    if isinstance(want, Exception) or isinstance(got, Exception):
        # a key past the budget may not decode, so a result is not printed
        shown = got if isinstance(got, Exception) else type(got).__name__
        assert isinstance(got, Exception) and str(want) in str(got), f"{where}\nkernel {shown!r}\nmodel  {want!r}"
    elif type(got) is not SuperPolynomial:
        assert got == want, f"{where}\nkernel {got!r}\nmodel  {want!r}"
    else:
        terms = got.terms_sorted()
        have, want = [(k, pair(c)) for k, c in terms], sorted(want.items(), key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0]))
        assert have == want and all(_stored(c) for _, c in terms), f"{where}\nkernel {terms}\nmodel  {want}"


# ---------------------------------------------------------------------------
# the draws
# ---------------------------------------------------------------------------

KINDS = ("w3", "w9", "w40", "w70", "w130", "wide")

# the fields of the wide table whose powers reach the exponent budget
BIG = frozenset({"x0", "x13", "x26", "x39"})

COEFFS = [(Fraction(n), Fraction(0)) for n in (1, -1, 2, -3)] + [
    (Fraction(1, 2), Fraction(0)), (Fraction(-2, 3), Fraction(0)), (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(-1)), (Fraction(-3, 2), Fraction(1, 3))]


def model_table(kind):
    """The table of one kind.  "wn": n symbols, n // 3 of them even and
    three (one at n = 3) Clifford, in a shuffled order; then, with the
    prefix-parity memo filled, a nilpotent and two Clifford generators
    above them, so that widths pass 64 bits and memo entries meet later
    symbols.  "wide": 40 even symbols, so that a key spans 40 * 33 = 1320
    bits, with three odd and a Clifford generator declared among them."""
    t = SymbolTable()
    if kind == "wide":
        for k in range(40):
            t.even_symbol(f"x{k}")
            if k in (9, 19, 29):
                t.odd_symbol(f"th{k // 10 + 1}")
            if k == 24:
                t.clifford_symbol("eps")
        return t
    n = int(kind[1:])
    declare = [t.even_symbol] * (n // 3) + [t.clifford_symbol] * (1 if n == 3 else 3)
    declare += [t.odd_symbol] * (n - len(declare))
    random.Random(n).shuffle(declare)
    for k, symbol in enumerate(declare):
        symbol(f"s{k}")
    eps = t.sym(next(s.name for s in t.symbols if s.square))
    for s in t.symbols:
        if s.parity == ODD:
            eps * t.sym(s.name)
    assert t._below
    t.odd_symbol("late_th")
    t.clifford_symbol("late_eps1")
    t.clifford_symbol("late_eps2")
    return t


def draw_poly(t, rng, size=4, density=None, avoid=(), big=True):
    """A model polynomial of up to size terms over t.  Each term holds up to
    three even factors (powers to 3; on the fields of BIG, if big, up to
    MAX_EXPONENT, and half of the polynomials over the wide table hold
    x39^MAX_EXPONENT) and odd generators at one density per polynomial, the
    indices in avoid rarely, so that a product with a polynomial holding
    them mostly survives."""
    evens = [s for s in t.symbols if s.parity == EVEN]
    odds = [s.index for s in t.symbols if s.parity == ODD]
    if density is None:
        density = min(0.5, rng.choice((1, 3, 6)) / len(odds))
    out = {}
    for _ in range(rng.randint(0, size)):
        ev = [(s.index, rng.choice((1, 2, MAX_EXPONENT - 1, MAX_EXPONENT))
               if big and s.name in BIG else rng.randint(1, 3))
              for s in rng.sample(evens, min(len(evens), rng.randint(0, 3)))]
        od = [i for i in odds if rng.random() < density and (i not in avoid or rng.random() < 0.05)]
        _put(out, (), [ev], od, rng.choice(COEFFS))
    if big and "x39" in t and rng.random() < 0.5:
        _put(out, (), [[(t.symbol("x39").index, MAX_EXPONENT)]], [], rng.choice(COEFFS))
    return out


def as_input(c, rng):
    """A model coefficient in one of the forms the kernel accepts."""
    re, im = c
    forms = [QI(re, im)] if im else [QI(re), re] + ([int(re)] if re.denominator == 1 else [])
    return rng.choice(forms)


def random_images(t, rng, parity):
    """{index: model} for a derivation of the given parity: an image for a
    few symbols, of the parity that keeps X homogeneous, and no power that
    reaches the budget, so that brackets stay within it."""
    out = {s.index: parity_part(draw_poly(t, rng, 3, big=False), (s.parity + parity) % 2)
           for s in t.symbols if rng.random() < min(0.6, 6 / len(t.symbols))}
    return {i: img for i, img in out.items() if img}


# ---------------------------------------------------------------------------
# one differential case per kernel operation: case(t, rng) draws its
# operands over t from rng and yields (run, model) pairs for `check`
# ---------------------------------------------------------------------------

CASES = {}


def case(draws):
    """Register case_<op> as the case of op, with its draws per table."""
    def register(f):
        CASES[f.__name__.removeprefix("case_")] = (f, draws)
        return f
    return register


def product_operands(t, rng):
    """a and b with odd parts at densities up to 0.6, so wide masks, b
    holding the nilpotent generators of a rarely; one draw in four is
    (u + v, u - v) with u even, so that the cross terms of the product
    cancel."""
    nil = {s.index for s in t.symbols if s.parity == ODD and not s.square}
    a = draw_poly(t, rng, density=rng.choice((0.1, 0.3, 0.6)))
    b = draw_poly(t, rng, density=rng.choice((0.1, 0.3, 0.6)), avoid={i for _, od in a for i in od if i in nil})
    if rng.random() < 0.25:
        u = draw_poly(t, rng, 1, density=0)
        a, b = add(u, a), add(u, scale(a, MINUS))
    return a, b


@case(60)
def case_product(t, rng):
    a, b = product_operands(t, rng)
    yield lambda: encode(t, a) * encode(t, b), lambda: mul(t, a, b)


@case(30)
def case_sum(t, rng):
    """+, - and SymbolTable.sum, c cancelling the terms of a free of one
    symbol."""
    a, b = draw_poly(t, rng), draw_poly(t, rng)
    c = scale(free_of(a, {rng.choice(t.symbols).index}), MINUS)
    pa, pb, pc = encode(t, a), encode(t, b), encode(t, c)
    yield lambda: pa + pb, lambda: add(a, b)
    yield lambda: pa - pb, lambda: add(a, scale(b, MINUS))
    yield lambda: pa + pc, lambda: add(a, c)
    yield lambda: t.sum(iter([pa, pb, pc])), lambda: add(a, b, c)


@case(20)
def case_scale(t, rng):
    a = draw_poly(t, rng)
    for c in [ZERO, ONE, MINUS] + rng.sample(COEFFS, 3):
        v = as_input(c, rng)
        yield lambda: encode(t, a).scale(v), lambda: scale(a, c)
        yield lambda: v * encode(t, a), lambda: scale(a, c)


@case(40)
def case_power(t, rng):
    """Half of the bases one even term, the kernel's shortcut, with powers
    up to the exponent budget on the wide table."""
    a = draw_poly(t, rng, 1, density=0) if rng.random() < 0.5 else draw_poly(t, rng, 3, big=False)
    n = rng.randint(0, 4)
    yield lambda: encode(t, a) ** n, lambda: power(t, a, n)


@case(60)
def case_monomial(t, rng):
    """Repeated names, powers of 0 up to MAX_EXPONENT and every accepted
    coefficient form, zero among them: a power past the budget raises only
    where the odd names leave a nonzero monomial."""
    evens = [s.name for s in t.symbols if s.parity == EVEN]
    odds = [s.name for s in t.symbols if s.parity == ODD]
    cliffords = [s.name for s in t.symbols if s.square]
    c = rng.choice(COEFFS + [ZERO])
    even = [(rng.choice(evens), rng.choice((0, 1, 2, 3, MAX_EXPONENT)))
            for _ in range(rng.randint(0, 4))] if evens else []
    odd = [rng.choice(rng.choice((odds, cliffords))) for _ in range(rng.randint(0, 6))]
    v = as_input(c, rng)
    yield lambda: t.monomial(v, even, odd), lambda: monomial(t, c, even, odd)


@case(20)
def case_sum_of_products(t, rng):
    """(neg, a, b) triples, now and then a pair that cancels the first."""
    triples = [(rng.random() < 0.5, draw_poly(t, rng), draw_poly(t, rng)) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        neg, a, b = triples[0]
        triples.append((not neg, a, b))
    polys = [(neg, encode(t, a), encode(t, b)) for neg, a, b in triples]
    yield (lambda: t.sum_of_products(iter(polys)),
           lambda: add(*(scale(mul(t, a, b), MINUS if neg else ONE) for neg, a, b in triples)))


@functools.cache
def _many_terms(t, n):
    """A model polynomial of n terms, the powers 1..n of the first even
    symbol of t, and its kernel form, built once per table."""
    x = next(s.index for s in t.symbols if s.parity == EVEN)
    m = {(((x, p),), ()): ONE for p in range(1, n + 1)}
    return m, encode(t, m)


@case(20)
def case_slot_product(t, rng):
    """Slot lists of k = 1, 2, 4 or 8 polynomials, a third of them zero,
    under random rows of both signs; now and then a left slot repeated
    under the negated row of the one it repeats, so that their products
    cancel, and one draw in five with powers that reach the exponent
    budget.  Then a slot of 400 terms against one of 300, on the left and
    then on the right, which the term-pair budget refuses."""
    k = rng.choice((1, 2, 4, 8))
    rows = [[(rng.randrange(k), rng.random() < 0.5) for _ in range(k)] for _ in range(k)]
    big = rng.random() < 0.2
    left, right = ([draw_poly(t, rng, 3, big=big) if rng.random() < 0.7 else {} for _ in range(k)]
                   for _ in range(2))
    if k > 1 and rng.random() < 0.3:
        left[1] = left[0]
        rows[1] = [(g, not neg) for g, neg in rows[0]]
    lp, rp = [encode(t, p) for p in left], [encode(t, q) for q in right]
    kernel = functools.cache(lambda: t.slot_product(rows, lp, rp, t.zero()))
    model = functools.cache(lambda: slot_product(t, rows, left, right))
    for g in range(k):
        yield lambda: kernel()[g], lambda: model()[g]
    many, more = _many_terms(t, 400), _many_terms(t, 300)
    for (lm, lk), (rm, rk) in ((many, more), (more, many)):
        a, b = rng.randrange(k), rng.randrange(k)
        kl, kr = lp[:a] + [lk] + lp[a + 1:], rp[:b] + [rk] + rp[b + 1:]
        ml, mr = left[:a] + [lm] + left[a + 1:], right[:b] + [rm] + right[b + 1:]
        yield lambda: t.slot_product(rows, kl, kr, t.zero()), lambda: slot_product(t, rows, ml, mr)


@case(20)
def case_derivation(t, rng):
    """X(f) for even and odd X, and [X, Y] on the generators with an image
    and two others, against X(Y(g)) -+ Y(X(g)) in the model."""
    (gx, xi), (gy, yi) = ((g, random_images(t, rng, g)) for g in (rng.randint(0, 1), rng.randint(0, 1)))
    X, Y = (Derivation(t, g, {t.symbols[i].name: encode(t, v) for i, v in imgs.items()})
            for g, imgs in ((gx, xi), (gy, yi)))
    f = draw_poly(t, rng)
    yield lambda: X(encode(t, f)), lambda: derive(t, gx, xi, f)
    br, sign = super_bracket(X, Y), ONE if gx and gy else MINUS
    for i in sorted(xi.keys() | yi.keys() | {s.index for s in rng.sample(t.symbols, 2)}):
        name, g = t.symbols[i].name, generator(t, t.symbols[i].name)
        yield (lambda: br(t.sym(name)),
               lambda: add(derive(t, gx, xi, derive(t, gy, yi, g)), scale(derive(t, gy, yi, derive(t, gx, xi, g)), sign)))


def _even_image(t, rng, s):
    """An image for the even symbol s: s plus an even part, which may hold
    Clifford generators and so not be central; on a field that reaches the
    budget, s times a unit, whose powers stay one term."""
    if s.name in BIG:
        return scale(generator(t, s.name), rng.choice((ONE, MINUS, (Fraction(0), Fraction(1)))))
    return add(generator(t, s.name), parity_part(draw_poly(t, rng, 2, big=False), 0))


@case(20)
def case_substitute(t, rng):
    """Within one table: even images with a soul or a Clifford pair, odd
    images that translate, unnamed symbols between the named."""
    images = {s.name: _even_image(t, rng, s) if s.parity == EVEN else
              add(generator(t, s.name), parity_part(draw_poly(t, rng, 2, big=False), 1))
              for s in rng.sample(t.symbols, min(len(t.symbols), 5))}
    f = draw_poly(t, rng)
    kernel = {n: encode(t, v) for n, v in images.items()}
    yield lambda: encode(t, f).substitute(kernel), lambda: substitute(t, t, images, f)


def _reordered(t):
    """A table with the symbols of t in reverse order and an even, an odd
    and a Clifford symbol that t lacks."""
    u = SymbolTable()
    u.odd_symbol("new_th")
    for s in reversed(t.symbols):
        (u.clifford_symbol if s.square else u.odd_symbol if s.parity else u.even_symbol)(s.name)
        if s.index == len(t.symbols) // 2:
            u.even_symbol("new_x")
            u.clifford_symbol("new_eps")
    return u


@case(20)
def case_cross_table_substitute(t, rng):
    """Into a table with another declaration order: the bare symbols of
    that table, adopt (the same copy), and images that scale or translate
    some symbols, the new ones of that table among the translations."""
    u = _reordered(t)
    f = draw_poly(t, rng)
    p = encode(t, f)
    copy = {t.symbols[i].name: u.sym(t.symbols[i].name) for i in support(f)}
    yield lambda: p.substitute(copy), lambda: substitute(t, u, {}, f)
    yield lambda: u.adopt(p), lambda: substitute(t, u, {}, f)
    yield lambda: (u.adopt(p).table, p.substitute(copy).table, t.adopt(p) is p), lambda: (u, u if copy else t, True)
    images = {}
    for s in (t.symbols[i] for i in support(f)):
        images[s.name] = generator(u, s.name)
        if rng.random() < 0.3 and s.name not in BIG:
            extra = parity_part(draw_poly(u, rng, 2, big=False), s.parity)
            images[s.name] = add(scale(images[s.name], rng.choice(COEFFS)), extra)
    kernel = {n: encode(u, v) for n, v in images.items()}
    yield lambda: p.substitute(kernel), lambda: substitute(t, u, images, f)


@case(30)
def case_free_of(t, rng):
    f = draw_poly(t, rng)
    for names in ([], [rng.choice(t.symbols).name], [n for n in BIG if n in t],
                  [s.name for s in rng.sample(t.symbols, min(6, len(t.symbols)))]):
        yield lambda: encode(t, f).free_of(names), lambda: free_of(f, {t.symbol(n).index for n in names})


@case(30)
def case_parity_part(t, rng):
    f = draw_poly(t, rng)
    for g in (0, 1):
        yield lambda: encode(t, f).parity_part(g), lambda: parity_part(f, g)


@case(30)
def case_support(t, rng):
    """support, and max_even_degree, the largest sum of the even powers of
    a term."""
    f = draw_poly(t, rng)
    yield lambda: [s.index for s in encode(t, f).support()], lambda: support(f)
    yield lambda: encode(t, f).max_even_degree(), lambda: max((sum(e for _, e in ev) for ev, _ in f), default=0)


@case(30)
def case_coefficient_of_odd(t, rng):
    """Names in any order, half of the time those of one term shuffled."""
    odds = [s.name for s in t.symbols if s.parity == ODD]
    f = draw_poly(t, rng)
    names = rng.sample(odds, rng.randint(0, 4))
    if f and rng.random() < 0.5:
        od = rng.choice(list(f))[1]
        names = [t.symbols[i].name for i in rng.sample(od, min(len(od), 4))]
    yield (lambda: encode(t, f).coefficient_of_odd(names),
           lambda: coefficient_of_odd(f, tuple(t.symbol(n).index for n in names)))


@case(30)
def case_odd_components(t, rng):
    """The split by odd monomial, each part free of odd symbols."""
    f = draw_poly(t, rng)
    parts, want = encode(t, f).odd_components(), collections.defaultdict(dict)
    for (ev, od), c in f.items():
        want[tuple(t.symbols[i].name for i in od)][ev, ()] = c
    yield lambda: sorted(parts), lambda: sorted(want)
    for names, part in parts.items():
        yield lambda: part, lambda: want[names]


@case(30)
def case_eval_even(t, rng):
    """Values in every coefficient form, zero among them, and an odd name
    among the values; a field that reaches the budget takes 0, 1, -1 or I."""
    small = [(Fraction(2), Fraction(0)), (Fraction(-1, 3), Fraction(0)), (Fraction(1), Fraction(1)), ZERO]
    units = [ZERO, ONE, MINUS, (Fraction(0), Fraction(1))]
    evens = [s.name for s in t.symbols if s.parity == EVEN]
    odd = next(s.name for s in t.symbols if s.parity == ODD)
    f = draw_poly(t, rng)
    values = {n: rng.choice(units if n in BIG else small) for n in rng.sample(evens, min(len(evens), 8))}
    inputs = {n: as_input(c, rng) for n, c in values.items()} | {odd: 1}
    yield (lambda: encode(t, f).eval_even(inputs),
           lambda: eval_even(f, {t.symbol(n).index: c for n, c in values.items()}))


def _some_evens(t, rng):
    """Two even names, and x39, whose power reaches the budget, if t has it."""
    evens = [s.name for s in t.symbols if s.parity == EVEN]
    return rng.sample(evens, min(len(evens), 2)) + [n for n in ("x39",) if n in t]


@case(30)
def case_diff_even(t, rng):
    f = draw_poly(t, rng)
    for name in _some_evens(t, rng):
        yield lambda: encode(t, f).diff_even(name), lambda: diff_even(f, t.symbol(name).index)


@case(30)
def case_jet_at(t, rng):
    """f(m) and the first partials at m in one pass, against the constant
    terms of eval_even and of diff_even then eval_even: values as in
    eval_even, half of the time on every even symbol, half of the
    polynomials free of odd symbols, and names with and without a value,
    the even symbols of one term among them.  Each value comes in the
    stored form, 0 included."""
    small = [(Fraction(2), Fraction(0)), (Fraction(-1, 3), Fraction(0)), (Fraction(1), Fraction(1)), ZERO]
    units = [ZERO, ONE, MINUS, (Fraction(0), Fraction(1))]
    evens = [s.name for s in t.symbols if s.parity == EVEN]
    odd = next(s.name for s in t.symbols if s.parity == ODD)
    f = draw_poly(t, rng, density=0 if rng.random() < 0.5 else None)
    named = evens if rng.random() < 0.5 else rng.sample(evens, min(len(evens), 8))
    values = {n: rng.choice(units if n in BIG else small) for n in named}
    inputs = {n: as_input(c, rng) for n, c in values.items()} | {odd: 1}
    at = {t.symbol(n).index: c for n, c in values.items()}
    names = _some_evens(t, rng)
    if f:
        names += [t.symbols[i].name for i, _ in rng.choice(list(f))[0] if t.symbols[i].name not in names]

    def run():
        value, partials = encode(t, f).jet_at(inputs, names)
        return [(pair(v), type(v) is int or v.parts()[1:] != (0, 1)) for v in [value, *partials]]

    def model():
        parts = [f] + [diff_even(f, t.symbol(n).index) for n in names]
        return [(eval_even(p, at).get(((), ()), ZERO), True) for p in parts]
    yield run, model


@case(30)
def case_integrate_even(t, rng):
    """Rational bounds in either order; a power above MAX_DEGREE is
    refused."""
    f = draw_poly(t, rng)
    lo, hi = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
    bounds = [as_input((b, Fraction(0)), rng) for b in (lo, hi)]
    for name in _some_evens(t, rng):
        yield (lambda: encode(t, f).integrate_even(name, *bounds),
               lambda: integrate_even(f, t.symbol(name).index, lo, hi))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("op", CASES)
def test_against_the_model(op, kind):
    """Each draw of one case on one table; a failing draw reruns alone."""
    t = model_table(kind)
    run_case, count = CASES[op]
    for draw in range(count):
        seed = f"{op}-{kind}"
        where = (f"seed {seed!r} draw {draw}; rerun alone: for run, model in CASES[{op!r}][0]"
                 f"(model_table({kind!r}), random.Random('{seed}:{draw}')): check('', run, model)")
        for run, model in run_case(t, random.Random(f"{seed}:{draw}")):
            check(where, run, model)


def test_the_draws_reach_every_range():
    """The product draws repeat early and late, nilpotent and Clifford
    generators, and on the wide table hold powers at MAX_EXPONENT with keys
    over 1300 bits."""
    for kind in KINDS:
        t = model_table(kind)
        late = {s.index for s in t.symbols if s.name.startswith("late")}
        seen = collections.Counter()
        for draw in range(CASES["product"][1]):
            a, b = product_operands(t, random.Random(f"product-{kind}:{draw}"))
            for (_, o1), (_, o2) in itertools.product(a, b):
                seen.update((i in late, t.symbols[i].square) for i in set(o1) & set(o2))
            seen["top"] += any(p == MAX_EXPONENT for ev, _ in a for _, p in ev)
            seen["wide key"] += any(ev.bit_length() > 1300 for ev, _ in encode(t, a).terms)
        if kind == "wide":
            assert seen["top"] and seen["wide key"], seen
        else:
            assert seen[True, 0] and seen[True, 1] and seen[False, 1] and seen[False, 0] > 10, (kind, seen)


def test_product_against_transposition_oracle():
    """The product on a small table, x even and two Clifford generators
    declared before three nilpotent ones, at an odd density that repeats
    generators in most pairs of terms, against the model's adjacent
    transpositions."""
    t = SymbolTable()
    t.even_symbol("x")
    t.clifford_symbol("eps", 1)
    t.clifford_symbol("eps2", 1)
    for i in range(3):
        t.odd_symbol(f"th{i + 1}")
    rng = random.Random(61)
    for draw in range(250):
        a, b = draw_poly(t, rng, 5, density=0.5), draw_poly(t, rng, 5, density=0.5)
        check(f"draw {draw}", lambda: encode(t, a) * encode(t, b), lambda: mul(t, a, b))

# ---------------------------------------------------------------------------
# the Berezin extraction and the even integral
# ---------------------------------------------------------------------------

def test_berezin_against_derivative_oracle():
    # the top-coefficient extraction agrees with iterating the left odd
    # derivatives d/dth1, then d/dth2, ..., then d/dthk
    rng = random.Random(67)
    d = SuperDomain(even=("x",), theta=("th1", "th2", "th3"), eta=("et1", "et2"))
    derivs = [Derivation(d.table, ODD, {n: 1}, n) for n in ("th1", "th2", "th3")]
    for _ in range(150):
        f = g = encode(d.table, draw_poly(d.table, rng, 6))
        for D in derivs:
            g = D(g)
        assert berezin(d, f) == g


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
