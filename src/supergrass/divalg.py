"""The four normed division algebras R, C, H, O with conjugation, norms and
the antisymmetric structure constants used by the super Minkowski algebras.

Elements carry coefficients over an orthonormal basis (u_1, ..., u_k) with
u_1 = 1.  The coefficients come from any ring whose elements support +, - and
* and test false exactly when zero: exact scalars, or SuperPolynomials over
one table, so the same arithmetic drives both plain computations and matrix
entries over a Clifford envelope.  An element carries its ring's zero, which
fills the slots a product leaves empty.  `+` and `-` stay in one ring and
refuse operands from two; `*` and `scale` move a rational element into the
ring of the other factor.

An element stores numerators over one positive int denominator: slot i is
num[i] / den.  Rational slots (an int, a Fraction or a real QI) are ints in
lowest terms, so an octonion product is integer arithmetic and one gcd.
Ring-valued slots (a non-real QI, a SuperPolynomial) keep den as well,
not reduced, since a ring slot has no content gcd here: a rational element
scaled into a Clifford envelope holds int-coefficient polynomials over its
den, and only `coeffs` and `norm_sq` divide.  The operators are plain
ring arithmetic on (num, den) and never test the type of a coefficient.
The zero an element carries names its ring, so an operator result is put
in canonical form by its zero alone (`_element`): one gcd under the int
zero, nothing but the zero element's den under a ring zero.  The slots
themselves are read only where values arrive from outside, side by side
below the class: `_normal` and `_ring_zero`, by the constructor and
`unit`; `_scaler`, which reads the scalar of `scale` once, so that
`Matrix.scale` reads it once per matrix while each entry keeps its own
gcd; `_one_table`, by which `*` of two elements over one polynomial table
is one kernel call (`SymbolTable.slot_product`, which multiplies each pair
of monomials once and adds the scalar products into the slots); and
`_quotients`, by which `coeffs` and `norm_sq` read the slot values back.

Both products walk the table compiled into rows (`DivisionAlgebra`), so
a rational product reads rows[a] once per left slot, with no (a, b) tuple
or dict lookup per pair.

Octonion convention.  The multiplication table is the one pinned down by the
required pairings u_1u_2 = u_3u_4 = u_6u_7 = u_8u_5 = u_2 together with the
central-charge table of the ten-to-four dimensional reduction; these force
the seven oriented triples

    (2,3,4) (2,6,7) (2,8,5) (3,6,8) (3,5,7) (4,5,6) (4,8,7)

with u_a u_b = u_c cyclically on each triple.  The triples form a Fano plane
and the algebra they generate is checked (alternative, norm multiplicative)
in the test suite.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from math import gcd, lcm

from .scalars import num_den, ratio

OCTONION_TRIPLES = ((2, 3, 4), (2, 6, 7), (2, 8, 5), (3, 6, 8), (3, 5, 7), (4, 5, 6), (4, 8, 7))

_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}


class DivisionAlgebra:
    """Multiplication-table-driven algebra over basis u_1..u_k, u_1 = 1.

    The product is held as compiled rows, rows[a][b] = (g, neg) 0-based
    for u_(a+1) u_(b+1) = (-1)^neg u_(g+1), which `*` walks.  `table` is
    the mapping (a, b) -> (c, +-1) over those rows, not a copy: writing an
    entry writes its row, and assigning a mapping rebuilds the rows, so an
    edit reaches every later product and there is no cache to invalidate.
    """

    def __init__(self, which: str):
        if which not in _DIM:
            raise ValueError("algebra must be one of R, C, H, O")
        self.which = which
        self.dim = _DIM[which]
        self.table = self._build_table()

    @property
    def table(self) -> "_Table":
        return _Table(self)

    @table.setter
    def table(self, mapping):
        k = self.dim
        self.rows = [[_compiled(k, a, b, mapping[a, b]) for b in range(1, k + 1)]
                     for a in range(1, k + 1)]

    def _build_table(self):
        k = self.dim
        tab = {}
        for a in range(1, k + 1):
            tab[(1, a)] = (a, 1)
            tab[(a, 1)] = (a, 1)
        for a in range(2, k + 1):
            tab[(a, a)] = (1, -1)
        if self.which == "H":
            self._orient(tab, 2, 3, 4)
        elif self.which == "O":
            for (a, b, c) in OCTONION_TRIPLES:
                self._orient(tab, a, b, c)
        return tab

    @staticmethod
    def _orient(tab, a, b, c):
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            tab[(x, y)] = (z, 1)
            tab[(y, x)] = (z, -1)

    # -- element helpers -------------------------------------------------
    def element(self, coeffs) -> "DAElement":
        return DAElement(self, list(coeffs))

    # zero_like and unit know the ring before they build, so they skip the
    # constructor's slot reads: unit reads its one coefficient only.
    def zero_like(self, zero=0) -> "DAElement":
        return _element(self, [zero] * self.dim, 1, zero)

    def unit(self, alpha: int, coeff=1) -> "DAElement":
        if not 1 <= alpha <= self.dim:
            raise ValueError(f"unit index {alpha} is outside 1..{self.dim}")
        zero = _ring_zero([coeff])
        (c,), den = _normal([coeff], 1)
        num = [zero] * self.dim
        num[alpha - 1] = c
        return _element(self, num, den, zero)

    def one(self):
        return self.unit(1)


class _Table(MutableMapping):
    """`DivisionAlgebra.table`: the entries (a, b) -> (c, +-1), 1-based,
    read from and written to the algebra's compiled rows.  Every entry of
    a product table is present, so none can be deleted."""

    __slots__ = ("alg",)

    def __init__(self, alg):
        self.alg = alg

    def _cell(self, ab):
        a, b = ab
        k = self.alg.dim
        if not (1 <= a <= k and 1 <= b <= k):
            raise KeyError(ab)
        return a - 1, b - 1

    def __getitem__(self, ab):
        a, b = self._cell(ab)
        g, neg = self.alg.rows[a][b]
        return g + 1, -1 if neg else 1

    def __setitem__(self, ab, entry):
        a, b = self._cell(ab)
        self.alg.rows[a][b] = _compiled(self.alg.dim, a + 1, b + 1, entry)

    def __delitem__(self, ab):
        raise TypeError("a product table has every entry; write a new one instead")

    def __iter__(self):
        k = self.alg.dim
        return ((a, b) for a in range(1, k + 1) for b in range(1, k + 1))

    def __len__(self):
        return self.alg.dim ** 2


def _compiled(k, a, b, entry):
    """The row entry (g, neg) of u_a u_b = s u_c, entry = (c, s)."""
    c, s = entry
    if not 1 <= c <= k:
        raise ValueError(f"product u_{a} u_{b} = u_{c} is outside the basis")
    return c - 1, s < 0


class DAElement:
    """k coefficients over the basis (u_1, ..., u_k); u_1 acts as identity.

    Slot i holds num[i] / den, in every ring; den is 1 for the zero
    element.  `zero` names the coefficient ring: the int 0 for rational
    slots (int, Fraction or real QI), whose numerators are then ints, a QI
    zero when a slot is a non-real QI and table.zero() for polynomial
    ones.  Results keep it and are normalized by it alone (`_element`).
    Left out, it is read from the slots (`_ring_zero`); passed in, the int
    0 with a non-real QI or polynomial slot raises TypeError.  + and - of
    two rings raise TypeError; * and `scale` move a rational factor into
    the ring of the other, and * of two elements over one polynomial table
    makes each slot one kernel sum of signed products.
    """

    __slots__ = ("alg", "num", "den", "zero")

    def __init__(self, alg: DivisionAlgebra, coeffs, zero=None):
        if len(coeffs) != alg.dim:
            raise ValueError(f"need {alg.dim} coefficients")
        self.alg = alg
        self.num, self.den = _normal(coeffs, 1)
        if zero is None:
            zero = _ring_zero(coeffs)
        elif type(zero) is int and not all(type(n) is int for n in self.num):
            raise TypeError("the int zero names rational slots; pass the zero of the slots' ring")
        self.zero = zero

    @property
    def coeffs(self) -> list:
        """The slot values num[i] / den: ints and real QIs for rational slots."""
        if self.den == 1:
            return self.num
        return _quotients(self.num, self.den)

    def _check(self, other):
        if self.alg.which != other.alg.which:
            raise ValueError("division-algebra tag mismatch")

    def _same_ring(self, other):
        """Refuse a sum or difference across two algebras or two rings."""
        self._check(other)
        if type(self.zero) is not type(other.zero):
            raise TypeError("+ or - of division-algebra elements over two coefficient rings")

    # + and - skip zero operands and zero slots of two elements in one ring:
    # a zero side gives the other.  Over one denominator the numerators add;
    # over two they cross-multiply.
    def __add__(self, other):
        self._same_ring(other)
        if not other:
            return self
        if not self:
            return other
        d, e = self.den, other.den
        if d == e:
            return _element(self.alg, [a + b if a and b else a or b
                                       for a, b in zip(self.num, other.num)], d, self.zero)
        return _element(self.alg, [a * e + b * d for a, b in zip(self.num, other.num)],
                        d * e, self.zero)

    def __sub__(self, other):
        self._same_ring(other)
        if not other:
            return self
        if not self:
            return -other
        d, e = self.den, other.den
        if d == e:
            return _element(self.alg, [(a - b if a else -b) if b else a
                                       for a, b in zip(self.num, other.num)], d, self.zero)
        return _element(self.alg, [a * e - b * d for a, b in zip(self.num, other.num)],
                        d * e, self.zero)

    def __neg__(self):
        return _element(self.alg, [-a for a in self.num], self.den, self.zero)

    def scale(self, c):
        """c * a on every slot, c on the left; the result lives in the ring
        of c * zero, so a polynomial c moves rational slots into its table,
        over their den."""
        return _scaler(c)(self)

    def scaler(self, c):
        """The map e -> e.scale(c) on elements, with c read once, so that
        `Matrix.scale` reads its scalar once per matrix."""
        return _scaler(c)

    def __mul__(self, other):
        """Table-driven bilinear product; coefficient order is preserved, so
        odd (Grassmann-valued) coefficients pick up their own signs.  The
        product lives in the ring of the product of the two zeros, over the
        product of the two denominators.  Over one polynomial table
        (`_one_table`) the whole product is one kernel call,
        `SymbolTable.slot_product`, which multiplies each pair of monomials
        once; scalar rings, whose products are cheap, add pair by pair
        along the compiled rows, walking the nonzero slots only."""
        self._check(other)
        rows = self.alg.rows
        table = _one_table(self.zero, other.zero)
        if table is not None:
            z = self.zero
            return _element(self.alg, table.slot_product(rows, self.num, other.num, z),
                            self.den * other.den, z)
        out = [None] * self.alg.dim
        right = [(b, cb) for b, cb in enumerate(other.num) if cb]
        for a, ca in enumerate(self.num):
            if not ca:
                continue
            row = rows[a]
            for b, cb in right:
                g, neg = row[b]
                v = ca * cb
                if neg:
                    v = -v
                t = out[g]
                out[g] = v if t is None else t + v
        z = self.zero * other.zero
        return _element(self.alg, [z if c is None else c for c in out], self.den * other.den, z)

    def conj(self) -> "DAElement":
        return _element(self.alg, [self.num[0]] + [-c for c in self.num[1:]], self.den, self.zero)

    def re(self) -> "DAElement":
        """(a + conj a)/2 as an element (purely real)."""
        z = self.zero
        return _element(self.alg, [self.num[0]] + [z] * (self.alg.dim - 1), self.den, z)

    def im(self) -> "DAElement":
        return _element(self.alg, [self.zero] + self.num[1:], self.den, self.zero)

    def norm_sq(self):
        """a * conj(a); returns the u_1 coefficient after checking the
        imaginary part vanishes."""
        p = self * self.conj()
        if any(p.num[1:]):
            raise ArithmeticError("norm_sq has a nonzero imaginary part")
        return _quotients(p.num[:1], p.den)[0]

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, DAElement):
            return NotImplemented
        if self.alg.which != other.alg.which:
            return False
        d, e = self.den, other.den
        if d == e:
            return self.num == other.num
        return all(a * e == b * d for a, b in zip(self.num, other.num))

    def __hash__(self):
        raise TypeError("DAElement is unhashable")

    def __repr__(self):
        return f"DA({self.alg.which}: {', '.join(map(str, self.coeffs))})"


def _normal(num: list, den: int):
    """The canonical (num, den) for the slot values num[i] / den of values
    that arrive from outside: the constructor's slots and the coefficient
    of `unit`.  `_scaler` gives the scalar of `scale` the form that
    _normal([c], den) gives it, with c read once.  Operator results skip
    it, since their zero names the ring (`_element`).

    Rational slots (int, Fraction or real QI, read by `scalars.num_den`)
    come back as ints over a positive den with gcd(den, *num) = 1, so the
    zero element has den 1.  A slot that `num_den` does not read (a
    non-real QI, a SuperPolynomial) is ring-valued: then the slots and den
    are kept as they are, since reducing them would need the content of
    each slot, and only the zero element is put over den 1.
    """
    pairs = [num_den(n) for n in num]
    if None in pairs:
        return num, den if den == 1 or any(num) else 1
    m = lcm(*[d for _, d in pairs])
    num = [n * (m // d) for n, d in pairs]
    den *= m
    g = gcd(den, *num)
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return num, den


def _quotients(num, den):
    """The values n / den of the numerators num: `ratio(n, den)` when every
    numerator is an int (rational slots), else n * (1/den), which any ring
    with rational scalars accepts."""
    if all(type(n) is int for n in num):
        return [ratio(n, den) for n in num]
    inv = ratio(1, den)
    return [n * inv for n in num]


def _one_table(z1, z2):
    """The symbol table both ring zeros are polynomials over, or None; the
    test `DAElement.__mul__` makes to multiply in the kernel.  Read as an
    attribute, so this module imports nothing from the kernel."""
    table = getattr(z1, "table", None)
    return table if table is not None and getattr(z2, "table", None) is table else None


def _scaler(c):
    """e -> e.scale(c), c read once: a rational c as p/q, after which each
    element keeps its own gcd of p with its den times q, as `_normal` would
    give; a ring-valued c (a non-real QI, a SuperPolynomial) multiplies the
    slots over the element's den."""
    pq = num_den(c)
    if pq is None:
        def scaled(e):
            zero = c * e.zero
            return _element(e.alg, [c * a if a else zero for a in e.num], e.den, zero)
        return scaled
    p, q = pq

    def scaled(e):
        n, d = p, e.den * q
        g = gcd(d, n)
        if g != 1:
            n //= g
            d //= g
        zero = n * e.zero
        return _element(e.alg, [n * a if a else zero for a in e.num], d, zero)
    return scaled


def _ring_zero(slots):
    """The zero of the ring the slots live in: a slot that `num_den` does
    not read (a non-real QI, a SuperPolynomial) names the ring; rational
    slots have the int 0."""
    return next((c - c for c in slots if num_den(c) is None), 0)


def _element(alg: DivisionAlgebra, num: list, den: int, zero) -> DAElement:
    """The element num / den of an operator result, or of `zero_like` and
    `unit`, built without the constructor's length check.  Its ring is the
    ring of `zero`, so the slots are not read: under the int zero every numerator is an int, and
    one gcd puts them in lowest terms; under a ring zero num and den are
    kept, and only the zero element is put over den 1, as `_normal` does."""
    if type(zero) is int:
        g = gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    elif den != 1 and not any(num):
        den = 1
    e = object.__new__(DAElement)
    e.alg = alg
    e.num = num
    e.den = den
    e.zero = zero
    return e


# Singletons, whose tables are never written; an edited table belongs on an
# algebra of its own, DivisionAlgebra(which).
R = DivisionAlgebra("R")
C = DivisionAlgebra("C")
H = DivisionAlgebra("H")
O = DivisionAlgebra("O")

ALGEBRAS = {"R": R, "C": C, "H": H, "O": O}


def algebra(tag: str) -> DivisionAlgebra:
    try:
        return ALGEBRAS[tag]
    except KeyError:
        raise ValueError("algebra must be one of R, C, H, O") from None


def gamma_constants(alg: DivisionAlgebra) -> dict:
    """Structure constants G[(alpha, beta, gamma)] defined by
    (u_a conj(u_b) - u_b conj(u_a))/2 = sum_g G u_g.

    Antisymmetric in (alpha, beta); zero unless gamma >= 2.
    """
    out = {}
    k = alg.dim
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            ua, ub = alg.unit(a), alg.unit(b)
            val = (ua * ub.conj() - ub * ua.conj()).scale(ratio(1, 2)).coeffs
            if val[0]:
                raise ArithmeticError("antisymmetrized product has a real part")
            for g in range(2, k + 1):
                c = val[g - 1]
                if c:
                    out[(a, b, g)] = c
    return out


def multiplication_rows(alg: DivisionAlgebra):
    """(a, b, gamma, sign) rows of the table, for printing and JSON."""
    rows = []
    for a in range(1, alg.dim + 1):
        for b in range(1, alg.dim + 1):
            g, s = alg.table[(a, b)]
            rows.append((a, b, g, s))
    return rows
