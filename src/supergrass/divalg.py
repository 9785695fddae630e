"""The four normed division algebras R, C, H, O with conjugation, norms and
the antisymmetric structure constants used by the super Minkowski algebras.

Elements carry coefficients over an orthonormal basis (u_1, ..., u_k) with
u_1 = 1.  The coefficients come from one of two rings: the rationals, or
the SuperPolynomials over one table, so the same arithmetic drives both
plain computations and matrix entries over a Clifford envelope.  An
element carries its ring's zero, which fills the slots a product leaves
empty.  `+` and `-` stay in one ring and refuse operands from two; `*` and
`scale` move a rational element into the ring of the other factor.

An element stores numerators over one positive int denominator: slot i is
num[i] / den.  Rational slots (an int, a Fraction or a real QI) are ints in
lowest terms, so an octonion product is integer arithmetic and one gcd.
Polynomial slots keep den as well, not reduced, since a polynomial has no
content gcd here: a rational element scaled into a Clifford envelope holds
int-coefficient polynomials over its den, and only `coeffs` and `norm_sq`
divide.  The operators are plain ring arithmetic on (num, den) and never
test the type of a coefficient.  The zero an element carries names its
ring, so an operator result is put in canonical form by its zero alone
(`_element`): one gcd under the int zero, nothing but the zero element's
den under a ring zero.  The slots themselves are read only where values
arrive from outside, side by side below the class: `_into_ring` (through
`_normal` and `_ring_zero`), by the constructor and `unit`, which takes
every slot of a polynomial element into its table, a non-real QI too, so
no raw scalar sits beside polynomial slots; `_scaler`, which
reads the scalar of `scale` once, so that `Matrix.scale` reads it once per
matrix while each entry keeps its own gcd; `_one_table`, by which `*` of two
elements over one polynomial table is one kernel call
(`SymbolTable.slot_product`, which multiplies each pair of monomials once
and adds the scalar products into the slots); and `_quotients`, by which
`coeffs` and `norm_sq` read the slot values back.

An algebra is its multiplication table, fixed at construction as rows
(`DivisionAlgebra`): rows[a][b] = (g, neg) for u_a u_b = +-u_g, 0-based.
Both products walk them, so a rational product reads rows[a] once per
left slot, with no (a, b) tuple or dict lookup per pair;
`multiplication_rows` reads them back 1-based for printing.

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

from math import gcd, lcm

from .scalars import num_den, ratio

OCTONION_TRIPLES = ((2, 3, 4), (2, 6, 7), (2, 8, 5), (3, 6, 8), (3, 5, 7), (4, 5, 6), (4, 8, 7))

_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}


class DivisionAlgebra:
    """Multiplication-table-driven algebra over basis u_1..u_k, u_1 = 1.

    The product is fixed at construction as compiled rows, rows[a][b] =
    (g, neg) 0-based for u_(a+1) u_(b+1) = (-1)^neg u_(g+1), which `*`
    walks: u_1 is the identity, every other unit squares to -1, and each
    oriented triple (a, b, c) of H or O gives u_a u_b = u_c cyclically and
    the reversed products with the opposite sign.
    """

    def __init__(self, which: str):
        if which not in _DIM:
            raise ValueError("algebra must be one of R, C, H, O")
        self.which = which
        self.dim = k = _DIM[which]
        self.rows = rows = [[None] * k for _ in range(k)]
        for a in range(k):
            rows[0][a] = rows[a][0] = (a, False)
            if a:
                rows[a][a] = (0, True)
        triples = {"H": ((2, 3, 4),), "O": OCTONION_TRIPLES}.get(which, ())
        for (a, b, c) in triples:
            for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                rows[x - 1][y - 1] = (z - 1, False)
                rows[y - 1][x - 1] = (z - 1, True)

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
        (c,), den, zero = _into_ring([coeff])
        num = [zero] * self.dim
        num[alpha - 1] = c
        return _element(self, num, den, zero)

    def one(self):
        return self.unit(1)


class DAElement:
    """k coefficients over the basis (u_1, ..., u_k); u_1 acts as identity.

    Slot i holds num[i] / den; den is 1 for the zero element.  `zero`,
    read from the slots (`_into_ring`), names the coefficient ring: the
    int 0 for rational slots (int, Fraction or real QI), whose numerators
    are then ints, and table.zero() when a slot is a polynomial, which
    takes every slot into the table.  Results keep it and are normalized
    by it alone (`_element`).  + and - of two rings raise TypeError; * and
    `scale` move a rational factor into the ring of the other, and * of
    two elements over one polynomial table is one kernel call.
    """

    __slots__ = ("alg", "num", "den", "zero")

    def __init__(self, alg: DivisionAlgebra, coeffs):
        if len(coeffs) != alg.dim:
            raise ValueError(f"need {alg.dim} coefficients")
        self.alg = alg
        self.num, self.den, self.zero = _into_ring(coeffs)

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
    zero element has den 1.  When `num_den` does not read a slot (a
    polynomial, or a non-real QI beside one), the slots and den are kept as
    they are, since reducing them would need the content of each slot, and
    only the zero element is put over den 1.
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
    give; any other c (a polynomial, or a non-real QI, which raises
    TypeError on rational slots) multiplies the slots over the element's
    den."""
    pq = num_den(c)
    if pq is None:
        def scaled(e):
            zero = c * e.zero
            if getattr(zero, "table", None) is None:
                raise TypeError("a non-real scalar scales an element with polynomial slots only")
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
    """The zero of the first polynomial slot's table, else the int 0."""
    return next((c.table.zero() for c in slots if getattr(c, "table", None) is not None), 0)


def _into_ring(coeffs):
    """(num, den, zero) of slot values from outside: under a polynomial
    zero every slot is taken into its table (zero + slot), so a polynomial
    over another table raises TableMismatchError; under the int zero a
    non-real QI slot raises TypeError."""
    num, den = _normal(coeffs, 1)
    zero = _ring_zero(coeffs)
    if type(zero) is not int:
        return [zero + n if n else zero for n in num], den, zero
    if not all(type(n) is int for n in num):
        raise TypeError("a non-real QI slot needs a polynomial slot beside it")
    return num, den, zero


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


# Singletons, whose rows are never written; a test that edits a table edits
# the rows of an algebra of its own, DivisionAlgebra(which).
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
    """(a, b, gamma, sign) rows of the table, 1-based, u_a u_b = sign u_gamma,
    a-major, for printing and JSON."""
    return [(a + 1, b + 1, g + 1, -1 if neg else 1)
            for a, row in enumerate(alg.rows) for b, (g, neg) in enumerate(row)]
