"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every table is over QQ(I): the rationals with a formal central square root
of -1 adjoined, written ``I`` and kept distinct from any imaginary unit of a
division algebra.  A QI holds three ints (a, b, d) for (a + b*I)/d, with
d > 0 and gcd(a, b, d) = 1, so every operation is integer arithmetic and at
most one gcd.  A stored coefficient is an int when it is a rational integer
and a QI otherwise, real or not; `normalize` is that one rule.
`fractions.Fraction` appears only at the edges: it is accepted as input,
`.re` and `.im` read the parts of a QI as Fractions, and `plain` turns a
real QI back into one.  Mixed int/Fraction/QI arithmetic promotes to QI,
and equal values compare and hash equal whatever their type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QI:
    """Gaussian rational (a + b*I)/d with I^2 = -1, kept as ints in lowest
    terms: d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = frac(re), frac(im)
        # two reduced fractions over the lcm of their denominators have no
        # factor common to both numerators and the lcm
        p, q = re.denominator, im.denominator
        d = lcm(p, q)
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through __setattr__
        return (QI, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring operations -------------------------------------------------
    # A QI operand is taken apart into its ints and an int or Fraction
    # operand is used through its numerator and denominator; each result
    # goes through _reduced, one gcd, but a sum with an int needs none.
    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is int:
            # a + n*d = a (mod d), so gcd(a + n*d, b, d) = gcd(a, b, d) = 1
            return _qi(a + other * d, b, d)
        if type(other) is QI:
            c, e, f = other._a, other._b, other._d
            if d == f:
                return _reduced(a + c, b + e, d)
            return _reduced(a * f + c * d, b * f + e * d, d * f)
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _reduced(a * m + n * d, b * m, d * m)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QI, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is int:
            return _reduced(a * other, b * other, d)
        if type(other) is QI:
            c, e, f = other._a, other._b, other._d
            return _reduced(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _reduced(a * n, b * n, d * m)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        """An integer power n >= 0, by squaring the parts as a Gaussian integer."""
        if type(n) is not int or n < 0:
            return NotImplemented
        a, b, x, y = 1, 0, self._a, self._b
        d = self._d ** n
        if not y:  # a real base: gcd(x, d) = 1 gives gcd(x^n, d^n) = 1
            return _qi(x ** n, 0, d)
        while n:
            if n & 1:
                a, b = a * x - b * y, a * y + b * x
            n >>= 1
            if n:
                x, y = x * x - y * y, 2 * x * y
        return _reduced(a, b, d)

    def __truediv__(self, other):
        if type(other) is QI:
            # (a + bI)/d / ((c + eI)/f) = f (a + bI)(c - eI) / (d (c^2 + e^2))
            a, b, d = self._a, self._b, self._d
            c, e, f = other._a, other._b, other._d
            n = c * c + e * e
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * n)
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if n < 0:
                n, m = -n, -m
            return _reduced(self._a * m, self._b * m, self._d * n)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QI(other) / self
        return NotImplemented

    def __neg__(self):
        return _qi(-self._a, -self._b, self._d)

    def parts(self) -> tuple:
        """The ints (a, b, d) of (a + b*I)/d: d > 0 and gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

    def conjugate(self) -> "QI":
        return _qi(self._a, -self._b, self._d)

    # -- comparisons / hashing -------------------------------------------
    # A real QI is a/d in lowest terms (gcd(a, 0, d) = gcd(a, d) = 1), so
    # it equals a rational exactly when numerator and denominator agree.
    def __eq__(self, other):
        if type(other) is QI:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im) if self._b else self.re)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_new_qi = object.__new__
_set_a = QI._a.__set__
_set_b = QI._b.__set__
_set_d = QI._d.__set__


def _qi(a: int, b: int, d: int) -> QI:
    """QI from parts already in lowest terms (no validation)."""
    q = _new_qi(QI)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _reduced(a: int, b: int, d: int) -> QI:
    """QI (a + b*I)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _qi(a, b, d)


I = QI(0, 1)


def normalize(c):
    """The stored form of an exact scalar: an int when c is a rational
    integer, otherwise a QI in lowest terms; c is an int, a Fraction, a QI
    or a string that `Fraction` reads."""
    if type(c) is int:
        return c
    if type(c) is QI:
        return c._a if not c._b and c._d == 1 else c
    c = frac(c)
    n, d = c.numerator, c.denominator
    return n if d == 1 else _qi(n, 0, d)


def ratio(n: int, d: int):
    """n/d for ints n and d > 0, in the stored form of `normalize`."""
    g = gcd(n, d)
    return n // g if g == d else _qi(n // g, 0, d // g)


def plain(c):
    """A stored coefficient as the API hands it out: a real QI as a
    Fraction, an int or a non-real QI as it is."""
    if type(c) is QI and not c._b:
        return Fraction(c._a, c._d)
    return c


def rational_part(c) -> Fraction:
    if isinstance(c, QI):
        if c._b:
            raise ValueError(f"not rational: {c}")
        return c.re
    return frac(c)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_scalar(c) -> str:
    """Canonical text form: '3', '-1/2', 'I', '1/2+3/4*I', '-I', '2-I'."""
    if type(c) is int:
        return str(c)
    if type(c) is not QI:
        return str(frac(c))
    a, b, d = c._a, c._b, c._d
    if not b:
        return _ratio_text(a, d)
    if b == d:
        ims = "I"
    elif b == -d:
        ims = "-I"
    else:
        ims = f"{_ratio_text(b, d)}*I"
    if not a:
        return ims
    sep = "+" if b > 0 else ""
    return f"{_ratio_text(a, d)}{sep}{ims}"


def parse_scalar(text: str):
    """Inverse of format_scalar (bit-exact round trip)."""
    t = text.strip()
    if "I" not in t:
        return Fraction(t)
    # split re / im on the last top-level '+' or '-' that is not leading
    body = t
    re_s, im_s = "0", body
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-*/":
            re_s, im_s = body[:k], body[k:]
            break
    im_s = im_s.replace("*I", "").replace("I", "")
    if im_s in ("", "+"):
        im = Fraction(1)
    elif im_s == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_s)
    return QI(Fraction(re_s), im)
