"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every table is over QQ(I): the rationals with a formal central square root
of -1 adjoined, written ``I`` and kept distinct from any imaginary unit of a
division algebra.  A QI holds three ints (a, b, d) for (a + b*I)/d, with
d > 0 and gcd(a, b, d) = 1, so every operation is integer arithmetic and at
most one gcd.  Past the input edge a scalar is an int when it is a rational
integer and a QI otherwise, real or not: `normalize` is that one rule,
`ratio` builds a rational in it and `num_den` reads a rational in any form
accepted as input.  `fractions.Fraction` appears only at the edges: it is
accepted as input, `.re` and `.im` read the parts of a QI as Fractions
and `parse_scalar` reads text through it.  Mixed int/Fraction/QI
arithmetic promotes to QI, and equal values compare and hash equal
whatever their type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class QI:
    """Gaussian rational (a + b*I)/d with I^2 = -1, kept as ints in lowest
    terms: d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        x, y = num_den(re), num_den(im)
        if x is None or y is None:
            raise TypeError(f"not an exact rational: {(re if x is None else im)!r}")
        # two reduced fractions over the lcm of their denominators have no
        # factor common to both numerators and the lcm
        (a, p), (b, q) = x, y
        d = lcm(p, q)
        _set_a(self, a * (d // p))
        _set_b(self, b * (d // q))
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


def num_den(x):
    """The ints (n, d) of a rational x = n/d in lowest terms, d > 0, when x
    is an int, a Fraction, a real QI or a string that `Fraction` reads;
    None for anything else, a non-real QI included."""
    if type(x) is int:
        return x, 1
    if type(x) is QI:
        return None if x._b else (x._a, x._d)
    if isinstance(x, str):
        x = Fraction(x)
    return (x.numerator, x.denominator) if isinstance(x, (int, Fraction)) else None


I = QI(0, 1)


def normalize(c):
    """The stored form of an exact scalar: an int when c is a rational
    integer, otherwise a QI in lowest terms; c is a QI or a rational that
    `num_den` reads."""
    if type(c) is int:
        return c
    if type(c) is QI:
        return c._a if not c._b and c._d == 1 else c
    nd = num_den(c)
    if nd is None:
        raise TypeError(f"not an exact scalar: {c!r}")
    return ratio(*nd)


def ratio(n: int, d: int):
    """n/d for ints n and d > 0, in the stored form of `normalize`."""
    g = gcd(n, d)
    return n // g if g == d else _qi(n // g, 0, d // g)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_scalar(c) -> str:
    """Canonical text form: '3', '-1/2', 'I', '1/2+3/4*I', '-I', '2-I'."""
    if type(c) is int:
        return str(c)
    if type(c) is not QI:
        return _ratio_text(*num_den(c))
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
    re_s, im_s = "0", t
    for k in range(len(t) - 1, 0, -1):
        if t[k] in "+-" and t[k - 1] not in "+-*/":
            re_s, im_s = t[:k], t[k:]
            break
    im_s = im_s.replace("*I", "").replace("I", "")
    return QI(re_s, {"": 1, "+": 1, "-": -1}.get(im_s, im_s))
