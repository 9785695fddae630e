"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain coefficients are `int` when integral and `fractions.Fraction`
otherwise.  Complexified contexts adjoin a formal central square root of -1,
written ``I`` and kept distinct from any imaginary unit of a division
algebra; those coefficients are `QI` values.  Mixed int/Fraction/QI
arithmetic promotes to QI, and equal values compare and hash equal whatever
their type, so polynomial code never has to care which ring it is in.
"""

from __future__ import annotations

from fractions import Fraction


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QI:
    """Gaussian rational a + b*I with I^2 = -1, both parts exact Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", frac(re))
        object.__setattr__(self, "im", frac(im))

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    # -- ring operations -------------------------------------------------
    # A QI operand is taken apart directly and an int or Fraction operand is
    # used as a real part; partial products with a zero part are skipped, so
    # real times real is one Fraction product.  Results come from _qi, since
    # both parts are Fractions already.
    def __add__(self, other):
        if isinstance(other, QI):
            b, d = self.im, other.im
            return _qi(self.re + other.re, b + d if b and d else b or d)
        if isinstance(other, (int, Fraction)):
            return _qi(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QI):
            b, d = self.im, other.im
            return _qi(self.re - other.re, b - d if d else b)
        if isinstance(other, (int, Fraction)):
            return _qi(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _qi(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QI):
            a, b, c, d = self.re, self.im, other.re, other.im
            if b:
                if d:
                    return _qi(a * c - b * d, a * d + b * c)
                return _qi(a * c, b * c)
            if d:
                return _qi(a * c, a * d)
            return _qi(a * c, ZERO)
        if isinstance(other, (int, Fraction)):
            return _qi(self.re * other, self.im * other if self.im else ZERO)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _qi(self.re / other, self.im / other)
        if not isinstance(other, QI):
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _qi((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _qi(Fraction(other), ZERO) / self
        return NotImplemented

    def __neg__(self):
        return _qi(-self.re, -self.im if self.im else ZERO)

    def conjugate(self) -> "QI":
        return _qi(self.re, -self.im)

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = QI(0, 1)
ZERO = Fraction(0)
ONE = Fraction(1)

_new_qi = object.__new__
_set_re = QI.re.__set__
_set_im = QI.im.__set__


def _qi(re: Fraction, im: Fraction) -> QI:
    """QI from two parts that are Fractions already (no validation)."""
    q = _new_qi(QI)
    _set_re(q, re)
    _set_im(q, im)
    return q


def rational_part(c) -> Fraction:
    if isinstance(c, QI):
        if c.im != 0:
            raise ValueError(f"not rational: {c}")
        return c.re
    return frac(c)


def format_scalar(c) -> str:
    """Canonical text form: '3', '-1/2', 'I', '1/2+3/4*I', '-I', '2-I'."""
    if isinstance(c, QI) and c.im != 0:
        im = c.im
        if im == 1:
            ims = "I"
        elif im == -1:
            ims = "-I"
        else:
            ims = f"{im}*I"
        if c.re == 0:
            return ims
        sep = "+" if im > 0 else ""
        return f"{c.re}{sep}{ims}"
    return str(rational_part(c))


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
