"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain coefficients are `fractions.Fraction`.  Complexified contexts adjoin a
formal central square root of -1, written ``I`` and kept distinct from any
imaginary unit of a division algebra; those coefficients are `QI` values.
Mixed Fraction/QI arithmetic promotes to QI, so polynomial code never has to
care which ring it is in.
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
    def __add__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        return QI(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QI(-self.re, -self.im)

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other):
        o = _as_qi(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

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


def _as_qi(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return QI(x, 0)
    return None


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
