"""Exact scalars: every `QI` operator against a (Fraction, Fraction) oracle.

Hypothesis draws the operands.  Zero and integral parts are drawn often, so
the int, Fraction and QI branches of every operator all run, in both
operand orders.  Every result must also be in canonical form: integer
parts over one positive denominator, with no factor common to all three.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from supergrass import scalars
from supergrass.scalars import QI, format_scalar, parse_scalar

parts = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                  st.builds(Fraction, st.integers(-50, 50), st.integers(1, 24)))
qis = st.builds(QI, parts, parts)
rationals = st.one_of(st.integers(-9, 9), st.integers(), parts)
operands = st.one_of(qis, rationals)

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def pair(x):
    return (x.re, x.im) if isinstance(x, QI) else (Fraction(x), Fraction(0))


def oracle(op, x, y):
    a, b = pair(x)
    c, d = pair(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def assert_canonical(q):
    a, b, d = q._a, q._b, q._d
    assert type(a) is int and type(b) is int and type(d) is int, q
    assert d > 0 and math.gcd(a, b, d) == 1, f"not in lowest terms: {(a, b, d)}"
    assert type(q.re) is Fraction and type(q.im) is Fraction


def check_operator(q, other, op, reflected):
    x, y = (other, q) if reflected else (q, other)
    assert (x == y) == (pair(x) == pair(y))
    if op == "/" and not y:
        with pytest.raises(ZeroDivisionError):
            OPS[op](x, y)
        return
    got = OPS[op](x, y)
    assert isinstance(got, QI)
    assert_canonical(got)
    assert (got.re, got.im) == oracle(op, x, y)


OPERATOR_CASES = (qis, operands, st.sampled_from(sorted(OPS)), st.booleans())


@given(*OPERATOR_CASES)
def test_operators_match_fraction_pair_oracle(q, other, op, reflected):
    check_operator(q, other, op, reflected)


@given(parts, parts)
def test_constructor_unary_operators_and_text(re, im):
    q = QI(re, im)
    assert_canonical(q)
    assert (q.re, q.im) == (re, im)
    assert QI(str(re), str(im)) == q and hash(QI(str(re), str(im))) == hash(q)
    for got, want in ((-q, (-re, -im)), (q.conjugate(), (re, -im))):
        assert_canonical(got)
        assert (got.re, got.im) == want
    for x in (q, re):
        text = format_scalar(x)
        assert parse_scalar(text) == x
        assert format_scalar(parse_scalar(text)) == text


@given(qis, st.integers(0, 7))
def test_power_matches_repeated_product(q, n):
    want = (Fraction(1), Fraction(0))
    for _ in range(n):
        want = oracle("*", QI(*want), q)
    got = q ** n
    assert isinstance(got, QI)
    assert_canonical(got)
    assert (got.re, got.im) == want
    for bad in (-1, Fraction(1, 2), q):
        with pytest.raises(TypeError):
            q ** bad


@given(parts)
def test_real_qi_compares_and_hashes_like_the_rational(r):
    q = QI(r)
    assert q == r and r == q and hash(q) == hash(r)
    if r.denominator == 1:
        assert q == int(r) and int(r) == q and hash(q) == hash(int(r))
    assert QI(r, 1) != r and r != QI(r, 1)


@given(operands, st.sampled_from([0, Fraction(0), QI(0), QI(0, 0)]))
def test_zero_divisor_raises(x, zero):
    if isinstance(x, QI) or isinstance(zero, QI):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_a_reduction_that_skips_the_gcd_is_caught(monkeypatch):
    """Negative control: results left as (a, b, d) without dividing by
    gcd(a, b, d) still have the right value, and the canonical-form check
    must see it.  The search stops at the first failure, unshrunk."""
    monkeypatch.setattr(scalars, "_reduced", scalars._qi)
    search = settings(phases=[Phase.generate])(given(*OPERATOR_CASES)(check_operator))
    with pytest.raises(AssertionError, match="not in lowest terms"):
        search()


def test_copy_deepcopy_and_pickle_keep_value_and_type():
    def pickled(x):
        return pickle.loads(pickle.dumps(x))

    for clone in (copy.copy, copy.deepcopy, pickled):
        for x in (QI(Fraction(3, 4), -2), QI(0), QI(0, Fraction(-1, 6))):
            y = clone(x)
            assert type(y) is QI and y == x and (y.re, y.im) == (x.re, x.im)


def _text_from_fractions(q):
    """format_scalar's text built from the Fraction parts."""
    re, im = q.re, q.im
    if not im:
        return str(re)
    ims = "I" if im == 1 else "-I" if im == -1 else f"{im}*I"
    return ims if not re else f"{re}{'+' if im > 0 else ''}{ims}"


@given(operands)
def test_normalize_stores_an_int_or_a_non_integral_qi(x):
    c = scalars.normalize(x)
    assert c == x and hash(c) == hash(x)
    if type(c) is QI:
        assert_canonical(c)
        assert c.im or c.re.denominator != 1
        assert scalars.normalize(c) is c
        assert format_scalar(c) == _text_from_fractions(c)
    else:
        assert type(c) is int
    p = scalars.plain(c)
    assert p == x and type(p) in ((int, Fraction) if not pair(x)[1] else (QI,))
    if isinstance(x, Fraction):
        r = scalars.ratio(6 * x.numerator, 6 * x.denominator)
        assert r == c and type(r) is type(c)
        if type(r) is QI:
            assert_canonical(r)


def test_one_reader_takes_every_rational_form_and_refuses_a_non_real_part():
    """`num_den` reads an int, a Fraction, a real QI or a string, so QI(re,
    im) takes stored-form parts as well as Fractions; a non-real part is
    not a rational, so QI and normalize refuse what num_den does not read."""
    half = QI(Fraction(1, 2))
    for re, im in ((half, 3), (Fraction(1, 2), QI(3)), ("1/2", scalars.ratio(6, 2)), ("2/4", "3")):
        assert QI(re, im).parts() == (1, 6, 2)
    assert [scalars.num_den(x) for x in (half, -4, Fraction(-6, 4), "6/4", QI(5))] == [
        (1, 2), (-4, 1), (-3, 2), (3, 2), (5, 1)]
    for bad in (QI(0, 1), QI(Fraction(1, 2), -1), 0.5, None):
        assert scalars.num_den(bad) is None
    for args in ((QI(0, 1), 0), (0, QI(1, 1)), (0.5,)):
        with pytest.raises(TypeError):
            QI(*args)
    with pytest.raises(TypeError):
        scalars.normalize(0.5)
