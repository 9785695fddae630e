import random
import time
from fractions import Fraction

import pytest

from supergrass.expr_io import (Add, Context, DslSyntaxError,
                                UnknownSymbolError, format_poly, parse,
                                poly_from_json, poly_to_json, print_ast)
from supergrass.kernel import SymbolTable
from supergrass.scalars import QI
from supergrass.suites import rand_ast
from supergrass.superspace import supertime


def r11_context():
    dom, _ = supertime()
    return Context(dom.table, berezin_names=("th",))


def test_parse_basic_sum():
    ast = parse("th1*th2 + 2*x")
    assert isinstance(ast, Add)


def test_eval_and_canonical_print():
    t = SymbolTable()
    t.even_symbol("x")
    t.odd_symbol("th1")
    t.odd_symbol("th2")
    ctx = Context(t)
    val = ctx.evaluate(parse("th1*th2 + 2*x"))
    assert format_poly(val) == "2*x + th1*th2"


def test_nilpotent_prints_zero():
    t = SymbolTable()
    t.odd_symbol("th1")
    ctx = Context(t)
    assert format_poly(ctx.evaluate(parse("th1*th1"))) == "0"


def test_berezin_in_dsl():
    ctx = r11_context()
    out = ctx.evaluate(parse("ber(th*t^2 + t)"))
    assert format_poly(out) == "t^2"


def test_unknown_symbol_error():
    ctx = r11_context()
    with pytest.raises(UnknownSymbolError):
        ctx.evaluate(parse("nope + 1"))


def test_syntax_error_position():
    with pytest.raises(DslSyntaxError) as err:
        parse("2 + * 3")
    assert err.value.line == 1
    assert err.value.col == 5
    assert err.value.expected


def test_missing_paren_expected_set():
    with pytest.raises(DslSyntaxError) as err:
        parse("(1 + 2")
    assert ")" in err.value.expected


# (text, line, col, message): every error kind at the position it has
# always had, and a bad character at its own offset, past any whitespace
@pytest.mark.parametrize("text, line, col, expected", [
    ("1/", 1, 3, "missing denominator (expected one of: INT)"),
    ("3/\n x", 2, 2, "missing denominator (expected one of: INT)"),
    ("1/\n\n", 1, 3, "missing denominator (expected one of: INT)"),
    ("1/0", 1, 3, "zero denominator"),
    ("1/ 0", 1, 4, "zero denominator"),
    ("x^y", 1, 3, "exponent must be a nonnegative integer (expected one of: INT)"),
    ("x^-1", 1, 3, "exponent must be a nonnegative integer (expected one of: INT)"),
    ("x\n^\n(y)", 3, 1, "exponent must be a nonnegative integer (expected one of: INT)"),
    ("(x\n", 1, 3, "got 'end of input' (expected one of: ))"),
    ("ber(x", 1, 6, "got 'end of input' (expected one of: ))"),
    ("x + ", 1, 4, "got 'end of input' (expected one of: INT, NAME, (, -)"),
    ("x +\n  y +\n", 2, 6, "got 'end of input' (expected one of: INT, NAME, (, -)"),
    ("", 1, 1, "got 'end of input' (expected one of: INT, NAME, (, -)"),
    ("   ", 1, 1, "got 'end of input' (expected one of: INT, NAME, (, -)"),
    ("-", 1, 2, "got 'end of input' (expected one of: INT, NAME, (, -)"),
    ("2 + * 3", 1, 5, "got '*' (expected one of: INT, NAME, (, -)"),
    ("\n\n  )", 3, 3, "got ')' (expected one of: INT, NAME, (, -)"),
    ("x y", 1, 3, "trailing input 'y' (expected one of: EOF)"),
    ("1/2/3", 1, 4, "trailing input '/' (expected one of: EOF)"),
    ("(x +\n y))", 2, 4, "trailing input ')' (expected one of: EOF)"),
    ("(" * 101 + "x", 1, 101, "nested more than 100 deep"),
    (" (\n" * 120 + "x", 101, 2, "nested more than 100 deep"),
    ("x  [", 1, 4, "bad character '['"),
    ("x +\n  y $", 2, 5, "bad character '$'"),
    ("th1 *\n\t@", 2, 2, "bad character '@'"),
    ("x^\n 2.5", 2, 3, "bad character '.'"),
])
def test_syntax_error_line_and_column(text, line, col, expected):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.col, str(err.value)) == (line, col, f"{line}:{col}: {expected}")


def test_trailing_whitespace_is_not_rescanned():
    # a scan that restarted at each trailing blank would take minutes here
    start = time.process_time()
    assert parse("x" + " " * 50_000 + "\n") == parse("x")
    assert time.process_time() - start < 2


def test_ast_round_trip_random():
    rng = random.Random(99)
    for _ in range(1000):
        ast = rand_ast(rng)
        assert parse(print_ast(ast)) == ast


def test_value_round_trip_random():
    rng = random.Random(101)
    t = SymbolTable()
    t.even_symbol("x")
    t.even_symbol("y")
    t.odd_symbol("th1")
    t.odd_symbol("th2")
    t.odd_symbol("et1")
    ctx = Context(t)
    odd_names = ["th1", "th2", "et1"]
    for _ in range(300):
        p = t.zero()
        for _ in range(rng.randint(1, 5)):
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            ev = [(n, rng.randint(0, 3)) for n in ("x", "y") if rng.random() < 0.6]
            od = [n for n in odd_names if rng.random() < 0.4]
            p = p + t.monomial(coeff, ev, od)
        text = format_poly(p)
        assert ctx.evaluate(parse(text)) == p


def test_json_round_trip_bit_exact():
    rng = random.Random(103)
    t = SymbolTable()
    t.even_symbol("x")
    t.odd_symbol("th1")
    t.odd_symbol("th2")
    for _ in range(200):
        p = t.zero()
        for _ in range(rng.randint(1, 4)):
            coeff = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-3, 3)))
            ev = [("x", rng.randint(0, 3))] if rng.random() < 0.7 else []
            od = [n for n in ("th1", "th2") if rng.random() < 0.5]
            p = p + t.monomial(coeff, ev, od)
        blob = poly_to_json(p)
        q = poly_from_json(blob, t)
        assert q == p
        assert poly_to_json(q) == blob


def test_gaussian_literal():
    t = SymbolTable()
    t.even_symbol("x")
    ctx = Context(t)
    v = ctx.evaluate(parse("I*I"))
    assert v == t.scalar(-1)
    v2 = ctx.evaluate(parse("(1/2 + I)*x"))
    assert format_poly(v2) == "(1/2+I)*x"
