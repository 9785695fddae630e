import random
import time
from fractions import Fraction

import pytest

from supergrass.expr_io import (Add, Ber, Context, DslSyntaxError, Lit, Mul, Neg, Pow, Sym,
                                UnknownSymbolError, format_poly, parse, print_ast)
from supergrass.kernel import SizeLimitError, SymbolTable
from supergrass.scalars import QI, I
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


# (text, line, col, message): inputs past ASCII and in the order of errors
@pytest.mark.parametrize("text, line, col, expected", [
    # a non-ASCII digit is a digit, but no part of a name
    ("x\u0663", 1, 2, "trailing input '\u0663' (expected one of: EOF)"),
    # a bad character anywhere wins over a parse error before it
    ("(x $", 1, 4, "bad character '$'"),
    ("x\u00b2", 1, 2, "bad character '\u00b2'"),
    ("(x" + " " * 8000, 1, 3, "got 'end of input' (expected one of: ))"),
])
def test_syntax_error_corpus(text, line, col, expected):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"{line}:{col}: {expected}"


def test_parse_corner_cases():
    t = SymbolTable()
    t.even_symbol("x")
    assert format_poly(Context(t).evaluate(parse("\u0663*x"))) == "3*x"
    # a power binds to the factor it follows, so the second one takes the negation
    assert parse("-x^2^3") == Pow(Neg(Pow(Sym("x"), 2)), 3)
    start = time.process_time()
    assert parse("x" + " " * 8000) == parse("x")
    assert time.process_time() - start < 0.5


def test_parse_reads_the_symbol_names():
    names = set()
    ast = parse("2*x*th1^2 + ber(y*I) - (ber + eps)^3", names)
    assert names == {"x", "th1", "y", "ber", "eps"}
    assert parse("2*x*th1^2 + ber(y*I) - (ber + eps)^3") == ast
    assert isinstance(ast.parts[1], Ber)


def _chain_eval(node, t, berezin_names=()):
    """Reference evaluator: every factor of a product on its own, then the
    values multiplied from left to right."""
    if isinstance(node, Lit):
        return t.scalar(node.value)
    if isinstance(node, Sym):
        return t.sym(node.name)
    if isinstance(node, Add):
        return t.sum(_chain_eval(p, t, berezin_names) for p in node.parts)
    if isinstance(node, Mul):
        out = _chain_eval(node.parts[0], t, berezin_names)
        for p in node.parts[1:]:
            out = out * _chain_eval(p, t, berezin_names)
        return out
    if isinstance(node, Pow):
        return _chain_eval(node.base, t, berezin_names) ** node.exp
    if isinstance(node, Neg):
        return -_chain_eval(node.arg, t, berezin_names)
    return _chain_eval(node.arg, t, berezin_names).coefficient_of_odd(berezin_names)


def _rand_literal(rng):
    """A factor made only of literals, which the evaluator folds into a
    coefficient: a parenthesized Gaussian sum, a literal product or a
    nested negation."""
    lits = ["2", "1/2", "3/4", "0", "1", "5/3", "1/3", "I"]
    a, b, c = (rng.choice(lits) for _ in range(3))
    q = rng.random()
    if q < 0.4:  # (1/2 - 3*I), (-2 + I), (3*I + 1/2)
        sign, op = rng.choice(["", "-"]), rng.choice(["+", "-"])
        return f"({b}*I {op} {a})" if rng.random() < 0.2 else f"({sign}{a} {op} {b}*I)"
    if q < 0.6:  # (2*3/4), (I*1/3*I)
        return f"({a}*{b}*{c})" if rng.random() < 0.5 else f"({a}*{b})"
    if q < 0.8:  # (-(1/3)), (-(-I))
        return f"(-({a}))" if rng.random() < 0.5 else f"(-(-{a}*{b}))"
    return f"-({a} - {b})"


def _rand_product(rng, depth=0):
    """A product of atoms (literals, I, symbols, powers of even symbols,
    power 0, names repeated) with now and then a literal factor that folds
    into the coefficient, or a factor that is neither; a nested sum holds
    negated products such as -(2*x*th1)."""
    atoms = ["2", "3/4", "0", "1", "5/3", "I", "x", "y", "th1", "th2", "th3", "eps",
             "x^0", "y^3", "x^2"]
    others = ["-th2", "-2", "th1^2", "eps^3", "I^2", "(3/2)^2", "2^3", "(1 - I)^2"]
    parts = []
    for _ in range(rng.randint(1, 7)):
        q = rng.random()
        if q < 0.6:
            parts.append(rng.choice(atoms))
        elif q < 0.75:
            parts.append(_rand_literal(rng))
        elif q < 0.9 or depth > 1:
            parts.append(rng.choice(others))
        else:
            inner = _rand_product(rng, depth + 1)
            for _ in range(rng.randint(0, 2)):
                term = _rand_product(rng, depth + 1)
                if rng.random() < 0.3:
                    inner += f" + -({term})"
                else:
                    inner += f" {rng.choice('+-')} {term}"
            parts.append(f"ber({inner})" if rng.random() < 0.2 else f"({inner})")
    return "*".join(parts)


def test_product_of_atoms_against_the_chain():
    t = SymbolTable()
    for n in ("x", "y"):
        t.even_symbol(n)
    t.odd_symbol("th1")
    t.clifford_symbol("eps", 1)
    t.odd_symbol("th2")
    t.odd_symbol("th3")
    ctx = Context(t, berezin_names=("th1",))
    rng = random.Random(37)
    for _ in range(1500):
        text = _rand_product(rng)
        node = parse(f"-({text})" if rng.random() < 0.2 else text)
        got, want = ctx.evaluate(node), _chain_eval(node, t, ("th1",))
        assert got == want and got.terms == want.terms, print_ast(node)
        assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]
    t.odd_symbol("th4")
    assert format_poly(ctx.evaluate(parse("th1*(th2+th3)*th4"))) == "th1*th2*th4 + th1*th3*th4"
    assert format_poly(ctx.evaluate(parse("2*th2*th1*3/4"))) == "-3/2*th1*th2"
    with pytest.raises(UnknownSymbolError):
        ctx.evaluate(parse("2*x*z^2"))
    # a power is never folded, so the coefficient budget still guards it
    with pytest.raises(SizeLimitError):
        ctx.evaluate(parse("3*x*(2^9999)^9999"))


def test_gaussian_literal():
    t = SymbolTable()
    t.even_symbol("x")
    ctx = Context(t)
    v = ctx.evaluate(parse("I*I"))
    assert v == t.scalar(-1)
    v2 = ctx.evaluate(parse("(1/2 + I)*x"))
    assert format_poly(v2) == "(1/2+I)*x"
    assert parse("I") == Lit(I)
    for text in ("I", "2*I*x", "(1/2 + I)^2", "x - I", "I^3*(x + I)"):
        assert print_ast(parse(text)) == text


def test_literals_are_ints_or_qis_in_lowest_terms():
    assert type(parse("3").value) is int and parse("3").value == 3
    assert parse("6/4") == Lit(Fraction(3, 2)) and hash(parse("6/4")) == hash(Lit(Fraction(3, 2)))
    assert type(parse("6/4").value) is QI
    assert type(parse("4/2").value) is int and parse("4/2").value == 2
    assert parse("0/5") == Lit(0) and type(parse("0/5").value) is int
    for text, printed in (("3", "3"), ("6/4", "3/2"), ("4/2", "2"), ("(6/4)^2", "(3/2)^2"),
                          ("-3/2*x", "(-(3/2))*x"), ("2/4*x^3 - 0/5", "(1/2)*x^3 - 0"),
                          ("ber(6/4*th1)", "ber((3/2)*th1)"), ("x*(1/3 + I)", "x*(1/3 + I)")):
        assert print_ast(parse(text)) == printed
        assert parse(printed) == parse(text)
