"""Text DSL and JSON serialization for polynomials; the derivation printer.

Grammar (PEG, whitespace-insensitive)::

    expr    <- term (('+' / '-') term)*
    term    <- factor ('*' factor)*
    factor  <- atom ('^' INT)?
    atom    <- RATIONAL / 'I' / 'ber' '(' expr ')' / NAME / '-' factor
             / '(' expr ')'
    RATIONAL <- INT ('/' INT)?
    NAME     <- [A-Za-z_][A-Za-z0-9_]*

Symbol naming convention in text: th<i> for the domain odd coordinates,
et<i> for auxiliary odd parameters, eps for the Clifford generator with
square -1, u<i> for division-algebra basis slots, field jets as phi_t,
psi1_xx.  parse/print round-trips exactly on canonical forms.  The DSL
writes polynomials only; `supergrass bracket` computes derivations and
their brackets.  Atoms nest at most MAX_NESTING deep, and a zero
denominator is a syntax error, so bad input fails with DslSyntaxError
rather than a Python error.

The tokenizer makes one regex pass and each token carries its offset into
the text; `line:col` is computed from the offset only when an error is
raised, and a bad character is reported at its own position.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .kernel import Derivation, SuperPolynomial, SymbolTable
from .scalars import QI, format_scalar, parse_scalar


class DslSyntaxError(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class UnknownSymbolError(KeyError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown symbol {name!r}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class ImagLit:
    pass


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Add:
    parts: tuple


@dataclass(frozen=True)
class Mul:
    parts: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Ber:
    arg: object


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()^*/+-])|(\S))")


def _tokenize(text):
    """(kind, text, offset) per token, then EOF at the end of the last one.
    The scan stops before trailing whitespace, where each start position
    would fail only after reading the rest of the text."""
    toks = []
    end = 0
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        g = m.lastindex
        tok, pos = m.group(g), m.start(g)
        if g == 4:
            raise DslSyntaxError(f"bad character {tok!r}", *_where(text, pos))
        toks.append(("INT" if g == 1 else "NAME" if g == 2 else tok, tok, pos))
        end = m.end()
    toks.append(("EOF", "", end))
    return toks


def _where(text, pos):
    """(line, column) of the offset pos, both from 1."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message, tok, expected=()):
        """The syntax error at token tok, its offset read as line:col."""
        return DslSyntaxError(message, *_where(self.text, tok[2]), expected)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise self.error(f"got {tok[1] or 'end of input'!r}", tok, (kind,))
        return self.next()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise self.error(f"trailing input {tok[1]!r}", tok, ("EOF",))
        return e

    def expr(self):
        parts = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            parts.append(Neg(t) if op == "-" else t)
        return parts[0] if len(parts) == 1 else Add(tuple(parts))

    def term(self):
        parts = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Mul(tuple(parts))

    def factor(self):
        a = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.peek()
            if tok[0] != "INT":
                raise self.error("exponent must be a nonnegative integer", tok, ("INT",))
            self.next()
            return Pow(a, int(tok[1]))
        return a

    def atom(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nested more than {MAX_NESTING} deep", self.peek())
        node = self._atom()
        self.depth -= 1
        return node

    def _atom(self):
        tok = self.peek()
        k, v, _ = tok
        if k == "INT":
            self.next()
            if self.peek()[0] == "/":
                self.next()
                den = self.peek()
                if den[0] != "INT":
                    raise self.error("missing denominator", den, ("INT",))
                if int(den[1]) == 0:
                    raise self.error("zero denominator", den)
                self.next()
                return Lit(Fraction(int(v), int(den[1])))
            return Lit(Fraction(int(v)))
        if k == "-":
            self.next()
            return Neg(self.factor())
        if k == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if k == "NAME":
            self.next()
            if v == "ber" and self.peek()[0] == "(":
                self.next()
                e = self.expr()
                self.expect(")")
                return Ber(e)
            if v == "I":
                return ImagLit()
            return Sym(v)
        raise self.error(f"got {v or 'end of input'!r}", tok, ("INT", "NAME", "(", "-"))


def parse(text: str):
    """Parse DSL text to an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# AST printing (exact round trip with parse)
# ---------------------------------------------------------------------------

def print_ast(node) -> str:
    return _pr(node, 0)


def _pr(node, prec):
    # precedence: 0 sum, 1 product, 2 power/unary, 3 atom
    if isinstance(node, Lit):
        s = str(node.value)
        return f"({s})" if ("/" in s and prec >= 2) else s
    if isinstance(node, ImagLit):
        return "I"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Add):
        out = _pr(node.parts[0], 1)
        for p in node.parts[1:]:
            if isinstance(p, Neg):
                out += " - " + _pr(p.arg, 1)
            else:
                out += " + " + _pr(p, 1)
        return f"({out})" if prec >= 1 else out
    if isinstance(node, Mul):
        out = "*".join(_pr(p, 2) for p in node.parts)
        return f"({out})" if prec >= 2 else out
    if isinstance(node, Pow):
        s = f"{_pr(node.base, 3)}^{node.exp}"
        return f"({s})" if prec >= 3 else s
    if isinstance(node, Neg):
        inner = _pr(node.arg, 2)
        out = f"-{inner}"
        return f"({out})" if prec >= 1 else out
    if isinstance(node, Ber):
        return f"ber({_pr(node.arg, 0)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class Context:
    """Names visible to the evaluator: a symbol table and an optional list of
    odd coordinates that ber(...) integrates out."""

    def __init__(self, table: SymbolTable, berezin_names=()):
        self.table = table
        self.berezin_names = tuple(berezin_names)

    def evaluate(self, node):
        return _eval(node, self)


def _eval(node, ctx: Context):
    t = ctx.table
    if isinstance(node, Lit):
        return t.scalar(node.value)
    if isinstance(node, ImagLit):
        return t.scalar(QI(0, 1))
    if isinstance(node, Sym):
        if node.name not in t:
            raise UnknownSymbolError(node.name)
        return t.sym(node.name)
    if isinstance(node, Add):
        return t.sum(_eval(p, ctx) for p in node.parts)
    if isinstance(node, Mul):
        vals = [_eval(p, ctx) for p in node.parts]
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out
    if isinstance(node, Pow):
        return _eval(node.base, ctx) ** node.exp
    if isinstance(node, Neg):
        return -_eval(node.arg, ctx)
    if isinstance(node, Ber):
        return _eval(node.arg, ctx).coefficient_of_odd(ctx.berezin_names)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Canonical value printing
# ---------------------------------------------------------------------------

def format_poly(p: SuperPolynomial) -> str:
    if not p.terms:
        return "0"
    chunks = []
    for (ev, od), c in p.terms_sorted():
        factors = []
        for i, e in ev:
            n = p.table.symbols[i].name
            factors.append(n if e == 1 else f"{n}^{e}")
        factors += [p.table.symbols[i].name for i in od]
        neg = False
        if isinstance(c, QI):
            cs = format_scalar(c)
            if c.im != 0 and c.re != 0:
                cs = f"({cs})"
            elif cs.startswith("-"):
                neg, cs = True, cs[1:]
        else:
            if c < 0:
                neg, c = True, -c
            cs = str(c)
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([cs] + factors)
        else:
            body = cs
        chunks.append((neg, body))
    out = ("-" if chunks[0][0] else "") + chunks[0][1]
    for neg, body in chunks[1:]:
        out += (" - " if neg else " + ") + body
    return out


def format_derivation(d: Derivation) -> str:
    if all(v.is_zero() for v in d.images.values()):
        return "0"
    chunks = []
    for i in sorted(d.images):
        v = d.images[i]
        if v.is_zero():
            continue
        name = d.table.symbols[i].name
        if v == v.table.one():
            chunks.append(f"d/d{name}")
        elif len(v.terms) == 1:
            s = format_poly(v)
            chunks.append(f"{s}*d/d{name}" if s != "-1" else f"-d/d{name}")
        else:
            chunks.append(f"({format_poly(v)})*d/d{name}")
    out = chunks[0]
    for c in chunks[1:]:
        out += " - " + c[1:] if c.startswith("-") else " + " + c
    return out


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact)
# ---------------------------------------------------------------------------

def poly_to_jsonable(p: SuperPolynomial) -> dict:
    terms = []
    for (ev, od), c in p.terms_sorted():
        terms.append(
            {
                "coeff": format_scalar(c),
                "even": {p.table.symbols[i].name: e for i, e in ev},
                "odd": [p.table.symbols[i].name for i in od],
            }
        )
    return {"terms": terms}


def poly_to_json(p: SuperPolynomial) -> str:
    return json.dumps(poly_to_jsonable(p), sort_keys=True, separators=(",", ":"))


def poly_from_jsonable(data: dict, table: SymbolTable) -> SuperPolynomial:
    return table.sum(
        table.monomial(parse_scalar(t["coeff"]), t.get("even", {}).items(), t.get("odd", []))
        for t in data["terms"])


def poly_from_json(text: str, table: SymbolTable) -> SuperPolynomial:
    return poly_from_jsonable(json.loads(text), table)
