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

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()^*/+-]))")


def _tokenize(text):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            nl = text.count("\n", 0, pos)
            lastnl = text.rfind("\n", 0, pos)
            raise DslSyntaxError(f"bad character {rest[0]!r}", nl + 1, pos - lastnl, ())
        ws = text[pos:m.start(m.lastindex)]
        for ch in ws:
            if ch == "\n":
                line, col = line + 1, 1
            else:
                col += 1
        tok = m.group(m.lastindex)
        kind = "INT" if m.lastindex == 1 else ("NAME" if m.lastindex == 2 else tok)
        toks.append((kind, tok, line, col))
        col += len(tok)
        pos = m.end()
    toks.append(("EOF", "", line, col))
    return toks


MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        k, v, ln, col = self.peek()
        if k != kind:
            raise DslSyntaxError(f"got {v or 'end of input'!r}", ln, col, (kind,))
        return self.next()

    def parse(self):
        e = self.expr()
        k, v, ln, col = self.peek()
        if k != "EOF":
            raise DslSyntaxError(f"trailing input {v!r}", ln, col, ("EOF",))
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
            k, v, ln, col = self.peek()
            if k != "INT":
                raise DslSyntaxError("exponent must be a nonnegative integer", ln, col, ("INT",))
            self.next()
            return Pow(a, int(v))
        return a

    def atom(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            _, _, ln, col = self.peek()
            raise DslSyntaxError(f"nested more than {MAX_NESTING} deep", ln, col)
        node = self._atom()
        self.depth -= 1
        return node

    def _atom(self):
        k, v, ln, col = self.peek()
        if k == "INT":
            self.next()
            if self.peek()[0] == "/":
                self.next()
                k2, v2, l2, c2 = self.peek()
                if k2 != "INT":
                    raise DslSyntaxError("missing denominator", l2, c2, ("INT",))
                if int(v2) == 0:
                    raise DslSyntaxError("zero denominator", l2, c2)
                self.next()
                return Lit(Fraction(int(v), int(v2)))
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
        raise DslSyntaxError(
            f"got {v or 'end of input'!r}", ln, col, ("INT", "NAME", "(", "-")
        )


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
        out = t.zero()
        for p in node.parts:
            out = out + _eval(p, ctx)
        return out
    if isinstance(node, Mul):
        vals = [_eval(p, ctx) for p in node.parts]
        out = t.one()
        for v in vals:
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
    out = table.zero()
    for t in data["terms"]:
        coeff = parse_scalar(t["coeff"])
        even = [(name, e) for name, e in t.get("even", {}).items()]
        odd = list(t.get("odd", []))
        out = out + table.monomial(coeff, even, odd)
    return out


def poly_from_json(text: str, table: SymbolTable) -> SuperPolynomial:
    return poly_from_jsonable(json.loads(text), table)
