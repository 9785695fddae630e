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

The tokenizer is one `findall` that gives plain token strings, with "" for
the end of input; one `search` before it reports the first bad character
at its own position.  Offsets are found only when an error is raised, by
scanning the tokens again up to the one that failed.  The parser hands back
the names it read as symbols, and the evaluator builds each run of symbol
factors of a product as one `SymbolTable.monomial` term.  A factor made
only of literals joined by +, - and * (such as (1/2 - 3*I) or (2*3/4)) and
the sign of a negated product fold into the coefficient of that term, so
neither is evaluated as a polynomial; a power never folds, so the
coefficient budget of `SuperPolynomial.__pow__` still guards it.  The
printers refuse a coefficient with an int part over `MAX_PRINT_BITS`
(SizeLimitError) before `str(int)` would fail on it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .kernel import EVEN, Derivation, SizeLimitError, SuperPolynomial, SymbolTable
from .scalars import QI, I, format_scalar, parse_scalar, ratio


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
    value: object  # an int, a QI in lowest terms (`scalars.ratio`), or the formal I


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

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[()^*/+-]|\S")
_BAD = re.compile(r"[^\s\dA-Za-z_()^*/+-]")


def _where(text, pos):
    """(line, column) of the offset pos, both from 1."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token strings of `_TOKEN`, "" at the end.
    `syms` maps each name read as a symbol to its one `Sym` node."""

    def __init__(self, text):
        bad = _BAD.search(text)
        if bad:
            raise DslSyntaxError(f"bad character {bad.group()!r}", *_where(text, bad.start()))
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]
        self.i = 0
        self.depth = 0
        self.syms = {}

    def error(self, message, i, expected=()):
        """The syntax error at token i, its offset (the end of the last token
        for the end of input) read as line:col."""
        pos = 0
        for j, m in enumerate(_TOKEN.finditer(self.text)):
            if j == i:
                pos = m.start()
                break
            pos = m.end()
        return DslSyntaxError(message, *_where(self.text, pos), expected)

    def parse(self):
        e = self.expr()
        tok = self.toks[self.i]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.i, ("EOF",))
        return e

    def expr(self):
        parts = [self.term()]
        toks = self.toks
        while toks[self.i] in ("+", "-"):
            op = toks[self.i]
            self.i += 1
            t = self.term()
            parts.append(Neg(t) if op == "-" else t)
        return parts[0] if len(parts) == 1 else Add(tuple(parts))

    def term(self):
        parts = [self.factor()]
        while self.toks[self.i] == "*":
            self.i += 1
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Mul(tuple(parts))

    def factor(self):
        toks, i = self.toks, self.i
        tok = toks[i]
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nested more than {MAX_NESTING} deep", i)
        self.i = i + 1
        if tok.isdigit():
            if toks[i + 1] == "/":
                den = toks[i + 2]
                if not den.isdigit():
                    raise self.error("missing denominator", i + 2, ("INT",))
                if int(den) == 0:
                    raise self.error("zero denominator", i + 2)
                self.i = i + 3
                node = Lit(ratio(int(tok), int(den)))
            else:
                node = Lit(int(tok))
        elif tok == "-":
            node = Neg(self.factor())
        elif tok == "(" or tok == "ber" and toks[i + 1] == "(":
            self.i = i + (2 if tok == "ber" else 1)
            node = self.expr()
            if toks[self.i] != ")":
                raise self.error(f"got {toks[self.i] or 'end of input'!r}", self.i, (")",))
            self.i += 1
            if tok == "ber":
                node = Ber(node)
        elif tok == "I":
            node = Lit(I)
        elif tok.isidentifier():  # a NAME: the only other tokens are ops and ""
            node = self.syms.get(tok)
            if node is None:
                node = self.syms[tok] = Sym(tok)
        else:
            raise self.error(f"got {tok or 'end of input'!r}", i, ("INT", "NAME", "(", "-"))
        self.depth -= 1
        if toks[self.i] == "^":
            self.i += 1
            exp = toks[self.i]
            if not exp.isdigit():
                raise self.error("exponent must be a nonnegative integer", self.i, ("INT",))
            self.i += 1
            return Pow(node, int(exp))
        return node


def parse(text: str, names=None):
    """Parse DSL text to an AST; the name of every symbol read goes into the
    set `names` when one is given."""
    parser = _Parser(text)
    node = parser.parse()
    if names is not None:
        names.update(parser.syms)
    return node


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
    if isinstance(node, Sym):
        if node.name not in t:
            raise UnknownSymbolError(node.name)
        return t.sym(node.name)
    if isinstance(node, Add):
        return t.sum(_eval(p, ctx) for p in node.parts)
    if isinstance(node, Mul):
        return _eval_mul(node.parts, ctx)
    if isinstance(node, Pow):
        return _eval(node.base, ctx) ** node.exp
    if isinstance(node, Neg):
        if type(node.arg) is Mul:
            return _eval_mul(node.arg.parts, ctx, -1)
        return -_eval(node.arg, ctx)
    if isinstance(node, Ber):
        return _eval(node.arg, ctx).coefficient_of_odd(ctx.berezin_names)
    raise TypeError(f"not an AST node: {node!r}")


def _literal(node):
    """The value of a factor made only of literals joined by +, - and *,
    such as (1/2 - 3*I), (2*3/4) or -(1/3); None for any other factor.  A
    power is not a literal factor, so `MAX_COEFF_BITS` still guards it."""
    k = type(node)
    if k is Lit:
        return node.value
    if k is Neg:
        v = _literal(node.arg)
        return None if v is None else -v
    if k is Add or k is Mul:
        out = None
        for p in node.parts:
            v = _literal(p)
            if v is None:
                return None
            out = v if out is None else out + v if k is Add else out * v
        return out
    return None


def _eval_mul(parts, ctx: Context, coeff=1):
    """coeff times the product of the factors from left to right.  Each run
    of symbol factors (a symbol or a power of an even symbol), cut only by
    the other factors, makes one `SymbolTable.monomial` term.  Every literal
    factor (see `_literal`) is multiplied into coeff, which goes into the
    coefficient of the next such term, or scales the product when none
    follows, so a Gaussian coefficient in parentheses or the sign of a
    negated product builds no polynomial.  Any other factor, a power among
    them, is evaluated on its own and multiplied in at its place."""
    t = ctx.table
    vals, even, odd = [], [], []
    for p in parts:
        k = type(p)
        if k is Sym or k is Pow and type(p.base) is Sym:
            name = p.name if k is Sym else p.base.name
            if name not in t:
                raise UnknownSymbolError(name)
            if t.symbol(name).parity == EVEN:
                even.append((name, 1 if k is Sym else p.exp))
                continue
            if k is Sym:
                odd.append(name)
                continue
        elif k is not Pow:
            v = _literal(p)
            if v is not None:
                coeff = coeff * v
                continue
        if even or odd:
            vals.append(t.monomial(coeff, even, odd))
            coeff, even, odd = 1, [], []
        vals.append(_eval(p, ctx))
    if even or odd or not vals:
        vals.append(t.monomial(coeff, even, odd))
        coeff = 1
    out = vals[0]
    for v in vals[1:]:
        out = out * v
    return out if coeff == 1 else out.scale(coeff)


# ---------------------------------------------------------------------------
# Canonical value printing
# ---------------------------------------------------------------------------

# The most bits an int part of a printed coefficient may hold: 2^14000 has
# 4215 digits, under Python's default int-to-text limit of 4300 digits.
MAX_PRINT_BITS = 14000


def _check_printable(c):
    """Refuse, by its budget, a coefficient that str(int) could not print."""
    a, b, d = c.parts() if type(c) is QI else (c.numerator, 0, c.denominator)
    bits = (abs(a) | abs(b) | d).bit_length()  # the longest part's
    if bits > MAX_PRINT_BITS:
        raise SizeLimitError(f"a {bits}-bit coefficient exceeds the print budget of {MAX_PRINT_BITS} bits")


def format_poly(p: SuperPolynomial) -> str:
    if not p.terms:
        return "0"
    chunks = []
    for (ev, od), c in p.terms_sorted():
        _check_printable(c)
        factors = []
        for i, e in ev:
            n = p.table.symbols[i].name
            factors.append(n if e == 1 else f"{n}^{e}")
        factors += [p.table.symbols[i].name for i in od]
        neg = False
        if type(c) is QI:
            a, b, _ = c.parts()
            cs = format_scalar(c)
            if a and b:
                cs = f"({cs})"
            elif cs[0] == "-":
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
    if not d.images:
        return "0"
    chunks = []
    for i in sorted(d.images):
        v = d.images[i]
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
        _check_printable(c)
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
