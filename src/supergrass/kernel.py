"""Graded-algebra kernel: symbols with parity, exact supercommutative and
Clifford multiplication, graded derivations and super brackets.

Everything is exact: a stored coefficient is a Python int when it is a
rational integer and a Gaussian rational (`QI`, integer parts over one
denominator) otherwise, real or not, so no Fraction is stored or formed
inside a product.  `scalars.normalize` is the one rule, and every module
past the input edge computes in that form; Fraction appears only at the
edges (operands and bounds that arrive as Fractions).  The types compare
and hash alike, so 3, Fraction(3) and QI(3, 0) are the same coefficient.
An even monomial is one packed int with a 33-bit field per even symbol
(the power in the low 32 bits, a guard bit on top; offsets fixed on the
SymbolTable when a symbol is declared), so two even monomials multiply
by one int sum, and one AND against the table's guard mask raises
`SizeLimitError` for a power above `MAX_EXPONENT`.  An odd monomial is an
int bitmask over symbol indices (bit i set: `symbols[i]` occurs), read in
symbol-table declaration order, and every product normalizes signs against
that order.  The one Clifford square is eps*eps = -1, so a product of two
odd monomials is a sign times their XOR: `_odd_mul` finds a repeated
nilpotent generator with one AND, and the sign bit as the parity of a
popcount against the prefix-parity mask `_below` plus one flip per shared
Clifford generator; a sign is applied by negation; a pair that shares a
nilpotent generator is skipped before `_odd_mul` is called.  Products and
sums are written through one accumulator, `_add_term`, which stores every
result through `normalize`; `scale` does the same.  `_term_product` adds
a product into an accumulator it is given, and `SymbolTable.sum` adds
many polynomials into one.  A division-algebra product over one table is
one call, `SymbolTable.slot_product`: its slots, every one a polynomial
over the table (the `DAElement` constructor takes each slot of a
polynomial element into its ring), are split by monomial, each pair of
monomials is multiplied once, and each pair of (central) scalar
coefficients adds one product into its slot's accumulator, so two
elements whose slots are multiples of one monomial each cost one
`_odd_mul`.  A sum or a product with an empty operand returns an
operand, without a copy.  Values are immutable after construction and
safe to share.  A product that would form more than
`MAX_TERM_PAIRS` term pairs raises `SizeLimitError` before it runs, and the
CLI reports it as an input error; `MAX_DEGREE` bounds the powers that
`integrate_even` raises its bounds to, and `MAX_COEFF_BITS` the coefficient
growth of a power.

A derivation is applied term by term (`Derivation._apply`): each term of
f, each factor with an image and each term of that image give one
coefficient and one merged monomial, added with a sign (-1)^neg into an
accumulator the caller passes in, as `_term_product` adds its products,
with crossing and Koszul signs applied by negation; no intermediate
polynomial is formed.  `super_bracket` fills one accumulator per
generator, X(Y g) and then -+Y(X g), so a bracket image costs no product,
scale, negation or sum.  The public `Derivation` constructor checks every
image it is given (its name, table and parity); brackets, sums,
differences and multiples are built by `_derivation`, keyed by index,
with no re-check, since combinations of homogeneous derivations over one
table are homogeneous of a parity known in advance.  They drop empty
images and carry no label.
The odd invariant fields D and tau of every superspace here are built by
one function, `odd_fields`, from the pairing T of the thetas into even
translations, and checked against one law, `odd_field_relations_ok`.

The term dict of a SuperPolynomial is built only in this module and read
only here and by the `expr_io` printer and JSON codec.  Other code reads a
polynomial through its projections (`constant_term`, `free_of`,
`parity_part`, `support`, `coefficient_of_odd`, `odd_components`,
`eval_even`, `jet_at`, `diff_even`, `integrate_even`), maps it with
`substitute`, copies it into another table with `SymbolTable.adopt` and
adds many polynomials or slot products into one accumulator with
`SymbolTable.sum` and `SymbolTable.slot_product`; `tests/test_kernel.py`
pins that no other module does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .scalars import QI, normalize, ratio

EVEN = 0
ODD = 1


class TableMismatchError(ValueError):
    pass


class ParityError(ValueError):
    pass


class SizeLimitError(ValueError):
    pass


# The most term pairs one product may form, so that (x+1)^100000 fails fast;
# no product of the claim registry or the bench workloads forms 1000.
MAX_TERM_PAIRS = 100_000

# The highest power of an even coordinate that `integrate_even` accepts, so that
# x^1000000000 fails fast instead of raising a bound to that power; the CLI
# holds the degree of a superpotential `model sigma32 --h` to it as well, since
# reading h takes one derivative and one factorial per degree.
MAX_DEGREE = 1000

# The most bits a power n may add to a coefficient, estimated as n times (the
# largest `_coeff_bits` of the base's coefficients, minus 1), so that
# (2^9999)^9999 and (1+I)^99999999 fail fast; no registry or bench power
# estimates over 14 bits.
MAX_COEFF_BITS = 1 << 16

# The highest power of an even symbol in any term.  An even key holds one
# field of _FIELD bits per even symbol: the power in the low 32 bits and a
# guard bit on top, which a sum of two powers sets when it passes the budget.
MAX_EXPONENT = 2**32 - 1
_FIELD = 33


@dataclass(frozen=True)
class Symbol:
    name: str
    parity: int
    index: int
    # 1 for a Clifford generator, eps*eps = -1; 0 for a nilpotent odd one
    square: int = 0


class SymbolTable:
    """Ordered symbol registry.

    Declaration order of odd symbols fixes the canonical monomial order (all
    signs are normalized against it), so two tables with the same symbols in
    a different order are distinct.  Every table is over QQ(I), the
    rationals with a formal central square root I of -1 adjoined, so
    scalar_ring takes "QQi" only; operands always live over one table.

    nil holds the bits of the nilpotent odd generators; every other odd
    generator is a Clifford generator with eps*eps = -1, the only square
    declared.  _below memoizes `_below` by monomial.
    The k-th even symbol declared owns field k of an even key: _evens[k] is
    its index, _shift[index] the offset of its field, and guard holds the
    top bit of every field.  A later declaration adds a field above the
    others, so no key is ever repacked.
    """

    def __init__(self, scalar_ring: str = "QQi"):
        if scalar_ring != "QQi":
            raise ValueError("scalar_ring must be 'QQi': every table is over QQ(I)")
        self.symbols: list[Symbol] = []
        self._by_name: dict[str, Symbol] = {}
        self.nil = 0
        self._below: dict[int, int] = {}
        self._evens: list[int] = []
        self._shift: dict[int, int] = {}
        self.guard = 0

    # -- declaration ------------------------------------------------------
    def _add(self, name, parity, square=0):
        if name in self._by_name:
            raise ValueError(f"duplicate symbol {name!r}")
        s = Symbol(name, parity, len(self.symbols), square)
        if parity == ODD and not square:
            self.nil |= 1 << s.index
        elif parity == EVEN:
            self._shift[s.index] = shift = _FIELD * len(self._evens)
            self._evens.append(s.index)
            self.guard |= 1 << (shift + _FIELD - 1)
        self.symbols.append(s)
        self._by_name[name] = s
        return s

    def even_symbol(self, name):
        return self._add(name, EVEN)

    def odd_symbol(self, name):
        return self._add(name, ODD)

    def clifford_symbol(self, name, square=1):
        """A generator with eps*eps = -1; square is that 1 and no other."""
        if square != 1:
            raise ValueError(f"square {square}: a Clifford generator squares to -1 (square 1) only")
        return self._add(name, ODD, 1)

    # -- lookup -----------------------------------------------------------
    def __contains__(self, name):
        return name in self._by_name

    def symbol(self, name) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def names(self):
        return [s.name for s in self.symbols]

    # -- element constructors ----------------------------------------------
    def zero(self):
        return SuperPolynomial(self, {})

    def scalar(self, c):
        c = normalize(c)
        return SuperPolynomial(self, {(0, 0): c} if c else {})

    def one(self):
        return self.scalar(1)

    def sym(self, name):
        s = self.symbol(name)
        if s.parity == EVEN:
            return SuperPolynomial(self, {(1 << self._shift[s.index], 0): 1})
        return SuperPolynomial(self, {(0, 1 << s.index): 1})

    def adopt(self, p):
        """p copied into this table: a scalar becomes a constant, and each
        symbol of a polynomial over another table goes over by name."""
        if type(p) is not SuperPolynomial:
            return self.scalar(p)
        if p.table is self:
            return p
        images = {s.name: self.sym(s.name) for s in p.support()}
        return p.substitute(images) if images else SuperPolynomial(self, p.terms)

    def sum(self, polys):
        """The sum of polynomials over this table, added into one accumulator."""
        out: dict = {}
        for p in polys:
            if p.table is not self:
                raise TableMismatchError("operands live over different symbol tables")
            for k, c in p.terms.items():
                _add_term(out, k, c)
        return SuperPolynomial(self, out)

    def slot_product(self, rows, left, right, zero):
        """The slots of a division-algebra product of the slot lists left
        and right over this table, rows[a][b] = (g, neg) adding
        (-1)^neg * left[a] * right[b] into slot g; a slot that nothing
        reaches is zero.  Scalars are central, so the sum over slot pairs
        of s * p_a * q_b is the sum over monomial pairs of (A_m * B_n) *
        (m * n): each operand's nonzero slots are split by monomial, each
        pair of monomials is multiplied once through `_odd_mul`, and each
        pair of their coefficients adds one scalar product into its slot
        with the sign neg ^ sign.  Every slot is checked for its table, and
        the largest left slot times the largest right slot, the largest
        pair a per-pair product would form, is held to `MAX_TERM_PAIRS`
        before any term is formed."""
        lsplit, lmost = _by_monomial(self, left)
        rsplit, rmost = _by_monomial(self, right)
        if lmost * rmost > MAX_TERM_PAIRS:
            raise SizeLimitError(f"a product of {lmost} by {rmost} terms "
                                 f"exceeds the budget of {MAX_TERM_PAIRS} term pairs")
        nil, guard = self.nil, self.guard
        outs = [None] * len(rows)
        for (e1, o1), lcs in lsplit.items():
            for (e2, o2), rcs in rsplit.items():
                if o1 & o2 & nil:
                    continue
                sign, od = _odd_mul(o1, o2, self)
                ev = e1 + e2
                if ev & guard:
                    raise _exponent_error()
                key = (ev, od)
                for a, c1 in lcs:
                    row = rows[a]
                    for b, c2 in rcs:
                        g, neg = row[b]
                        out = outs[g]
                        if out is None:
                            out = outs[g] = {}
                        _add_term(out, key, -c1 * c2 if neg ^ sign else c1 * c2)
        return [SuperPolynomial(self, out) if out else zero for out in outs]

    def monomial(self, coeff, even=(), odd=()):
        """coeff * prod(even names with powers) * prod(odd names, given order),
        built as one term: the powers of a name add up, and each odd name is
        merged in through `_odd_mul`, whose sign bit holds the Koszul signs and
        the Clifford contractions.  A power past the budget raises only if the
        odd names leave a nonzero monomial, as in a product."""
        c = normalize(coeff)
        ev = over = 0
        for name, e in even:
            s = self.symbol(name)
            if s.parity != EVEN or type(e) is not int or e < 0:
                raise ParityError(f"{name}^{e} is not a nonnegative power of an even symbol")
            ev += e << self._shift[s.index]
            over |= e > MAX_EXPONENT or ev & self.guard  # per step: a later sum may carry past it
        od = 0
        for name in odd:
            s = self.symbol(name)
            if s.parity != ODD:
                raise ParityError(f"{name} is even; list it among the even names")
            res = _odd_mul(od, 1 << s.index, self)
            if res is None:
                return self.zero()
            sign, od = res
            if sign:
                c = -c
        if over:
            raise _exponent_error()
        return SuperPolynomial(self, {(ev, od): c} if c else {})


def _exponent_error():
    return SizeLimitError(f"an even power exceeds the exponent budget of {MAX_EXPONENT}")


def _by_monomial(table, slots):
    """The nonzero slots of a list of polynomial slots split by monomial,
    {key: [(slot, coeff), ...]}, and the most terms one slot holds; a
    nonzero slot over another table is refused."""
    split, most = {}, 0
    for a, p in enumerate(slots):
        terms = p.terms
        if not terms:
            continue
        if p.table is not table:
            raise TableMismatchError("operands live over different symbol tables")
        if len(terms) > most:
            most = len(terms)
        for key, c in terms.items():
            cs = split.get(key)
            if cs is None:
                split[key] = [(a, c)]
            else:
                cs.append((a, c))
    return split, most


def _even_values(table, values):
    """{field offset: stored value} of the even names among values, and
    the mask of the fields they hold; other names are skipped."""
    vals, mask = {}, 0
    for n, v in values.items():
        sh = table._shift.get(table.symbol(n).index)
        if sh is not None:
            vals[sh] = normalize(v)
            mask |= MAX_EXPONENT << sh
    return vals, mask


def _ev_items(ev, evens):
    """The (index, power) pairs of a packed even key, by index, read from
    the fields the key holds; evens is the table's _evens."""
    out = []
    while ev:
        k = ((ev & -ev).bit_length() - 1) // _FIELD
        p = ev >> _FIELD * k & MAX_EXPONENT
        out.append((evens[k], p))
        ev ^= p << _FIELD * k
    return tuple(out)


def _term_product(table, a: dict, b: dict, out: dict) -> dict:
    """Add the product of two term dicts over table into the accumulator
    out, and return it: the even keys of each pair add, and the odd ones
    merge by `_odd_mul` unless they share a nilpotent generator; more than
    `MAX_TERM_PAIRS` pairs raise `SizeLimitError` before any is formed."""
    if len(a) * len(b) > MAX_TERM_PAIRS:
        raise SizeLimitError(f"a product of {len(a)} by {len(b)} terms "
                             f"exceeds the budget of {MAX_TERM_PAIRS} term pairs")
    nil, guard = table.nil, table.guard
    for (e1, o1), c1 in a.items():
        for (e2, o2), c2 in b.items():
            if o1 & o2 & nil:
                continue
            sign, od = _odd_mul(o1, o2, table)
            ev = e1 + e2
            if ev & guard:
                raise _exponent_error()
            _add_term(out, (ev, od), -c1 * c2 if sign else c1 * c2)
    return out


# the term dict of 1; never written to
_ONE = {(0, 0): 1}


def _add_term(out: dict, key, c):
    """Add the nonzero coefficient c at key: a sum that cancels removes the
    key, and every other result is stored through `normalize`, as an int or
    a QI that is not a rational integer."""
    old = out.get(key)
    if old is not None:
        c = old + c
        if not c:
            del out[key]
            return
    out[key] = c if type(c) is int else normalize(c)


class SuperPolynomial:
    """Exact element of the supercommutative/Clifford envelope of a table.

    terms: {(even_mono, odd_mono): coeff} with even_mono a packed int, one
    field of _FIELD bits per even symbol of the table holding its power (at
    most MAX_EXPONENT, the guard bit clear), so a product of even monomials
    is one int sum; and odd_mono an int bitmask over symbol indices (bit i
    set: symbols[i] occurs, the factors in index order).  Zero
    coefficients are never stored; the zero polynomial has no
    terms and answers None to parity().
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: SymbolTable, terms: dict):
        self.table = table
        self.terms = terms

    # -- inspection --------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parity(self) -> Optional[int]:
        """0/1 if homogeneous, None for the zero polynomial (matches any)."""
        if not self.terms:
            return None
        parities = {od.bit_count() & 1 for (_, od) in self.terms}
        if len(parities) > 1:
            raise ParityError(f"non-homogeneous polynomial: {self}")
        return parities.pop()

    def constant_term(self):
        """The stored constant term: an int or a QI, 0 when there is none."""
        return self.terms.get((0, 0), 0)

    def free_of(self, names: Iterable[str]):
        """The terms in which none of the named symbols occurs."""
        table = self.table
        odd = even = 0
        for n in names:
            i = table.symbol(n).index
            if i in table._shift:
                even |= MAX_EXPONENT << table._shift[i]
            else:
                odd |= 1 << i
        return SuperPolynomial(table, {
            (ev, od): c for (ev, od), c in self.terms.items() if not (od & odd or ev & even)})

    def parity_part(self, g: int):
        """The even (g = 0) or the odd (g = 1) component."""
        return SuperPolynomial(self.table, {
            (ev, od): c for (ev, od), c in self.terms.items() if od.bit_count() & 1 == g})

    def support(self) -> list[Symbol]:
        """The symbols that occur in some term, in declaration order."""
        even = odd = 0
        for ev, od in self.terms:
            even |= ev
            odd |= od
        seen = [i for i, _ in _ev_items(even, self.table._evens)] + list(_indices(odd))
        return [self.table.symbols[i] for i in sorted(seen)]

    def max_even_degree(self):
        evens = self.table._evens
        return max((sum(p for _, p in _ev_items(ev, evens)) for (ev, _) in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other):
        if self.table is not other.table:
            raise TableMismatchError("operands live over different symbol tables")

    def __add__(self, other):
        if type(other) is not SuperPolynomial and isinstance(other, (int, Fraction, QI)):
            other = self.table.scalar(other)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_term(out, k, c)
        return SuperPolynomial(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not SuperPolynomial and isinstance(other, (int, Fraction, QI)):
            other = self.table.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.table.scalar(other) + (-self)

    def scale(self, c):
        c = normalize(c)
        if type(c) is int:
            if c == 1:
                return self
            if c == -1:
                return -self
        if not c:
            return self.table.zero()
        return SuperPolynomial(self.table, {k: normalize(c * v) for k, v in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not SuperPolynomial and isinstance(other, (int, Fraction, QI)):
            return self.scale(other)
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        return SuperPolynomial(self.table, _term_product(self.table, self.terms, other.terms, {}))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        if n > 1:
            bits = max(map(_coeff_bits, self.terms.values()), default=1)
            if n * (bits - 1) > MAX_COEFF_BITS:
                raise SizeLimitError(f"a power {n} of {bits}-bit coefficients exceeds the "
                                     f"coefficient budget of {MAX_COEFF_BITS} bits")
        if n and len(self.terms) == 1:
            ((ev, od), c), = self.terms.items()
            if not od:  # one even term: no sign, no contraction, no cancellation
                if n > 1 and any(p * n > MAX_EXPONENT for _, p in _ev_items(ev, self.table._evens)):
                    raise _exponent_error()
                return SuperPolynomial(self.table, {(ev * n, 0): normalize(c ** n)})
        out = self.table.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not SuperPolynomial:
            if not isinstance(other, (int, Fraction, QI)):
                return NotImplemented
            other = self.table.scalar(other)
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------
    def coefficient_of_odd(self, odd_names: Iterable[str]):
        """Coefficient polynomial of the given odd monomial, with the Koszul
        sign needed to move those factors to the front in the given order.

        Only terms whose odd part contains exactly the requested symbols
        among the requested symbols' indices contribute; remaining odd
        factors stay in place.
        """
        # od is in index order, so carrying od onto the requested names
        # followed by the rest has the sign of sorting that concatenation:
        # the sign of the requested order, times one crossing for each pair
        # of a requested index above an index of the rest
        want = flips = 0
        for n in odd_names:
            i = self.table.symbol(n).index
            if want >> i & 1:
                raise ValueError(f"odd name {n!r} repeated")
            flips += (want >> i).bit_count()
            want |= 1 << i
        out: dict = {}
        for (ev, od), c in self.terms.items():
            if od & want != want:
                continue
            rest = od ^ want
            odd = flips + (want & _below(rest)).bit_count()
            _add_term(out, (ev, rest), -c if odd & 1 else c)
        return SuperPolynomial(self.table, out)

    def odd_components(self):
        """The polynomial split by odd monomial in one pass: {odd names in
        declaration order: coefficient free of odd symbols}, so that the
        polynomial is the sum of each coefficient times its names multiplied
        in that order."""
        parts: dict = {}
        for (ev, od), c in self.terms.items():
            parts.setdefault(od, {})[ev, 0] = c
        symbols = self.table.symbols
        return {tuple(symbols[i].name for i in _indices(od)): SuperPolynomial(self.table, terms)
                for od, terms in parts.items()}

    def substitute(self, images: dict):
        """Ring substitution symbol -> polynomial (parity-preserving).

        Odd images must be odd, even images even.  Symbols not named map to
        themselves, so images over another table must name every symbol that
        occurs: one without an image raises `TableMismatchError`.  Each term
        c * m becomes c * U * E * O, formed by one product E * O: U, the
        unnamed even factors, is central and joins each key; E is the product
        of the named even factors' images in term order, cached per named
        even part; O is the product in index order of each odd factor's image
        (or the generator itself), cached per odd monomial, so the Koszul
        signs come from the multiplication.  Both caches live for one call.
        E stays left of O because an even image holding a Clifford generator
        is not central: eps*(eps*th1) = th1 but (eps*th1)*eps = -th1.
        """
        table = None
        for v in images.values():
            table = v.table
            break
        if table is None:
            return self
        src = self.table
        imgs = {}
        named = named_odd = 0  # the even fields and the odd bits of the symbols with an image
        for name, v in images.items():
            s = src.symbol(name)
            p = v.parity()
            if p is not None and p != s.parity:
                raise ParityError(f"substitution changes parity of {name}")
            if v.table is not table:
                raise TableMismatchError("images live over different symbol tables")
            imgs[s.index] = v
            if s.parity == EVEN:
                named |= MAX_EXPONENT << src._shift[s.index]
            else:
                named_odd |= 1 << s.index
        cross = table is not src  # then no symbol that occurs may stay unnamed
        guard = table.guard
        e_cache: dict = {0: _ONE}  # named even part -> E
        o_cache: dict = {0: _ONE}  # odd monomial -> O
        out: dict = {}
        for (ev, od), c in self.terms.items():
            en = ev & named
            u = ev ^ en  # the unnamed even part
            if cross and (u or od & ~named_odd):
                unnamed = SuperPolynomial(src, {(u, od & ~named_odd): 1}).support()[0].name
                raise TableMismatchError(f"no image for {unnamed!r} over the images' table")
            e = e_cache.get(en)
            if e is None:
                e = _ONE
                for i, p in _ev_items(en, src._evens):
                    t = (imgs[i] if p == 1 else imgs[i] ** p).terms
                    e = t if e is _ONE else _term_product(table, e, t, {})
                e_cache[en] = e
            o = o_cache.get(od)
            if o is None:
                o = _ONE
                for i in _indices(od):
                    t = imgs[i].terms if i in imgs else {(0, 1 << i): 1}
                    o = t if o is _ONE else _term_product(table, o, t, {})
                    if not o:
                        break
                o_cache[od] = o
            if not o:
                continue
            eo = o if e is _ONE else e if o is _ONE else _term_product(table, e, o, {})
            for (e2, o2), v in eo.items():
                e2 += u
                if e2 & guard:
                    raise _exponent_error()
                _add_term(out, (e2, o2), c * v)
        return SuperPolynomial(table, out)

    def eval_even(self, values: dict):
        """Evaluate even symbols at exact scalars; other symbols untouched."""
        vals, mask = _even_values(self.table, values)
        out: dict = {}
        for (ev, od), c in self.terms.items():
            if ev & mask:
                for sh, v in vals.items():
                    p = ev >> sh & MAX_EXPONENT
                    if p:
                        c = c * v ** p
            if c:
                _add_term(out, (ev & ~mask, od), c)
        return SuperPolynomial(self.table, out)

    def jet_at(self, values: dict, names):
        """f(m) and the first partials df/dn(m), one per name of `names`,
        as stored scalars read in one pass over the terms: the constant
        terms of eval_even(values) and of diff_even(n).eval_even(values).
        So only the terms free of odd symbols count, and of those only the
        ones whose even symbols all have a value, but for one factor of n
        in its partial."""
        table = self.table
        vals, mask = _even_values(table, values)
        shifts = []
        for name in names:
            s = table.symbol(name)
            if s.parity != EVEN:
                raise ParityError(f"{name} is odd; use a derivation")
            shifts.append(table._shift[s.index])

        def at(ev, c):  # c times the values to the powers of ev; 0 if one has no value
            if ev & ~mask:
                return 0
            for sh, v in vals.items():
                p = ev >> sh & MAX_EXPONENT
                if p:
                    c = c * v ** p
            return c

        value, partials = 0, [0] * len(shifts)
        for (ev, od), c in self.terms.items():
            if od:
                continue
            value += at(ev, c)
            for j, sh in enumerate(shifts):
                p = ev >> sh & MAX_EXPONENT
                if p:
                    partials[j] += at(ev - (1 << sh), c * p)
        return normalize(value), [normalize(d) for d in partials]

    def diff_even(self, name):
        """Formal partial derivative w.r.t. an even symbol."""
        s = self.table.symbol(name)
        if s.parity != EVEN:
            raise ParityError(f"{name} is odd; use a derivation")
        sh = self.table._shift[s.index]
        out: dict = {}
        for (ev, od), c in self.terms.items():
            p = ev >> sh & MAX_EXPONENT
            if p:
                _add_term(out, (ev - (1 << sh), od), c * p)
        return SuperPolynomial(self.table, out)

    def integrate_even(self, name, lo, hi):
        """Exact definite integral over lo <= name <= hi of an even symbol;
        other symbols untouched."""
        s = self.table.symbol(name)
        if s.parity != EVEN:
            raise ParityError(f"{name} is odd; use the Berezin integral")
        lo, hi = normalize(QI(lo)), normalize(QI(hi))  # QI refuses a non-real bound
        sh = self.table._shift[s.index]
        out: dict = {}
        for (ev, od), c in self.terms.items():
            p = ev >> sh & MAX_EXPONENT
            if p > MAX_DEGREE:
                raise SizeLimitError(f"a power {p} over a box exceeds the degree budget {MAX_DEGREE}")
            c = c * (hi ** (p + 1) - lo ** (p + 1)) * ratio(1, p + 1)
            if c:
                _add_term(out, (ev & ~(MAX_EXPONENT << sh), od), c)
        return SuperPolynomial(self.table, out)

    def terms_sorted(self):
        """The terms as ((even_mono, odd indices), coeff), even_mono the
        ((index, power), ...) pairs by index and the odd monomial an
        increasing tuple of symbol indices, sorted by (odd degree, odd
        indices, even_mono).  Each even key is decoded once per call."""
        evens = self.table._evens
        decoded = {ev: _ev_items(ev, evens) for ev in {ev for ev, _ in self.terms}}
        return sorted((((decoded[ev], _indices(od)), c) for (ev, od), c in self.terms.items()),
                      key=_term_key)

    def __str__(self):
        from .expr_io import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"<SuperPolynomial {self}>"


def _term_key(item):
    (ev, od), _ = item
    return (len(od), od, ev)


def _coeff_bits(c) -> int:
    """The bit length of an int c; for a QI (a + b*I)/d, the larger of the
    bit lengths of |a| + |b|, which bounds |a + b*I|, and of d.  So a
    Gaussian base such as 1 + I counts its growth: |1 + I|^n = 2^(n/2)."""
    if type(c) is int:
        return c.bit_length()
    a, b, d = c.parts()
    return max((abs(a) + abs(b)).bit_length(), d.bit_length())


def _indices(m):
    """The symbol indices of an odd monomial, increasing."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _below(m):
    """The prefix-parity mask of m: bit a is set iff an odd number of bits of
    m lie below a.  Above the top bit of m it is all ones when m has an odd
    number of bits, so it is a negative int and serves any table width."""
    out, low_sign = 0, -1
    while m:
        low = m & -m
        out += low_sign * low
        low_sign = -low_sign
        m ^= low
    return out << 1


def _odd_mul(o1, o2, table):
    """Product of two canonical odd monomials (bitmasks) over a table.

    Returns (sign_bit, merged_mask), the product being (-1)^sign_bit times
    the merged monomial, or None when it vanishes (a repeated nilpotent
    generator); the caller applies the sign by negation.  Moving o2 past o1
    crosses each bit of o1 over the bits of o2 below it, so the Koszul sign
    is the parity of o1 & _below(o2); every other shared generator is a
    Clifford one, and eps*eps = -1 adds one flip each.
    """
    if not o1 or not o2:
        return (0, o1 | o2)
    shared = o1 & o2
    if shared & table.nil:
        return None
    below = table._below.get(o2)
    if below is None:
        below = table._below[o2] = _below(o2)
    return (((o1 & below).bit_count() + shared.bit_count()) & 1, o1 ^ o2)


class Derivation:
    """Parity-graded first-order operator, given by its images on symbols and
    applied through the graded Leibniz rule.  Missing images mean 0, and a
    zero image is never stored, so `images` holds the nonzero ones only,
    keyed by symbol index.

    The constructor takes images by name and checks each one: a scalar
    becomes a constant, and an image over another table or of the wrong
    parity is refused.  A bracket, sum, difference or multiple is built by
    `_derivation` instead, since its images are valid by construction, and
    carries no label.

    Precondition, not checked: the images respect the relations a*b = -b*a
    and eps*eps = -1 of the odd generators, that is X(a)*b + (-1)^|X| b*X(a)
    + X(b)*a + (-1)^|X| a*X(b) = 0 for all odd a, b (a check would cost
    O(n^2) products per construction).  Only an image holding a Clifford
    generator can break it, and then the result depends on the stored
    order: for an even Z with Z(th1) = -1/2*eps, Z(2*th1*eps) = -1 (th1*eps
    is stored as -eps*th1), but Z(th1)*2*eps + 2*th1*Z(eps) = 1."""

    __slots__ = ("table", "parity", "images", "label")

    def __init__(self, table, parity, images: dict, label=""):
        self.table = table
        self.parity = parity
        self.label = label
        imgs = {}
        for name, v in images.items():
            s = table.symbol(name)
            if isinstance(v, (int, Fraction, QI)):
                v = table.scalar(v)
            elif v.table is not table:
                raise TableMismatchError(f"image of {name} lives over another symbol table")
            p = v.parity()
            if p is not None and p != (s.parity + parity) % 2:
                raise ParityError(
                    f"image of {name} under {label or 'derivation'} has wrong parity"
                )
            if v:
                imgs[s.index] = v
        self.images = imgs

    def __call__(self, f: SuperPolynomial) -> SuperPolynomial:
        """Graded Leibniz rule, one output term at a time (`_apply`)."""
        if f.table is not self.table:
            raise TableMismatchError("derivation applied across tables")
        return SuperPolynomial(self.table, self._apply(f.terms, {}))

    def _apply(self, terms: dict, out: dict, neg=0) -> dict:
        """Add (-1)^neg times the image of the term dict `terms` into the
        accumulator out, and return it.

        A term c*ev*od and a term c2*e2*o2 of the image of one of its
        factors give the single term c*(p or crossing sign)*c2 on the merged
        monomials: an even factor x^p leaves x^(p-1) and multiplies by p, an
        odd factor, the j-th bit of od from the bottom, merges the bits
        below it with o2 and then the result with the bits above it, with
        (-1)^(parity * j) for the factors crossed.  A pair whose odd parts
        share a nilpotent generator vanishes and is skipped.
        """
        table = self.table
        images = self.images
        gx = self.parity
        odd_mul = _odd_mul
        nil, guard, evens = table.nil, table.guard, table._evens
        for (ev, od), c in terms.items():
            if neg:
                c = -c
            # even factors, one per field the key holds: no crossing signs
            held = ev
            while held:
                k = ((held & -held).bit_length() - 1) // _FIELD
                p = held >> _FIELD * k & MAX_EXPONENT
                held ^= p << _FIELD * k
                img = images.get(evens[k])
                if img is None:
                    continue
                rest, cp = ev - (1 << _FIELD * k), (c if p == 1 else c * p)
                for (e2, o2), c2 in img.terms.items():
                    if o2 & od & nil:
                        continue
                    sign, o = odd_mul(o2, od, table)
                    e = rest + e2
                    if e & guard:
                        raise _exponent_error()
                    _add_term(out, (e, o), -cp * c2 if sign else cp * c2)
            # odd factors: (-1)^(gx * #odd factors crossed); the factor at
            # bit low crosses the j bits below it, and right holds the bits
            # above it
            right = od
            j = -1
            while right:
                low = right & -right
                right ^= low
                j += 1
                img = images.get(low.bit_length() - 1)
                if img is None:
                    continue
                cs = -c if (gx and (j & 1)) else c
                left = od & (low - 1)
                for (e2, o2), c2 in img.terms.items():
                    if o2 & (od ^ low) & nil:
                        continue
                    sign, mid = odd_mul(left, o2, table)
                    sign2, o = odd_mul(mid, right, table)
                    e = ev + e2
                    if e & guard:
                        raise _exponent_error()
                    _add_term(out, (e, o), -cs * c2 if sign ^ sign2 else cs * c2)
        return out

    # -- linear structure ---------------------------------------------------
    def __add__(self, other, neg=0):
        if self.table is not other.table:
            raise TableMismatchError("sum of derivations over different tables")
        if self.parity != other.parity:
            raise ParityError("sum of derivations with different parities")
        imgs = {}
        for i in self.images.keys() | other.images.keys():
            out = dict(self.images[i].terms) if i in self.images else {}
            if i in other.images:
                for k, c in other.images[i].terms.items():
                    _add_term(out, k, -c if neg else c)
            imgs[i] = SuperPolynomial(self.table, out)
        return _derivation(self.table, self.parity, imgs)

    def __sub__(self, other):
        return self.__add__(other, 1)

    def scale(self, c):
        """Multiply on the left by a scalar or homogeneous polynomial."""
        if isinstance(c, (int, Fraction, QI)):
            return _derivation(self.table, self.parity, {i: v.scale(c) for i, v in self.images.items()})
        p = c.parity()
        par = self.parity if p is None else (self.parity + p) % 2
        return _derivation(self.table, par, {i: c * v for i, v in self.images.items()})

    def is_zero(self):
        return not self.images

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.table is other.table and self.images == other.images

    def __hash__(self):
        raise TypeError("derivations are unhashable")

    def __str__(self):
        from .expr_io import format_derivation

        return format_derivation(self)

    def __repr__(self):
        return f"<Derivation {self.label or self}>"


def _derivation(table, parity, images: dict) -> Derivation:
    """A derivation from {index: image} whose images are valid by
    construction (see `Derivation`): no name lookups or parity scan, empty
    images dropped, no label."""
    d = object.__new__(Derivation)
    d.table, d.parity, d.label = table, parity, ""
    d.images = {i: v for i, v in images.items() if v}
    return d


def super_bracket(X: Derivation, Y: Derivation) -> Derivation:
    """[X,Y] = X∘Y - (-1)^(gr X gr Y) Y∘X, returned as a derivation.

    Both operands are parity homogeneous (guaranteed by construction), so
    the bracket is too, and it is built by `_derivation` with no re-check.
    Only generators with an image under X or Y are evaluated: on any other
    generator both X(Y g) and Y(X g) vanish.  Each image is one accumulator:
    X applied to Y's image of g, then Y to X's image of g with the graded
    sign; an image that cancels is not stored.
    """
    if X.table is not Y.table:
        raise TableMismatchError("bracket across tables")
    table = X.table
    neg = not (X.parity and Y.parity)
    imgs = {}
    for i in sorted(X.images.keys() | Y.images.keys()):
        # Y(g) and X(g) of a generator g are its images
        out = {}
        if i in Y.images:
            X._apply(Y.images[i].terms, out)
        if i in X.images:
            Y._apply(X.images[i].terms, out, neg)
        if out:
            imgs[i] = SuperPolynomial(table, out)
    return _derivation(table, (X.parity + Y.parity) % 2, imgs)


def odd_fields(table, thetas, T, sign) -> list:
    """The odd fields d/dth^a + sign * th^b T_ab, one per name in `thetas`:
    the left invariant D for sign = -1, the right invariant tau for +1.

    T maps a pair of theta names to an even derivation, the translation the
    two thetas pair into; both orders are present and a missing pair is 0.
    """
    out = []
    for a in thetas:
        imgs = {a: table.one()}
        for b in thetas:
            if (a, b) in T:
                th = table.sym(b).scale(sign)
                for i, v in T[a, b].images.items():
                    name = table.symbols[i].name
                    imgs[name] = imgs.get(name, table.zero()) + th * v
        out.append(Derivation(table, ODD, imgs, f"{'D' if sign < 0 else 'tau'}_{a}"))
    return out


def odd_field_relations_ok(table, thetas, T) -> bool:
    """[D_a, D_b] = -2 T_ab, [tau_a, tau_b] = 2 T_ab and [D_a, tau_b] = 0 for
    the fields of `odd_fields`.

    The bracket of two odd fields is symmetric, so [D_a, D_b] and
    [tau_a, tau_b] are compared for a <= b only; an asymmetric T still
    fails, since on an even coordinate [D_a, D_b] is -(T_ab + T_ba).
    """
    D = odd_fields(table, thetas, T, -1)
    tau = odd_fields(table, thetas, T, 1)
    for i, a in enumerate(thetas):
        if not all(super_bracket(D[i], t).is_zero() for t in tau):
            return False
        for j in range(i, len(thetas)):
            Tab = T.get((a, thetas[j]))
            for F, s in ((D, -2), (tau, 2)):
                br = super_bracket(F[i], F[j])
                if not (br.is_zero() if Tab is None else br == Tab.scale(s)):
                    return False
    return True


def jacobi_check(x: Derivation, y: Derivation, z: Derivation) -> bool:
    """Graded Jacobi identity, evaluated on every generator of the table."""
    gx, gy, gz = x.parity, y.parity, z.parity

    def sgn(a, b):
        return -1 if (a and b) else 1

    t1 = super_bracket(x, super_bracket(y, z))
    t2 = super_bracket(y, super_bracket(z, x))
    t3 = super_bracket(z, super_bracket(x, y))
    total = t1.scale(sgn(gx, gz)) + t2.scale(sgn(gy, gx)) + t3.scale(sgn(gz, gy))
    return total.is_zero()


def skew_check(x: Derivation, y: Derivation) -> bool:
    """[x,y] + (-1)^(gr x gr y)[y,x] = 0."""
    b1 = super_bracket(x, y)
    b2 = super_bracket(y, x).scale(-1 if (x.parity and y.parity) else 1)
    return (b1 + b2).is_zero()


def cartan_triple(n: int, xi_components):
    """Differential forms on R^n as odd generators dx^i, with the operators
    d, contraction by xi and the Lie derivative along xi.

    xi_components: list of n callables, each building from the returned
    table a polynomial in its even symbols (checked to be even).
    Returns (table, d, iota, lie) with lie = [d, iota].
    """
    if n < 1:
        raise ValueError("need n >= 1")
    table = SymbolTable()
    xs = [table.even_symbol(f"x{i+1}").name for i in range(n)]
    dxs = [table.odd_symbol(f"dx{i+1}").name for i in range(n)]
    comps = [c(table) for c in xi_components]
    if any(s.parity == ODD for c in comps for s in c.support()):
        raise ValueError("vector field components must be even polynomials")
    if len(comps) != n:
        raise ValueError("need one component per coordinate")

    d = Derivation(table, ODD, {xs[i]: table.sym(dxs[i]) for i in range(n)}, "d")
    iota = Derivation(table, ODD, {dxs[i]: comps[i] for i in range(n)}, "iota")
    return table, d, iota, super_bracket(d, iota)
