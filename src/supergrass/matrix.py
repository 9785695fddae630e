"""Small sparse matrices over any ring."""


class Matrix:
    """Sparse matrix over a ring whose elements support +, - and * and test
    false exactly when zero: int, Fraction, QI, or DAElement with rational or
    polynomial coefficients.

    rows[i] is {column: entry}, written through m[i, j] = v.  No entry that
    tests false is stored: each result of @, +, -, scale and map drops the
    zeros it makes, so every operation walks nonzero entries only and ==
    compares the row dicts.  `zero` is the ring's zero, read for an empty
    slot; scale and map carry it into the ring of the result.  Each product
    entry is a sum of single binary products in index order, so octonion
    non-associativity never enters.
    """

    __slots__ = ("rows", "ncols", "zero")

    def __init__(self, entries, zero):
        """From dense rows, dropping the entries that test false."""
        self.rows = [{j: e for j, e in enumerate(row) if e} for row in entries]
        self.ncols, self.zero = len(entries[0]), zero

    @classmethod
    def _of(cls, rows, ncols, zero):
        m = object.__new__(cls)
        m.rows, m.ncols, m.zero = rows, ncols, zero
        return m

    @classmethod
    def zeros(cls, n, zero):
        return cls._of([{} for _ in range(n)], n, zero)

    def __getitem__(self, ij):
        return self.rows[ij[0]].get(ij[1], self.zero)

    def __setitem__(self, ij, value):
        self.rows[ij[0]][ij[1]] = value
        if not value:
            del self.rows[ij[0]][ij[1]]

    def _combine(self, other, op, lone):
        """op(a, b) entrywise; an entry that only other has becomes lone(b)."""
        rows = [dict(r) for r in self.rows]
        for row, r2 in zip(rows, other.rows):
            for j, b in r2.items():
                row[j] = op(row[j], b) if j in row else lone(b)
        return self._of([{j: e for j, e in r.items() if e} for r in rows], self.ncols, self.zero)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, lambda b: b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b, lambda b: -b)

    def __neg__(self):
        return self.map(lambda a: -a)

    def scale(self, c):
        """Entrywise e.scale(c): c multiplies each entry on the left, through
        the zero's `scaler(c)`, which reads c once for the whole matrix."""
        return self.map(self.zero.scaler(c))

    def map(self, f):
        return self._of([{j: v for j, e in row.items() if (v := f(e))} for row in self.rows],
                        self.ncols, f(self.zero))

    def transpose(self):
        out = self._of([{} for _ in range(self.ncols)], len(self.rows), self.zero)
        for i, row in enumerate(self.rows):
            for j, e in row.items():
                out.rows[j][i] = e
        return out

    def __matmul__(self, other):
        out = []
        for row in self.rows:
            acc = {}
            for k, a in sorted(row.items()):
                for j, b in other.rows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: s for j, s in acc.items() if s})
        return self._of(out, other.ncols, self.zero)

    def is_zero(self):
        return not any(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r}, ncols={self.ncols})"
