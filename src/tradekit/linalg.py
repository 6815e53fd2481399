"""Exact linear algebra with integer or rational entries.

Rank and span queries are the independent oracle behind every verification
in this package, so there is no floating point anywhere.  Coefficients stay
as the caller gave them: `exact` keeps ints and Fractions and turns anything
else into a Fraction.  `RationalMatrix` stores dense rows.  Rank and span
queries all go through one routine, `IntegerEchelon`, a sparse fraction-free
elimination: each vector is cleared to integers once (this preserves rank),
stored rows are sparse coprime integer rows, and a row operation touches
only the nonzero entries of the stored row.  The plain rational reduction
that the rank is tested against lives with the tests, not here.
`render_signed_sum` is the one signed-sum text form, used for boolean
elements and tabloid expressions alike.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def exact(x) -> Scalar:
    """An exact coefficient: an int or Fraction as given, anything else
    (a float, a string such as "1/2", a bool) through `Fraction`."""
    return x if type(x) is int or isinstance(x, Fraction) else Fraction(x)


class RationalMatrix:
    """An immutable dense matrix of exact integers or rationals."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = [[exact(x) for x in row] for row in rows]
        if ncols is None:
            if not data:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(data[0])
        for row in data:
            if len(row) != ncols:
                raise ValueError(f"ragged rows: expected {ncols} columns, got {len(row)}")
        self.nrows = len(data)
        self.ncols = ncols
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i][j]

    def row(self, i: int) -> Vector:
        return tuple(self._rows[i])

    def rows(self) -> Iterator[Vector]:
        for r in self._rows:
            yield tuple(r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def rank(self) -> int:
        """Exact rank over the rationals (the row rank)."""
        return rank_of_columns(self._rows)

    def matvec(self, v: Sequence) -> Vector:
        """Exact matrix-vector product."""
        if len(v) != self.ncols:
            raise ValueError(f"dimension mismatch: {self.ncols} columns vs vector of {len(v)}")
        vf = [exact(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vf)) for row in self._rows)


class IntegerEchelon:
    """Incremental row-echelon accumulator for exact span and rank queries.

    Each stored row is a sparse `{column: int}` dict of coprime integers
    whose first (leading) column is its pivot, with a positive entry there;
    no two rows share a pivot.  Rows are kept in echelon form, not fully
    reduced.  An incoming vector is cleared to integers once and reduced
    only at the pivots where it is nonzero, so each row operation costs
    the support of the stored row rather than `dim`.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._pivots: list[int] = []  # sorted
        self._rows: list[dict[int, int]] = []  # self._rows[i] leads at self._pivots[i]

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Sequence) -> dict[int, int]:
        if len(vec) != self.dim:
            raise ValueError(f"dimension mismatch: expected {self.dim}, got {len(vec)}")
        v = {j: x for j, x in enumerate(vec) if x}
        if any(type(x) is not int for x in v.values()):
            v = {j: y for j, x in v.items() if (y := exact(x))}
            m = lcm(*(x.denominator for x in v.values()))
            v = {j: x.numerator * (m // x.denominator) for j, x in v.items()}
        for pc, row in zip(self._pivots, self._rows):
            c = v.get(pc)
            if not c:
                continue
            p = row[pc]
            if p != 1:
                g = gcd(p, c)
                p //= g
                c //= g
                if p != 1:
                    v = {j: x * p for j, x in v.items()}
            for j, x in row.items():
                y = v.get(j, 0) - c * x
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        v = self._reduce(vec)
        if not v:
            return False
        pivot = min(v)
        g = gcd(*v.values())
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = {j: x // g for j, x in v.items()}
        at = bisect_left(self._pivots, pivot)
        self._pivots.insert(at, pivot)
        self._rows.insert(at, v)
        return True

    def contains(self, vec: Sequence) -> bool:
        """True iff the vector already lies in the accumulated span."""
        return not self._reduce(vec)


def rank_of_columns(vectors: Iterable[Sequence]) -> int:
    """Rank of the matrix whose columns are the given vectors."""
    ech: IntegerEchelon | None = None
    for v in vectors:
        if ech is None:
            ech = IntegerEchelon(len(v))
        ech.add(v)
    return 0 if ech is None else ech.rank


def in_span(v: Sequence, vectors: Iterable[Sequence]) -> bool:
    """True iff v lies in the rational span of the given vectors."""
    ech = IntegerEchelon(len(v))
    for w in vectors:
        ech.add(w)
    return ech.contains(v)


def render_dense(m: RationalMatrix) -> str:
    """Dense text form: `rows cols` then one whitespace-separated line per row."""
    lines = [f"{m.nrows} {m.ncols}"]
    for row in m.rows():
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def render_sparse(m: RationalMatrix) -> str:
    """Sparse text form: `rows cols nnz` then `i j value` triples, 1-based."""
    triples = [
        (i + 1, j + 1, x)
        for i, row in enumerate(m.rows())
        for j, x in enumerate(row)
        if x
    ]
    lines = [f"{m.nrows} {m.ncols} {len(triples)}"]
    for i, j, x in triples:
        lines.append(f"{i} {j} {x}")
    return "\n".join(lines) + "\n"


def render_signed_sum(terms: Iterable[tuple[str, Scalar]]) -> str:
    """`a - 2*b + c` from (text, nonzero coefficient) pairs; coefficients of
    magnitude one are suppressed, and no terms print `0`."""
    parts: list[str] = []
    for body, c in terms:
        mag = abs(c)
        txt = body if mag == 1 else f"{mag}*{body}"
        if parts:
            parts.append((" - " if c < 0 else " + ") + txt)
        else:
            parts.append(f"-{txt}" if c < 0 else txt)
    return "".join(parts) or "0"


def _parse_scalar(tok: str) -> Scalar:
    """One matrix-text entry: an int when integral, else a Fraction."""
    try:
        x = Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in entry {tok!r}") from None
    return x.numerator if x.denominator == 1 else x


def parse_matrix(text: str) -> RationalMatrix:
    """Parse either matrix text form (dense: 2 header fields, sparse: 3)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) == 2:
        nrows, ncols = map(int, header)
        if len(lines) != nrows + 1:
            raise ValueError(f"expected {nrows} rows, got {len(lines) - 1}")
        rows = [[_parse_scalar(tok) for tok in ln.split()] for ln in lines[1:]]
        return RationalMatrix(rows, ncols)  # rejects a row of the wrong length
    if len(header) == 3:
        nrows, ncols, nnz = map(int, header)
        if len(lines) != nnz + 1:
            raise ValueError(f"expected {nnz} triples, got {len(lines) - 1}")
        rows = [[0] * ncols for _ in range(nrows)]
        seen = set()
        for ln in lines[1:]:
            si, sj, sval = ln.split()
            i, j = int(si) - 1, int(sj) - 1
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"index ({si}, {sj}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({si}, {sj})")
            seen.add((i, j))
            rows[i][j] = _parse_scalar(sval)
        return RationalMatrix(rows, ncols)
    raise ValueError(f"bad matrix header: {lines[0]!r}")
