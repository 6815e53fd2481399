"""Exact linear algebra with integer or rational entries.

Rank and span queries are the independent oracle behind every verification
in this package, so there is no floating point anywhere.  Coefficients stay
as the caller gave them: `exact` keeps ints and Fractions and turns anything
else into a Fraction.  `RationalMatrix` stores dense rows.  Span queries, and
every rank that the certificate below does not settle, go through one
routine, `IntegerEchelon`, a sparse fraction-free elimination: each vector
is cleared to integers once (this preserves rank), stored rows are sparse
coprime integer rows, and a row operation touches only the nonzero entries
of the stored row.  `rank_of_columns` (and so `RationalMatrix.rank`) first
tries a private certificate: integer vectors that are independent modulo the
prime 65521 are independent over the rationals, since a maximal minor that
is nonzero mod p is a nonzero integer.  Alone it answers only "full rank".
A caller that has proved an upper bound on the rank passes it as `ceiling`;
then the certificate skips vectors that are dependent mod p and answers as
soon as `ceiling` of them are independent, since
rank_Q >= rank_p = ceiling >= rank_Q.  Everything else goes to
`IntegerEchelon`.  `_EchelonModP` is the certificate's one mod-p
eliminator.  `verify` reads each stratum's character off its fully reduced
rows mod p, which `_reduced_mod_p` gets from the stratum's exact echelon
rows by one back substitution, with no second elimination.
The plain rational reduction that the rank is tested against lives with the
tests, not here.
Text is output only: `render_dense` and `render_sparse` write the two matrix
forms of `tradekit matrix`, and `render_signed_sum` is the one signed-sum
form, used for boolean elements and tabloid expressions alike.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
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
        if ncols < 0:
            raise ValueError(f"ncols must be nonnegative, got {ncols}")
        for row in data:
            if len(row) != ncols:
                raise ValueError(f"ragged rows: expected {ncols} columns, got {len(row)}")
        self.nrows = len(data)
        self.ncols = ncols
        self._rows = data

    @classmethod
    def _make(cls, rows: list[list[Scalar]], ncols: int) -> RationalMatrix:
        # Fast path for internal callers whose rows are already exact, each
        # a fresh list of `ncols` cells: no `exact` per cell.
        self = cls.__new__(cls)
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = rows
        return self

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

    def rank(self, *, ceiling: int | None = None) -> int:
        """Exact rank over the rationals (the row rank); `ceiling` is a
        caller-proven upper bound, passed on to `rank_of_columns`."""
        return rank_of_columns(self._rows, ceiling=ceiling)

    def matvec(self, v: Sequence) -> Vector:
        """Exact matrix-vector product, read over the vector's nonzero entries."""
        if len(v) != self.ncols:
            raise ValueError(f"dimension mismatch: {self.ncols} columns vs vector of {len(v)}")
        support = [i for i, x in enumerate(v) if x]
        values = [exact(v[i]) for i in support]
        return tuple(sum(map(mul, map(row.__getitem__, support), values)) for row in self._rows)


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
            v = {j: y for j, x in v.items() if (y := Fraction(x))}
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


_P = 65521  # the largest prime below 2^16
_SLOT = 8 * array("Q").itemsize  # bits per packed slot, at least 64


def _pack(v: Sequence[int]) -> int:
    return int.from_bytes(array("Q", [x % _P for x in v]).tobytes(), sys.byteorder)


def _unpack(w: int, dim: int) -> memoryview:
    # The `dim` slots of a packed vector, not reduced mod `_P`.
    return memoryview(w.to_bytes(dim * _SLOT // 8, sys.byteorder)).cast("Q")


def _shift(i: int, dim: int) -> int:
    # The bit offset of slot i in a packed vector of `dim` slots.
    return _SLOT * (i if sys.byteorder == "little" else dim - 1 - i)


class _EchelonModP:
    """Row echelon form modulo `_P` of packed integer vectors, the
    certificate's one mod-p eliminator.

    Each vector is one int with a `_SLOT`-bit slot per coordinate; packing
    takes each coordinate mod `_P`, which raises `TypeError` for any cell
    that is not an int (a `Fraction` or a float stays one after `% _P`).
    Negative ints and ints of any size pack as their residues.  A stored
    row has entries in [0, p) with 1 at its pivot and 0 at every earlier
    pivot, so reducing by the rows in insertion order clears every pivot.
    Slots are not reduced while a vector is being reduced: after r row
    operations they stay below (p-1)(1 + r(p-1)), which is below 2^64 for
    every r < 2^32, so no carry crosses a slot.  Only a reduced vector is
    unpacked, and it is scanned only up to its pivot.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[int, int]] = []  # (shift of the pivot slot, packed row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, v: Sequence[int]) -> array | None:
        """Reduce an integer vector of length `dim`; if it is nonzero mod
        `_P`, store it normalised to a leading 1 and return its slots, else
        return None."""
        dim = self.dim
        mask = (1 << _SLOT) - 1
        w = _pack(v)
        for shift, row in self.rows:
            c = ((w >> shift) & mask) % _P
            if c:
                w += (_P - c) * row
        slots = _unpack(w, dim)
        pivot = next((j for j, x in enumerate(slots) if x % _P), None)
        if pivot is None:
            return None
        inv = pow(slots[pivot], -1, _P)
        row = array("Q", [x * inv % _P for x in slots])
        self.rows.append((_shift(pivot, dim), int.from_bytes(row.tobytes(), sys.byteorder)))
        return row


def _reduced_mod_p(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, array]] | None:
    """Integer rows in echelon form, fully reduced mod `_P` by one back
    substitution: (pivot, slots) pairs in the given order, each row 1 at its
    own pivot and 0 at every other.  None unless the first nonzero positions
    strictly increase and no first nonzero entry is divisible by `_P`.  Such
    rows are independent mod `_P`, and their reduced form mod `_P` is that
    of the rational one, whose denominators divide products of those
    entries.  From the last row up, each row is cleared at every later
    pivot by the later rows, which are zero before their own pivots, so
    each pivot stays its row's first nonzero slot.  The later rows are
    already fully reduced, so no row operation changes another later
    pivot's slot, and every multiplier is read off the packed row once.
    That takes at most `len(rows)` row operations, within `_EchelonModP`'s
    slot bound."""
    done: list[tuple[int, int]] = []  # (pivot, packed row) fully reduced, the last one first
    out = []
    bound = dim
    for v in reversed(rows):
        pivot = next((j for j, x in enumerate(v) if x), bound)
        if pivot >= bound or not v[pivot] % _P:
            return None
        bound = pivot
        w = _pack(v)
        residues = _unpack(w, dim)
        for q, row in done:
            if c := residues[q]:
                w += (_P - c) * row
        inv = pow(v[pivot], -1, _P)
        slots = array("Q", [x * inv % _P for x in _unpack(w, dim)])
        done.append((pivot, int.from_bytes(slots.tobytes(), sys.byteorder)))
        out.append((pivot, slots))
    return out[::-1]


def _independent_mod_p(
    vectors: Iterator[Sequence], seen: list, ceiling: int | None = None
) -> int | None:
    """The rank of `vectors` when independence modulo `_P` settles it, else
    None.  Each consumed vector is appended to `seen`.

    With no ceiling the rank is settled only when every vector is an integer
    vector and they are independent mod `_P`; the iterator stops at the first
    vector that is not an integer vector of the first one's length, that
    reduces to zero mod `_P`, or that is one past the dimension.  With a
    ceiling a vector that reduces to zero is skipped, and the answer comes as
    soon as `ceiling` vectors are independent, before the next one is pulled;
    if the vectors run out first, the rank is settled only when none was
    skipped.  A non-int cell raises `TypeError` in `_EchelonModP.add`, and
    that answers None.
    """
    ech = None
    for v in vectors:
        seen.append(v)
        if ech is None:
            ech = _EchelonModP(len(v))
        if len(v) != ech.dim:
            return None
        if ceiling is None and len(seen) > ech.dim:
            return None
        try:
            row = ech.add(v)
        except TypeError:
            return None
        if row is None:
            if ceiling is None:
                return None
            continue
        if ech.rank == ceiling:
            return ceiling
    rank = ech.rank if ech else 0
    return rank if rank == len(seen) else None


def rank_of_columns(vectors: Iterable[Sequence], *, ceiling: int | None = None) -> int:
    """Rank of the matrix whose columns are the given vectors.

    A certificate modulo the prime p = 65521 answers first: integer vectors
    that are independent mod p have a maximal minor that is nonzero mod p,
    hence nonzero over Z, so they are independent.  With no ceiling it
    answers only when all the vectors are independent mod p.

    `ceiling` is an upper bound on the rank that the caller has proved; a
    wrong one gives a wrong rank.  With it, vectors that are dependent mod p
    are skipped, and the answer is `ceiling` as soon as that many vectors
    are independent mod p (rank_Q >= rank_p = ceiling >= rank_Q); the
    vectors after them are never pulled, and a ceiling of 0 answers 0 at
    once.  In every case the certificate does not settle, the vectors it
    consumed and the rest of the iterable go to `IntegerEchelon`, which
    computes the rank exactly.
    """
    if ceiling is not None and ceiling < 0:
        raise ValueError(f"ceiling must be nonnegative, got {ceiling}")
    if ceiling == 0:
        return 0
    it = iter(vectors)
    seen: list = []
    rank = _independent_mod_p(it, seen, ceiling)
    if rank is not None:
        return rank
    ech = IntegerEchelon(len(seen[0]))
    for v in chain(seen, it):
        ech.add(v)
    return ech.rank


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
