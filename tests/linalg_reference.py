"""Test-only matrix helpers, kept apart from `tradekit.linalg`.

`kernel_basis` is a plain rational Gauss-Jordan reduction that shares no
code with `IntegerEchelon`, so the tests use it as the independent
reference for every rank the library computes.  `eliminated_reduced_rows`
is the reduction mod p that the library's single back substitution
replaced: an `_EchelonModP` forward pass, then back substitution.
"""

import sys
from array import array
from fractions import Fraction

from tradekit.linalg import _P, _SLOT, RationalMatrix, Vector, _EchelonModP, _unpack


def zeros(nrows: int, ncols: int) -> RationalMatrix:
    return RationalMatrix([[0] * ncols for _ in range(nrows)], ncols)


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def transpose(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(
        [[m.entry(i, j) for i in range(m.nrows)] for j in range(m.ncols)], m.nrows
    )


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """A basis of the right null space; its length is ncols - rank."""
    # Fractions, so that dividing by a pivot stays exact for int entries.
    rows = [[Fraction(x) for x in r] for r in m.rows()]
    pivots: list[int] = []
    r = 0
    for col in range(m.ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [0] * m.ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        basis.append(tuple(v))
    return basis


def eliminated_reduced_rows(vectors, dim):
    """The fully reduced rows mod p of integer vectors, as (pivot, slots)
    pairs in insertion order, or None when the vectors are dependent mod p.
    Each vector is first eliminated by `_EchelonModP.add`; then, from the
    last stored row up, each row is cleared at every later pivot."""
    ech = _EchelonModP(dim)
    if any(ech.add(v) is None for v in vectors):
        return None
    mask = (1 << _SLOT) - 1
    done = []  # fully reduced rows, the last one first
    out = []
    for shift, w in reversed(ech.rows):
        for s, row in done:
            c = ((w >> s) & mask) % _P
            if c:
                w += (_P - c) * row
        slots = array("Q", [x % _P for x in _unpack(w, dim)])
        done.append((shift, int.from_bytes(slots.tobytes(), sys.byteorder)))
        out.append((next(j for j, x in enumerate(slots) if x), slots))
    return out[::-1]
