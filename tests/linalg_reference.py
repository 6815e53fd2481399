"""Test-only matrix helpers, kept apart from `tradekit.linalg`.

`kernel_basis` is a plain rational Gauss-Jordan reduction that shares no
code with `IntegerEchelon`, so the tests use it as the independent
reference for every rank the library computes.
"""

from fractions import Fraction

from tradekit.linalg import RationalMatrix, Vector


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
