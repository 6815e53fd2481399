"""Test-only straightening, kept apart from `tradekit.specht`.

`straighten` here is the heap pass that re-canonicalises every child from
scratch: each rewrite lists the raw fillings of one column exchange, and each
of them is sorted column by column, its columns ordered by top entry and its
tail sorted.  It shares no private code with the library, so the tests use it
as the reference for the library's incremental pass, coefficient types
included.
"""

import heapq
from math import comb, prod

from tradekit.specht import Tableau, TabloidExpr


def canonical(rows):
    # Sort each height-2 column (a sign per swap), order the columns by top
    # entry and sort the tail.
    r1, r2 = rows
    m = len(r2)
    sign = 1
    columns = []
    for x, y in zip(r1, r2):
        if x > y:
            columns.append((y, x))
            sign = -sign
        else:
            columns.append((x, y))
    columns.sort()
    tops = tuple(x for x, _ in columns) + tuple(sorted(r1[m:]))
    return (tops, tuple(y for _, y in columns)), sign


def exchanges(rows, c, row):
    # The raw fillings of the exchange at columns (c, c+1), 1-based: the top
    # of column c+1 against each entry of column c for a first-row descent,
    # the bottom of column c against each entry of column c+1 for a
    # second-row descent.
    i = c - 1
    (ra, ia), j = ((0, i + 1), i) if row == 1 else ((1, i), i + 1)
    out = []
    for rb in (0, 1):
        if j < len(rows[rb]):
            swapped = [list(rows[0]), list(rows[1])]
            swapped[ra][ia], swapped[rb][j] = swapped[rb][j], swapped[ra][ia]
            out.append((tuple(swapped[0]), tuple(swapped[1])))
    return out


def exchange_site(rows):
    # The (column, row) of the exchange that canonical rows rewrite by: the
    # first second-row descent, else the last top above the tail head.  None
    # when the rows are standard.
    r1, r2 = rows
    m = len(r2)
    for c in range(1, m):
        if r2[c - 1] > r2[c]:
            return c, 2
    if 0 < m < len(r1) and r1[m - 1] > r1[m]:
        return m, 1
    return None


def straighten(e):
    """Largest key first, every child canonicalised from scratch."""
    pending = {}
    heap = []

    def push(raw, coeff):
        rows, sign = canonical(raw)
        if rows not in pending:
            pending[rows] = 0
            r1, r2 = rows
            bits1 = sum(1 << x for x in r1[: len(r2)])
            bits2 = sum(1 << y for y in r2)
            heapq.heappush(heap, ((-bits2, -bits1, tuple(-y for y in r2)), rows))
        pending[rows] += sign * coeff

    shape = None
    for tab, coeff in e.terms():
        shape = tab.shape
        push((tab.row1, tab.row2), coeff)
    m = 0 if shape is None else shape.lambda2
    fuel = 0 if shape is None else comb(shape.n, 2 * m) * prod(range(1, 2 * m, 2))
    out = {}
    while heap:
        rows = heapq.heappop(heap)[1]
        coeff = pending.pop(rows)
        if not coeff:
            continue
        site = exchange_site(rows)
        if site is None:
            out[Tableau(shape, *rows)] = coeff
            continue
        if not fuel:
            raise RuntimeError("straightening fuel exhausted")
        fuel -= 1
        for raw in exchanges(rows, *site):
            push(raw, coeff)
    return TabloidExpr._make(out)
