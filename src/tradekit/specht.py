"""Two-row column tabloids: sign canonicalization, adjacent-column relations,
standard fillings, straightening, and the linear map onto total trades.

A column tabloid is a two-row filling taken modulo transpositions inside a
column, so sorting each height-2 column costs a sign.  The adjacent-column
elements built by `garnir` span the relations that present the irreducible
two-row representation as a quotient, and `straighten` rewrites any tabloid
expression into the standard-filling basis with integer coefficients.

Straightening keeps raw `(row1, row2)` tuples in canonical form: height-2
columns sorted and ordered by top entry, the tail sorted.  A row-2 descent or
the last top above the first tail entry is left, for a column exchange shared
with `garnir`.  Each rewrite strictly lowers the key (row 2 and the tops as
bitmasks, then row 2), so a heap pass ends without recursion and expands each
canonical tabloid at most once.  That bounds the rewrites by the number of
canonical tabloids of shape (n - m, m), C(n, 2m)(2m - 1)!!: the 2m column
entries, times their pairings into columns.  Only the input terms are
canonicalised from scratch.  An exchange changes two adjacent columns, or the
last column and the tail head, so each step emits both children already
canonical: the order of the parent fixes each child's sign, one bisection
puts the moved column back among the others (and the moved entry into the
tail), and each key bitmask changes by two bits.  The standard survivors
become tableaux without re-validation.  `trade_map_expr` adds the image of
each term into one running sum.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from math import prod
from operator import gt, neg
from typing import Iterable

from .boolean_algebra import BooleanElement
from .combinatorics import binomial
from .linalg import Scalar, exact, render_signed_sum
from .trades import TradeSpec, _require_trade_domain, total_trade

# The (row1, row2) entries of a two-row filling, as straightening handles them.
Rows = tuple[tuple[int, ...], tuple[int, ...]]

# x -> 2**x, mapped over a row to build its bitmask.
_bit = (1).__lshift__


@dataclass(frozen=True)
class TwoRowShape:
    """A partition with at most two parts; the filled entries are 1..n."""

    lambda1: int
    lambda2: int

    def __post_init__(self) -> None:
        if not 0 <= self.lambda2 <= self.lambda1:
            raise ValueError(
                f"need lambda1 >= lambda2 >= 0, got ({self.lambda1}, {self.lambda2})"
            )

    @property
    def n(self) -> int:
        return self.lambda1 + self.lambda2


@dataclass(frozen=True)
class Tableau:
    """A filling of a two-row shape with each of 1..n used exactly once."""

    shape: TwoRowShape
    row1: tuple[int, ...]
    row2: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row1", tuple(self.row1))
        object.__setattr__(self, "row2", tuple(self.row2))
        if len(self.row1) != self.shape.lambda1 or len(self.row2) != self.shape.lambda2:
            raise ValueError(
                f"rows of length {len(self.row1)}/{len(self.row2)} do not fit shape "
                f"({self.shape.lambda1}, {self.shape.lambda2})"
            )
        if sorted(self.row1 + self.row2) != list(range(1, self.shape.n + 1)):
            raise ValueError(f"entries must be exactly 1..{self.shape.n}, each once")

    @classmethod
    def _make(cls, shape: TwoRowShape, row1: tuple[int, ...], row2: tuple[int, ...]) -> Tableau:
        # Fast path for internal callers whose rows are a valid filling of shape.
        self = cls.__new__(cls)
        object.__setattr__(self, "__dict__", {"shape": shape, "row1": row1, "row2": row2})
        return self


@dataclass(frozen=True)
class Tabloid:
    """A column-canonical tableau plus the sign accumulated by canonicalization."""

    tableau: Tableau
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")


def canonicalize(t: Tableau) -> Tabloid:
    """Sort every height-2 column increasing top-to-bottom; each swap flips the sign."""
    r1, r2 = t.row1, t.row2
    sign = -1 if sum(map(gt, r1, r2)) & 1 else 1
    top = tuple(map(min, r1, r2)) + r1[len(r2) :]
    return Tabloid(Tableau._make(t.shape, top, tuple(map(max, r1, r2))), sign)


def is_standard(t: Tableau) -> bool:
    """Rows strictly increase left-to-right and columns top-to-bottom."""
    r1, r2 = t.row1, t.row2
    return (
        all(r1[i] < r1[i + 1] for i in range(len(r1) - 1))
        and all(r2[i] < r2[i + 1] for i in range(len(r2) - 1))
        and all(r1[i] < r2[i] for i in range(len(r2)))
    )


def standard_tableaux(shape: TwoRowShape) -> list[Tableau]:
    """All standard fillings, sorted by (row1, row2); there are
    C(n, lambda2) - C(n, lambda2 - 1) of them."""
    n = shape.n
    out = []
    for row2 in combinations(range(1, n + 1), shape.lambda2):
        in_row2 = set(row2)
        row1 = tuple(x for x in range(1, n + 1) if x not in in_row2)
        if all(row1[i] < row2[i] for i in range(shape.lambda2)):
            out.append(Tableau(shape, row1, row2))
    out.sort(key=lambda t: (t.row1, t.row2))
    return out


def specht_dim(shape: TwoRowShape) -> int:
    """C(n, lambda2) - C(n, lambda2 - 1), the dimension of the two-row irreducible."""
    n = shape.n
    return binomial(n, shape.lambda2) - binomial(n, shape.lambda2 - 1)


def young_rule(k: int, n: int) -> list[TwoRowShape]:
    """Shapes (n-j, j) for j = 0..min(k, n-k); their dimensions sum to C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k} n={n}")
    return [TwoRowShape(n - j, j) for j in range(min(k, n - k) + 1)]


class TabloidExpr:
    """A rational combination of column tabloids of one shape.

    Terms are keyed by canonical tableaux; the canonicalization sign is folded
    into the coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        acc: dict[Tableau, Scalar] = {}
        shape = None
        for item, coeff in terms:
            if isinstance(item, Tabloid):
                tab, sgn = item.tableau, item.sign
            else:
                q = canonicalize(item)
                tab, sgn = q.tableau, q.sign
            if shape is None:
                shape = tab.shape
            elif tab.shape != shape:
                raise ValueError("mixed shapes in one tabloid expression")
            acc[tab] = acc.get(tab, 0) + sgn * exact(coeff)
        self._terms = {t: c for t, c in acc.items() if c}

    @classmethod
    def _make(cls, terms: dict[Tableau, Scalar]) -> TabloidExpr:
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, t: Tableau) -> Scalar:
        q = canonicalize(t)
        return q.sign * self._terms.get(q.tableau, 0)

    def terms(self) -> list[tuple[Tableau, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: (kv[0].row1, kv[0].row2))

    def tableaux(self) -> list[Tableau]:
        return [t for t, _ in self.terms()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabloidExpr):
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> TabloidExpr:
        return TabloidExpr._make({t: -c for t, c in self._terms.items()})

    def __add__(self, other: TabloidExpr) -> TabloidExpr:
        if not isinstance(other, TabloidExpr):
            return NotImplemented
        a, b = next(iter(self._terms), None), next(iter(other._terms), None)
        if a is not None and b is not None and a.shape != b.shape:
            raise ValueError("mixed shapes in one tabloid expression")
        out = dict(self._terms)
        for t, c in other._terms.items():
            out[t] = out.get(t, 0) + c
        return TabloidExpr._make({t: c for t, c in out.items() if c})

    def __sub__(self, other: TabloidExpr) -> TabloidExpr:
        return self + (-other)

    def __mul__(self, other) -> TabloidExpr:
        c = exact(other)
        if not c:
            return TabloidExpr._make({})
        return TabloidExpr._make({t: c * v for t, v in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"TabloidExpr({render_expr(self)})"


def render_tableau(t: Tableau) -> str:
    """Text form `[a b c / d e]`; a single-row filling prints `[a b c /]`."""
    r1 = " ".join(map(str, t.row1))
    if not t.row2:
        return f"[{r1} /]"
    return f"[{r1} / {' '.join(map(str, t.row2))}]"


def render_expr(e: TabloidExpr) -> str:
    """Signed sum of tableau forms, `0` for the zero expression."""
    return render_signed_sum((render_tableau(t), c) for t, c in e.terms())


def garnir(u: Tableau, c: int) -> TabloidExpr:
    """The adjacent-column relation at columns c, c+1 (1-based), canonicalized.

    For c <= lambda2 the top entry of column c+1 is exchanged in turn with the
    two entries of column c and the result is q - q_1 - q_2; past the second
    row it is the two-term swap q - q_3.  Every such element maps to zero in
    the two-row quotient.
    """
    shape = u.shape
    if not 1 <= c <= shape.lambda1 - 1:
        raise ValueError(f"column must lie in 1..{shape.lambda1 - 1}, got {c}")
    r1, r2 = u.row1, u.row2
    i, top = c - 1, r1[c]
    rest = r1[c + 1 :]
    terms = [(u, 1), (Tableau(shape, r1[:i] + (top, r1[i]) + rest, r2), -1)]
    if i < len(r2):
        terms.append((Tableau(shape, r1[:c] + (r2[i],) + rest, r2[:i] + (top,) + r2[c:]), -1))
    return TabloidExpr(terms)


def _canonical(rows: Rows) -> tuple[Rows, int]:
    # The relations with coefficient one, in one pass over the columns: sort
    # each height-2 column (a sign per swap), then order those columns by top
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
    tops, bottoms = zip(*columns) if m else ((), ())
    if m < len(r1):
        tops += tuple(sorted(r1[m:]))
    return (tops, bottoms), sign


def _children(rows: Rows, bits1: int, bits2: int) -> tuple | None:
    # The two exchange children of canonical rows, each already canonical, as
    # (rows, sign, bits1, bits2): the bitmasks of the column tops and of row
    # 2.  None when the rows are standard.  The children are the raw
    # fillings of the column exchange at the rewrite's descent, canonical;
    # the canonical order of the parent fixes which way each changed column
    # sorts, so only the moved column or entry is placed anew.
    r1, r2 = rows
    m = len(r2)
    for j in range(1, m):
        if r2[j - 1] > r2[j]:
            # Row-2 descent b > d in the columns (s, b), (a, d): the bottom b
            # meets the top a, then the bottom d.  The first child's columns
            # are (s, a) and (b, d); the second sorts to (d, b) at sign -1
            # and moves right to its top d.  The second child's columns
            # (s, d) and (a, b) are sorted and keep their places.
            i = j - 1
            a, b, d = r1[j], r2[i], r2[j]
            p = bisect(r1, d, j + 1, m)
            tops = r1[:j] + r1[j + 1 : p] + (d,) + r1[p:]
            bottoms = r2[:i] + (a,) + r2[j + 1 : p] + (b,) + r2[p:]
            return (
                ((tops, bottoms), -1, bits1 - _bit(a) + _bit(d), bits2 - _bit(d) + _bit(a)),
                ((r1, r2[:i] + (d, b) + r2[j + 1 :]), 1, bits1, bits2),
            )
    if not 0 < m < len(r1) or r1[m - 1] < r1[m]:
        return None
    # The last column (s, b) has its top above the tail head h: h meets s,
    # then b.  The first child's column (h, b) is sorted; the second's (s, h)
    # sorts to (h, s) at sign -1.  Both move left to their top h, and the
    # entry given up, s or b, joins the sorted tail.
    i = m - 1
    s, b, h = r1[i], r2[i], r1[m]
    p = bisect(r1, h, 0, i)
    tops = r1[:p] + (h,) + r1[p:i]
    bits1 += _bit(h) - _bit(s)
    q, v = bisect(r1, s, m + 1), bisect(r1, b, m + 1)
    return (
        ((tops + r1[m + 1 : q] + (s,) + r1[q:], r2[:p] + (b,) + r2[p:i]), 1, bits1, bits2),
        (
            (tops + r1[m + 1 : v] + (b,) + r1[v:], r2[:p] + (s,) + r2[p:i]),
            -1,
            bits1,
            bits2 + _bit(s) - _bit(b),
        ),
    )


def _canonical_count(shape: TwoRowShape) -> int:
    # C(n, 2m)(2m - 1)!!: the canonical tabloids of shape (n - m, m).
    m = shape.lambda2
    return binomial(shape.n, 2 * m) * prod(range(1, 2 * m, 2))


def straighten(e: TabloidExpr) -> TabloidExpr:
    """Rewrite an expression modulo the adjacent-column relations until every
    surviving tabloid is standard; integer inputs give integer outputs.

    One heap pass over canonical tabloids, largest key first, expands each
    once with its incoming coefficients merged, so there are at most
    C(n, 2m)(2m - 1)!! rewrites for shape (n - m, m).  Each rewrite emits
    its two children already canonical, with their signs and keys, instead
    of sorting every column again.  Going past that bound means the key did
    not decrease: a bug, raised as RuntimeError.
    """
    pending: dict[Rows, Scalar] = {}
    heap: list = []

    def push(rows: Rows, coeff: Scalar, bits1: int, bits2: int) -> None:
        if rows in pending:
            pending[rows] += coeff
        else:
            pending[rows] = coeff
            # The key (see the module docstring), negated for the min-heap.
            heappush(heap, (-bits2, -bits1, tuple(map(neg, rows[1])), rows))

    shape = None
    for tab, coeff in e.terms():
        shape = tab.shape
        rows, sign = _canonical((tab.row1, tab.row2))
        r1, r2 = rows
        push(rows, sign * coeff, sum(map(_bit, r1[: len(r2)])), sum(map(_bit, r2)))
    fuel = 0 if shape is None else _canonical_count(shape)
    out: dict[Tableau, Scalar] = {}
    while heap:
        bits2, bits1, _, rows = heappop(heap)
        coeff = pending.pop(rows)
        if not coeff:
            continue
        children = _children(rows, -bits1, -bits2)
        if children is None:
            out[Tableau._make(shape, *rows)] = coeff
            continue
        if not fuel:
            raise RuntimeError("straightening fuel exhausted")
        fuel -= 1
        for child, sign, bits1, bits2 in children:
            push(child, sign * coeff, bits1, bits2)
    return TabloidExpr._make(out)


def trade_map(q: Tabloid, k: int) -> BooleanElement:
    """Signed total trade read off the columns of a two-row tabloid.

    The height-2 columns give the pairs (x_i, y_i); the single-row tail of
    the tableau is ignored, matching the sum over all possible tails.
    """
    shape = q.tableau.shape
    if shape.lambda2 == 0:
        raise ValueError("the trade map needs a shape with a second row")
    t = shape.lambda2 - 1
    n = shape.n
    if not t < k:
        raise ValueError(f"need k > {t} for shape ({shape.lambda1}, {shape.lambda2})")
    _require_trade_domain(t, k, n)
    spec = TradeSpec._make(n, t, k, q.tableau.row1[: t + 1], q.tableau.row2)
    return q.sign * total_trade(spec)


def trade_map_expr(e: TabloidExpr, k: int) -> BooleanElement:
    """Linear extension of the trade map to tabloid expressions."""
    terms = e.terms()
    if not terms:
        raise ValueError("cannot infer the ground set of an empty expression")
    # Summed in one dict: BooleanElement + would copy the running sum per term.
    acc: dict[tuple[int, ...], Scalar] = {}
    get = acc.get
    for tab, coeff in terms:
        for s, c in trade_map(Tabloid(tab, 1), k)._terms.items():
            acc[s] = get(s, 0) + coeff * c
    return BooleanElement._make(terms[0][0].shape.n, {s: c for s, c in acc.items() if c})
