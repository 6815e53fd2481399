"""Product-form trades in the subset algebra.

A minimal trade multiplies signed pairs (x_i - y_i) by a fixed tail of extra
elements; a total trade replaces the fixed tail with the sum of all possible
tails from the leftover ground set.  Both are homogeneous grade-k elements.
A minimal trade is built as a product in the subset algebra; a total trade is
written out term by term, because each of its terms arises exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterator

from .boolean_algebra import _MAX_CELLS, BooleanElement, deletion_sum
from .combinatorics import Permutation, binomial


def _require_trade_domain(t: int, k: int, n: int) -> None:
    if not 0 <= t < k:
        raise ValueError(f"need 0 <= t < k, got t={t} k={k}")
    if t + k > n:
        raise ValueError(f"need t + k <= n, got t={t} k={k} n={n}")


@dataclass(frozen=True)
class TradeSpec:
    """Disjoint pairs (x_i, y_i), i = 1..t+1, plus an optional fixed tail.

    The tail is present for minimal trades (length k - t - 1) and absent for
    total trades.
    """

    n: int
    t: int
    k: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    tail: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(self.tail))
        _require_trade_domain(self.t, self.k, self.n)
        if len(self.xs) != self.t + 1 or len(self.ys) != self.t + 1:
            raise ValueError(f"need t+1={self.t + 1} xs and ys")
        if self.tail is not None and len(self.tail) != self.k - self.t - 1:
            raise ValueError(f"tail must have k-t-1={self.k - self.t - 1} elements")
        used = self.xs + self.ys + (self.tail or ())
        if len(set(used)) != len(used):
            raise ValueError(f"xs, ys and tail must be pairwise distinct, got {used}")
        for e in used:
            if not 1 <= e <= self.n:
                raise ValueError(f"element {e} outside 1..{self.n}")

    @classmethod
    def _make(cls, n: int, t: int, k: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> TradeSpec:
        # Fast path for internal callers whose (t, k, n) passed
        # _require_trade_domain and whose xs and ys are distinct in 1..n.
        self = cls.__new__(cls)
        object.__setattr__(
            self, "__dict__", {"n": n, "t": t, "k": k, "xs": xs, "ys": ys, "tail": None}
        )
        return self


def minimal_trade(spec: TradeSpec) -> BooleanElement:
    """(x_1-y_1)...(x_{t+1}-y_{t+1}) x_{t+2}...x_k with the spec's fixed tail."""
    if spec.tail is None:
        raise ValueError("minimal trade requires a tail")
    out = BooleanElement.one(spec.n)
    for x, y in zip(spec.xs, spec.ys):
        out = out * BooleanElement(spec.n, [((x,), 1), ((y,), -1)])
    for z in spec.tail:
        out = out * BooleanElement.term(spec.n, (z,))
    return out


def total_trade(spec: TradeSpec) -> BooleanElement:
    """Pair product times the sum of all (k-t-1)-subsets of the unused elements.

    Expanded term by term: each of the 2^(t+1) picks of one element per pair
    (x_i, y_i), signed (-1)^(number of y's picked), joins each (k-t-1)-subset
    of the unused elements.  Every union arises exactly once, so each
    coefficient is +-1; when fewer than k-t-1 elements are unused the trade is
    zero.  A trade of more than 2^24 terms raises ValueError before any term
    is listed.
    """
    if spec.tail is not None:
        raise ValueError("total trade takes no tail")
    size = spec.k - spec.t - 1
    terms = binomial(spec.n - 2 * spec.t - 2, size) << (spec.t + 1)
    if terms > _MAX_CELLS:
        raise ValueError(f"the trade would have {terms} terms, over the limit of {_MAX_CELLS}")
    # Over the reversed pairs the first pair varies fastest, so pick i takes y
    # from the pairs at the set bits of i, and its sign is _signs(t + 1)[i].
    picks = zip(_signs(spec.t + 1), product(*zip(spec.xs[::-1], spec.ys[::-1])))
    if not size:
        return BooleanElement._make(spec.n, {tuple(sorted(p)): sign for sign, p in picks})
    used = set(spec.xs) | set(spec.ys)
    tails = list(combinations([x for x in range(1, spec.n + 1) if x not in used], size))
    return BooleanElement._make(
        spec.n, {tuple(sorted(p + tail)): sign for sign, p in picks for tail in tails}
    )


@cache
def _signs(pairs: int) -> tuple[int, ...]:
    # (-1)^(number of bits set in i), for i < 2^pairs.
    out = (1,)
    for _ in range(pairs):
        out += tuple(-s for s in out)
    return out


def is_t_trade(e: BooleanElement, t: int) -> bool:
    """True iff the deletion sum down to grade t vanishes."""
    if e.is_zero:
        return True
    k = e.homogeneous_grade()
    if not 0 <= t <= k:
        raise ValueError(f"need 0 <= t <= grade {k}, got t={t}")
    return deletion_sum(e, k - t).is_zero


def trade_strength(e: BooleanElement) -> int | None:
    """Largest t <= k-1 for which e is a t-trade; None if not even a 0-trade.

    A t-trade is automatically an s-trade for every s <= t, so scanning from
    k-1 downward returns at the first hit.
    """
    if e.is_zero:
        raise ValueError("the zero element has no trade strength")
    k = e.homogeneous_grade()
    for t in range(k - 1, -1, -1):
        if is_t_trade(e, t):
            return t
    return None


def permute_spec(sigma: Permutation, spec: TradeSpec) -> TradeSpec:
    """Elementwise image of a spec; its pairs are not re-sorted."""
    if sigma.n != spec.n:
        raise ValueError(f"mismatched ground sets: {sigma.n} != {spec.n}")
    return TradeSpec(
        spec.n,
        spec.t,
        spec.k,
        tuple(sigma(x) for x in spec.xs),
        tuple(sigma(y) for y in spec.ys),
        None if spec.tail is None else tuple(sigma(z) for z in spec.tail),
    )


def _matchings(elems: tuple[int, ...]) -> Iterator[list[tuple[int, int]]]:
    # Perfect matchings with x < y in each pair and pairs sorted by x: the
    # smallest remaining element always opens the next pair.
    if not elems:
        yield []
        return
    first = elems[0]
    for i in range(1, len(elems)):
        rest = elems[1:i] + elems[i + 1 :]
        for sub in _matchings(rest):
            yield [(first, elems[i])] + sub


def total_trade_specs(t: int, k: int, n: int) -> Iterator[TradeSpec]:
    """All pair-normalized total-trade specs: every choice of t+1 disjoint pairs."""
    _require_trade_domain(t, k, n)
    for chosen in combinations(range(1, n + 1), 2 * (t + 1)):
        for pairs in _matchings(chosen):
            yield TradeSpec(
                n, t, k, tuple(x for x, _ in pairs), tuple(y for _, y in pairs)
            )


def all_total_trades(t: int, k: int, n: int) -> Iterator[BooleanElement]:
    """One total trade per normalized spec, in deterministic enumeration order."""
    return (total_trade(s) for s in total_trade_specs(t, k, n))


def total_trade_basis(t: int, k: int, n: int) -> list[tuple[TradeSpec, BooleanElement]]:
    """The canonical basis of the total-trade span, one trade per standard
    filling of the two-row shape (n-t-1, t+1).

    The three sortedness conditions (xs increasing, ys increasing, x_i < y_i)
    alone admit more specs than the span's dimension; standard fillings add
    the constraint that ties the last x to the unused elements, which cuts the
    list down to exactly C(n,t+1) - C(n,t) independent trades.  On the
    boundary t + k = n, k >= t + 2 the list keeps that length but every
    trade in it is zero: the ground set is one element short of a tail.
    At n = 2t + 1, k = t + 1 there is no spec and the list is empty.  A
    basis of more than 2^24 terms in all raises ValueError before any
    tableau is listed.
    """
    from .specht import TwoRowShape, specht_dim, standard_tableaux

    _require_trade_domain(t, k, n)
    if n == 2 * t + 1:
        return []
    shape = TwoRowShape(n - t - 1, t + 1)
    size = specht_dim(shape) * 2 ** (t + 1) * binomial(n - 2 * t - 2, k - t - 1)
    if size > _MAX_CELLS:
        raise ValueError(f"the basis would have {size} terms, over the limit of {_MAX_CELLS}")
    out = []
    for tab in standard_tableaux(shape):
        # A standard filling's pairs are distinct elements of 1..n.
        spec = TradeSpec._make(n, t, k, tab.row1[: t + 1], tab.row2)
        out.append((spec, total_trade(spec)))
    return out


def render_spec(spec: TradeSpec) -> str:
    """Text form `xs=[..] ys=[..] tail=[..]`; the tail is omitted when absent."""
    xs = ",".join(map(str, spec.xs))
    ys = ",".join(map(str, spec.ys))
    out = f"xs=[{xs}] ys=[{ys}]"
    if spec.tail is not None:
        out += f" tail=[{','.join(map(str, spec.tail))}]"
    return out
