"""Subsets of {1..n} in colexicographic order, binomials, and permutations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterator, Sequence


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention that C(a, b) = 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def require_ground_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"ground-set size must be nonnegative, got {n}")


@dataclass(frozen=True)
class Subset:
    """A subset of {1..n}, stored as a strictly increasing tuple of elements."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        require_ground_size(self.n)
        prev = 0
        for e in self.elements:
            if not prev < e <= self.n:
                raise ValueError(
                    f"elements must be strictly increasing in 1..{self.n}, got {self.elements}"
                )
            prev = e

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements


def colex_rank(s: Subset | Sequence[int]) -> int:
    """Rank of a k-subset in colexicographic order, counting from 0.

    Does not depend on the ground-set size: the i-th smallest element e
    contributes C(e - 1, i).  A raw sequence must be strictly increasing
    with every element at least 1.
    """
    rank = prev = 0
    for i, e in enumerate(s.elements if isinstance(s, Subset) else s, start=1):
        if e <= prev:
            raise ValueError(f"elements must be strictly increasing and >= 1, got {tuple(s)}")
        rank += binomial(e - 1, i)
        prev = e
    return rank


def colex_unrank(r: int, k: int, n: int) -> Subset:
    """The k-subset of {1..n} with colexicographic rank r."""
    if not 0 <= r < binomial(n, k):
        raise ValueError(f"rank {r} out of range for {k}-subsets of 1..{n}")
    out = []
    for i in range(k, 0, -1):
        e = i
        while binomial(e, i) <= r:
            e += 1
        out.append(e)
        r -= binomial(e - 1, i)
    out.reverse()
    return Subset(n, tuple(out))


def colex_tuples(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {1..n} as sorted tuples, in colexicographic order.

    Sorts the combinations by their reversed tuples, without recursion, so
    any k works.
    """
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    yield from sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])


@cache
def colex_index(k: int, n: int) -> dict[tuple[int, ...], int]:
    """Colex index of every k-subset tuple of {1..n}, in colex order.

    One shared table per (k, n), built once per process and never evicted,
    so callers must not mutate it.
    """
    return {s: colex_rank(s) for s in colex_tuples(k, n)}


def subsets_iter(k: int, n: int) -> Iterator[Subset]:
    """All k-subsets of {1..n} in colex order; stream position equals colex_rank."""
    for elems in colex_tuples(k, n):
        yield Subset(n, elems)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} given by its tuple of images (sigma(1), ..., sigma(n))."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        require_ground_size(self.n)
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError(f"images must be a bijection of 1..{self.n}, got {self.images}")

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} is outside 1..{self.n}")
        return self.images[x - 1]

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> Permutation:
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad transposition ({i} {j}) on 1..{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(n, tuple(images))

    def compose(self, other: Permutation) -> Permutation:
        """self after other: compose(self, other)(x) = self(other(x))."""
        if self.n != other.n:
            raise ValueError(f"mismatched ground sets: {self.n} != {other.n}")
        return Permutation(self.n, tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(self.n, tuple(inv))
