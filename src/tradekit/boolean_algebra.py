"""The rational subset algebra on {1..n} and its grade-k pieces.

An element is a finitely supported rational combination of subsets; the
product of two basis subsets is their union, with the empty set as identity.
Grade-k elements are coordinate vectors over the k-subsets in colex order.
The module also builds the incidence matrix of any rational combination of
the intersection matrices between grade pieces (the inclusion matrix is one
of them) and computes the alternating-sum coefficients that predict its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Mapping

from .combinatorics import (
    Permutation,
    Subset,
    binomial,
    colex_index,
    colex_rank,
    require_ground_size,
)
from .linalg import RationalMatrix, Scalar, Vector, exact, render_signed_sum


class BooleanElement:
    """A finitely supported rational combination of subsets of {1..n}."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping | Iterable = ()):
        require_ground_size(n)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], Scalar] = {}
        for subset, coeff in items:
            key = subset.elements if isinstance(subset, Subset) else tuple(subset)
            prev = 0
            for e in key:
                if not prev < e <= n:
                    raise ValueError(f"bad subset {key} for ground set 1..{n}")
                prev = e
            acc[key] = acc.get(key, 0) + exact(coeff)
        self.n = n
        self._terms = {k: v for k, v in acc.items() if v}

    @classmethod
    def _make(cls, n: int, terms: dict[tuple[int, ...], Scalar]) -> BooleanElement:
        # Fast path for internal callers that guarantee clean terms.
        self = cls.__new__(cls)
        self.n = n
        self._terms = terms
        return self

    @classmethod
    def zero(cls, n: int) -> BooleanElement:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> BooleanElement:
        """The multiplicative identity: the empty set with coefficient 1."""
        return cls(n, {(): 1})

    @classmethod
    def term(cls, n: int, elements: Iterable[int], coeff=1) -> BooleanElement:
        return cls(n, [(tuple(elements), coeff)])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, subset: Subset | Iterable[int]) -> Scalar:
        key = subset.elements if isinstance(subset, Subset) else tuple(subset)
        return self._terms.get(key, 0)

    def terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Term list sorted by (grade, colex rank)."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), colex_rank(kv[0])))

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({len(s) for s in self._terms}))

    def homogeneous_grade(self) -> int:
        """The common grade of all terms; raises on mixed or zero elements."""
        gs = self.grades()
        if len(gs) != 1:
            raise ValueError(f"element is not homogeneous (grades {gs})")
        return gs[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __neg__(self) -> BooleanElement:
        return BooleanElement._make(self.n, {s: -c for s, c in self._terms.items()})

    def __add__(self, other: BooleanElement) -> BooleanElement:
        if not isinstance(other, BooleanElement):
            return NotImplemented
        self._require_same_n(other)
        out = dict(self._terms)
        for s, c in other._terms.items():
            v = out.get(s, 0) + c
            if v:
                out[s] = v
            else:
                out.pop(s, None)
        return BooleanElement._make(self.n, out)

    def __sub__(self, other: BooleanElement) -> BooleanElement:
        return self + (-other)

    def __mul__(self, other) -> BooleanElement:
        if isinstance(other, BooleanElement):
            self._require_same_n(other)
            out: dict[tuple[int, ...], Scalar] = {}
            for sa, ca in self._terms.items():
                for sb, cb in other._terms.items():
                    if not sb:
                        key = sa
                    elif not sa:
                        key = sb
                    else:
                        key = tuple(sorted({*sa, *sb}))
                    prev = out.get(key)
                    out[key] = ca * cb if prev is None else prev + ca * cb
            return BooleanElement._make(self.n, {k: v for k, v in out.items() if v})
        if type(other) is int and other == 1:
            return self  # elements are never mutated, so the identity needs no copy
        try:
            c = exact(other)
        except (TypeError, ValueError):
            return NotImplemented
        if not c:
            return BooleanElement.zero(self.n)
        return BooleanElement._make(self.n, {s: c * v for s, v in self._terms.items()})

    __rmul__ = __mul__

    def _require_same_n(self, other: BooleanElement) -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched ground sets: {self.n} != {other.n}")

    def __repr__(self) -> str:
        return f"BooleanElement({self.n}, {render_element(self)})"


def subset_sum(subset: Subset, m: int) -> BooleanElement:
    """Sum of all m-subsets of the given set, each with coefficient 1.

    By convention the m = 0 sum is the identity and the sum is zero as soon
    as m exceeds the number of available elements.
    """
    if m < 0:
        raise ValueError(f"subset size must be nonnegative, got {m}")
    if m == 0:
        return BooleanElement.one(subset.n)
    if m > len(subset):
        return BooleanElement.zero(subset.n)
    return BooleanElement._make(subset.n, {c: 1 for c in combinations(subset.elements, m)})


def deletion_sum(e: BooleanElement, steps: int) -> BooleanElement:
    """Deletion sum: each grade-k term maps to the sum of its (k - steps)-subsets.

    Requires a homogeneous element; equals applying the inclusion matrix
    between the two grades.
    """
    if e.is_zero:
        return e
    k = e.homogeneous_grade()
    if not 0 <= steps <= k:
        raise ValueError(f"steps must lie in 0..{k}, got {steps}")
    target = k - steps
    out: dict[tuple[int, ...], Scalar] = {}
    for s, c in e._terms.items():
        for t in combinations(s, target):
            prev = out.get(t)
            out[t] = c if prev is None else prev + c
    return BooleanElement._make(e.n, {s: c for s, c in out.items() if c})


def permute_element(sigma: Permutation, e: BooleanElement) -> BooleanElement:
    """Apply a permutation of the ground set to every term, keeping coefficients."""
    if sigma.n != e.n:
        raise ValueError(f"mismatched ground sets: {sigma.n} != {e.n}")
    return BooleanElement._make(
        e.n, {tuple(sorted(sigma(x) for x in s)): c for s, c in e._terms.items()}
    )


def element_to_vector(e: BooleanElement, k: int) -> Vector:
    """Coordinates of a grade-k element over the k-subsets in colex order."""
    index = colex_index(k, e.n)
    v = [0] * len(index)
    for s, c in e._terms.items():
        if len(s) != k:
            raise ValueError(f"element has a term of grade {len(s)}, expected {k}")
        v[index[s]] = c
    return tuple(v)


def render_element(e: BooleanElement) -> str:
    """Signed-sum text form, terms sorted by (grade, colex rank); zero is `0`.

    Coefficients of magnitude one are suppressed, the empty set prints `{}`.
    """
    return render_signed_sum(("{" + ",".join(map(str, s)) + "}", c) for s, c in e.terms())


@dataclass(frozen=True)
class MatrixSpec:
    """The combination sum_l c_l W_l of intersection matrices between the
    grade-t and grade-k pieces, given by its coefficient vector (c_0..c_t).

    The intersection matrix W_l is the unit vector e_l, and the inclusion
    matrix is W_t, so `inclusion(n, t, k) == intersection(n, t, k, t)`.
    """

    n: int
    t: int
    k: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.t <= self.k <= self.n:
            raise ValueError(f"need 0 <= t <= k <= n, got t={self.t} k={self.k} n={self.n}")
        if len(self.coeffs) != self.t + 1:
            raise ValueError(f"combination needs exactly t+1={self.t + 1} coefficients")
        object.__setattr__(self, "coeffs", tuple(exact(c) for c in self.coeffs))

    @classmethod
    def inclusion(cls, n: int, t: int, k: int) -> MatrixSpec:
        # |A ∩ B| = t iff A ⊆ B for a t-set A.
        return cls.intersection(n, t, k, t)

    @classmethod
    def intersection(cls, n: int, t: int, k: int, l: int) -> MatrixSpec:
        if not 0 <= l <= t:
            raise ValueError(f"intersection needs 0 <= l <= t, got l={l}")
        return cls(n, t, k, tuple(int(j == l) for j in range(t + 1)))

    @classmethod
    def combination(cls, n: int, t: int, k: int, coeffs: Iterable) -> MatrixSpec:
        return cls(n, t, k, tuple(coeffs))


@cache
def _masks(k: int, n: int) -> tuple[int, ...]:
    # The k-sets of 1..n in colex order, each as the bitmask of its elements.
    return tuple(sum(1 << (e - 1) for e in s) for s in colex_index(k, n))


_MAX_CELLS = 1 << 24  # the largest matrix verify builds at n = 10 has 52920 cells


def build_matrix(spec: MatrixSpec) -> RationalMatrix:
    """Incidence matrix with C(n,t) rows and C(n,k) columns in colex order:
    the cell of t-set A and k-set B holds c_l, where l = |A ∩ B|.  A matrix
    of more than 2^24 cells raises ValueError before any subset is listed."""
    nrows, ncols = binomial(spec.n, spec.t), binomial(spec.n, spec.k)
    if nrows * ncols > _MAX_CELLS:
        raise ValueError(f"{nrows}x{ncols} matrix exceeds the limit of {_MAX_CELLS} cells")
    col_masks = _masks(spec.k, spec.n)
    coeffs = spec.coeffs  # already exact: `MatrixSpec.__post_init__` saw to it
    rows = [[coeffs[(a & b).bit_count()] for b in col_masks] for a in _masks(spec.t, spec.n)]
    return RationalMatrix._make(rows, len(col_masks))


@cache
def lambda_coeff(t: int, k: int, n: int, l: int, j: int) -> int:
    """Alternating binomial sum deciding which isotypic blocks survive.

    lambda_j(t,k,n;l) = sum_s (-1)^(j-s) C(j,s) C(k-s,l-s) C(n-k-j+s,t-l-j+s),
    evaluated with the vanishing binomial convention.  Each value is cached,
    since `predicted_rank` asks for the same ones for every coefficient
    vector of a (t, k, n).
    """
    if not 0 <= l <= t:
        raise ValueError(f"need 0 <= l <= t, got l={l} t={t}")
    if not 0 <= j <= t:
        raise ValueError(f"need 0 <= j <= t, got j={j} t={t}")
    return sum(
        (-1) ** (j - s)
        * binomial(j, s)
        * binomial(k - s, l - s)
        * binomial(n - k - j + s, t - l - j + s)
        for s in range(j + 1)
    )


def _check_rank_domain(t: int, k: int, n: int) -> None:
    if not (0 <= t <= k and 2 * k <= n):
        raise ValueError(f"rank prediction needs t <= k <= n/2, got t={t} k={k} n={n}")


def j_set(t: int, k: int, n: int, coeffs: Iterable) -> set[int]:
    """Indices j in 0..t whose combined coefficient sum_l c_l*lambda_j(t,k,n;l)
    is nonzero; these are the isotypic blocks surviving in the image.

    The whole linear combination must be tested: mixed-sign lambda values let
    coefficient vectors cancel a block even when every c_l is nonzero (for
    t=1, k=2, n=5 the vector (1, 1) produces the all-ones matrix of rank 1).
    """
    _check_rank_domain(t, k, n)
    cs = tuple(exact(c) for c in coeffs)
    if len(cs) != t + 1:
        raise ValueError(f"need exactly t+1={t + 1} coefficients, got {len(cs)}")
    return {
        j
        for j in range(t + 1)
        if sum(c * lambda_coeff(t, k, n, l, j) for l, c in enumerate(cs))
    }


def predicted_rank(t: int, k: int, n: int, coeffs: Iterable) -> int:
    """Predicted rank of sum_l c_l * (intersection matrix at l): a sum of
    consecutive-binomial differences over the surviving indices."""
    return sum(binomial(n, j) - binomial(n, j - 1) for j in j_set(t, k, n, coeffs))
