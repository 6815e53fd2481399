"""Claim-verification harness.

Every check pairs a predicted quantity (closed formula or dimension count)
with a value computed independently by exact row reduction, and reports both.
Randomness is always seeded from the check's own parameters so reruns are
reproducible.  Every check returns one `Report`.  One ordered table maps
each suite name to the reports it yields over its parameter domain; `SUITES`
lists its names, and `all` runs the suites in that order.  Only ints, int
tuples and packed ints are memoised, once per process, so each stratum,
rank and check below is computed once and shared between the suites; a
report that reuses a rank shows `ms=0`.
Stratum j of grade k is the orbit span of y_j there: y_0 is the sum of all
k-sets, and y_j for j >= 1 is the first total trade of strength j - 1.
Each stratum is spun exactly once per (j, n) by `orbit_span`, as T_j at its
own grade j, under the generators (1 2) and (1 2 ... n); the spin must hold
a second total trade of the stratum, and nothing else is spun.  The
up-map W_jk^T, which sends each j-set to the sum of the k-sets that contain
it, commutes with the symmetric group and must carry y_j of grade j exactly
onto y_j of grade k (the same pairs, tails summed), so it maps T_j onto
stratum j of grade k.  Once per n, the spin's exact echelon rows of each
T_j, j <= n/2, are back-substituted mod 65521, with no second elimination,
and its character chi_j is read off those reduced rows at one permutation
per cycle type, each j-set's image found by its bitmask, and lifted to
(-p/2, p/2); it must have norm 1, so T_j is irreducible, no two may be
equal, and chi_j must be chi^{M^j} - chi^{M^(j-1)}, from counts of fixed
subsets (Young's rule).  By Schur's lemma the up-map is then injective on
T_j unless y_j of grade k is zero, which happens only on the t + k = n
boundary.  Dot products move to grade j, as <e, W_jk^T u> = <W_jk e, u>,
the deletion sum of e, read from the grade above through one cached table
of (j+1)-set boundaries, as W_{j,j+1} W_{j+1,k} = (k - j) W_jk; all of e's
exact dots with T_j's echelon rows are summed at once from T_j's signed
packed columns, in slots wide enough for every dot.  Each y_j of grade k is exactly orthogonal to every later
stratum; both are invariant, so the strata are orthogonal in pairs.
Nothing here reads the predicted side.
Every matrix rank is certified from both sides.  The mod-p certificate
gives the floor, and the orbit rank of W's first column gives the ceiling:
W[sA, sB] = W[A, B] for every permutation s, so the column of sB is s
applied to the column of B_0 = {1..k}, and as S_n is transitive on the
k-sets, W's column space is the orbit span of that one column in M^t.
Every orbit span, graver-jurkat's too, is read from the strata: for
k <= n/2 their dimensions add up to C(n, k), so every invariant subspace of
M^k is a sum of strata, and a witness e exactly orthogonal to a set K of
strata spans the sum of the strata outside K.  K must agree with the strata
that e is orthogonal to modulo p, through their reduced rows.
The span rank is stratum t + 1 of grade k, the orbit span of one total
trade, which the symmetric group carries onto every other up to sign.  The
up-map carries each total trade of grade t + 1 onto the one of grade k
with the same pairs, so the standard-filling basis is ranked at grade
t + 1: its rank is its size when the trades' colex-largest sets differ.
The span rank is a ceiling on the rank of the literal trades, all total
trades (see `literal_basis_audit`).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, compress, product as iter_product
from math import factorial, gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .boolean_algebra import (
    BooleanElement,
    MatrixSpec,
    build_matrix,
    element_to_vector,
    lambda_coeff,
    permute_element,
    predicted_rank,
)
from .combinatorics import Permutation, binomial, colex_index
from .linalg import (
    _P,
    _SLOT,
    IntegerEchelon,
    _pack,
    _reduced_mod_p,
    _shift,
    _unpack,
    rank_of_columns,
)
from .specht import TwoRowShape, specht_dim
from .trades import (
    TradeSpec,
    _require_trade_domain,
    is_t_trade,
    minimal_trade,
    total_trade,
    total_trade_basis,
    total_trade_specs,
)


class VerificationError(RuntimeError):
    """An internal consistency assertion of a check failed."""


def _fmt_param(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


@dataclass
class Report:
    """Outcome of one check: a predicted and a computed value, and for a
    direct-sum check the per-summand dimensions, containment flags and an
    internal consistency flag.  It passes when all of them agree."""

    claim: str
    params: dict
    predicted: int
    computed: int
    elapsed_ms: int = 0
    asserted: bool = True
    summands: Sequence[tuple[tuple[int, int], int, int]] = ()  # (shape, predicted, computed)
    containment: Sequence[bool] = ()
    consistent: bool = True

    @property
    def passed(self) -> bool:
        return (
            self.predicted == self.computed
            and all(p == c for _, p, c in self.summands)
            and all(self.containment)
            and self.consistent
        )

    def line(self) -> str:
        params = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items())
        return (
            f"CHECK {self.claim} params={params} "
            f"predicted={self.predicted} computed={self.computed} "
            f"pass={'true' if self.passed else 'false'} ms={self.elapsed_ms}"
        )


def _seed_from(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


def _require_half(t: int, k: int, n: int) -> None:
    if not (0 <= t < k and 2 * k <= n):
        raise ValueError(f"need t < k <= n/2, got t={t} k={k} n={n}")


@cache
def _matrix_rank(spec: MatrixSpec) -> int:
    # The certificate's floor meets the ceiling read from W's first column,
    # of B_0 = {1..k}, as the grade-t element with W[A, B_0] at each t-set A:
    # its orbit span is W's column space (see the module docstring), and
    # t <= n/2 in every matrix suite.
    m = build_matrix(spec)
    t, n = spec.t, spec.n
    column = {s: c for s, i in colex_index(t, n).items() if (c := m.entry(i, 0))}
    return m.rank(ceiling=_orbit_rank(BooleanElement._make(n, column), t)[0])


def _witness(j: int, t: int, n: int) -> BooleanElement:
    # A grade-t vector in stratum j: y_0 is the sum of all t-sets, and y_j for
    # j >= 1 is the total trade of the first spec of strength j - 1, which is
    # sparse, and zero when n = 2j - 1, t = j leaves no spec;
    # total_trade_specs rejects j > t and j - 1 + t > n.  sigma T(x, y) is
    # +-T(sigma x, sigma y) and S_n is transitive on the specs, so any
    # S_n-invariant span that holds y_j holds every total trade of stratum j.
    if j == 0:
        return BooleanElement(n, dict.fromkeys(colex_index(t, n), 1))
    spec = next(total_trade_specs(j - 1, t, n), None)
    return BooleanElement.zero(n) if spec is None else total_trade(spec)


@cache
def _stratum(j: int, n: int) -> tuple[tuple[int, ...], ...]:
    # T_j: the echelon rows of the orbit span of y_j at grade j, in pivot
    # order.  The spin gives the whole stratum only if the generators
    # generate S_n, so the total trade on the top 2j elements, pairs
    # {n-2j+1, n}, ..., must lie in the span; no power of the n-cycle
    # carries {1, 2}, {3, 4}, ... there once j >= 2.
    y = _witness(j, j, n)
    ech = orbit_span(y, j)
    if 1 <= j and 2 * j <= n:
        top = [x for i in range(j) for x in (n - 2 * j + 1 + i, n - i)]
        second = permute_element(Permutation(n, top + list(range(1, n - 2 * j + 1))), y)
        if not ech.contains(element_to_vector(second, j)):
            raise VerificationError(
                f"stratum {j} at k={j} n={n}: the spun span of rank {ech.rank} "
                "misses the total trade on the top elements"
            )
    rows = [[0] * ech.dim for _ in ech._rows]
    for dense, row in zip(rows, ech._rows):
        for c, x in row.items():
            dense[c] = x
    return tuple(map(tuple, rows))


def _up_map(e: BooleanElement, k: int) -> BooleanElement:
    # W_jk^T e for a grade-j element e: each j-set goes to the sum of the
    # k-sets that contain it.  It commutes with S_n.
    out: dict[tuple[int, ...], int] = {}
    for s, c in e._terms.items():
        for extra in combinations([x for x in range(1, e.n + 1) if x not in s], k - len(s)):
            key = tuple(sorted(s + extra))
            out[key] = out.get(key, 0) + c
    return BooleanElement._make(e.n, {s: c for s, c in out.items() if c})


@cache
def _stratum_dim(j: int, k: int, n: int) -> int:
    # The dimension of stratum j of grade k: the up-map carries T_j onto it,
    # injectively unless the lifted witness is zero (see the module docstring).
    lifted = _up_map(_witness(j, j, n), k)
    if lifted != _witness(j, k, n):
        raise VerificationError(f"the up-map from grade {j} to grade {k} at n={n} misses y_{j}")
    if lifted.is_zero:
        return 0
    _require_irreducible_strata(n)
    return len(_stratum(j, n))


@cache
def _boundary(j: int, n: int) -> tuple[tuple[int, ...], ...]:
    # For each (j+1)-set in colex order, the colex positions of its j-subsets.
    index = colex_index(j, n)
    return tuple(tuple(index[s] for s in combinations(u, j)) for u in colex_index(j + 1, n))


def _downs(e: BooleanElement, k: int) -> list[list[tuple[int, int]]]:
    # W_jk e for an integer grade-k element e and every j = 0..k, as
    # (position, coefficient) terms at grade j: e is orthogonal to stratum j
    # of grade k iff they are to T_j.  Each grade is read from the one above,
    # as W_{j,j+1} W_{j+1,k} = (k - j) W_jk, so the division is exact; below
    # a zero grade every grade is zero.
    if any(type(c) is not int for c in e._terms.values()):
        raise TypeError("the grade walk needs integer coefficients")
    index = colex_index(k, e.n)
    terms = [(index[s], c) for s, c in e._terms.items()]
    downs: list[list[tuple[int, int]]] = [[] for _ in range(k)] + [terms]
    for j in range(k - 1, -1, -1):
        if not terms:
            break
        sums = [0] * binomial(e.n, j)
        table = _boundary(j, e.n)
        for p, c in terms:
            for q in table[p]:
                sums[q] += c
        terms = downs[j] = [(q, c // (k - j)) for q, c in enumerate(sums) if c]
    return downs


@cache
def _reduced_stratum(j: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # T_j's exact echelon rows back-substituted mod p, rows r_i with pivots
    # p_i: (the pivots, the packed columns), where slot i of column c is
    # r_i[c].  The pivots must strictly increase and be nonzero mod p, so
    # that the rows stay independent mod p and keep T_j's dimension.
    vectors = _stratum(j, n)
    rows = _reduced_mod_p(vectors, binomial(n, j))
    if rows is None:
        raise VerificationError(
            f"stratum {j} at k={j} n={n}: its {len(vectors)} rows are not in echelon "
            f"form with pivots nonzero mod {_P}"
        )
    return tuple(p for p, _ in rows), tuple(map(_pack, zip(*(r for _, r in rows))))


def _orthogonal_mod_p(terms: list[tuple[int, int]], j: int, n: int) -> bool:
    # The grade-j vector with these terms is orthogonal mod p to T_j's
    # reduced rows, summed as packed columns; each slot stays below
    # len(terms) p^2, so no carry crosses a slot.
    pivots, columns = _reduced_stratum(j, n)
    dots = sum(c % _P * columns[p] for p, c in terms)
    return not any(x % _P for x in _unpack(dots, len(pivots)))


def _cycle_types(n: int) -> Iterator[tuple[int, ...]]:
    # The partitions of n, each with its parts in decreasing order.
    stack: list[tuple[tuple[int, ...], int]] = [((), n)]
    while stack:
        parts, left = stack.pop()
        if not left:
            yield parts
        for p in range(1, min(left, parts[-1] if parts else n) + 1):
            stack.append((parts + (p,), left - p))


def _class_representative(mu: tuple[int, ...]) -> tuple[int, ...]:
    # The images of 1..n under the permutation whose cycles are consecutive
    # runs of the lengths in mu: (1 2 .. mu_1)(mu_1+1 ..)...
    images: list[int] = []
    for m in mu:
        start = len(images) + 1
        images += [*range(start + 1, start + m), start]
    return tuple(images)


def _class_size(mu: tuple[int, ...]) -> int:
    # n! / z_mu, where z_mu is the product of m^a a! over the parts m of mu
    # with multiplicity a.
    z = 1
    for m in set(mu):
        a = mu.count(m)
        z *= m**a * factorial(a)
    return factorial(sum(mu)) // z


def _fixed_subsets(sigma: tuple[int, ...], k: int) -> list[int]:
    # For m = 0..k, the m-subsets of 1..n that sigma maps onto themselves,
    # the character of the permutation module M^m at sigma.  Such a subset
    # is a union of sigma's cycles, so the counts are the coefficients of
    # the product of (1 + x^len) over the cycles.
    counts = [1] + [0] * k
    seen: set[int] = set()
    for start in sigma:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = sigma[x - 1]
            length += 1
        for m in range(k, length - 1, -1):
            counts[m] += counts[m - length]
    return counts


def _character(j: int, n: int, sigmas: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    # The character of T_j at each sigma (the images of 1..n): sigma r_i has
    # coordinate r_i[sigma^-1 p_i] on the reduced row r_i with pivot p_i, so
    # chi(sigma) = sum_i r_i[sigma^-1 p_i] mod p.  It is exact: sigma's matrix
    # in the spun basis has no p in its denominators, and |chi| <= dim < p/2.
    # A j-set S is read as a bitmask, and sigma^-1 S as a sum of table bits.
    pivots, columns = _reduced_stratum(j, n)
    d = len(pivots)
    if 2 * d >= _P:
        raise ValueError(f"stratum {j} at k={j} n={n} is too large to lift its character mod {_P}")
    index = colex_index(j, n)
    position = {sum(1 << x for x in s): p for s, p in index.items()}
    pivot_sets = list(map(list(index).__getitem__, pivots))
    shifts = [_shift(i, d) for i in range(d)]
    mask = (1 << _SLOT) - 1
    chi = []
    for sigma in sigmas:
        bits = {y: 1 << x for x, y in enumerate(sigma, start=1)}  # sigma^-1(y) = x
        images = (position[sum(map(bits.__getitem__, s))] for s in pivot_sets)
        c = sum((columns[q] >> shift) & mask for q, shift in zip(images, shifts)) % _P
        chi.append(c - _P if 2 * c > _P else c)
    return tuple(chi)


@cache
def _require_irreducible_strata(n: int) -> None:
    # T_0..T_{n/2} are irreducible and pairwise non-isomorphic: each chi_j
    # has norm sum_mu |C_mu| chi_j(mu)^2 = n!, one sigma per cycle type mu;
    # no two are equal; and chi_j = chi^{M^j} - chi^{M^(j-1)} (Young's rule),
    # where chi^{M^m}(sigma) counts the m-subsets that sigma fixes.
    types = list(_cycle_types(n))
    sigmas = [_class_representative(mu) for mu in types]
    sizes = [_class_size(mu) for mu in types]
    # chi^{M^m}(sigma) at fixed[i][m + 1] for m = -1..n/2, where chi^{M^-1} = 0.
    fixed = [[0, *_fixed_subsets(sigma, n // 2)] for sigma in sigmas]
    characters: list[tuple[int, ...]] = []
    for j in range(n // 2 + 1):
        chi = _character(j, n, sigmas)
        norm = sum(size * c * c for size, c in zip(sizes, chi))
        if norm != factorial(n):
            raise VerificationError(
                f"stratum {j} at k={j} n={n} is not irreducible: its character "
                f"has norm {Fraction(norm, factorial(n))}"
            )
        if chi in characters:
            raise VerificationError(
                f"strata {characters.index(chi)} and {j} at n={n} have the same character"
            )
        young = tuple(f[j + 1] - f[j] for f in fixed)
        if chi != young:
            raise VerificationError(
                f"stratum {j} at k={j} n={n}: its character is not "
                f"chi^M^{j} - chi^M^{j - 1} (Young's rule)"
            )
        characters.append(chi)


@cache
def _require_multiplicity_free(k: int, n: int) -> None:
    # M^k, k <= n/2, is the direct sum of its strata: each witness y_j of
    # grade k is exactly orthogonal to every later stratum (the earlier
    # strata cost the most, as no dot product ends the scan early), and
    # their dimensions add up to C(n, k).  Each is an isomorphic image of
    # T_j, so every invariant subspace of M^k is a sum of strata.
    for j in range(k):
        downs = _downs(_witness(j, k, n), k)
        for i in range(j + 1, k + 1):
            if not _is_orthogonal(downs[i], i, n):
                raise VerificationError(f"strata {j} and {i} at k={k} n={n} are not orthogonal")
    dims = [_stratum_dim(j, k, n) for j in range(k + 1)]
    if sum(dims) != binomial(n, k):
        raise VerificationError(
            f"the strata at k={k} n={n} have dimensions {dims}, "
            f"which do not fill C({n},{k}) = {binomial(n, k)}"
        )


def _span_rank(t: int, k: int, n: int) -> int:
    # Rank of all total trades: stratum t + 1 of grade k.
    _require_trade_domain(t, k, n)
    return _stratum_dim(t + 1, k, n)


def _strata_dim(strata: Iterable[int], n: int) -> int:
    # Stratum i spans S^(n-i-1,i+1), of dimension C(n, i+1) - C(n, i).
    return sum(binomial(n, i + 1) - binomial(n, i) for i in strata)


@cache
def _basis_rank(i: int, k: int, n: int) -> tuple[int, int]:
    # The size and the rank of the standard-filling basis of stratum i + 1,
    # ranked at grade i + 1 alone: the up-map carries each basis trade there
    # onto the grade-k one with the same pairs, injectively where nonzero.
    if k > i + 1:
        size, rank = _basis_rank(i, i + 1, n)
        return size, rank if _stratum_dim(i + 1, k, n) else 0
    # Nonzero vectors whose last nonzero positions, each trade's colex-largest
    # k-set, differ are independent over any field; else the basis is eliminated.
    trades = [e for _, e in total_trade_basis(i, k, n)]
    index = colex_index(k, n)
    leads = {max(map(index.__getitem__, e._terms)) for e in trades if e._terms}
    if len(leads) == len(trades):
        return len(trades), len(trades)
    return len(trades), rank_of_columns(element_to_vector(e, k) for e in trades)


def check_inclusion_rank(t: int, k: int, n: int) -> Report:
    """Inclusion matrix between grades t and k has full row rank C(n, t)."""
    _require_half(t, k, n)
    start = time.perf_counter()
    return Report(
        "inclusion-rank",
        {"t": t, "k": k, "n": n},
        predicted=binomial(n, t),
        computed=_matrix_rank(MatrixSpec.inclusion(n, t, k)),
        elapsed_ms=_ms(start),
    )


def check_total_trade_dim(t: int, k: int, n: int) -> Report:
    """Span of all total trades has dimension C(n, t+1) - C(n, t).

    The span is the orbit span of the first spec's total trade T(x, y), as
    sigma T(x, y) = +-T(sigma x, sigma y): stratum t + 1 of grade k, at every
    k.  It is read from T_{t+1}, spun once per process at grade t + 1, which
    the up-map must carry exactly onto T(x, y) (else VerificationError); as
    T_{t+1} is irreducible, the span has its dimension unless T(x, y) = 0.

    On the boundary t + k = n, k >= t + 2 every total trade is zero, so the
    span is 0 while the predicted value is positive: the report fails there
    by design.
    """
    start = time.perf_counter()
    return Report(
        "total-trade-dim",
        {"t": t, "k": k, "n": n},
        predicted=binomial(n, t + 1) - binomial(n, t),
        computed=_span_rank(t, k, n),
        elapsed_ms=_ms(start),
    )


def check_kernel_decomposition(t: int, k: int, n: int) -> Report:
    """The t-trade space splits into the total-trade strata i = t..k-1.

    Checks stratum-by-stratum kernel membership, dimensions, and that the
    concatenated bases are independent and fill the whole null space.  The
    kernel of W_tk is S_n-invariant and every total trade of a stratum is
    +- an image of the first, so one product per stratum tests membership.
    Each basis trade of stratum i is a total trade, so it lies in stratum
    i + 1 of grade k; those strata are checked orthogonal in pairs, so the
    rank of the concatenated bases is the sum of their ranks, each read at
    grade i + 1, where the up-map is injective on T_{i+1}.
    """
    _require_half(t, k, n)
    start = time.perf_counter()
    spec = MatrixSpec.inclusion(n, t, k)
    w = build_matrix(spec)
    kernel_dim = binomial(n, k) - _matrix_rank(spec)
    containment = [
        not any(w.matvec(element_to_vector(_witness(i + 1, k, n), k))) for i in range(t, k)
    ]
    _require_multiplicity_free(k, n)
    summands = [
        ((n - i - 1, i + 1), specht_dim(TwoRowShape(n - i - 1, i + 1)), _basis_rank(i, k, n)[1])
        for i in range(t, k)
    ]
    predicted = binomial(n, k) - binomial(n, t)
    return Report(
        "kernel-decomposition",
        {"t": t, "k": k, "n": n},
        predicted=predicted,
        computed=sum(c for _, _, c in summands),
        summands=summands,
        containment=containment,
        consistent=kernel_dim == predicted,
        elapsed_ms=_ms(start),
    )


def check_intersection_rank(t: int, k: int, n: int, l: int) -> Report:
    """Rank of the single intersection matrix at overlap l matches the prediction;
    `MatrixSpec.intersection` rejects l outside 0..t."""
    if not (0 <= t <= k and 2 * k <= n):
        raise ValueError(f"need t <= k <= n/2, got t={t} k={k} n={n}")
    start = time.perf_counter()
    return Report(
        "intersection-rank",
        {"t": t, "k": k, "n": n, "l": l},
        predicted=predicted_rank(t, k, n, [int(j == l) for j in range(t + 1)]),
        computed=_matrix_rank(MatrixSpec.intersection(n, t, k, l)),
        elapsed_ms=_ms(start),
    )


def _random_coeffs(rng: random.Random, t: int) -> tuple[Fraction, ...]:
    while True:
        cs = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(t + 1)
        )
        if any(cs):
            return cs


def _primitive(coeffs: Sequence) -> tuple[int, ...]:
    # The integer vector on the line through nonzero coeffs with coprime
    # entries and a positive first nonzero entry.
    m = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (m // c.denominator) for c in coeffs]
    if not any(ints):
        raise ValueError("the zero vector has no primitive representative")
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def _combination_key(coeffs: Sequence, k: int, n: int) -> tuple[int, ...]:
    # When n = 2k, complementing the k-sets maps |A ∩ B| = l to t - l, so
    # W(reversed c) has the columns of W(c) in another order: one class.
    key = _primitive(coeffs)
    return min(key, _primitive(coeffs[::-1])) if n == 2 * k else key


_COMBINATION_SEEDS = 20  # seeded random coefficient vectors per (t, k, n)


def check_combination_rank(t: int, k: int, n: int, seed: int = 0) -> list[Report]:
    """Predicted vs computed rank for rational combinations of the intersection
    matrices.

    This runs `_COMBINATION_SEEDS` seeded random vectors plus the adversarial
    grid {-2,-1,1,2}^(t+1), whose sign patterns can silence individual
    isotypic blocks.  Since rank(λW) = rank(W) for λ ≠ 0, each matrix is
    specified by the primitive integer representative of its projective
    class; when n = 2k the class of the reversed vector is merged with it
    (`_combination_key`).  Each class is built and ranked once per process;
    every report keeps its own coefficients and prediction, and a report
    that reuses a rank shows ms=0.
    """
    _require_half(t, k, n)
    rng = random.Random(_seed_from("combination", t, k, n, seed))
    vectors = [_random_coeffs(rng, t) for _ in range(_COMBINATION_SEEDS)]
    vectors.extend(iter_product((-2, -1, 1, 2), repeat=t + 1))
    reports = []
    for cs in vectors:
        start = time.perf_counter()
        spec = MatrixSpec.combination(n, t, k, _combination_key(cs, k, n))
        reports.append(
            Report(
                "combination-rank",
                {"t": t, "k": k, "n": n, "coeffs": cs},
                predicted=predicted_rank(t, k, n, cs),
                computed=_matrix_rank(spec),
                elapsed_ms=_ms(start),
            )
        )
    return reports


@cache
def _sorted_splits(t: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # Splits of the positions 0..2t+1 into increasing xs and ys with the i-th
    # x before the i-th y; there are Catalan(t+1) of them.
    m = 2 * (t + 1)
    splits = []
    for xi in combinations(range(m), t + 1):
        yi = tuple(i for i in range(m) if i not in xi)
        if all(x < y for x, y in zip(xi, yi)):
            splits.append((xi, yi))
    return tuple(splits)


def literal_basis_specs(t: int, k: int, n: int) -> Iterator[TradeSpec]:
    """Total-trade specs satisfying only the three sortedness conditions:
    xs increasing, ys increasing, and x_i < y_i columnwise, built lazily.

    Such a spec is a set of 2(t+1) elements cut by one of the
    `_sorted_splits(t)` of its sorted positions, so there are C(n, 2t+2)
    times that many.
    """
    _require_trade_domain(t, k, n)
    splits = _sorted_splits(t)
    return (
        TradeSpec(n, t, k, tuple(c[i] for i in xi), tuple(c[i] for i in yi))
        for c in combinations(range(1, n + 1), 2 * (t + 1))
        for xi, yi in splits
    )


def check_trade_basis(t: int, k: int, n: int) -> Report:
    """The standard-filling basis of the total-trade span: cardinality,
    independence and spanning are asserted.  The other candidate, the literal
    three-condition set, is measured by `literal_basis_audit` only.

    On the boundary t + k = n, k >= t + 2 every basis trade is zero, so the
    span and the basis rank are 0 while the predicted dimension is positive:
    the report fails there by design.
    """
    start = time.perf_counter()
    size, basis_rank = _basis_rank(t, k, n)
    dim = specht_dim(TwoRowShape(n - t - 1, t + 1))
    return Report(
        "basis-standard",
        {"t": t, "k": k, "n": n},
        predicted=dim,
        computed=basis_rank,
        summands=[((n - t - 1, t + 1), dim, basis_rank)],
        containment=[_span_rank(t, k, n) == basis_rank],
        consistent=size == dim,
        elapsed_ms=_ms(start),
    )


def literal_basis_audit(t: int, k: int, n: int) -> Report:
    """Report-only comparison of the literal three-condition set's rank with
    the span dimension; never asserted."""
    start = time.perf_counter()
    # Every literal trade is a total trade, so the span rank is a ceiling,
    # and the standard fillings are literal specs: when their rank meets the
    # ceiling, so does the literal rank.  Otherwise the literal set is ranked
    # with the standard fillings first, which leaves the set and its rank
    # unchanged; they are independent, and at n <= 9 also mod p, so there
    # the certificate reaches the ceiling right after them.
    span = _span_rank(t, k, n)
    if _basis_rank(t, k, n)[1] == span:
        rank = span
    else:
        standard = (e for _, e in total_trade_basis(t, k, n))
        literal = (total_trade(s) for s in literal_basis_specs(t, k, n))
        vectors = (element_to_vector(e, k) for e in chain(standard, literal))
        rank = rank_of_columns(vectors, ceiling=span)
    cardinality = binomial(n, 2 * (t + 1)) * len(_sorted_splits(t))
    return Report(
        "basis-literal-audit",
        {"t": t, "k": k, "n": n, "cardinality": cardinality},
        predicted=specht_dim(TwoRowShape(n - t - 1, t + 1)),
        computed=rank,
        asserted=False,
        elapsed_ms=_ms(start),
    )


@cache
def _generator_maps(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    # Coordinate maps of the n-cycle (1 2 ... n) and, for n > 2, of the
    # transposition (1 2); together they generate S_n (for n <= 2 the cycle
    # alone does).  Under a generator g, position p receives the coefficient
    # at g^-1 of subset p, as in permute_element(g, .).
    index = colex_index(k, n)
    inverses = [{1: n} | {x: x - 1 for x in range(2, n + 1)}]
    if n > 2:
        inverses.append({1: 2, 2: 1})
    return tuple(
        tuple(index[tuple(sorted(g.get(x, x) for x in s))] for s in index) for g in inverses
    )


@cache
def _stratum_height(j: int, n: int) -> int:
    return max(map(abs, chain.from_iterable(_stratum(j, n))), default=0)


@cache
def _signed_columns(j: int, n: int, width: int) -> tuple[int, ...]:
    # T_j's exact echelon rows r_i as signed packed columns: column c is
    # sum_i r_i[c] 2^(width i), negative entries included.
    columns = [0] * binomial(n, j)
    for i, row in enumerate(_stratum(j, n)):
        for c in compress(range(len(row)), row):
            columns[c] += row[c] << width * i
    return tuple(columns)


def _is_orthogonal(terms: list[tuple[int, int]], j: int, n: int) -> bool:
    # The grade-j integer vector with these (position, coefficient) nonzero
    # terms is exactly orthogonal to every vector of T_j.  Slot i of
    # sum_p c_p column_p is its dot with r_i, of size <= bound < 2^(width-1),
    # so the sum, a balanced base-2^width number, is 0 only if every dot is.
    bound = sum(abs(c) for _, c in terms) * _stratum_height(j, n)
    columns = _signed_columns(j, n, 64 * (bound.bit_length() // 64 + 1))
    return not sum(c * columns[p] for p, c in terms)


def _orthogonal_strata(downs: list[list[tuple[int, int]]], n: int) -> tuple[int, ...]:
    # The strata j that an element is exactly orthogonal to, from its terms
    # at each grade j (`_downs`).
    return tuple(j for j, terms in enumerate(downs) if _is_orthogonal(terms, j, n))


def orbit_span(e: BooleanElement, k: int) -> IntegerEchelon:
    """Span of the symmetric-group orbit of a grade-k element, computed by
    spinning: each new span vector has its images under the two generators
    (1 2) and (1 2 ... n) of S_n reduced, until no image grows the span.
    It is what spins each stratum T_j, from y_j at grade j."""
    ech = IntegerEchelon(binomial(e.n, k))
    v0 = element_to_vector(e, k)
    spun = [v0] if ech.add(v0) else []
    for v in spun:  # grows while walked, so each new span vector is spun once
        for m in _generator_maps(k, e.n):
            w = [v[p] for p in m]
            if ech.add(w):
                spun.append(w)
    return ech


def _orbit_rank(e: BooleanElement, k: int) -> tuple[int, tuple[int, ...]]:
    # The orbit rank of a grade-k element, k <= n/2, and the strata it is
    # exactly orthogonal to, read as in `orbit_decomposition`.  The orbit
    # span does not change under scaling, so a nonzero e is cleared to
    # primitive integer coefficients, for the grade walk and the check
    # modulo p.
    n = e.n
    _require_multiplicity_free(k, n)
    if not e.is_zero:
        e = BooleanElement._make(n, dict(zip(e._terms, _primitive(tuple(e._terms.values())))))
    downs = _downs(e, k)
    orthogonal = _orthogonal_strata(downs, n)
    for j, terms in enumerate(downs):
        if (j in orthogonal) != _orthogonal_mod_p(terms, j, n):
            exact, mod_p = ("", "not ") if j in orthogonal else ("not ", "")
            raise VerificationError(
                f"the element is {exact}orthogonal to stratum {j} at k={k} n={n}, "
                f"but {mod_p}orthogonal to it modulo {_P}"
            )
    return binomial(n, k) - sum(_stratum_dim(j, k, n) for j in orthogonal), orthogonal


def orbit_decomposition(e: BooleanElement, t: int) -> set[int]:
    """Strata indices i with the whole total-trade stratum inside the orbit span.

    Read from the strata alone, with no spin (see the module docstring):
    once M^k is checked to be multiplicity-free, the orbit span of e is the
    sum of the strata that e is not orthogonal to.  e is orthogonal to
    stratum j of grade k exactly when its deletion sum down to grade j is
    orthogonal to T_j, the stratum spun at its own grade.  The strata found
    so must be exactly those it is orthogonal to modulo p, through T_j's
    reduced rows; else VerificationError is raised, as it is for an element
    whose dot products with a stratum are nonzero multiples of p.  Also
    asserts that the strata found account exactly for the span's dimension;
    a mismatch raises VerificationError.
    """
    if e.is_zero:
        raise ValueError("the zero element has no orbit decomposition")
    k, n = e.homogeneous_grade(), e.n
    _require_half(t, k, n)
    if not is_t_trade(e, t):
        raise ValueError(f"element is not a {t}-trade")
    rank, orthogonal = _orbit_rank(e, k)
    strata = {i for i in range(t, k) if i + 1 not in orthogonal}
    total = _strata_dim(strata, n)
    if rank != total:
        raise VerificationError(
            f"orbit span dimension {rank} != {total}, the total over strata {sorted(strata)}"
        )
    return strata


def check_graver_jurkat(t: int, k: int, n: int, seed: int = 0) -> Report:
    """The orbit of one random minimal trade spans the t-trade space, read from the strata."""
    _require_half(t, k, n)
    start = time.perf_counter()
    rng = random.Random(_seed_from("graver-jurkat", t, k, n, seed))
    rank, _ = _orbit_rank(minimal_trade(_random_minimal_spec(rng, t, k, n)), k)
    return Report(
        "graver-jurkat",
        {"t": t, "k": k, "n": n, "seed": seed},
        predicted=binomial(n, k) - binomial(n, t),
        computed=rank,
        elapsed_ms=_ms(start),
    )


def _random_total_spec(rng: random.Random, t: int, k: int, n: int) -> TradeSpec:
    chosen = rng.sample(range(1, n + 1), 2 * (t + 1))
    return TradeSpec(n, t, k, tuple(chosen[: t + 1]), tuple(chosen[t + 1 :]))


def _random_minimal_spec(rng: random.Random, t: int, k: int, n: int) -> TradeSpec:
    chosen = rng.sample(range(1, n + 1), t + k + 1)
    xs, ys, tail = chosen[: t + 1], chosen[t + 1 : 2 * t + 2], chosen[2 * t + 2 :]
    return TradeSpec(n, t, k, tuple(xs), tuple(ys), tuple(tail))


def check_orbit_witness(t: int, k: int, n: int, kind: str, seed: int = 0) -> Report:
    """Orbit-span dimension for a constructed witness with known strata.

    kind `total`: one total trade, strata {t}; `minimal`: one minimal trade,
    strata {t..k-1}; `mixed`: a t-total plus a (t+1)-total trade, strata
    {t, t+1} (needs k >= t+2).
    """
    _require_half(t, k, n)
    rng = random.Random(_seed_from("orbit", kind, t, k, n, seed))
    start = time.perf_counter()
    if kind == "total":
        e = total_trade(_random_total_spec(rng, t, k, n))
        expected = {t}
    elif kind == "minimal":
        e = minimal_trade(_random_minimal_spec(rng, t, k, n))
        expected = set(range(t, k))
    elif kind == "mixed":
        if k < t + 2:
            raise ValueError(f"mixed witness needs k >= t+2, got t={t} k={k}")
        e = total_trade(_random_total_spec(rng, t, k, n)) + total_trade(
            _random_total_spec(rng, t + 1, k, n)
        )
        expected = {t, t + 1}
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    strata = orbit_decomposition(e, t)
    return Report(
        f"orbit-{kind}",
        {"t": t, "k": k, "n": n, "strata": tuple(sorted(strata))},
        predicted=_strata_dim(expected, n),
        computed=_strata_dim(strata, n),
        elapsed_ms=_ms(start),
    )


def check_lambda_closed_form(bound: int) -> Report:
    """lambda_j(t,k,n;t) collapses to the single binomial C(k-j, t-j);
    checked exhaustively for 0 <= j <= t <= k <= n <= bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    start = time.perf_counter()
    cases = 0
    matches = 0
    for n in range(bound + 1):
        for k in range(n + 1):
            for t in range(k + 1):
                for j in range(t + 1):
                    cases += 1
                    if lambda_coeff(t, k, n, t, j) == binomial(k - j, t - j):
                        matches += 1
    return Report(
        "lambda-closed-form",
        {"n_max": bound},
        predicted=cases,
        computed=matches,
        elapsed_ms=_ms(start),
    )


def _half_domain(n_max: int) -> Iterator[tuple[int, int, int]]:
    # (t, k, n) with t < k <= n/2, ascending.
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                yield t, k, n


def _sum_domain(n_max: int) -> Iterator[tuple[int, int, int]]:
    # (t, k, n) with t < k and t + k <= n, ascending.
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for t in range(min(k, n - k + 1)):
                yield t, k, n


def _basis_suite(n_max: int, seed: int) -> Iterator[Report]:
    for t, k, n in _sum_domain(n_max):
        if n - t - 1 >= t + 1:
            yield check_trade_basis(t, k, n)
            yield literal_basis_audit(t, k, n)


def _orbit_suite(n_max: int, seed: int) -> Iterator[Report]:
    for t, k, n in _half_domain(n_max):
        for kind in ("total", "minimal", "mixed") if k >= t + 2 else ("total", "minimal"):
            yield check_orbit_witness(t, k, n, kind, seed)


# Suite name -> reports over its parameter domain, in the order `all` runs them.
_SUITE_TABLE: dict[str, Callable[[int, int], Iterable[Report]]] = {
    "inclusion-rank": lambda n_max, seed: (
        check_inclusion_rank(*p) for p in _half_domain(n_max)
    ),
    "total-trade-dim": lambda n_max, seed: (
        check_total_trade_dim(*p) for p in _sum_domain(n_max)
    ),
    "kernel-decomposition": lambda n_max, seed: (
        check_kernel_decomposition(*p) for p in _half_domain(n_max)
    ),
    "intersection-rank": lambda n_max, seed: (
        check_intersection_rank(t, k, n, l)
        for t, k, n in _half_domain(n_max)
        for l in range(t + 1)
    ),
    "combination-rank": lambda n_max, seed: (
        r for t, k, n in _half_domain(n_max) for r in check_combination_rank(t, k, n, seed=seed)
    ),
    "basis": _basis_suite,
    "graver-jurkat": lambda n_max, seed: (
        check_graver_jurkat(t, k, n, seed) for t, k, n in _half_domain(n_max)
    ),
    "orbit-decomposition": _orbit_suite,
    "lambda-closed-form": lambda n_max, seed: [check_lambda_closed_form(n_max)],
}

SUITES = tuple(_SUITE_TABLE)


def run_suite(selector: str, n_max: int, seed: int = 0) -> list[Report]:
    """Run one suite (or `all`, every suite in `SUITES` order) over every
    admissible parameter tuple with n <= n_max; reports come back in
    deterministic parameter order."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if selector != "all" and selector not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {selector!r}")
    names = SUITES if selector == "all" else (selector,)
    return [report for name in names for report in _SUITE_TABLE[name](n_max, seed)]


def render_reports(reports: Iterable[Report]) -> tuple[str, bool]:
    """Serialize reports plus the TOTAL summary; the flag is the exit verdict
    (asserted checks only)."""
    lines = []
    passed = 0
    total = 0
    ok = True
    for r in reports:
        lines.append(r.line())
        total += 1
        if r.passed:
            passed += 1
        elif r.asserted:
            ok = False
    lines.append(f"TOTAL pass={passed}/{total}")
    return "\n".join(lines) + "\n", ok
