import json
import lzma
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from linalg_reference import eliminated_reduced_rows, kernel_basis
from tradekit import linalg, verify
from tradekit.boolean_algebra import (
    BooleanElement,
    MatrixSpec,
    build_matrix,
    deletion_sum,
    element_to_vector,
    permute_element,
    predicted_rank,
)
from tradekit.combinatorics import Permutation, binomial, colex_index, colex_rank, colex_tuples
from tradekit.linalg import IntegerEchelon, RationalMatrix, rank_of_columns
from tradekit.trades import (
    TradeSpec,
    all_total_trades,
    minimal_trade,
    total_trade,
    total_trade_basis,
)
from tradekit.verify import (
    check_trade_basis,
    check_combination_rank,
    check_graver_jurkat,
    check_inclusion_rank,
    check_intersection_rank,
    check_kernel_decomposition,
    check_lambda_closed_form,
    check_orbit_witness,
    check_total_trade_dim,
    literal_basis_audit,
    literal_basis_specs,
    orbit_decomposition,
    orbit_span,
    render_reports,
    run_suite,
)

LINE_RE = re.compile(
    r"^CHECK [a-z0-9-]+ params=\S+ predicted=-?\d+ computed=-?\d+ pass=(true|false) ms=\d+$"
)


def test_inclusion_rank_examples():
    r = check_inclusion_rank(0, 1, 2)
    assert (r.predicted, r.computed, r.passed) == (1, 1, True)
    assert check_inclusion_rank(1, 2, 5).predicted == 5
    r = check_inclusion_rank(2, 3, 8)
    assert r.predicted == 28 and r.passed
    with pytest.raises(ValueError):
        check_inclusion_rank(1, 3, 5)


def test_total_trade_dim_examples():
    assert check_total_trade_dim(0, 1, 3).predicted == 2
    r = check_total_trade_dim(0, 2, 4)
    assert (r.predicted, r.computed) == (3, 3)
    assert check_total_trade_dim(1, 2, 4).predicted == binomial(4, 2) - binomial(4, 1)
    assert check_total_trade_dim(1, 2, 4).passed


def test_kernel_decomposition_examples():
    r = check_kernel_decomposition(0, 2, 4)
    assert [s[2] for s in r.summands] == [3, 2]
    assert r.predicted == binomial(4, 2) - binomial(4, 0) == 5
    assert r.passed

    r = check_kernel_decomposition(1, 2, 5)
    assert len(r.summands) == 1
    assert r.predicted == 5 and r.passed

    r = check_kernel_decomposition(0, 1, 2)
    assert r.summands[0][1] == 1 and r.passed


def test_kernel_decomposition_directness_witness():
    # every stratum basis vector is independent of the union of the others
    from tradekit.linalg import IntegerEchelon
    from tradekit.trades import total_trade_basis

    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                strata = {
                    i: [element_to_vector(e, k) for _, e in total_trade_basis(i, k, n)]
                    for i in range(t, k)
                }
                for i, vectors in strata.items():
                    others = IntegerEchelon(binomial(n, k))
                    for j, vs in strata.items():
                        if j != i:
                            for v in vs:
                                others.add(v)
                    base = others.rank
                    for v in vectors:
                        assert not others.contains(v)
                        assert base + 1 == _rank_with(others, v)


def _rank_with(echelon, vector):
    import copy

    clone = copy.deepcopy(echelon)
    clone.add(vector)
    return clone.rank


def test_kernel_decomposition_multiplies_one_trade_per_stratum(monkeypatch):
    # The kernel of W_tk is S_n-invariant, so the first total trade of each
    # stratum stands for the whole stratum: one matvec per stratum.
    calls = []
    matvec = RationalMatrix.matvec
    monkeypatch.setattr(RationalMatrix, "matvec", lambda m, v: calls.append(v) or matvec(m, v))
    r = check_kernel_decomposition(1, 4, 9)
    assert r.passed and len(calls) == 3
    assert [c for _, _, c in r.summands] == [27, 48, 42]


def test_intersection_rank_examples():
    # at l = t this is the inclusion-matrix check
    a = check_intersection_rank(1, 2, 6, 1)
    b = check_inclusion_rank(1, 2, 6)
    assert a.predicted == b.predicted and a.computed == b.computed
    assert check_intersection_rank(1, 2, 6, 0).passed
    assert check_intersection_rank(2, 3, 10, 1).passed
    with pytest.raises(ValueError):
        check_intersection_rank(1, 2, 6, 2)


def test_intersection_rank_rejects_bad_domain():
    with pytest.raises(ValueError, match="need t <= k <= n/2, got t=2 k=1 n=6"):
        check_intersection_rank(2, 1, 6, 0)
    with pytest.raises(ValueError, match="need t <= k <= n/2, got t=1 k=3 n=5"):
        check_intersection_rank(1, 3, 5, 0)


def test_combination_rank_explicit_and_scaling():
    # rank(λW) = rank(W) for λ ≠ 0: every multiple of (1, 1) is ranked as (1, 1)
    for cs in [(1, 1), (7, 7), (-2, -2), (Fraction(-1, 3), Fraction(-1, 3))]:
        assert verify._primitive(cs) == (1, 1)
        assert predicted_rank(1, 2, 6, cs) == predicted_rank(1, 2, 6, (1, 1))
    assert verify._primitive((Fraction(2, 3), -2)) == (1, -3)
    assert verify._primitive((0, -4)) == (0, 1)
    rank = verify._matrix_rank(MatrixSpec.combination(6, 1, 2, (1, 1)))
    assert rank == predicted_rank(1, 2, 6, (1, 1))
    assert rank == build_matrix(MatrixSpec.combination(6, 1, 2, (7, 7))).rank()
    unit = verify._matrix_rank(MatrixSpec.combination(6, 1, 2, verify._primitive((0, 1))))
    assert unit == predicted_rank(1, 2, 6, (0, 1)) == binomial(6, 1)


def test_the_zero_combination_has_rank_zero():
    # The zero vector has no primitive representative, and the zero matrix's
    # first column, the zero element, has orbit rank 0 without being cleared.
    with pytest.raises(ValueError, match="the zero vector has no primitive representative"):
        verify._primitive((0, 0))
    with pytest.raises(ValueError):
        verify._primitive((Fraction(0), 0, 0))
    assert verify._orbit_rank(BooleanElement.zero(6), 1) == (0, (0, 1))
    assert verify._matrix_rank(MatrixSpec.combination(6, 1, 2, (0, 0))) == 0


def test_combination_rank_seeded_batch():
    reports = check_combination_rank(1, 2, 6)
    # 20 random vectors plus the 4^2 grid
    assert len(reports) == 20 + 16
    assert all(r.passed for r in reports)
    # deterministic re-run, and the seed changes only the random vectors
    again = check_combination_rank(1, 2, 6)
    assert [(r.params["coeffs"], r.predicted, r.computed) for r in reports] == [
        (r.params["coeffs"], r.predicted, r.computed) for r in again
    ]
    other = check_combination_rank(1, 2, 6, seed=1)
    assert [r.params["coeffs"] for r in other[20:]] == [r.params["coeffs"] for r in reports[20:]]
    assert [r.params["coeffs"] for r in other[:20]] != [r.params["coeffs"] for r in reports[:20]]


def test_combination_rank_one_matrix_per_projective_class(monkeypatch):
    for t, k, n in [(2, 3, 6), (1, 2, 5)]:
        reports = check_combination_rank(t, k, n)
        assert len(reports) == 20 + 4 ** (t + 1)
        for r in reports:
            spec = MatrixSpec.combination(n, t, k, r.params["coeffs"])
            assert r.computed == build_matrix(spec).rank()
    # (-2,-2) shares its rank with (1,1) but prints its own coefficients
    (grid,) = [r for r in reports if r.params["coeffs"] == (-2, -2)]
    assert "params=t=1,k=2,n=5,coeffs=(-2,-2) predicted=" in grid.line()
    builds = []

    def counting_build(spec):
        builds.append(spec.coeffs)
        return build_matrix(spec)

    verify._matrix_rank.cache_clear()
    monkeypatch.setattr(verify, "build_matrix", counting_build)
    # At odd n the {-2,-1,1,2}^(t+1) grid has 6 and 28 projective classes;
    # with the random vectors, each class is built once from its primitive
    # representative, and once per process.
    for t, k, n, classes in [(1, 2, 5, 6), (2, 3, 7, 28)]:
        builds.clear()
        reports = check_combination_rank(t, k, n)
        assert len(reports) == 20 + 4 ** (t + 1)
        grid = {verify._primitive(r.params["coeffs"]) for r in reports[20:]}
        assert len(grid) == classes
        every = {verify._primitive(r.params["coeffs"]) for r in reports}
        assert len(builds) == len(set(builds)) == len(every)
        assert set(builds) == every
        assert all(verify._primitive(cs) == cs for cs in builds)
        builds.clear()
        assert len(check_combination_rank(t, k, n)) == 20 + 4 ** (t + 1)
        assert builds == []
    # At n = 2k the grid's 1, 6 and 28 projective classes merge with their
    # reversals into 1, 4 and 17 complement classes, each built once from
    # the smaller of the two primitive representatives.
    for t, k, n, classes, merged in [(0, 1, 2, 1, 1), (1, 2, 4, 6, 4), (2, 3, 6, 28, 17)]:
        builds.clear()
        coeffs = [r.params["coeffs"] for r in check_combination_rank(t, k, n)]
        assert len(coeffs) == 20 + 4 ** (t + 1)
        assert len({verify._primitive(cs) for cs in coeffs[20:]}) == classes
        assert len({verify._combination_key(cs, k, n) for cs in coeffs[20:]}) == merged
        keys = {min(verify._primitive(cs), verify._primitive(cs[::-1])) for cs in coeffs}
        assert len(builds) == len(set(builds)) == len(keys)
        assert set(builds) == keys
        builds.clear()
        assert len(check_combination_rank(t, k, n)) == 20 + 4 ** (t + 1)
        assert builds == []


def test_complement_reverses_the_columns_at_n_2k():
    # Complementing the k-sets maps |A ∩ B| = l to t - l when n = 2k, so
    # W(reversed c) is W(c) with its columns reordered.
    rng = random.Random(5)
    for t, k, n in [(1, 2, 4), (2, 3, 6), (2, 4, 8), (3, 4, 8)]:
        for _ in range(3):
            cs = tuple(rng.randint(-3, 3) for _ in range(t + 1))
            while cs == cs[::-1]:
                cs = tuple(rng.randint(-3, 3) for _ in range(t + 1))
            w = build_matrix(MatrixSpec.combination(n, t, k, cs))
            reversed_w = build_matrix(MatrixSpec.combination(n, t, k, cs[::-1]))
            assert w != reversed_w
            assert sorted(zip(*w.rows())) == sorted(zip(*reversed_w.rows()))


def _echelon_rank(spec):
    ech = IntegerEchelon(binomial(spec.n, spec.k))
    for row in build_matrix(spec).rows():
        ech.add(row)
    return ech.rank


def _combination_classes(n_max):
    # Every (t, k, n, key) that combination-rank ranks at n <= n_max.
    for t, k, n in verify._half_domain(n_max):
        reports = check_combination_rank(t, k, n)
        for key in sorted({verify._combination_key(r.params["coeffs"], k, n) for r in reports}):
            yield t, k, n, key


def test_witness_ceiling_ranks_match_a_plain_echelon(add_calls):
    # Every class at n <= 8 gets the rank of one IntegerEchelon pass over
    # its rows, and the column ceiling settles each one mod p: no row of
    # W, of length C(n, k), reaches IntegerEchelon.  The strata that the
    # ceiling reads are spun at grades j <= t < k.
    classes = list(_combination_classes(8))
    assert len(classes) == 425  # 512 projective classes, 87 merged at n = 2k
    verify._matrix_rank.cache_clear()
    for t, k, n, key in classes:
        spec = MatrixSpec.combination(n, t, k, key)
        add_calls.clear()
        rank = verify._matrix_rank(spec)
        assert all(len(v) < binomial(n, k) for v in add_calls), (t, k, n, key)
        assert rank == _echelon_rank(spec), (t, k, n, key)


def _killed_ceiling(spec):
    # The rank ceiling read from left-kernel witnesses, the reference for
    # the column ceiling: a witness y_j of grade t with y_j^T W = 0 exactly,
    # a zero signed sum of the rows it picks, is killed.  W is invariant, so
    # each killed stratum lies in the left kernel, and the strata of M^t are
    # orthogonal in pairs.
    t, n = spec.t, spec.n
    verify._require_multiplicity_free(t, n)
    rows = list(build_matrix(spec).rows())

    def kills(y):
        picked = ([c * x for x in r] for c, r in zip(y, rows) if c)
        return not any(map(sum, zip(*picked)))

    killed = [j for j in range(t + 1) if kills(element_to_vector(verify._witness(j, t, n), t))]
    return binomial(n, t) - sum(verify._stratum_dim(j, t, n) for j in killed)


def test_column_ceiling_matches_the_killed_witnesses(monkeypatch):
    # The ceiling that each rank is certified against, the orbit rank of
    # W's first column, equals the left-kernel witnesses' ceiling for every
    # combination class and every intersection matrix with n <= 8.
    classes = [MatrixSpec.combination(n, t, k, key) for t, k, n, key in _combination_classes(8)]
    intersections = [
        MatrixSpec.intersection(n, t, k, l)
        for n in range(2, 9)
        for k in range(n // 2 + 1)
        for t in range(k + 1)
        for l in range(t + 1)
    ]
    specs = list(dict.fromkeys(classes + intersections))
    ceilings = []
    rank = RationalMatrix.rank
    monkeypatch.setattr(
        RationalMatrix, "rank", lambda m, *, ceiling=None: ceilings.append(ceiling) or rank(m, ceiling=ceiling)
    )
    verify._matrix_rank.cache_clear()
    try:
        for spec in specs:
            verify._matrix_rank(spec)
            assert ceilings[-1] == _killed_ceiling(spec), spec
    finally:
        verify._matrix_rank.cache_clear()
    assert len(ceilings) == len(specs)


def test_a_ceiling_one_stratum_too_low_is_caught(monkeypatch):
    # Fault injection: count one stratum more as orthogonal to W's first
    # column than it is.  The ceiling then falls below the true rank, and
    # the certificate stops at it, so the rank no longer matches a plain
    # echelon pass.
    orbit_rank = verify._orbit_rank
    ceilings = []

    def one_too_many(e, k):
        rank, orthogonal = orbit_rank(e, k)
        extra = next(j for j in range(k + 1) if j not in orthogonal)
        ceilings.append(rank - verify._stratum_dim(extra, k, e.n))
        return ceilings[-1], (*orthogonal, extra)

    monkeypatch.setattr(verify, "_orbit_rank", one_too_many)
    verify._matrix_rank.cache_clear()
    try:
        for t, k, n, key in [(1, 2, 4, (1, 1)), (2, 3, 6, (1, -2, 1)), (2, 3, 7, (1, 0, 0))]:
            spec = MatrixSpec.combination(n, t, k, key)
            rank = verify._matrix_rank(spec)
            reference = _echelon_rank(spec)
            assert ceilings[-1] < reference
            assert rank == ceilings[-1] != reference
    finally:
        verify._matrix_rank.cache_clear()


def test_rank_path_calls_exact_on_no_cell(monkeypatch):
    # build_matrix hands the spec's coefficients, which MatrixSpec already
    # made exact, to the private constructor, and no rank step converts a
    # cell either; the public constructor still makes user input exact.
    specs = [
        MatrixSpec.combination(6, 2, 3, (1, -2, 1)),
        MatrixSpec.combination(5, 1, 2, (Fraction(1, 2), 3)),
    ]
    references = [_echelon_rank(spec) for spec in specs]

    def refuse(x):
        raise AssertionError("exact was called")

    monkeypatch.setattr(linalg, "exact", refuse)
    verify._matrix_rank.cache_clear()
    try:
        matrices = [build_matrix(spec) for spec in specs]
        ranks = [verify._matrix_rank(spec) for spec in specs]
    finally:
        verify._matrix_rank.cache_clear()
    monkeypatch.undo()
    assert ranks == references
    for m in matrices:
        assert m == RationalMatrix(list(m.rows()))
    assert Fraction(1, 2) in matrices[1].row(0)
    half = RationalMatrix([[0.5]]).entry(0, 0)
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_matrix_suites_rank_each_matrix_once():
    # W_t = W(e_t) is ranked by inclusion-rank and reused by
    # kernel-decomposition and by intersection-rank at l = t.
    domain = list(verify._half_domain(6))
    verify._matrix_rank.cache_clear()
    run_suite("inclusion-rank", 6)
    assert verify._matrix_rank.cache_info().misses == len(domain)
    run_suite("kernel-decomposition", 6)
    assert verify._matrix_rank.cache_info().misses == len(domain)
    run_suite("intersection-rank", 6)
    info = verify._matrix_rank.cache_info()
    assert info.misses == len(domain) + sum(t for t, _, _ in domain)
    assert info.hits == 2 * len(domain)


def test_basis_corollary_examples():
    r = check_trade_basis(1, 2, 5)
    assert r.summands == [((3, 2), 5, 5)] and r.passed

    r = check_trade_basis(0, 1, 3)
    assert r.summands == [((2, 1), 2, 2)] and r.passed
    # the literal three-condition set over-counts here: 3 specs of rank 2
    audit = literal_basis_audit(0, 1, 3)
    assert (audit.params["cardinality"], audit.computed) == (3, 2)


def test_basis_standard_never_builds_the_literal_set(monkeypatch):
    # basis-standard never reads the literal set.  Once its basis rank meets
    # the span rank, the audit answers from the two ranks alone: it builds
    # no trade and ranks nothing.  (0, 1, 10) is warmed by no other test.
    def refuse(*args, **kwargs):
        raise AssertionError("the audit recomputed a rank")

    monkeypatch.setattr(verify, "literal_basis_specs", refuse)
    assert check_trade_basis(0, 1, 10).passed
    monkeypatch.setattr(verify, "total_trade_basis", refuse)
    monkeypatch.setattr(verify, "rank_of_columns", refuse)
    audit = literal_basis_audit(0, 1, 10)
    assert audit.computed == check_total_trade_dim(0, 1, 10).computed == 9


def test_shared_ranks_match_an_independent_reference():
    # (1,3,4) is on the t + k = n boundary, where every total trade is zero.
    for t, k, n in [(0, 1, 3), (0, 2, 4), (1, 2, 5), (1, 3, 4), (1, 2, 6)]:
        rows = [element_to_vector(e, k) for e in all_total_trades(t, k, n)]
        reference = binomial(n, k) - len(kernel_basis(RationalMatrix(rows)))
        assert check_total_trade_dim(t, k, n).computed == reference
        audit = literal_basis_audit(t, k, n)
        literal = [element_to_vector(total_trade(s), k) for s in literal_basis_specs(t, k, n)]
        assert audit.params["cardinality"] == len(literal)
        assert audit.computed == binomial(n, k) - len(kernel_basis(RationalMatrix(literal)))


def test_span_rank_matches_enumeration():
    # The domain holds the t + k = n boundary, where every total trade is
    # zero, and (1, 2, 3), where n = 2t + 1 leaves no spec at all; every
    # spec of every tuple is built and ranked on the enumeration side.
    domain = list(verify._sum_domain(8))
    assert (1, 3, 4) in domain and (1, 2, 3) in domain
    for t, k, n in domain:
        rows = [element_to_vector(e, k) for e in all_total_trades(t, k, n)]
        assert verify._span_rank(t, k, n) == rank_of_columns(rows), (t, k, n)


def test_total_trade_dim_spins_no_grade_above_half(fresh_verify_caches, monkeypatch):
    # Each stratum is spun once per n, as T_j at its own grade j <= n/2,
    # from the witness y_j of that grade; every other grade, n/2 or beyond,
    # reads it through the up-map.  The t + k = n boundary at n = 2t + 1,
    # where j = t + 1 > n/2, spins nothing, as its lifted witness is zero.
    # Over every suite, nothing else is spun: each orbit is read from the
    # strata.
    calls = []
    spins = []
    stratum = verify._stratum
    spin = verify.orbit_span

    def spin_at_own_grade(e, k):
        j, n = calls[-1]
        assert (k, e.n) == (j, n)
        assert e == verify._witness(j, j, n)
        spins.append((j, n))
        return spin(e, k)

    monkeypatch.setattr(verify, "_stratum", lambda j, n: calls.append((j, n)) or stratum(j, n))
    monkeypatch.setattr(verify, "orbit_span", spin_at_own_grade)
    reports = run_suite("total-trade-dim", 9)
    assert any(2 * k > n for k, n in (map(r.params.get, "kn") for r in reports))
    assert len(spins) == len(set(spins))
    assert set(spins) == set(calls) == {(j, n) for n in range(2, 10) for j in range(n // 2 + 1)}
    run_suite("all", 9)
    assert len(spins) == len(set(spins))
    assert set(spins) == {(j, n) for n in range(2, 10) for j in range(n // 2 + 1)}


def test_a_wrong_up_map_trips_the_span_guard(fresh_verify_caches, monkeypatch):
    # An up-map that drops one tail of each j-set, or a first total trade of
    # grade k above the stratum's own grade off by a sign, is caught before
    # any rank is read, below n/2 and above it.
    up_map = verify._up_map

    def dropped_tail(e, k):
        out = BooleanElement.zero(e.n)
        for s, c in e.terms():
            rest = [x for x in range(1, e.n + 1) if x not in s]
            tails = list(combinations(rest, k - len(s)))[:-1]
            out = out + BooleanElement(e.n, [(tuple(sorted(s + tail)), c) for tail in tails])
        return out

    monkeypatch.setattr(verify, "_up_map", dropped_tail)
    with pytest.raises(verify.VerificationError, match="up-map from grade 2 to grade 3 at n=8"):
        verify._span_rank(1, 3, 8)
    with pytest.raises(verify.VerificationError, match="up-map from grade 2 to grade 5 at n=8"):
        check_total_trade_dim(1, 5, 8)
    monkeypatch.setattr(verify, "_up_map", up_map)
    first = verify._first_total_trade
    monkeypatch.setattr(
        verify, "_first_total_trade", lambda t, k, n: -first(t, k, n) if k > t + 1 else first(t, k, n)
    )
    with pytest.raises(verify.VerificationError, match="up-map from grade 1 to grade 6 at n=9"):
        verify._span_rank(0, 6, 9)
    with pytest.raises(verify.VerificationError, match="up-map from grade 3 to grade 4 at n=8"):
        check_trade_basis(2, 4, 8)


def test_span_rank_spins_one_trade(fresh_verify_caches, add_calls):
    # Spinning T_2 at its own grade reduces the first trade and two images
    # per span vector; the 210 total trades at (1, 3, 8) are never
    # eliminated.  The other spins are the strata T_j of their own grades,
    # which the character check reads, each bounded the same way.
    rank = verify._span_rank(1, 3, 8)
    assert rank == binomial(8, 2) - binomial(8, 1)
    adds = {j: [v for v in add_calls if len(v) == binomial(8, j)] for j in range(5)}
    assert sum(map(len, adds.values())) == len(add_calls)
    assert 0 < len(adds[2]) <= 2 * rank + 1
    for j, vectors in adds.items():
        assert len(vectors) <= 2 * (binomial(8, j) - binomial(8, j - 1)) + 1, j


def test_stratum_dims_match_exact_orbit_spans():
    # Test-side reference: spin the witness y_j at grade k exactly, as the
    # strata were spun before they were lifted from their own grade.
    for n in range(1, 10):
        for k in range(n // 2 + 1):
            for j in range(k + 1):
                rank = orbit_span(verify._witness(j, k, n), k).rank
                assert rank == verify._stratum_dim(j, k, n), (j, k, n)


def test_basis_ranks_match_their_grade_k_ranks():
    # The standard-filling basis ranked at grade k itself, over the whole
    # sum domain, where the t + k = n boundary ranks 0 and (1, 2, 3) has no
    # basis trade at all.
    domain = list(verify._sum_domain(9))
    assert (1, 3, 4) in domain and (1, 2, 3) in domain
    for t, k, n in domain:
        vectors = [element_to_vector(e, k) for _, e in total_trade_basis(t, k, n)]
        assert verify._basis_rank(t, k, n) == (len(vectors), rank_of_columns(vectors)), (t, k, n)


def test_literal_rank_stops_at_the_span_rank(add_calls):
    # Every literal trade is a total trade, so the span rank bounds the
    # literal rank: once 48 literal trades are independent mod p the rank is
    # in, with no exact elimination.
    span = verify._span_rank(2, 3, 9)
    add_calls.clear()
    audit = literal_basis_audit(2, 3, 9)
    assert audit.params["cardinality"] == len(list(literal_basis_specs(2, 3, 9)))
    assert audit.computed == span
    assert span == binomial(9, 3) - binomial(9, 2)
    assert add_calls == []


def test_literal_audit_pulls_only_the_standard_fillings(monkeypatch):
    # With a basis rank one short of the span rank, the audit must rank the
    # literal set itself.  The standard fillings are ranked first and are
    # independent mod p, so the certificate reaches the span rank right
    # after them; on the boundary (2, 7, 9) the span rank is 0 and nothing
    # is pulled.
    pulls = []

    def counting(vectors, **kwargs):
        pulled = []
        rank = rank_of_columns((pulled.append(v) or v for v in vectors), **kwargs)
        pulls.append(len(pulled))
        return rank

    short = {k: verify._basis_rank(2, k, 9)[1] - 1 for k in range(3, 8)}
    monkeypatch.setattr(verify, "_basis_rank", lambda t, k, n: (None, short[k]))
    monkeypatch.setattr(verify, "rank_of_columns", counting)
    for k in range(3, 8):
        span = check_total_trade_dim(2, k, 9).computed
        audit = literal_basis_audit(2, k, 9)
        assert len(pulls) == k - 2
        assert pulls[-1] == audit.computed == span == (48 if k < 7 else 0)
        assert audit.params["cardinality"] == len(list(literal_basis_specs(2, k, 9)))


def test_standard_fillings_are_literal_specs():
    for t, k, n in verify._sum_domain(9):
        if n - t - 1 >= t + 1:
            literal = set(literal_basis_specs(t, k, n))
            assert all(spec in literal for spec, _ in total_trade_basis(t, k, n)), (t, k, n)


def test_total_trade_dim_rejects_bad_tuples_on_every_call():
    for args in [(2, 1, 5), (2, 3, 4)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                check_total_trade_dim(*args)


def test_literal_basis_specs_conditions():
    for spec in literal_basis_specs(1, 2, 6):
        assert spec.xs[0] < spec.xs[1]
        assert spec.ys[0] < spec.ys[1]
        assert all(x < y for x, y in zip(spec.xs, spec.ys))
    # t + k > n is rejected on the call, also where no pair set fits
    with pytest.raises(ValueError):
        literal_basis_specs(2, 4, 5)


def test_graver_jurkat_examples():
    assert check_graver_jurkat(0, 1, 3).computed == 2
    assert check_graver_jurkat(0, 2, 4).computed == 5
    r = check_graver_jurkat(1, 2, 5)
    assert r.predicted == binomial(5, 2) - binomial(5, 1) == 5 and r.passed


def _graver_jurkat_trade(t, k, n, seed):
    # The minimal trade that check_graver_jurkat draws for these parameters.
    rng = random.Random(verify._seed_from("graver-jurkat", t, k, n, seed))
    return minimal_trade(verify._random_minimal_spec(rng, t, k, n))


def test_graver_jurkat_matches_exact_orbit_spans(fresh_verify_caches, monkeypatch):
    # Test-side reference: spin each case's minimal trade at grade k
    # exactly.  The check reads the same rank from the strata, and once
    # they are spun, a second run spins nothing.
    for seed in (0, 3):
        reports = run_suite("graver-jurkat", 9, seed)
        assert len(reports) == 40
        for r in reports:
            t, k, n = map(r.params.get, "tkn")
            exact = orbit_span(_graver_jurkat_trade(t, k, n, seed), k).rank
            assert r.computed == exact == r.predicted, (t, k, n, seed)

    def no_spin(e, k):
        raise AssertionError("graver-jurkat spun an orbit")

    monkeypatch.setattr(verify, "orbit_span", no_spin)
    again = run_suite("graver-jurkat", 9, 3)
    assert [(r.params, r.computed) for r in again] == [(r.params, r.computed) for r in reports]


def test_graver_jurkat_stratum_wrongly_counted_orthogonal_is_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: count stratum t + 1 as orthogonal to the minimal
    # trade, which the dot products at its grade do not show.  The reduced
    # rows of that stratum mod p disagree, so the check raises.
    orthogonal_strata = verify._orthogonal_strata

    def one_too_many(downs, n):
        found = orthogonal_strata(downs, n)
        return found + (next(j for j in range(len(downs)) if j not in found),)

    monkeypatch.setattr(verify, "_orthogonal_strata", one_too_many)
    for t, k, n in [(0, 2, 5), (1, 3, 7), (2, 4, 9)]:
        with pytest.raises(
            verify.VerificationError,
            match=f"is orthogonal to stratum {t + 1} at k={k} n={n}, but not orthogonal to it modulo 65521",
        ):
            check_graver_jurkat(t, k, n)


def test_graver_jurkat_wrong_exact_dot_without_mod_p_fails(fresh_verify_caches, monkeypatch):
    # Fault injection: make the mod-p cross-check agree with the exact
    # dots, and get one exact dot wrong, either way.  The rank read from the
    # strata then misses the prediction, so the report fails.  The strata
    # are checked multiplicity-free before the fault.
    cases = [(0, 2, 5), (1, 3, 7), (2, 4, 9)]
    for t, k, n in cases:
        verify._require_multiplicity_free(k, n)
    is_orthogonal = verify._is_orthogonal
    monkeypatch.setattr(verify, "_orthogonal_mod_p", lambda terms, j, n: verify._is_orthogonal(terms, j, n))
    for t, k, n in cases:
        for wrong in (t, t + 1):
            monkeypatch.setattr(
                verify,
                "_is_orthogonal",
                lambda terms, j, n, wrong=wrong: is_orthogonal(terms, j, n) != (j == wrong),
            )
            r = check_graver_jurkat(t, k, n)
            assert not r.passed, (t, k, n, wrong)
            dim = binomial(n, wrong) - binomial(n, wrong - 1)
            assert r.computed == r.predicted + (dim if wrong == t else -dim), (t, k, n, wrong)


def test_downs_are_the_deletion_sums():
    # The grade walk's grade j is deletion_sum(e, k - j) at colex positions,
    # for random integer elements (trades and non-trades), single terms and
    # the zero element, at every k <= n <= 8.
    rng = random.Random(35)
    for n in range(9):
        for k in range(n + 1):
            subsets = list(colex_index(k, n))
            cases = [BooleanElement.zero(n)]
            for s in rng.sample(subsets, min(3, len(subsets))):
                cases.append(BooleanElement(n, {s: rng.choice([-2, -1, 1, 3])}))
            for _ in range(6):
                chosen = rng.sample(subsets, rng.randint(1, min(len(subsets), 12)))
                cases.append(BooleanElement(n, {s: rng.randint(-4, 4) for s in chosen}))
            for t in range(min(k, n - k + 1)):
                cases.append(verify._first_total_trade(t, k, n))
                if t + k < n:
                    spec = verify._random_minimal_spec(rng, t, k, n)
                    cases.append(minimal_trade(spec) * 5)
            for e in cases:
                downs = verify._downs(e, k)
                assert len(downs) == k + 1
                for j in range(k + 1):
                    index = colex_index(j, n)
                    expected = {index[s]: c for s, c in deletion_sum(e, k - j)._terms.items()}
                    assert dict(downs[j]) == expected, (n, k, j, e)
                    assert len(downs[j]) == len(expected)
    with pytest.raises(TypeError):
        verify._downs(BooleanElement(4, {(1, 2): Fraction(1, 2)}), 2)


def _cell_loop_orthogonal(terms, j, n):
    # Test-side reference: the dot product with every dense row of T_j, one
    # cell at a time.
    return not any(sum(c * w[p] for p, c in terms) for w in verify._stratum(j, n))


def test_packed_orthogonality_matches_the_cell_loop():
    # Random, unit and orthogonal term lists, the orthogonal ones the lower
    # witnesses y_i of grade j and permutations of them, also with
    # coefficients above 2^62 and mixed with a unit term.
    rng = random.Random(34)
    orthogonal = 0
    for n in range(1, 11):
        for j in range(n // 2 + 1):
            dim = binomial(n, j)
            cases = [[(p, 1)] for p in range(dim)]
            for _ in range(20):
                positions = rng.sample(range(dim), rng.randint(1, min(dim, 8)))
                cases.append([(p, rng.choice([-1, 1]) * rng.randint(1, 2**70)) for p in positions])
                cases.append([(p, rng.randint(-3, 3) or 1) for p in positions])
            for i in range(j):
                y = verify._witness(i, j, n)
                sigma = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
                for e in (y, permute_element(sigma, y) * (2**63 + 1), y * 3 + permute_element(sigma, y)):
                    terms = verify._downs(e, j)[j]
                    cases.append(terms)
                    cases.append(terms + [(0, 1)] if all(p for p, _ in terms) else terms[1:])
            for terms in cases:
                expected = _cell_loop_orthogonal(terms, j, n)
                assert verify._is_orthogonal(terms, j, n) == expected, (j, n, terms)
                orthogonal += expected
    assert orthogonal > 100


def test_packed_slot_width_comes_from_the_bound(fresh_verify_caches, monkeypatch):
    # Dot products (2^64, -1) carry into each other at a fixed 64-bit slot
    # and read as zero; the width taken from the bound keeps them apart.
    monkeypatch.setattr(verify, "_stratum", lambda j, n: ((1, 0), (0, 1)))
    terms = [(0, 2**64), (1, -1)]
    fixed = verify._signed_columns(1, 2, 64)
    assert not sum(c * fixed[p] for p, c in terms)
    assert not _cell_loop_orthogonal(terms, 1, 2)
    assert not verify._is_orthogonal(terms, 1, 2)
    assert verify._is_orthogonal([(0, 0)], 1, 2)


def _sorted_tuple_character(j, n, sigmas):
    # Test-side reference: each pivot set's image under sigma^-1, sorted and
    # looked up as a tuple, and its slot read from the unpacked column.
    pivots, columns = verify._reduced_stratum(j, n)
    index = colex_index(j, n)
    subsets = list(index)
    chi = []
    for sigma in sigmas:
        inverse = {y: x for x, y in enumerate(sigma, start=1)}
        c = sum(
            linalg._unpack(columns[index[tuple(sorted(inverse[x] for x in subsets[p]))]], len(pivots))[i]
            for i, p in enumerate(pivots)
        ) % 65521
        chi.append(c - 65521 if 2 * c > 65521 else c)
    return tuple(chi)


def test_character_matches_the_sorted_tuple_reading():
    for n in range(1, 11):
        sigmas = [verify._class_representative(mu) for mu in verify._cycle_types(n)]
        for j in range(n // 2 + 1):
            assert verify._character(j, n, sigmas) == _sorted_tuple_character(j, n, sigmas), (j, n)


def test_colliding_leading_sets_fall_back_to_elimination(fresh_verify_caches, monkeypatch):
    # The standard-filling trades have distinct colex-largest k-sets, so
    # their rank is read with no elimination.  A duplicated basis trade
    # collides with its copy: the basis is then eliminated, its rank is one
    # below its size, and basis-standard fails.
    calls = []
    monkeypatch.setattr(verify, "rank_of_columns", lambda v: calls.append(v) or rank_of_columns(v))
    assert verify._basis_rank(2, 3, 8) == (28, 28) and check_trade_basis(2, 4, 8).passed
    assert calls == []
    basis = verify.total_trade_basis
    monkeypatch.setattr(verify, "total_trade_basis", lambda t, k, n: basis(t, k, n)[:1] + basis(t, k, n))
    verify._basis_rank.cache_clear()
    assert verify._basis_rank(2, 3, 8) == (29, 28)
    assert len(calls) == 1
    for k in (3, 4):
        r = check_trade_basis(2, k, 8)
        assert not r.passed and not r.consistent and r.computed == r.predicted == 28, k


def test_up_map_matches_the_validating_sum():
    # Against BooleanElement's own summing constructor, on witnesses and on
    # y_2 lifted to the t + k = n boundary, where every term cancels.
    assert verify._up_map(verify._witness(2, 2, 5), 4).is_zero
    for e, k in [(verify._witness(2, 2, 7), 4), (verify._witness(0, 1, 6), 3), (verify._witness(2, 2, 5), 4)]:
        n = e.n
        pairs = [
            (tuple(sorted(s + extra)), c)
            for s, c in e.terms()
            for extra in combinations([x for x in range(1, n + 1) if x not in s], k - len(s))
        ]
        assert verify._up_map(e, k)._terms == BooleanElement(n, pairs)._terms, (e, k)


def test_orbit_span_of_total_trade():
    e = total_trade(TradeSpec(5, 1, 2, (1, 3), (2, 4)))
    ech = orbit_span(e, 2)
    assert ech.rank == binomial(5, 2) - binomial(5, 1)


def test_generator_maps_match_permute_element():
    rng = random.Random(29)
    for n in range(1, 8):
        gens = [Permutation(n, tuple(range(2, n + 1)) + (1,))]  # (1 2 ... n)
        if n > 2:
            gens.append(Permutation.transposition(n, 1, 2))
        for k in range(n + 1):
            e = BooleanElement(n, [(s, rng.randint(-3, 3)) for s in colex_tuples(k, n)])
            v = element_to_vector(e, k)
            maps = verify._generator_maps(k, n)
            assert len(maps) == len(gens)
            for g, m in zip(gens, maps):
                assert [v[p] for p in m] == list(element_to_vector(permute_element(g, e), k))


def _transposition_closure(e, k):
    # Reference span: a basis of the closure of e under every adjacent
    # transposition (i i+1), from images of elements already in the basis.
    n = e.n
    ech = IntegerEchelon(binomial(n, k))
    found = [e] if ech.add(element_to_vector(e, k)) else []
    for x in found:
        for i in range(1, n):
            y = permute_element(Permutation.transposition(n, i, i + 1), x)
            if ech.add(element_to_vector(y, k)):
                found.append(y)
    return [element_to_vector(x, k) for x in found]


def _assert_same_span(e, k):
    spun = orbit_span(e, k)
    basis = _transposition_closure(e, k)
    assert spun.rank == len(basis)
    assert all(spun.contains(v) for v in basis)
    return spun.rank


def test_orbit_span_equals_transposition_closure():
    rng = random.Random(31)
    for n in range(1, 8):
        for k in range(n + 1):
            subsets = list(colex_tuples(k, n))
            for _ in range(3):
                terms = rng.sample(subsets, rng.randint(1, min(3, len(subsets))))
                _assert_same_span(
                    BooleanElement(n, [(s, rng.choice((-2, -1, 1, 3))) for s in terms]), k
                )
    for t, k, n in ((0, 1, 3), (0, 2, 5), (1, 2, 6), (0, 3, 7), (1, 3, 7)):
        e = minimal_trade(verify._random_minimal_spec(random.Random(n + k), t, k, n))
        assert _assert_same_span(e, k) == binomial(n, k) - binomial(n, t)


def test_orbit_span_small_ground_sets():
    assert orbit_span(BooleanElement(0, [((), 1)]), 0).rank == 1
    assert orbit_span(BooleanElement(1, [((1,), 1)]), 1).rank == 1
    assert orbit_span(BooleanElement(1, [((), 2)]), 0).rank == 1
    assert orbit_span(BooleanElement(2, [((1,), 1)]), 1).rank == 2
    assert orbit_span(BooleanElement(2, [((1,), 1), ((2,), -1)]), 1).rank == 1
    assert orbit_span(BooleanElement(2, [((1,), 1), ((2,), 1)]), 1).rank == 1
    assert orbit_span(BooleanElement(2, [((1, 2), 5)]), 2).rank == 1
    assert orbit_span(BooleanElement.zero(2), 1).rank == 0


def test_orbit_decomposition_witnesses():
    e = total_trade(TradeSpec(5, 1, 2, (1, 3), (2, 4)))
    assert orbit_decomposition(e, 1) == {1}

    m = minimal_trade(TradeSpec(7, 0, 3, (1,), (2,), (3, 4)))
    assert orbit_decomposition(m, 0) == {0, 1, 2}

    mixed = total_trade(TradeSpec(7, 0, 3, (1,), (2,))) + total_trade(
        TradeSpec(7, 1, 3, (1, 3), (2, 4))
    )
    assert orbit_decomposition(mixed, 0) == {0, 1}


def test_orbit_decomposition_matches_basis_containment():
    # One total trade per stratum decides containment; the reference tests
    # every standard-basis trade of every stratum against the same span.
    for t, k, n in verify._half_domain(8):
        rng = random.Random(f"witness {t} {k} {n}")
        witnesses = [
            total_trade(verify._random_total_spec(rng, t, k, n)),
            minimal_trade(verify._random_minimal_spec(rng, t, k, n)),
        ]
        if k >= t + 2:
            witnesses.append(
                total_trade(verify._random_total_spec(rng, t, k, n))
                + total_trade(verify._random_total_spec(rng, t + 1, k, n))
            )
        for e in witnesses:
            ech = orbit_span(e, k)
            reference = {
                i
                for i in range(t, k)
                if all(ech.contains(element_to_vector(b, k)) for _, b in total_trade_basis(i, k, n))
            }
            assert orbit_decomposition(e, t) == reference, (t, k, n)


def test_orbit_decomposition_rejects_non_trades():
    not_a_trade = BooleanElement(6, [((1, 2), 1)])
    with pytest.raises(ValueError):
        orbit_decomposition(not_a_trade, 0)
    with pytest.raises(ValueError):
        orbit_decomposition(BooleanElement.zero(6), 0)


def test_orbit_decomposition_guard_catches_unaccounted_rank(fresh_verify_caches, monkeypatch):
    # With a zero trade standing for each stratum the spun strata 1..3 are
    # empty.  The character check sees that first; with it skipped, the
    # strata no longer fill M^3, and the check that must hold before any
    # orbit answer reads them still raises.
    monkeypatch.setattr(verify, "_first_total_trade", lambda i, k, n: BooleanElement.zero(n))
    e = total_trade(TradeSpec(7, 0, 3, (1,), (2,)))
    with pytest.raises(verify.VerificationError, match="stratum 1 at k=1 n=7 is not irreducible"):
        orbit_decomposition(e, 0)
    monkeypatch.setattr(verify, "_require_irreducible_strata", lambda n: None)
    with pytest.raises(
        verify.VerificationError, match=r"dimensions \[1, 0, 0, 0\], which do not fill C\(7,3\) = 35"
    ):
        orbit_decomposition(e, 0)


def test_orbit_decomposition_counts_the_strata_it_reports(fresh_verify_caches, monkeypatch):
    # Fault injection: leave stratum 0 out of the strata found orthogonal,
    # both exactly and mod p.  The strata reported then miss one dimension
    # of the rank those strata leave, and the rank guard raises.
    orthogonal_strata = verify._orthogonal_strata
    orthogonal_mod_p = verify._orthogonal_mod_p
    e = total_trade(TradeSpec(7, 0, 3, (1,), (2,)))
    verify._require_multiplicity_free(3, 7)
    monkeypatch.setattr(verify, "_orthogonal_strata", lambda downs, n: orthogonal_strata(downs, n)[1:])
    monkeypatch.setattr(
        verify, "_orthogonal_mod_p", lambda terms, j, n: j != 0 and orthogonal_mod_p(terms, j, n)
    )
    with pytest.raises(verify.VerificationError, match=r"orbit span dimension 7 != 6"):
        orbit_decomposition(e, 0)


def test_a_stratum_wrongly_counted_orthogonal_is_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: count one stratum more as orthogonal to e than the
    # dot products at its grade show.  The reduced rows of that stratum mod
    # p disagree, which must raise rather than give the strata without it.
    orthogonal_strata = verify._orthogonal_strata

    def one_too_many(downs, n):
        found = orthogonal_strata(downs, n)
        return found + (next(j for j in range(len(downs)) if j not in found),)

    monkeypatch.setattr(verify, "_orthogonal_strata", one_too_many)
    witnesses = [
        (total_trade(TradeSpec(7, 1, 3, (1, 3), (2, 4))), 1, "stratum 2 at k=3 n=7"),
        (minimal_trade(TradeSpec(8, 0, 4, (1,), (2,), (3, 4, 5))), 0, "stratum 1 at k=4 n=8"),
    ]
    for e, t, stratum in witnesses:
        with pytest.raises(
            verify.VerificationError, match=f"is orthogonal to {stratum}, but not orthogonal to it modulo 65521"
        ):
            orbit_decomposition(e, t)


def _padded(vectors, extra):
    # The exact echelon rows of the span of the vectors and `extra`, in pivot
    # order, so that a padded stratum still passes the echelon check.
    ech = IntegerEchelon(len(extra))
    for v in (*vectors, extra):
        ech.add(v)
    return tuple(tuple(row.get(c, 0) for c in range(ech.dim)) for row in ech._rows)


def test_broken_strata_orthogonality_is_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: slip the all-ones vector of grade 2, which lies in
    # the lift of stratum 0, into T_2.  Both the orbit answer and the matrix
    # ceiling rest on the strata being orthogonal, so both must raise.
    stratum = verify._stratum

    def broken(j, n):
        vectors = stratum(j, n)
        return _padded(vectors, element_to_vector(verify._witness(0, j, n), j)) if j == 2 else vectors

    monkeypatch.setattr(verify, "_stratum", broken)
    e = total_trade(TradeSpec(8, 1, 3, (1, 3), (2, 4)))
    with pytest.raises(verify.VerificationError, match="strata 0 and 2 at k=3 n=8"):
        orbit_decomposition(e, 1)
    with pytest.raises(verify.VerificationError, match="strata 0 and 2 at k=2 n=6"):
        verify._matrix_rank(MatrixSpec.combination(6, 2, 3, (1, -2, 1)))
    # kernel-decomposition sums the stratum ranks only for orthogonal strata;
    # its matrix rank first reads the strata at n = 7, where the padded T_2
    # is not irreducible
    with pytest.raises(verify.VerificationError, match="stratum 2 at k=2 n=7 is not irreducible"):
        check_kernel_decomposition(1, 3, 7)


def test_strata_dependent_mod_p_are_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: repeat the vectors of T_1.  Its reduced rows mod p
    # would then have fewer rows than vectors, and the characters read off
    # them would not be those of the stratum; the repeats restart the
    # pivots, so the echelon check refuses them.
    stratum = verify._stratum
    monkeypatch.setattr(verify, "_stratum", lambda j, n: stratum(j, n) * (1 + (j == 1)))
    with pytest.raises(
        verify.VerificationError,
        match="stratum 1 at k=1 n=7: its 12 rows are not in echelon form with pivots nonzero mod 65521",
    ):
        verify._reduced_stratum(1, 7)


def test_reduced_strata_match_the_eliminated_reference():
    # One back substitution of T_j's exact echelon rows gives what a full
    # forward elimination mod p followed by back substitution gives.
    for n in range(1, 11):
        for j in range(n // 2 + 1):
            rows = eliminated_reduced_rows(verify._stratum(j, n), binomial(n, j))
            expected = (
                tuple(p for p, _ in rows),
                tuple(map(linalg._pack, zip(*(r for _, r in rows)))),
            )
            assert verify._reduced_stratum(j, n) == expected, (j, n)


def test_stratum_rows_out_of_echelon_form_are_caught(fresh_verify_caches, monkeypatch):
    # Fault injection on T_2 at n = 7: rows out of pivot order, and a row
    # scaled by p, which keeps the exact span but not the rank mod p, are
    # refused before any character is read; a dropped row keeps the echelon
    # form but breaks the character's norm.
    stratum = verify._stratum
    faults = [
        (lambda rows: rows[1:2] + rows[:1] + rows[2:], "its 14 rows are not in echelon form"),
        (lambda rows: rows[:-1] + (tuple(65521 * x for x in rows[-1]),), "its 14 rows are not in echelon form"),
        (lambda rows: rows[:-1], "is not irreducible"),
    ]
    for fault, message in faults:
        verify._reduced_stratum.cache_clear()
        monkeypatch.setattr(
            verify, "_stratum", lambda j, n, fault=fault: fault(stratum(j, n)) if j == 2 else stratum(j, n)
        )
        with pytest.raises(verify.VerificationError, match=f"stratum 2 at k=2 n=7.* {message}"):
            verify._require_irreducible_strata(7)


def test_character_norms_and_young_rule():
    # The stratum characters, each read at the stratum's own grade: chi_j at
    # the identity is the stratum's dimension, C(n, j) - C(n, j-1), and at
    # the 6-cycle only chi_0 and chi_1 are nonzero.
    types = list(verify._cycle_types(6))
    assert len(types) == 11 and sorted(types) == sorted(set(types))
    assert sum(map(verify._class_size, types)) == 720
    assert verify._class_representative((3, 2, 1)) == (2, 3, 1, 5, 4, 6)
    assert verify._class_size((2, 2, 1, 1)) == 45
    cycle = verify._class_representative((6,))
    chars = [verify._character(j, 6, [tuple(range(1, 7)), cycle]) for j in range(4)]
    assert chars == [(1, 1), (5, -1), (9, 0), (5, 0)]
    assert verify._fixed_subsets(cycle, 3) == [1, 0, 0, 0]
    assert verify._fixed_subsets(verify._class_representative((3, 3)), 3) == [1, 0, 0, 2]
    # The counts match a direct count of the fixed subsets at every sigma.
    for mu in types:
        sigma = verify._class_representative(mu)
        direct = [
            sum(tuple(sorted(sigma[x - 1] for x in s)) == s for s in colex_index(m, 6))
            for m in range(4)
        ]
        assert verify._fixed_subsets(sigma, 3) == direct, mu
    verify._require_multiplicity_free(3, 6)


def test_a_reducible_stratum_is_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: pad T_2 with the all-ones vector of grade 2, the
    # trivial module.  T_2 then holds two irreducibles, so its character
    # has norm 2.  Padded with a repeat of one of its own vectors, and with
    # the character check skipped, the strata overfill M^3.
    stratum = verify._stratum

    def padded(j, n):
        ones = element_to_vector(verify._witness(0, j, n), j)
        return _padded(stratum(j, n), ones) if j == 2 else stratum(j, n)

    monkeypatch.setattr(verify, "_stratum", padded)
    with pytest.raises(verify.VerificationError, match="stratum 2 at k=2 n=7 is not irreducible"):
        verify._require_irreducible_strata(7)
    monkeypatch.setattr(
        verify, "_stratum", lambda j, n: stratum(j, n) + stratum(j, n)[:1] if j == 2 else stratum(j, n)
    )
    monkeypatch.setattr(verify, "_require_irreducible_strata", lambda n: None)
    with pytest.raises(verify.VerificationError, match=r"dimensions \[1, 6, 15, 14\], which do not fill C\(7,3\) = 35"):
        verify._require_multiplicity_free(3, 7)


def test_equal_stratum_characters_are_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: read T_1's character for T_2.  Each still has norm
    # 1, so only the check that the characters differ sees it.
    character = verify._character
    monkeypatch.setattr(
        verify, "_character", lambda j, n, sigmas: character(1 if j == 2 else j, n, sigmas)
    )
    with pytest.raises(verify.VerificationError, match="strata 1 and 2 at n=7 have the same"):
        verify._require_multiplicity_free(3, 7)


def test_a_wrong_fixed_subset_count_breaks_young_rule(fresh_verify_caches, monkeypatch):
    # Fault injection: count one fixed 1-subset too many.  Every character
    # keeps its norm, but chi_1 and chi_2 no longer follow Young's rule.
    fixed = verify._fixed_subsets
    monkeypatch.setattr(
        verify,
        "_fixed_subsets",
        lambda sigma, k: [c + (m == 1) for m, c in enumerate(fixed(sigma, k))],
    )
    with pytest.raises(verify.VerificationError, match=r"stratum 1 at k=1 n=7: .*Young's rule"):
        verify._require_multiplicity_free(3, 7)


def test_a_wrong_class_representative_is_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: stand the identity in for the n-cycle.  The
    # characters and the fixed-subset counts agree at every sigma, but the
    # class sizes no longer weigh the right values, so a norm breaks.
    representative = verify._class_representative
    monkeypatch.setattr(
        verify,
        "_class_representative",
        lambda mu: representative((1,) * sum(mu) if len(mu) == 1 else mu),
    )
    with pytest.raises(verify.VerificationError, match="stratum 1 at k=1 n=7 is not irreducible"):
        verify._require_multiplicity_free(3, 7)


def test_an_unlifted_character_is_caught(fresh_verify_caches, monkeypatch):
    # Fault injection: read each character value mod p without lifting it
    # to (-p/2, p/2).  chi_1 is negative on the n-cycle, so its norm breaks.
    character = verify._character
    monkeypatch.setattr(
        verify, "_character", lambda *a: tuple(c % 65521 for c in character(*a))
    )
    with pytest.raises(verify.VerificationError, match="stratum 1 at k=1 n=7 is not irreducible"):
        verify._require_multiplicity_free(3, 7)


def test_every_stratum_character_is_checked(fresh_verify_caches, monkeypatch):
    # Fault injection, one stratum at a time: double T_j's character, so
    # its norm is 4.  The check reads every T_j with j <= n/2, so each fault
    # is caught, and no stratum above n/2 is read.
    character = verify._character
    for n in (6, 7, 8):
        for j in range(n // 2 + 1):
            read = []

            def doubled(i, m, sigmas, j=j):
                read.append(i)
                chi = character(i, m, sigmas)
                return tuple(2 * c for c in chi) if i == j else chi

            monkeypatch.setattr(verify, "_character", doubled)
            with pytest.raises(
                verify.VerificationError, match=f"stratum {j} at k={j} n={n} is not irreducible"
            ):
                verify._require_irreducible_strata(n)
            assert read == list(range(j + 1))
    monkeypatch.setattr(verify, "_character", character)
    read = []
    monkeypatch.setattr(verify, "_character", lambda i, m, s: read.append(i) or character(i, m, s))
    verify._require_irreducible_strata(9)
    assert read == [0, 1, 2, 3, 4]


def test_orbit_decomposition_of_a_scaled_element():
    # The orbit span does not change under scaling: rational coefficients
    # and multiples of p give the same strata as the trade itself.
    e = total_trade(TradeSpec(7, 1, 3, (1, 3), (2, 4)))
    assert orbit_decomposition(e * Fraction(1, 2), 1) == {1}
    assert orbit_decomposition(e * 65521, 1) == {1}


def test_a_generator_subgroup_trips_the_stratum_guard(fresh_verify_caches, monkeypatch):
    # The n-cycle alone, or the transposition alone, spins less than the
    # stratum, and the total trade on the top elements is not in that span.
    maps = verify._generator_maps
    for cut in (slice(0, 1), slice(1, 2)):
        monkeypatch.setattr(verify, "_generator_maps", lambda k, n, cut=cut: maps(k, n)[cut])
        verify._stratum.cache_clear()
        with pytest.raises(verify.VerificationError, match="stratum 2 at k=2 n=8"):
            verify._stratum(2, 8)


def _exact_orbit_strata(e: BooleanElement, t: int) -> set[int]:
    # The strata found by spinning e's orbit exactly: the span is invariant,
    # so it holds stratum i exactly when it holds one total trade of it.
    k, n = e.homogeneous_grade(), e.n
    ech = verify.orbit_span(e, k)
    strata = {
        i
        for i in range(t, k)
        if ech.contains(element_to_vector(verify._first_total_trade(i, k, n), k))
    }
    assert ech.rank == verify._strata_dim(strata, n)
    return strata


def test_certified_orbit_decomposition_matches_the_exact_path(fresh_verify_caches, monkeypatch):
    # Every orbit-suite witness with n <= 9 is decomposed from the strata
    # alone: once the strata are spun, a second run spins nothing.  Exact
    # spins of every witness report the same strata.
    certified = run_suite("orbit-decomposition", 9)
    spins = []
    spin = verify.orbit_span
    monkeypatch.setattr(verify, "orbit_span", lambda e, k: spins.append(e) or spin(e, k))
    again = run_suite("orbit-decomposition", 9)
    assert spins == []
    monkeypatch.setattr(verify, "orbit_decomposition", _exact_orbit_strata)
    exact = run_suite("orbit-decomposition", 9)
    assert len(spins) == len(exact) == len(certified) == 100
    fields = [(r.claim, r.params, r.predicted, r.computed) for r in certified]
    assert fields == [(r.claim, r.params, r.predicted, r.computed) for r in again]
    assert fields == [(r.claim, r.params, r.predicted, r.computed) for r in exact]
    assert all(r.passed for r in certified)


def test_orbit_witness_checks():
    for kind in ("total", "minimal", "mixed"):
        assert check_orbit_witness(0, 2, 5, kind).passed
    with pytest.raises(ValueError):
        check_orbit_witness(1, 2, 6, "mixed")  # needs k >= t + 2
    with pytest.raises(ValueError):
        check_orbit_witness(0, 2, 5, "bogus")


def test_lambda_closed_form_check():
    r = check_lambda_closed_form(12)
    assert r.passed and r.predicted == r.computed > 0
    with pytest.raises(ValueError):
        check_lambda_closed_form(0)


def test_rank_unchanged_under_subset_permutations():
    # sanity of the colex indexing: permuting rows and columns by any
    # ground-set permutation preserves the rank
    rng = random.Random(71)
    for t, k, n in [(0, 1, 4), (1, 2, 5), (1, 2, 6), (2, 3, 7)]:
        m = build_matrix(MatrixSpec.inclusion(n, t, k))
        base = m.rank()
        for _ in range(20):
            s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
            row_map = [
                colex_rank(tuple(sorted(s(x) for x in sub)))
                for sub in colex_tuples(t, n)
            ]
            col_map = [
                colex_rank(tuple(sorted(s(x) for x in sub)))
                for sub in colex_tuples(k, n)
            ]
            rows = [[None] * m.ncols for _ in range(m.nrows)]
            for i in range(m.nrows):
                for j in range(m.ncols):
                    rows[row_map[i]][col_map[j]] = m.entry(i, j)
            assert RationalMatrix(rows).rank() == base


def test_predicted_rank_scale_invariance():
    rng = random.Random(13)
    for _ in range(20):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(coeffs):
            continue
        base = predicted_rank(2, 3, 8, coeffs)
        assert predicted_rank(2, 3, 8, tuple(7 * c for c in coeffs)) == base


def test_report_line_format():
    reports = [
        check_inclusion_rank(0, 1, 2),
        check_kernel_decomposition(0, 1, 2),
        check_combination_rank(1, 2, 6)[0],
    ]
    for r in reports:
        assert LINE_RE.match(r.line()), r.line()


def test_render_reports_summary_and_verdict():
    reports = run_suite("inclusion-rank", 5)
    text, ok = render_reports(reports)
    assert ok
    lines = text.strip().splitlines()
    assert lines[-1] == f"TOTAL pass={len(reports)}/{len(reports)}"
    assert all(LINE_RE.match(ln) for ln in lines[:-1])


def _compared_fields(line):
    # claim, params, predicted, computed and pass of a CHECK line (ms= and
    # any other field dropped), and the pass count of the TOTAL line.
    tokens = line.split()
    if tokens[0] == "TOTAL":
        return line
    keep = ("params=", "predicted=", "computed=", "pass=")
    return " ".join(tokens[:2] + [tok for tok in tokens[2:] if tok.startswith(keep)])


def test_verify_all_matches_the_recorded_reports():
    # The benchmark's reference reports of `verify all --n-max 8 --seed 0`.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify-all.json.xz"
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        golden = json.load(fh)["0"]
    text, ok = render_reports(run_suite("all", 8, 0))
    assert [_compared_fields(ln) for ln in text.splitlines()] == golden["lines"]
    assert golden["lines"][-1] == "TOTAL pass=1689/1737"
    assert (0 if ok else 1) == golden["exit"] == 1


def test_trade_span_ops_match_the_recorded_reports():
    # The benchmark's reference reports of its trade-span workload: every
    # trade-side public check at n = 9 with seed 0, one call per op, in the
    # order of the `verify all` suites.  Above n/2 these read the span rank
    # through the up-map, and the audit reuses it.
    n, seed = 9, 0
    sums = [(t, k) for t, k, m in verify._sum_domain(n) if m == n]
    halves = [(t, k) for t, k, m in verify._half_domain(n) if m == n]
    ops = [(check_total_trade_dim, (t, k, n)) for t, k in sums]
    for t, k in sums:
        if n - t - 1 >= t + 1:
            ops += [(check_trade_basis, (t, k, n)), (literal_basis_audit, (t, k, n))]
    ops += [(check_kernel_decomposition, (t, k, n)) for t, k in halves]
    ops += [(check_graver_jurkat, (t, k, n, seed)) for t, k in halves]
    for t, k in halves:
        for kind in ("total", "minimal", "mixed") if k >= t + 2 else ("total", "minimal"):
            ops.append((check_orbit_witness, (t, k, n, kind, seed)))
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "trade-span.json.xz"
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        golden = json.load(fh)[str(seed)]
    lines = [_compared_fields(fn(*args).line()) for fn, args in ops]
    assert len(lines) == 119
    assert lines == golden["lines"]


def test_run_suite_deterministic_order():
    a = run_suite("graver-jurkat", 6, seed=3)
    b = run_suite("graver-jurkat", 6, seed=3)
    assert [(r.claim, tuple(r.params.items()), r.predicted, r.computed) for r in a] == [
        (r.claim, tuple(r.params.items()), r.predicted, r.computed) for r in b
    ]


def test_all_runs_suites_in_table_order():
    def lines(reports):
        return [re.sub(r" ms=\d+$", "", r.line()) for r in reports]

    for seed in (0, 4):
        expected = [ln for name in verify.SUITES for ln in lines(run_suite(name, 5, seed))]
        assert lines(run_suite("all", 5, seed)) == expected


def test_run_suite_unknown_selector():
    with pytest.raises(ValueError):
        run_suite("nonsense", 4)


def test_run_suite_rejects_n_max_below_one():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            run_suite("inclusion-rank", bad)
    assert [r.claim for r in run_suite("all", 1)] == ["total-trade-dim", "lambda-closed-form"]


def test_basis_suite_includes_unasserted_audit():
    reports = run_suite("basis", 4)
    audits = [r for r in reports if r.claim == "basis-literal-audit"]
    assert audits and all(not r.asserted for r in audits)
    # the audit's discrepancies never flip the exit verdict
    asserted_ok = all(r.passed for r in reports if r.asserted)
    _, ok = render_reports(reports)
    assert ok == asserted_ok
