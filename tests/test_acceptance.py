"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every computed value comes from exact row reduction (or exact algebra in the
subset ring); every predicted value from the closed formulas.  All equalities
are exact with zero tolerance.

Criteria 02 and 11 run the total-trade checks over t < k, t + k <= n, where
the span of the total trades is the Specht module S^(n-t-1,t+1).  By Young's
rule that module lies in M^(n-k,k) only when t + 1 <= n - k, so on the
boundary t + k = n, k >= t + 2 the span is 0 while the closed formula
C(n,t+1) - C(n,t) is positive.  The checkers report those tuples as failures
by design; the two criteria assert each report's values against an
independent derivation and assert that the failing tuples are exactly that
boundary set.
"""

import random
from itertools import permutations

from tradekit.boolean_algebra import element_to_vector
from tradekit.combinatorics import binomial
from tradekit.linalg import rank_of_columns
from tradekit.specht import (
    TabloidExpr,
    Tableau,
    TwoRowShape,
    canonicalize,
    garnir,
    trade_map,
    trade_map_expr,
    is_standard,
    specht_dim,
    straighten,
    young_rule,
)
from tradekit.trades import total_trade
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
)


def _criterion(label: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} case(s))"
    print(f"ACCEPTANCE {label}: {status}")
    assert not failures, f"{label}: failing cases (t, k, n, ...): {failures[:20]}"


_BOUNDARY_NOTE = (
    "The reports are expected to fail exactly on the tuples with t + k == n "
    "and k >= t + 2.  There the ground set left after removing the 2t+2 pair "
    "elements is one element short of a (k-t-1)-tail, so every total trade is "
    "the zero element and the span has dimension 0; by Young's rule the shape "
    "(n-t-1, t+1) is not a constituent of M^(n-k,k) once t + 1 > n - k.  The "
    "predicted binomial difference C(n,t+1) - C(n,t) is positive there, so the "
    "checker reports a failure by design.  At k == t + 1 (n == 2t + 1) both "
    "sides are 0 and the report passes."
)


def _boundary_criterion(label: str, mismatches: list, failing: set, boundary: set) -> None:
    """PASS/FAIL line for a criterion whose reports fail by design on `boundary`.

    `mismatches` holds the tuples whose report values differ from the
    independent derivation; `failing` is the set of tuples whose report failed.
    """
    off = [
        (t, k, n, "fails" if (t, k, n) in failing else "passes")
        for t, k, n in sorted(failing ^ boundary)
    ]
    if mismatches or off or not boundary:
        status = (
            f"FAIL ({len(mismatches)} value mismatch(es), {len(off)} outcome(s) "
            f"off the {len(boundary)} boundary tuple(s))"
        )
    else:
        status = f"PASS ({len(boundary)} boundary tuple(s) fail as expected)"
    print(f"ACCEPTANCE {label}: {status}")
    assert boundary, f"{label}: the domain holds no tuple with t + k == n, k >= t + 2"
    assert not mismatches, (
        f"{label}: report values differ from the derivation (t, k, n, ...): "
        f"{mismatches[:20]}"
    )
    assert not off, (
        f"{label}: report outcomes off the boundary set (t, k, n, outcome): "
        f"{off[:20]}\n{_BOUNDARY_NOTE}"
    )


def _on_boundary(t: int, k: int, n: int) -> bool:
    return t + k == n and k >= t + 2


def _span_dim(t: int, k: int, n: int) -> int:
    """Dimension of the total-trade span from Young's rule: S^(n-t-1,t+1)
    when that shape is a constituent of M^(n-k,k), else 0."""
    if n - t - 1 < t + 1:  # n == 2t + 1: no such shape
        return 0
    shape = TwoRowShape(n - t - 1, t + 1)
    return specht_dim(shape) if shape in young_rule(k, n) else 0


def _half_domain(n_max):
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                yield t, k, n


def _sum_domain(n_max):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for t in range(min(k, n - k + 1)):
                yield t, k, n


def _two_row_shapes(n):
    return [TwoRowShape(n - j, j) for j in range(1, n // 2 + 1)]


def _random_tabloid(rng, shape):
    perm = rng.sample(range(1, shape.n + 1), shape.n)
    return canonicalize(
        Tableau(shape, tuple(perm[: shape.lambda1]), tuple(perm[shape.lambda1 :]))
    )


def test_criterion_01_inclusion_matrix_maximal_rank():
    failures = []
    for t, k, n in _half_domain(10):
        r = check_inclusion_rank(t, k, n)
        if not r.passed:
            failures.append((t, k, n, r.predicted, r.computed))
    _criterion("1 inclusion-rank n<=10", failures)


def test_criterion_02_total_trade_dimension():
    mismatches = []
    failing = set()
    boundary = set()
    for t, k, n in _sum_domain(9):
        r = check_total_trade_dim(t, k, n)
        if not r.passed:
            failing.add((t, k, n))
        if _on_boundary(t, k, n):
            boundary.add((t, k, n))
        if (r.predicted, r.computed) != (
            binomial(n, t + 1) - binomial(n, t),
            _span_dim(t, k, n),
        ):
            mismatches.append((t, k, n, r.predicted, r.computed))
    _boundary_criterion("2 total-trade-dim n<=9", mismatches, failing, boundary)


def test_criterion_03_kernel_decomposition():
    failures = []
    for t, k, n in _half_domain(8):
        r = check_kernel_decomposition(t, k, n)
        if not r.passed:
            failures.append((t, k, n))
    _criterion("3 kernel-decomposition n<=8", failures)


def test_criterion_04_intersection_matrix_ranks():
    failures = []
    for t, k, n in _half_domain(10):
        for l in range(t + 1):
            r = check_intersection_rank(t, k, n, l)
            if not r.passed:
                failures.append((t, k, n, l, r.predicted, r.computed))
    _criterion("4 intersection-rank n<=10", failures)


def test_criterion_05_combination_ranks():
    failures = []
    for t, k, n in _half_domain(8):
        for r in check_combination_rank(t, k, n):
            if not r.passed:
                failures.append((t, k, n, r.params["coeffs"], r.predicted, r.computed))
    _criterion("5 combination-rank n<=8 (20 seeds + grid)", failures)


def test_criterion_06_lambda_closed_form():
    r = check_lambda_closed_form(30)
    failures = [] if r.passed else [(r.predicted, r.computed)]
    _criterion("6 lambda-closed-form n<=30", failures)


def test_criterion_07_garnir_vanishing_under_trade_map():
    failures = []
    # exhaustive over all fillings, columns and compatible grades for n <= 6
    for n in range(2, 7):
        for shape in _two_row_shapes(n):
            t = shape.lambda2 - 1
            for perm in permutations(range(1, n + 1)):
                u = Tableau(shape, perm[: shape.lambda1], perm[shape.lambda1 :])
                for c in range(1, shape.lambda1):
                    g = garnir(u, c)
                    for k in range(t + 1, n - t + 1):
                        image = trade_map_expr(g, k) if not g.is_zero else None
                        if image is not None and not image.is_zero:
                            failures.append((n, shape.lambda2, perm, c, k))
    # 100 seeded samples per (shape, column) for n = 7, 8
    for n in (7, 8):
        for shape in _two_row_shapes(n):
            t = shape.lambda2 - 1
            for c in range(1, shape.lambda1):
                rng = random.Random(10_000 * n + 100 * shape.lambda2 + c)
                for _ in range(100):
                    perm = rng.sample(range(1, n + 1), n)
                    u = Tableau(
                        shape, tuple(perm[: shape.lambda1]), tuple(perm[shape.lambda1 :])
                    )
                    k = rng.randint(t + 1, n - t)
                    g = garnir(u, c)
                    if not g.is_zero and not trade_map_expr(g, k).is_zero:
                        failures.append((n, shape.lambda2, tuple(perm), c, k))
    _criterion("7 garnir-vanishing n<=6 exhaustive, n=7,8 sampled", failures)


def test_criterion_08_straightening_soundness():
    failures = []
    for n in range(2, 8):
        for shape in _two_row_shapes(n):
            k = shape.lambda2  # the trade map is injective at this grade
            rng = random.Random(1_000 * n + shape.lambda2)
            for _ in range(200):
                q = _random_tabloid(rng, shape)
                out = straighten(TabloidExpr([(q, 1)]))
                if not all(is_standard(t) for t in out.tableaux()):
                    failures.append((n, shape.lambda2, "nonstandard"))
                    continue
                if not all(c.denominator == 1 for _, c in out.terms()):
                    failures.append((n, shape.lambda2, "noninteger"))
                    continue
                lhs = trade_map(q, k)
                rhs = trade_map_expr(out, k) if not out.is_zero else None
                if (rhs is None and not lhs.is_zero) or (rhs is not None and lhs != rhs):
                    failures.append((n, shape.lambda2, "map-mismatch"))
    _criterion("8 straightening n<=7 (200 seeded per shape)", failures)


def test_criterion_09_minimal_trade_orbit_spans_everything():
    failures = []
    for t, k, n in _half_domain(8):
        r = check_graver_jurkat(t, k, n)
        if not r.passed:
            failures.append((t, k, n, r.predicted, r.computed))
    _criterion("9 minimal-trade-orbit n<=8", failures)


def test_criterion_10_orbit_decomposition_witnesses():
    failures = []
    for t, k, n in _half_domain(7):
        for kind in ("total", "minimal"):
            r = check_orbit_witness(t, k, n, kind)
            if not r.passed:
                failures.append((t, k, n, kind, r.predicted, r.computed))
        if k >= t + 2:
            r = check_orbit_witness(t, k, n, "mixed")
            if not r.passed:
                failures.append((t, k, n, "mixed", r.predicted, r.computed))
    _criterion("10 orbit-decomposition n<=7", failures)


def test_criterion_11_standard_basis_and_literal_audit():
    mismatches = []
    failing = set()
    boundary = set()
    audited = []
    for t, k, n in _sum_domain(8):
        if n - t - 1 < t + 1:
            continue
        r = check_trade_basis(t, k, n)
        if not r.passed:
            failing.add((t, k, n))
        if _on_boundary(t, k, n):
            boundary.add((t, k, n))
        dim = _span_dim(t, k, n)
        span_rank = check_total_trade_dim(t, k, n).computed
        if (
            r.predicted != binomial(n, t + 1) - binomial(n, t)
            or r.computed != dim
            or span_rank != dim
            or not all(r.containment)
            or not r.consistent
        ):
            mismatches.append((t, k, n, r.predicted, r.computed, span_rank))
        audit = literal_basis_audit(t, k, n)
        audited.append((t, k, n, audit.params["cardinality"], audit.computed))
    # the literal three-condition set is reported, never asserted; the known
    # small discrepancy must be reproduced
    assert (0, 1, 3, 3, 2) in audited
    _boundary_criterion(
        "11 standard-basis n<=8 (+literal audit)", mismatches, failing, boundary
    )


def test_criterion_11_audit_examples_detail():
    # the audit itself: 3 candidate specs for (0,1,3), spanning a 2-dim space
    specs = list(literal_basis_specs(0, 1, 3))
    assert len(specs) == 3
    vectors = [element_to_vector(total_trade(s), 1) for s in specs]
    assert rank_of_columns(vectors) == 2 == binomial(3, 1) - binomial(3, 0)
    print("ACCEPTANCE 11a literal-audit (0,1,3) reproduces 3 specs of rank 2: PASS")
