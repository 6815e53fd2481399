"""Inputs and output checks of the three benchmark workloads.

This module imports nothing from tradekit, so the runner can use it without
loading the package it measures.  The seed of a run fixes its inputs:

* verify-all and trade-span pass ``tradekit_seed(seed)`` to tradekit, one of
  ``GOLDEN_SEEDS`` values whose reports are stored under ``golden/``.
* straighten draws its fillings from a fixed corpus plus a few fresh ones
  from the seed (see ``straighten_ops``).
"""

from __future__ import annotations

import difflib
import json
import lzma
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("verify-all", "trade-span", "straighten")

VERIFY_N_MAX = 8
TRADE_SPAN_N = 9
GOLDEN_SEEDS = 16

# Claims whose pass=false never fails a verify run (README: report-only).
REPORT_ONLY_CLAIMS = {"basis-literal-audit"}

# straighten: every two-row shape with n in 8..12 and a second row.
SHAPES = [(n, l2) for n in range(8, 13) for l2 in range(1, n // 2 + 1)]
CORPUS_PER_SHAPE = 8
# Reversed near-hook fillings; n >= 48 overflows the recursion of the
# seed-commit straighten (ROADMAP 5a) and n <= 44 does not.
LONG_REVERSED_N = (40, 44, 48, 52, 56, 60, 64)
LONG_SHUFFLED = ((1, 2), (2, 2))  # (lambda2, count) drawn with n in 40..64


def tradekit_seed(seed: int) -> int:
    return seed % GOLDEN_SEEDS


# ---------------------------------------------------------------- trade-span


def trade_span_ops(tk_seed: int, n: int = TRADE_SPAN_N) -> list[tuple[str, tuple]]:
    """Every trade-side public check on every admissible tuple at this n.

    Order follows the suites of ``verify all``: total-trade-dim and the basis
    pair over t < k, t + k <= n; then kernel decomposition, Graver-Jurkat and
    orbit witnesses over t < k <= n/2.
    """
    ops: list[tuple[str, tuple]] = []
    sum_domain = [(t, k) for k in range(1, n + 1) for t in range(min(k, n - k + 1))]
    half_domain = [(t, k) for k in range(1, n // 2 + 1) for t in range(k)]
    ops += [("check_total_trade_dim", (t, k, n)) for t, k in sum_domain]
    for t, k in sum_domain:
        if n - t - 1 >= t + 1:
            ops += [("check_trade_basis", (t, k, n)), ("literal_basis_audit", (t, k, n))]
    ops += [("check_kernel_decomposition", (t, k, n)) for t, k in half_domain]
    ops += [("check_graver_jurkat", (t, k, n, tk_seed)) for t, k in half_domain]
    for t, k in half_domain:
        for kind in ("total", "minimal") + (("mixed",) if k >= t + 2 else ()):
            ops.append(("check_orbit_witness", (t, k, n, kind, tk_seed)))
    return ops


# ---------------------------------------------------------------- straighten


def _filling(rng: random.Random, n: int, l2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    xs = list(range(1, n + 1))
    rng.shuffle(xs)
    return tuple(xs[: n - l2]), tuple(xs[n - l2 :])


def straighten_ops(seed: int) -> list[dict]:
    """Seeded op list on two-row fillings, as plain data.

    Random fillings of n = 8..12 have heavy-tailed straightening cost (the
    same shape ranges from 0.1 ms to over 1 s), so a fully fresh draw per
    seed moves a pass by +-15%.  The bulk therefore comes from a fixed corpus
    (``CORPUS_PER_SHAPE`` fillings and Garnir relations per shape), and the
    seed adds one fresh filling and one fresh Garnir relation per n and sets
    their order.  Long near-hook shapes (lambda2 in {1, 2}, n in 40..64) are
    a fixed share; the reversed ones are deterministic.
    """
    corpus = random.Random("tradekit-straighten-corpus")
    fresh = random.Random(seed)
    ops: list[dict] = []

    def add_pair(rng: random.Random, n: int, l2: int) -> None:
        ops.append({"kind": "filling", "rows": _filling(rng, n, l2)})
        rows = _filling(rng, n, l2)
        ops.append({"kind": "garnir", "rows": rows, "column": rng.randint(1, n - l2 - 1)})

    for n, l2 in SHAPES:
        for _ in range(CORPUS_PER_SHAPE):
            add_pair(corpus, n, l2)
    for n in range(8, 13):
        add_pair(fresh, n, fresh.randint(1, n // 2))
    fresh.shuffle(ops)
    # The long ops run first, in a fixed order: their memos set the peak RSS,
    # which then no longer depends on how the heap was left by earlier ops.
    long_ops = []
    for l2 in (1, 2):
        for n in LONG_REVERSED_N:
            xs = tuple(range(n, 0, -1))
            long_ops.append({"kind": "long", "rows": (xs[: n - l2], xs[n - l2 :])})
    for l2, count in LONG_SHUFFLED:
        for _ in range(count):
            long_ops.append({"kind": "long", "rows": _filling(corpus, corpus.randint(40, 64), l2)})
    return long_ops + ops


def is_standard_rows(row1, row2) -> bool:
    """Rows increase left to right and columns top to bottom."""
    return (
        all(a < b for a, b in zip(row1, row1[1:]))
        and all(a < b for a, b in zip(row2, row2[1:]))
        and all(a < b for a, b in zip(row1, row2))
    )


# ---------------------------------------------------------------- reports


def report_fields(line: str) -> str | None:
    """The compared fields of a CHECK or TOTAL line, or None for other lines.

    Keeps claim, params, predicted, computed and pass; drops ms= and any
    other key=value field a later version may add.
    """
    tokens = line.split()
    if not tokens or tokens[0] not in ("CHECK", "TOTAL"):
        return None
    fields = dict(tok.split("=", 1) for tok in tokens[1:] if "=" in tok)
    if tokens[0] == "TOTAL":
        return f"TOTAL pass={fields.get('pass')}"
    keep = " ".join(f"{k}={fields.get(k)}" for k in ("params", "predicted", "computed", "pass"))
    return f"CHECK {tokens[1]} {keep}"


def normalized(lines) -> list[str]:
    return [f for f in map(report_fields, lines) if f is not None]


def load_golden(workload: str, tk_seed: int) -> dict:
    with lzma.open(GOLDEN_DIR / f"{workload}.json.xz", "rt", encoding="utf-8") as fh:
        return json.load(fh)[str(tk_seed)]


def count_mismatches(expected: list[str], actual: list[str]) -> int:
    """Lines that differ, are missing or are extra, matched in order."""
    if expected == actual:
        return 0
    bad = 0
    matcher = difflib.SequenceMatcher(a=expected, b=actual, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            bad += max(i2 - i1, j2 - j1)
    return bad


def boundary_failures(lines: list[str]) -> set[tuple[str, str]]:
    """(claim, params) of every asserted CHECK line with pass=false."""
    out = set()
    for line in lines:
        tokens = line.split()
        if tokens[0] != "CHECK" or tokens[1] in REPORT_ONLY_CLAIMS:
            continue
        fields = dict(tok.split("=", 1) for tok in tokens[2:])
        if fields["pass"] == "false":
            out.add((tokens[1], fields["params"]))
    return out


def expected_boundary(ns) -> set[tuple[str, str]]:
    """The known t + k = n, k >= t + 2 failures of total-trade-dim and
    basis-standard, derived here rather than by tradekit."""
    return {
        (claim, f"t={t},k={n - t},n={n}")
        for n in ns
        for t in range(n)
        if n - t >= t + 2
        for claim in ("total-trade-dim", "basis-standard")
    }
