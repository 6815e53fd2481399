"""tradekit benchmark: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it repeats untraced passes while another one still fits
in ``--seconds`` (at least one) and reports the end-to-end metrics.  With
``--trace 1`` it makes an untraced, a traced and another untraced pass and
reports the per-layer metrics.  Every pass is checked against the stored seed-commit
reports (``golden/``) or, for straighten, by independent checks.  The last
line of stdout is the result object; the line before it records the
environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 21
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Layers each workload is known to call; a traced pass that reports 0 calls
# for one of them has lost a rebinding and fails the run.
_TRADE_LAYERS = [
    "combinatorics.colex_rank",
    "combinatorics.colex_tuples",
    "linalg.RationalMatrix.rank",
    "linalg.RationalMatrix.matvec",
    "linalg.IntegerEchelon.add",
    "linalg.IntegerEchelon.contains",
    "linalg.rank_of_columns",
    "boolean_algebra.build_matrix",
    "boolean_algebra.element_to_vector",
    "boolean_algebra.BooleanElement.__mul__",
    "boolean_algebra.deletion_sum",
    "trades.total_trade",
    "trades.minimal_trade",
    "trades.is_t_trade",
    "trades.total_trade_specs",
    "trades.total_trade_basis",
    "specht.standard_tableaux",
    "verify.check_total_trade_dim",
    "verify.check_kernel_decomposition",
    "verify.check_trade_basis",
    "verify.literal_basis_audit",
    "verify.check_graver_jurkat",
    "verify.check_orbit_witness",
    "verify.orbit_span",
    "verify.orbit_decomposition",
]
COVERAGE = {
    "verify-all": _TRADE_LAYERS
    + [
        "boolean_algebra.predicted_rank",
        "verify.check_inclusion_rank",
        "verify.check_intersection_rank",
        "verify.check_combination_rank",
        "verify.check_lambda_closed_form",
        "verify.run_suite",
        "verify.render_reports",
        "cli.main",
    ],
    "trade-span": _TRADE_LAYERS,
    "straighten": [
        "boolean_algebra.BooleanElement.__mul__",
        "trades.total_trade",
        "specht.straighten",
        "specht.trade_map_expr",
    ],
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TRADEKIT_THREADS"] = "1"
    # Every interpreter compiles tradekit from source, so setup_s does not
    # depend on a bytecode cache left by an earlier run.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.tk_seed = workloads.tradekit_seed(seed)
        self.deadline = deadline
        self.env = child_env()
        self.golden = None
        if workload != "straighten":
            self.golden = workloads.load_golden(workload, self.tk_seed)

    def _run(self, cmd: list[str]) -> tuple[int, str, float]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{cmd[1:3]} did not finish within the run budget") from None
        wall = time.perf_counter() - start
        if err.strip():
            sys.stderr.write(err)
        return proc.returncode, out, wall

    def setup_samples(self) -> list[float]:
        """Fresh-interpreter `import tradekit` times after one warm-up run."""
        cmd = [sys.executable, "-c", "import tradekit"]
        times = []
        for _ in range(SETUP_SAMPLES + 1):
            code, _, wall = self._run(cmd)
            if code != 0:
                raise BenchError("import tradekit failed")
            times.append(wall)
        return times[1:]

    def one_pass(self, trace: bool) -> dict:
        """Run and check one pass; returns wall_s, lat_ms and check counts."""
        if self.workload == "verify-all" and not trace:
            cmd = [sys.executable, "-m", "tradekit.cli", "verify", "all"]
            cmd += ["--n-max", str(workloads.VERIFY_N_MAX), "--seed", str(self.tk_seed)]
            code, out, wall = self._run(cmd)
            result = {"exit": code, "lines": out.splitlines()}
        else:
            cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload]
            cmd += ["--seed", str(self.seed)] + (["--trace"] if trace else [])
            code, out, wall = self._run(cmd)
            if code != 0 or not out.strip():
                raise BenchError(f"worker exited with {code}")
            result = json.loads(out.strip().splitlines()[-1])
        if self.workload == "verify-all":
            # One op is one CLI run, timed from spawn to exit.
            result["wall_s"] = wall
            result["lat_ms"] = [wall * 1000]
        result.update(self._check(result))
        return result

    def _check(self, result: dict) -> dict:
        problems = list(result.get("errors", [])) + list(result.get("wrong", []))
        if self.workload == "straighten":
            failed = result["known_failures"] + len(problems)
            return {"attempted": len(result["lat_ms"]), "failed": failed, "problems": problems}
        expected = self.golden["lines"]
        actual = workloads.normalized(result["lines"])
        failed = workloads.count_mismatches(expected, actual)
        attempted = max(len(expected), len(actual))
        if failed:
            problems.append(f"{failed} report line(s) differ from the seed commit")
        if self.workload == "verify-all":
            attempted += 1
            if result["exit"] != self.golden["exit"]:
                failed += 1
                problems.append(f"exit code {result['exit']} != {self.golden['exit']}")
            ns = range(1, workloads.VERIFY_N_MAX + 1)
        else:
            ns = [workloads.TRADE_SPAN_N]
        if workloads.boundary_failures(actual) != workloads.expected_boundary(ns):
            problems.append("asserted pass=false lines are not exactly the t+k=n boundary")
        return {"attempted": attempted, "failed": failed, "problems": problems}


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten ops of one pass above it."""
    for p in TAIL_LADDER:
        if ops_per_pass * (100 - p) / 100 >= 10:
            return p
    return 100.0


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def measure(runner: Runner, seconds: int) -> tuple[list[dict], dict, dict]:
    setup = runner.setup_samples()
    passes = []
    end = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        passes.append(runner.one_pass(trace=False))
        if time.monotonic() + (time.monotonic() - t0) > end:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ops_per_pass = len(passes[0]["lat_ms"])
    lat = sorted(x for p in passes for x in p["lat_ms"])
    pct = tail_percentile(ops_per_pass)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (nearest_rank(lat, pct), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        "ops_per_pass": ops_per_pass,
        "tail_percentile": pct,
        "setup_samples": len(setup),
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    return passes, metrics, detail


def measure_traced(runner: Runner) -> tuple[list[dict], dict, dict]:
    # Untraced, traced, untraced: a steady drift in machine speed then
    # cancels out of the overhead estimate.
    passes = [runner.one_pass(trace=t) for t in (False, True, False)]
    traced = passes[1]
    plain_s = [passes[0]["wall_s"], passes[2]["wall_s"]]
    layers = traced["layers"]
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (traced["wall_s"] - statistics.mean(plain_s), "s")
    metrics["trace.unattributed_s"] = (traced["wall_s"] - traced["self_total_s"], "s")
    missing = [n for n in COVERAGE[runner.workload] if not layers[f"{n}.calls"]]
    if missing:
        traced["problems"].append(f"coverage guard: 0 calls traced for {', '.join(missing)}")
    detail = {
        "untraced_wall_s": plain_s,
        "traced_wall_s": traced["wall_s"],
        "coverage_checked": len(COVERAGE[runner.workload]),
        "coverage_missing": missing,
    }
    return passes, metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tradekit" / "__init__.py").is_file():
        print(f"error: tradekit sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        runner = Runner(args.workload, args.seed, deadline)
        if args.trace:
            passes, metrics, detail = measure_traced(runner)
        else:
            passes, metrics, detail = measure(runner, args.seconds)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        tradekit_seed=runner.tk_seed,
        trace=args.trace,
        failed_ratio=failed / attempted,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        TRADEKIT_THREADS=runner.env["TRADEKIT_THREADS"],
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
