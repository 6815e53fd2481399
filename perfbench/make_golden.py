"""Record the reference reports that the benchmark compares runs against.

Run once, from the repository root, at the commit whose output is the
reference (the seed commit of the benchmark):

    python3 perfbench/make_golden.py

It writes golden/verify-all.json.xz and golden/trade-span.json.xz with the
compared fields of every report line for each tradekit seed
0..GOLDEN_SEEDS-1, plus the exit code of the verify-all command.
"""

from __future__ import annotations

import lzma
import json
import subprocess
import sys

import workloads
from run import BENCH, ROOT, child_env


def _output(cmd: list[str]) -> tuple[int, str]:
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main() -> int:
    verify_all, trade_span = {}, {}
    for tk_seed in range(workloads.GOLDEN_SEEDS):
        cmd = [sys.executable, "-m", "tradekit.cli", "verify", "all"]
        cmd += ["--n-max", str(workloads.VERIFY_N_MAX), "--seed", str(tk_seed)]
        code, out = _output(cmd)
        verify_all[str(tk_seed)] = {"exit": code, "lines": workloads.normalized(out.splitlines())}
        # The worker maps its seed through tradekit_seed, which is the
        # identity on 0..GOLDEN_SEEDS-1.
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "trade-span"]
        code, out = _output(cmd + ["--seed", str(tk_seed)])
        result = json.loads(out.strip().splitlines()[-1])
        if code != 0 or result["errors"]:
            raise SystemExit(f"trade-span failed at seed {tk_seed}: {result['errors']}")
        trade_span[str(tk_seed)] = {"lines": workloads.normalized(result["lines"])}
        print(f"seed {tk_seed} recorded", file=sys.stderr)
    for name, data in (("verify-all", verify_all), ("trade-span", trade_span)):
        with lzma.open(workloads.GOLDEN_DIR / f"{name}.json.xz", "wt", encoding="utf-8", preset=9) as fh:
            json.dump(data, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
