"""One pass of a workload in a fresh interpreter; prints one JSON object.

Run by ``run.py`` with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --workload trade-span --seed 3 [--trace]

trade-span and straighten run in this process, one public call per op.
verify-all runs here only when traced: it calls ``tradekit.cli.main`` with
the arguments of the untraced command.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import workloads
from tracer import Tracer


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def trade_span_pass(tk_seed: int) -> dict:
    from tradekit import verify

    ops = [(getattr(verify, name), args) for name, args in workloads.trade_span_ops(tk_seed)]
    lines, lat_ms, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for fn, args in ops:
        t0 = clock()
        try:
            report = fn(*args)
        except Exception as exc:
            report = exc
        lat_ms.append((clock() - t0) * 1000)
        if isinstance(report, Exception):
            errors.append(f"{fn.__name__}{args}: {_error(report)}")
        else:
            lines.append(report.line())
    wall = clock() - start
    return {"wall_s": wall, "lat_ms": lat_ms, "lines": lines, "errors": errors}


def _build_inputs(ops: list[dict]) -> list:
    from tradekit import specht

    inputs = []
    for op in ops:
        row1, row2 = op["rows"]
        tab = specht.Tableau(specht.TwoRowShape(len(row1), len(row2)), row1, row2)
        if op["kind"] == "garnir":
            inputs.append(specht.garnir(tab, op["column"]))
        else:
            inputs.append(specht.TabloidExpr([(tab, 1)]))
    return inputs


def _check_straightened(op: dict, expr, out) -> str | None:
    """None when the output passes the independent checks, else why not."""
    from tradekit import specht

    for tab, coeff in out.terms():
        if not workloads.is_standard_rows(tab.row1, tab.row2):
            return f"non-standard output tabloid {tab.row1}/{tab.row2}"
        if coeff.denominator != 1:
            return f"non-integer coefficient {coeff}"
    if op["kind"] == "garnir":
        return None if out.is_zero else "Garnir relation did not straighten to zero"
    grade = len(op["rows"][1])
    if out.is_zero or specht.trade_map_expr(expr, grade) != specht.trade_map_expr(out, grade):
        return f"trade map at grade {grade} changed"
    return None


def straighten_pass(seed: int) -> dict:
    from tradekit import specht

    ops = workloads.straighten_ops(seed)
    inputs = _build_inputs(ops)
    lat_ms, errors, wrong = [], [], []
    known = 0
    clock = time.perf_counter
    start = clock()
    for op, expr in zip(ops, inputs):
        t0 = clock()
        try:
            out = specht.straighten(expr)
        except Exception as exc:
            out = exc
        lat_ms.append((clock() - t0) * 1000)
        if isinstance(out, RecursionError) and op["kind"] == "long":
            known += 1
        elif isinstance(out, Exception):
            errors.append(f"{op['kind']} {op['rows']}: {_error(out)}")
        else:
            problem = _check_straightened(op, expr, out)
            if problem:
                wrong.append(f"{op['kind']} {op['rows']}: {problem}")
    wall = clock() - start
    return {
        "wall_s": wall,
        "lat_ms": lat_ms,
        "known_failures": known,
        "errors": errors,
        "wrong": wrong,
    }


def verify_all_pass(tk_seed: int) -> dict:
    from tradekit import cli

    argv = ["verify", "all", "--n-max", str(workloads.VERIFY_N_MAX), "--seed", str(tk_seed)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "lines": buf.getvalue().splitlines()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tk_seed = workloads.tradekit_seed(args.seed)
    if args.workload == "trade-span":
        result = trade_span_pass(tk_seed)
    elif args.workload == "straighten":
        result = straighten_pass(args.seed)
    else:
        result = verify_all_pass(tk_seed)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_total_s"] = tracer.self_total()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
