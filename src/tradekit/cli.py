"""Command-line front-end: emit matrices, ranks and coefficient tables,
construct trades and bases, and run the verification harness.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error
(bad arguments, or an `--out` path that cannot be written).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .boolean_algebra import (
    MatrixSpec,
    build_matrix,
    j_set,
    lambda_coeff,
    predicted_rank,
    render_element,
)
from .linalg import render_dense, render_sparse
from .trades import TradeSpec, minimal_trade, render_spec, total_trade, total_trade_basis
from .verify import SUITES, render_reports, run_suite


class UsageError(ValueError):
    pass


def _parse_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok != "")
    except ValueError as exc:
        raise UsageError(f"bad integer list {raw!r}") from exc


def _parse_fractions(raw: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok) for tok in raw.split(",") if tok != "")
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational list {raw!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_matrix(args: argparse.Namespace) -> int:
    if args.kind == "inclusion":
        spec = MatrixSpec.inclusion(args.n, args.t, args.k)
    elif args.kind == "intersection":
        if args.l is None:
            raise UsageError("--l is required for intersection matrices")
        spec = MatrixSpec.intersection(args.n, args.t, args.k, args.l)
    else:
        if args.coeffs is None:
            raise UsageError("--coeffs is required for combination matrices")
        spec = MatrixSpec.combination(args.n, args.t, args.k, _parse_fractions(args.coeffs))
    matrix = build_matrix(spec)
    text = render_sparse(matrix) if args.format == "sparse" else render_dense(matrix)
    _emit(text, args.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    coeffs = _parse_fractions(args.coeffs)
    predicted = predicted_rank(args.t, args.k, args.n, coeffs)
    computed = build_matrix(MatrixSpec.combination(args.n, args.t, args.k, coeffs)).rank()
    indices = ",".join(str(j) for j in sorted(j_set(args.t, args.k, args.n, coeffs)))
    _emit(f"J={{{indices}}} predicted={predicted} computed={computed}\n", args.out)
    return 0 if predicted == computed else 1


def cmd_lambda(args: argparse.Namespace) -> int:
    n, t, k = args.n, args.t, args.k
    if not 0 <= t <= k <= n:
        raise UsageError(f"need 0 <= t <= k <= n, got t={t} k={k} n={n}")
    lines = []
    for j in range(t + 1):
        lines.append(" ".join(str(lambda_coeff(t, k, n, l, j)) for l in range(t + 1)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_trades(args: argparse.Namespace) -> int:
    xs = _parse_ints(args.xs)
    ys = _parse_ints(args.ys)
    tail = _parse_ints(args.tail) if args.tail is not None else None
    spec = TradeSpec(args.n, args.t, args.k, xs, ys, tail)
    trade = minimal_trade(spec) if tail is not None else total_trade(spec)
    _emit(f"{render_spec(spec)}\n{render_element(trade)}\n", args.out)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    lines = [
        f"{render_spec(spec)} | {render_element(trade)}"
        for spec, trade in total_trade_basis(args.t, args.k, args.n)
    ]
    _emit("\n".join(lines) + "\n" if lines else "", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, args.n_max, args.seed)
    text, ok = render_reports(reports)
    _emit(text, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradekit",
        description="Exact subset-incidence matrices, trades, and claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tkn(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_matrix = sub.add_parser("matrix", help="emit an incidence matrix")
    add_tkn(p_matrix)
    p_matrix.add_argument(
        "--kind", choices=("inclusion", "intersection", "combination"), required=True
    )
    p_matrix.add_argument("--l", type=int, default=None, help="overlap size for intersection")
    p_matrix.add_argument("--coeffs", default=None, help="t+1 comma-separated rationals")
    p_matrix.add_argument("--format", choices=("dense", "sparse"), default="dense")
    p_matrix.set_defaults(fn=cmd_matrix)

    p_rank = sub.add_parser("rank", help="predicted vs computed rank of a combination")
    add_tkn(p_rank)
    p_rank.add_argument("--coeffs", required=True, help="t+1 comma-separated rationals")
    p_rank.set_defaults(fn=cmd_rank)

    p_lambda = sub.add_parser("lambda", help="table of the rank-predictor coefficients")
    add_tkn(p_lambda)
    p_lambda.set_defaults(fn=cmd_lambda)

    p_trades = sub.add_parser("trades", help="construct one minimal or total trade")
    add_tkn(p_trades)
    p_trades.add_argument("--xs", required=True, help="comma-separated x_1..x_{t+1}")
    p_trades.add_argument("--ys", required=True, help="comma-separated y_1..y_{t+1}")
    p_trades.add_argument(
        "--tail", default=None, help="fixed tail (minimal trade); omit for a total trade"
    )
    p_trades.set_defaults(fn=cmd_trades)

    p_basis = sub.add_parser("basis", help="standard basis of the total-trade span")
    add_tkn(p_basis)
    p_basis.set_defaults(fn=cmd_basis)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",), help="suite to run")
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message on error
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
