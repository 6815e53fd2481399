"""Command-line front-end: emit matrices, ranks and coefficient tables,
construct trades and bases, and run the verification harness.

Each command returns its text and exit code, and `main` writes the text to
stdout or `--out`.  Exit codes: 0 success/verified, 1 verification failure,
2 usage error (bad arguments, or an `--out` path that cannot be written,
which is checked before the command does any work).
"""

from __future__ import annotations

import argparse
import os
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


def _parse_list(raw: str, convert: type[int] | type[Fraction]) -> tuple:
    try:
        return tuple(convert(tok) for tok in raw.split(",") if tok != "")
    except (ValueError, ZeroDivisionError) as exc:
        what = "integer" if convert is int else "rational"
        raise UsageError(f"bad {what} list {raw!r}") from exc


def _check_out(out: str | None) -> None:
    # Fail before any work if the final write could not succeed, without
    # creating or truncating anything: an existing target must be a
    # writable file, a new one needs a writable parent directory.
    if out is None:
        return
    exists = os.path.exists(out)
    target = out if exists else os.path.dirname(os.path.abspath(out))
    if os.path.isdir(target) == exists or not os.access(target, os.W_OK):
        raise UsageError(f"cannot write --out path {out!r}")


def cmd_matrix(args: argparse.Namespace) -> tuple[str, int]:
    if args.kind == "inclusion":
        spec = MatrixSpec.inclusion(args.n, args.t, args.k)
    elif args.kind == "intersection":
        if args.l is None:
            raise UsageError("--l is required for intersection matrices")
        spec = MatrixSpec.intersection(args.n, args.t, args.k, args.l)
    else:
        if args.coeffs is None:
            raise UsageError("--coeffs is required for combination matrices")
        spec = MatrixSpec.combination(args.n, args.t, args.k, _parse_list(args.coeffs, Fraction))
    render = render_sparse if args.format == "sparse" else render_dense
    return render(build_matrix(spec)), 0


def cmd_rank(args: argparse.Namespace) -> tuple[str, int]:
    coeffs = _parse_list(args.coeffs, Fraction)
    predicted = predicted_rank(args.t, args.k, args.n, coeffs)
    computed = build_matrix(MatrixSpec.combination(args.n, args.t, args.k, coeffs)).rank()
    indices = ",".join(str(j) for j in sorted(j_set(args.t, args.k, args.n, coeffs)))
    text = f"J={{{indices}}} predicted={predicted} computed={computed}\n"
    return text, 0 if predicted == computed else 1


def cmd_lambda(args: argparse.Namespace) -> tuple[str, int]:
    n, t, k = args.n, args.t, args.k
    if not 0 <= t <= k <= n:
        raise UsageError(f"need 0 <= t <= k <= n, got t={t} k={k} n={n}")
    lines = []
    for j in range(t + 1):
        lines.append(" ".join(str(lambda_coeff(t, k, n, l, j)) for l in range(t + 1)))
    return "\n".join(lines) + "\n", 0


def cmd_trades(args: argparse.Namespace) -> tuple[str, int]:
    xs = _parse_list(args.xs, int)
    ys = _parse_list(args.ys, int)
    tail = _parse_list(args.tail, int) if args.tail is not None else None
    spec = TradeSpec(args.n, args.t, args.k, xs, ys, tail)
    trade = minimal_trade(spec) if tail is not None else total_trade(spec)
    return f"{render_spec(spec)}\n{render_element(trade)}\n", 0


def cmd_basis(args: argparse.Namespace) -> tuple[str, int]:
    lines = [
        f"{render_spec(spec)} | {render_element(trade)}"
        for spec, trade in total_trade_basis(args.t, args.k, args.n)
    ]
    return ("\n".join(lines) + "\n" if lines else ""), 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    text, ok = render_reports(run_suite(args.suite, args.n_max, args.seed))
    return text, 0 if ok else 1


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
        _check_out(args.out)
        text, code = args.fn(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
