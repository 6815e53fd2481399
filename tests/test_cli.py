import pytest

from tradekit import cli
from tradekit.cli import main
from tradekit.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_inclusion_dense(capsys):
    code, out, err = run_cli(
        capsys, "matrix", "--kind", "inclusion", "--n", "2", "--t", "0", "--k", "1"
    )
    assert code == 0
    assert out == "1 2\n1 1\n"
    assert err == ""


def test_matrix_inclusion_large_ground_set(capsys):
    # one row (the empty set) and one column (the whole 1100-element set)
    code, out, err = run_cli(
        capsys, "matrix", "--kind", "inclusion", "--n", "1100", "--t", "0", "--k", "1100"
    )
    assert code == 0
    assert out == "1 1\n1\n"
    assert err == ""


def test_matrix_intersection_sparse(capsys):
    code, out, _ = run_cli(
        capsys,
        "matrix", "--kind", "intersection",
        "--n", "3", "--t", "1", "--k", "1", "--l", "0",
        "--format", "sparse",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 3 6"
    assert len(lines) == 7
    assert all(ln.endswith(" 1") for ln in lines[1:])
    assert lines[1] == "1 2 1"


def test_matrix_invalid_l(capsys):
    code, out, err = run_cli(
        capsys,
        "matrix", "--kind", "intersection",
        "--n", "6", "--t", "1", "--k", "2", "--l", "2",
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_matrix_combination_requires_coeffs(capsys):
    code, _, err = run_cli(
        capsys, "matrix", "--kind", "combination", "--n", "5", "--t", "1", "--k", "2"
    )
    assert code == 2 and "coeffs" in err


def test_matrix_combination_rational_dense(capsys):
    code, out, _ = run_cli(
        capsys,
        "matrix", "--kind", "combination",
        "--n", "4", "--t", "1", "--k", "2", "--coeffs", "1/2,-2",
    )
    assert code == 0
    assert out == (
        "4 6\n"
        "-2 -2 1/2 -2 1/2 1/2\n"
        "-2 1/2 -2 1/2 -2 1/2\n"
        "1/2 -2 -2 1/2 1/2 -2\n"
        "1/2 1/2 1/2 -2 -2 -2\n"
    )


def test_matrix_out_file(tmp_path, capsys):
    path = tmp_path / "w.txt"
    code, out, _ = run_cli(
        capsys,
        "matrix", "--kind", "inclusion",
        "--n", "2", "--t", "0", "--k", "1", "--out", str(path),
    )
    assert code == 0 and out == ""
    assert path.read_text() == "1 2\n1 1\n"


def test_rank_command(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "5", "--t", "1", "--k", "2", "--coeffs", "0,1"
    )
    assert code == 0
    assert out == "J={0,1} predicted=5 computed=5\n"


def test_rank_command_dual_path(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "6", "--t", "1", "--k", "2", "--coeffs", "1,0"
    )
    assert code == 0
    assert "predicted=6 computed=6" in out


def test_rank_command_zero_coeffs(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "6", "--t", "1", "--k", "2", "--coeffs", "0,0"
    )
    assert code == 0
    assert out == "J={} predicted=0 computed=0\n"


def test_rank_command_range_error(capsys):
    code, _, err = run_cli(
        capsys, "rank", "--n", "4", "--t", "1", "--k", "3", "--coeffs", "0,1"
    )
    assert code == 2 and "error" in err


def test_lambda_golden_table(capsys):
    # frozen after hand-evaluating the alternating sums for n=8, t=2, k=3
    code, out, _ = run_cli(capsys, "lambda", "--n", "8", "--t", "2", "--k", "3")
    assert code == 0
    assert out == "10 15 3\n-4 2 2\n1 -2 1\n"


def test_lambda_closed_form_column(capsys):
    from tradekit.combinatorics import binomial

    code, out, _ = run_cli(capsys, "lambda", "--n", "9", "--t", "2", "--k", "4")
    rows = [list(map(int, ln.split())) for ln in out.splitlines()]
    for j, row in enumerate(rows):
        assert row[2] == binomial(4 - j, 2 - j)
    assert rows[0] == [
        binomial(4, 0) * binomial(5, 2),
        binomial(4, 1) * binomial(5, 1),
        binomial(4, 2) * binomial(5, 0),
    ]


def test_trades_minimal(capsys):
    code, out, _ = run_cli(
        capsys,
        "trades", "--n", "4", "--t", "0", "--k", "2",
        "--xs", "1", "--ys", "2", "--tail", "3",
    )
    assert code == 0
    assert out == "xs=[1] ys=[2] tail=[3]\n{1,3} - {2,3}\n"


def test_trades_total(capsys):
    code, out, _ = run_cli(
        capsys,
        "trades", "--n", "4", "--t", "0", "--k", "2", "--xs", "1", "--ys", "2",
    )
    assert code == 0
    assert out == "xs=[1] ys=[2]\n{1,3} - {2,3} + {1,4} - {2,4}\n"


def test_trades_validation(capsys):
    code, _, err = run_cli(
        capsys,
        "trades", "--n", "4", "--t", "1", "--k", "2", "--xs", "1,2", "--ys", "2,4",
    )
    assert code == 2 and "error" in err


def test_basis_command(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "3", "--t", "0", "--k", "1")
    assert code == 0
    assert out == "xs=[1] ys=[3] | {1} - {3}\nxs=[1] ys=[2] | {1} - {2}\n"


def test_basis_command_empty_at_n_2t_plus_1(capsys):
    code, out, err = run_cli(capsys, "basis", "--n", "3", "--t", "1", "--k", "2")
    assert (code, out, err) == (0, "", "")


def test_matrix_too_large_exits_2(capsys):
    # C(40, 20) columns: refused before any subset is listed
    code, out, err = run_cli(
        capsys, "matrix", "--kind", "inclusion", "--n", "40", "--t", "0", "--k", "20"
    )
    assert code == 2 and out == "" and "exceeds the limit of 16777216 cells" in err


def test_basis_too_large_exits_2(capsys):
    # 6564120420 trades of 2^20 terms each: refused before any tableau is listed
    code, out, err = run_cli(capsys, "basis", "--n", "40", "--t", "19", "--k", "20")
    assert code == 2 and out == "" and "over the limit of 16777216" in err


def test_verify_command_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "inclusion-rank", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("TOTAL pass=")
    assert all(" pass=true " in ln for ln in lines[:-1])


def test_verify_command_reports_failures(capsys):
    # the dimension formula fails where t + k = n makes every trade vanish
    code, out, _ = run_cli(capsys, "verify", "total-trade-dim", "--n-max", "3")
    assert code == 1
    assert "params=t=0,k=2,n=2 predicted=1 computed=0 pass=false" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus", "--n-max", "4")
    assert code == 2 and "error" in err


def test_verify_help_names_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    for name in SUITES + ("all",):
        assert name in out


def test_verify_lambda_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "lambda-closed-form", "--n-max", "20")
    assert code == 0
    assert "lambda-closed-form" in out


def test_byte_identical_reruns(capsys):
    args = ["matrix", "--kind", "inclusion", "--n", "5", "--t", "1", "--k", "2"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second

    args = ["basis", "--n", "6", "--t", "1", "--k", "2"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_deterministic_modulo_timing(capsys):
    import re

    args = ["verify", "graver-jurkat", "--n-max", "6", "--seed", "1"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    strip = lambda s: re.sub(r" ms=\d+", "", s)
    assert strip(first) == strip(second)


def test_usage_error_exit_code(capsys):
    assert main(["matrix", "--kind", "inclusion"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.txt")
    for args in (
        ["verify", "inclusion-rank", "--n-max", "3", "--out", out],
        ["lambda", "--n", "5", "--t", "1", "--k", "2", "--out", out],
    ):
        code, stdout, err = run_cli(capsys, *args)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")


def test_verify_rejects_n_max_below_one(capsys):
    for bad in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "inclusion-rank", "--n-max", bad)
        assert code == 2 and out == "" and "n_max" in err


def test_unwritable_out_fails_before_the_command_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: calls.append(args) or [])
    missing = str(tmp_path / "missing" / "x.txt")
    for out in (missing, str(tmp_path)):
        code, stdout, err = run_cli(capsys, "verify", "all", "--n-max", "10", "--out", out)
        assert code == 2 and stdout == "" and "cannot write --out path" in err
    assert calls == []
    assert run_cli(capsys, "verify", "all", "--n-max", "3", "--out", str(tmp_path / "r"))[0] == 0
    assert len(calls) == 1


def test_failed_command_leaves_existing_out_file(tmp_path, capsys):
    out = tmp_path / "kept.txt"
    out.write_text("earlier\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "lambda", "--n", "5", "--t", "3", "--k", "2", "--out", str(out))
    assert code == 2 and "need 0 <= t <= k <= n" in err
    assert out.read_text(encoding="utf-8") == "earlier\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trades", "--n", "6", "--t", "1", "--k", "3", "--xs", "1,a", "--ys", "2,4"],
         "bad integer list"),
        (["rank", "--n", "6", "--t", "1", "--k", "2", "--coeffs", "1,x"], "bad rational list"),
        (["matrix", "--kind", "intersection", "--n", "6", "--t", "1", "--k", "2"],
         "--l is required"),
        (["lambda", "--n", "5", "--t", "3", "--k", "2"], "need 0 <= t <= k <= n"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, message):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == "" and message in err
