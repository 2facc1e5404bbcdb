import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abeta
from abeta.cli import CliError, main, parse_grid

FS_B0_ROOT = 0.28519408762  # independent bisection value, beta=0, m=1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=30):
    """The CLI in a fresh interpreter, so a traceback or a hang shows."""
    env = dict(os.environ, PYTHONPATH=str(Path(abeta.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "abeta.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestGridSyntax:
    def test_range(self):
        assert parse_grid("0:1:0.25", "--beta-grid") == pytest.approx(
            [0.0, 0.25, 0.5, 0.75]
        )

    def test_excludes_stop_within_tolerance(self):
        grid = parse_grid("0:1:0.1", "--beta-grid")
        assert len(grid) == 10
        assert grid[-1] == pytest.approx(0.9)

    def test_comma_list_and_scalar(self):
        assert parse_grid("0.1,0.2", "--x") == [0.1, 0.2]
        assert parse_grid("0.4", "--x") == [0.4]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("fs-bound", "--beta", "0", "--mu", "nan"), "--mu"),
            (("fs-bound", "--beta", "0", "--mu=-1,inf"), "--mu"),
            (("verify", "--beta-grid", "0,nan", "--samples", "1"), "--beta-grid"),
            (("sweep", "--beta-grid", "0.1", "--p", "inf"), "--p"),
            (("sweep", "--beta-grid", "0.1", "--m", "nan"), "--m"),
            (("sweep", "--beta-grid", "0.1", "--N", "1,-inf"), "--N"),
        ],
    )
    def test_rejects_non_finite_values(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag}: ") and "finite" in err
        assert err.count("\n") == 1

    def test_malformed(self):
        with pytest.raises(CliError, match="--beta-grid"):
            parse_grid("0:1", "--beta-grid")
        with pytest.raises(CliError):
            parse_grid("a:b:c", "--beta-grid")
        with pytest.raises(CliError):
            parse_grid("0:1:-0.1", "--beta-grid")


class TestRadiusCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "radius", "--beta", "0", "--m", "1", "--p", "1", "--tol", "1e-10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["root"] == pytest.approx(FS_B0_ROOT, abs=1e-9)
        assert abs(doc["residual"]) <= 1e-9
        assert doc["bracket_lo"] < doc["root"] < doc["bracket_hi"]

    def test_json_roundtrip_exact(self, capsys):
        code, out, _ = run(capsys, "radius", "--beta", "0.37", "--m", "2")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_rejects_beta_one(self, capsys):
        code, _, err = run(capsys, "radius", "--beta", "1", "--m", "1")
        assert code == 1
        assert "--beta" in err

    def test_rejects_beta_out_of_range(self, capsys):
        code, _, err = run(capsys, "radius", "--beta", "1.5")
        assert code == 1
        assert "beta" in err

    def test_rejects_unknown_flag(self, capsys):
        code, _, err = run(capsys, "radius", "--beta", "0", "--bogus", "1")
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("coeff", ["nan", "inf"])
    def test_rejects_non_finite_poly(self, capsys, coeff):
        code, out, err = run(capsys, "radius", "--beta", "0", "--poly", coeff)
        assert code == 1 and out == ""
        assert err.startswith("error: --poly") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--p", "1e-9"),  # no sign change: the solver raises BracketError
            ("--tol", "1e-17"),  # finer than doubles near the root resolve
            ("--tol", "inf"),  # wider than any bracket: its midpoint is no root
            ("--p", "inf"),  # would print "p": Infinity, which is not JSON
        ],
    )
    def test_unsolvable_input_is_one_error_line(self, flags):
        proc = run_process("radius", "--beta", "0", *flags)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_poly_shrinks_root(self, capsys):
        _, plain_out, _ = run(capsys, "radius", "--beta", "0")
        _, poly_out, _ = run(capsys, "radius", "--beta", "0", "--poly", "0.5")
        assert json.loads(poly_out)["root"] < json.loads(plain_out)["root"]


class TestRogosinskiCommand:
    def test_n_dependence(self, capsys):
        roots = []
        for N in ("1", "2", "3"):
            code, out, _ = run(capsys, "rogosinski", "--beta", "0", "--N", N)
            assert code == 0
            roots.append(json.loads(out)["root"])
        assert roots[0] < roots[1] < roots[2]


class TestBoundCommands:
    def test_log_bounds_csv(self, capsys):
        code, out, _ = run(capsys, "log-bounds", "--beta", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,gamma_lower,gamma_upper,inverse_gamma_lower,inverse_gamma_upper"
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(-1 / math.sqrt(5), abs=1e-15)
        assert float(row[2]) == pytest.approx(1 / 3, abs=1e-15)

    def test_fs_bound_grid(self, capsys):
        code, out, _ = run(
            capsys, "fs-bound", "--beta", "0", "--mu=-1,1", "--out-format", "csv"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert float(rows[0].split(",")[2]) == pytest.approx(5 / 3, abs=1e-12)
        assert float(rows[1].split(",")[2]) == pytest.approx(2 / 3, abs=1e-12)


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        args = (
            "verify", "--beta", "0.5", "--samples", "25",
            "--atoms", "4", "--seed", "42",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        doc = json.loads(out1)
        assert doc["all_pass"] is True

    @pytest.mark.parametrize("slack", ["nan", "inf", "-1e-9"])
    def test_rejects_non_finite_or_negative_slack(self, capsys, slack):
        code, out, err = run(capsys, "verify", "--beta", "0", "--samples", "1", f"--slack={slack}")
        assert code == 1 and out == ""
        assert err.startswith("error: --slack: ") and err.count("\n") == 1

    def test_verify_rejects_beta_one(self, capsys):
        code, _, err = run(capsys, "verify", "--beta", "1", "--samples", "5")
        assert code == 1


class TestSweepCommand:
    def test_schema_and_determinism(self, capsys):
        args = ("sweep", "--beta-grid", "0:0.3:0.1", "--m", "1,2", "--variant", "both")
        code, out, _ = run(capsys, *args)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,m,p,N,variant,root,residual,iterations"
        assert len(lines) == 1 + 3 * 2 * 2
        _, out2, _ = run(capsys, *args)
        assert out == out2

    @pytest.mark.parametrize("flag, grid", [("--m", "1.7"), ("--N", "1,2.5"), ("--m", "inf")])
    def test_rejects_non_integer_grids(self, capsys, flag, grid):
        code, out, err = run(capsys, "sweep", "--beta-grid", "0.1", flag, grid)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag}:")

    def test_rejects_tol_wider_than_max(self, capsys):
        code, out, err = run(capsys, "sweep", "--beta-grid", "0.1", "--tol", "inf")
        assert code == 1 and out == ""
        assert err.startswith("error: tol must lie in") and err.count("\n") == 1

    def test_grid_must_exclude_beta_one(self, capsys):
        code, _, err = run(capsys, "sweep", "--beta-grid", "0.5,1.0")
        assert code == 1
        assert "--beta-grid" in err

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--beta-grid", "0:0.2:0.1", "--out-path", str(target)
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("beta,m,p,N,variant,root,residual,iterations")
