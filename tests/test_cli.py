import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abeta
from abeta import cli
from abeta.cli import CliError, main, parse_grid
from abeta.extremal import BetaParam
from abeta.radii import RadiusProblem, Variant, solve_radius

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

    def test_range_holds_at_most_a_million_values(self):
        assert len(parse_grid("0:1e6:1", "--x")) == 10**6
        with pytest.raises(CliError, match="more than 1000000 values"):
            parse_grid("0:1000001:1", "--x")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("fs-bound", "--beta", "0", "--mu=0:1:1e-12"), "--mu"),
            (("sweep", "--beta-grid", "0:0.9:1e-300"), "--beta-grid"),
            (("sweep", "--beta-grid", "0.1", "--p=-1e308:1e308:1"), "--p"),
        ],
    )
    def test_huge_range_is_one_error_line(self, argv, flag):
        # These grids used to be built one value at a time, without end.
        proc = run_process(*argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {flag}: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--beta-grid", ","),
            ("fs-bound", "--beta", "0.3", "--mu", ","),
            ("sweep", "--beta-grid", ","),
            ("sweep", "--beta-grid", "0.1", "--m", ","),
            ("sweep", "--beta-grid", "0.1", "--p", ","),
            ("sweep", "--beta-grid", "0.1", "--N", ","),
        ],
        ids=" ".join,
    )
    def test_empty_grid_is_one_error_line(self, argv):
        # These once printed a bare header, or verify an empty "all_pass".
        assert run_quiet(list(argv)) == (
            1, "", f"error: {argv[-2]}: malformed grid ',' (empty grid)\n"
        )

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
        "flags",  # each a whole command line
        [
            # no sign change: the solver raises BracketError
            ("radius", "--beta", "0", "--p", "1e-9"),
            # finer than doubles near the root resolve
            ("radius", "--beta", "0", "--tol", "1e-17"),
            # wider than any bracket: its midpoint is no root
            ("radius", "--beta", "0", "--tol", "inf"),
            # would print "p": Infinity, which is not JSON
            ("radius", "--beta", "0", "--p", "inf"),
            # root near 1e-14, below the first probe
            ("radius", "--beta", "0", "--m", "3", "--p", "0.01"),
            # a grid cell whose root lies below the first probe
            ("verify", "--beta-grid", "0.2,0.5,0.99999999999,0.7", "--samples", "2"),
            ("sweep", "--beta-grid", "0.2,0.99999999999", "--m", "1,2"),
        ],
    )
    def test_unsolvable_input_is_one_error_line(self, flags):
        proc = run_process(*flags)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, cell",
        [
            (
                ("verify", "--beta-grid", "0.2,0.5,0.99999999999,0.7", "--samples", "2"),
                "--beta-grid: beta = 0.99999999999: no bohr radius at the default tol: ",
            ),
            (
                ("verify", "--beta", "0.99999999999", "--samples", "2"),
                "--beta: beta = 0.99999999999: no bohr radius at the default tol: ",
            ),
            (
                ("sweep", "--beta-grid", "0.2,0.99999999999", "--m", "1,2"),
                "--beta-grid: beta = 0.99999999999, m = 1, p = 1.0, N = 1, variant = bohr: ",
            ),
            (
                ("sweep", "--beta-grid", "0.1", "--p", "2,1e-9", "--variant", "both"),
                "--beta-grid: beta = 0.1, m = 1, p = 1e-09, N = 1, variant = bohr: ",
            ),
        ],
        ids=["verify-grid", "verify-beta", "sweep-beta", "sweep-p"],
    )
    def test_unsolvable_grid_cell_names_its_flag_and_cell(self, capsys, argv, cell):
        # The solver's reason once came alone, naming neither the flag nor
        # the grid value.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {cell}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("radius", "--beta", "0", "--m", "0"), "--m"),
            (("radius", "--beta", "0", "--p", "-1"), "--p"),
            (("rogosinski", "--beta", "0", "--N", "0"), "--N"),
            (("sweep", "--beta-grid", "0.5", "--N", "0"), "--N"),
            (("verify", "--beta-grid", "0.5,1", "--samples", "1"), "--beta-grid"),
            (("verify", "--beta", "0", "--samples", "1", "--seed", "-3"), "--seed"),
            # m beyond a double once overflowed in the radius equation.
            (("radius", "--beta", "0.5", "--m", str(10**400)), "--m"),
            (("rogosinski", "--beta", "0.5", "--m", str(10**400)), "--m"),
            (("radius", "--beta", "0", "--tol", "inf"), "--tol"),
            (("sweep", "--beta-grid", "0.1", "--tol", "1"), "--tol"),
            (("rogosinski", "--beta", "0.2", "--tol", "1e-20"), "--tol"),
        ],
    )
    def test_invalid_field_is_one_error_line_naming_its_flag(self, argv, flag):
        proc = run_process(*argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {flag}: ") and proc.stderr.count("\n") == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("rogosinski", "--beta", "0.9", "--p", "3000"),
            ("rogosinski", "--beta", "0.5", "--p", "1e300"),
            ("sweep", "--beta-grid", "0.9", "--p", "3000", "--variant", "rogosinski"),
        ],
    )
    def test_overflowing_lead_returns_a_certified_root(self, argv):
        # f(r^m)^p overflows a double at the first probe r = 0.5; the
        # solver bisects below it to a finite bracket.
        proc = run_process(*argv)
        assert proc.returncode == 0 and proc.stderr == ""
        if argv[0] == "sweep":
            (row,) = csv.DictReader(io.StringIO(proc.stdout))
        else:
            row = json.loads(proc.stdout)
        beta, p = BetaParam(float(argv[2])), float(argv[4])
        problem = RadiusProblem(Variant.BOHR_ROGOSINSKI, beta, p=p)
        res = solve_radius(problem)
        assert float(row["root"]) == res.root
        assert int(row["iterations"]) == res.iterations <= 12
        lo, hi = res.bracket
        assert problem.equation(lo) < 0.0 < problem.equation(hi)


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

    @pytest.mark.parametrize("mu", ["1e308", "2e307", "-1e308"])
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_fs_bound_overflow_is_one_error_line(self, mu, out_format):
        # 1e308 once printed nan (NaN in JSON) and 2e307 inf, with exit 0.
        code, out, err = run_quiet(
            ["fs-bound", "--beta", "0.3", f"--mu={mu}", "--out-format", out_format]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: --mu: ") and err.count("\n") == 1


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

    def test_rejects_zero_samples(self, capsys):
        # Zero samples would check nothing and still report all_pass.
        code, out, err = run(capsys, "verify", "--beta", "0.5", "--samples", "0")
        assert (code, out, err) == (1, "", "error: --samples: must be >= 1, got 0\n")

    def test_rejects_too_many_samples_without_sampling(self):
        # 10^20 samples once ran until killed; a fresh process shows a hang.
        proc = run_process("verify", "--beta", "0", "--samples", "100000000000000000000")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: --samples: must be <= 10000000, got 100000000000000000000\n"

    def test_rejects_too_many_atoms_before_sampling(self, capsys, monkeypatch):
        # 10^13 atoms once failed in numpy's allocator with a traceback.
        from abeta.verify import MAX_ATOMS

        def sweep(*_):
            raise AssertionError("sampled with an invalid atom count")

        monkeypatch.setattr(cli, "falsification_sweep", sweep)
        code, out, err = run(
            capsys, "verify", "--beta", "0.5", "--samples", "1", "--atoms", "10000000000000"
        )
        assert (code, out) == (1, "")
        assert err == f"error: --atoms: must be <= {MAX_ATOMS}, got 10000000000000\n"

    def test_failed_inequality_exits_2(self, capsys, monkeypatch):
        # A zero coefficient bound fails every coeff[...] check and no other.
        monkeypatch.setattr("abeta.verify.extremal_coeff", lambda n, beta: 0.0)
        argv = ("verify", "--beta", "0.5", "--samples", "5")
        code, out, _ = run(capsys, *argv)
        assert code == 2 and json.loads(out)["all_pass"] is False
        code, out, _ = run(capsys, *argv, "--out-format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 2 and any(row["id"].startswith("coeff[") for row in rows)
        for row in rows:
            assert row["pass"] == ("false" if row["id"].startswith("coeff[") else "true"), row

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
        assert err.startswith("error: --tol: must lie in") and err.count("\n") == 1

    def test_grid_must_exclude_beta_one(self, capsys):
        code, _, err = run(capsys, "sweep", "--beta-grid", "0.5,1.0")
        assert code == 1
        assert "--beta-grid" in err

    def test_rejects_json(self, capsys):
        # The sweep schema is CSV only; json once printed CSV with exit 0.
        code, out, err = run(capsys, "sweep", "--beta-grid", "0.1", "--out-format", "json")
        assert code == 1 and out == ""
        assert "--out-format: invalid choice: 'json'" in err and err.count("\n") == 1

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--beta-grid", "0:0.2:0.1", "--out-path", str(target)
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("beta,m,p,N,variant,root,residual,iterations")


# One recorded stdout per subcommand and output format.  CSV rows end in
# CRLF and hold %.17g cells; JSON is indented by two spaces in the
# document's key order, with numbers in Python's shortest round-trip repr.
# Every value comes from the library's own arithmetic (verify's from numpy),
# so these bytes change only if a computed value or the output format does.
GOLDEN_STDOUT = {
    ("radius", "--beta", "0.3", "--poly", "0.1,0.2", "--out-format", "csv"): (
        "variant,beta,m,p,N,poly,root,residual,bracket_lo,bracket_hi,iterations\r\n"
        "bohr,0.29999999999999999,1,1,1,0.10000000000000001;0.20000000000000001,0.22281843113958419,3.2976843478138562e-11,0.22281843111458419,0.22281843116458419,8\r\n"
    ),
    ("radius", "--beta", "0.3", "--poly", "0.1,0.2", "--out-format", "json"): (
        "{\n"
        '  "variant": "bohr",\n'
        '  "beta": 0.3,\n'
        '  "m": 1,\n'
        '  "p": 1.0,\n'
        '  "N": 1,\n'
        '  "poly": [\n'
        "    0.1,\n"
        "    0.2\n"
        "  ],\n"
        '  "root": 0.2228184311395842,\n'
        '  "residual": 3.297684347813856e-11,\n'
        '  "bracket_lo": 0.2228184311145842,\n'
        '  "bracket_hi": 0.2228184311645842,\n'
        '  "iterations": 8\n'
        "}\n"
    ),
    ("rogosinski", "--beta", "0.5", "--m", "2", "--p", "1.5", "--N", "3", "--out-format", "csv"): (
        "variant,beta,m,p,N,poly,root,residual,bracket_lo,bracket_hi,iterations\r\n"
        "rogosinski,0.5,2,1.5,3,,0.42442448908997876,0,0.42442448906497876,0.42442448911497876,11\r\n"
    ),
    ("rogosinski", "--beta", "0.5", "--m", "2", "--p", "1.5", "--N", "3", "--out-format", "json"): (
        "{\n"
        '  "variant": "rogosinski",\n'
        '  "beta": 0.5,\n'
        '  "m": 2,\n'
        '  "p": 1.5,\n'
        '  "N": 3,\n'
        '  "poly": [],\n'
        '  "root": 0.42442448908997876,\n'
        '  "residual": 0.0,\n'
        '  "bracket_lo": 0.42442448906497876,\n'
        '  "bracket_hi": 0.42442448911497876,\n'
        '  "iterations": 11\n'
        "}\n"
    ),
    ("fs-bound", "--beta", "0.5", "--mu=-1,0.25,1", "--out-format", "csv"): (
        "beta,mu,bound\r\n"
        "0.5,-1,2.7777777777777777\r\n"
        "0.5,0.25,1\r\n"
        "0.5,1,1\r\n"
    ),
    ("fs-bound", "--beta", "0.5", "--mu=-1,0.25,1", "--out-format", "json"): (
        "{\n"
        '  "beta": 0.5,\n'
        '  "bounds": [\n'
        "    {\n"
        '      "mu": -1.0,\n'
        '      "bound": 2.7777777777777777\n'
        "    },\n"
        "    {\n"
        '      "mu": 0.25,\n'
        '      "bound": 1.0\n'
        "    },\n"
        "    {\n"
        '      "mu": 1.0,\n'
        '      "bound": 1.0\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    ("log-bounds", "--beta", "0.5", "--out-format", "csv"): (
        "beta,gamma_lower,gamma_upper,inverse_gamma_lower,inverse_gamma_upper\r\n"
        "0.5,-0.63245553203367588,0.5,-0.40824829046386307,0.5\r\n"
    ),
    ("log-bounds", "--beta", "0.5", "--out-format", "json"): (
        "{\n"
        '  "beta": 0.5,\n'
        '  "gamma_lower": -0.6324555320336759,\n'
        '  "gamma_upper": 0.5,\n'
        '  "inverse_gamma_lower": -0.4082482904638631,\n'
        '  "inverse_gamma_upper": 0.5\n'
        "}\n"
    ),
    ("verify", "--beta", "0.5", "--samples", "2", "--seed", "42", "--out-format", "csv"): (
        "id,max_violation,witness,checks,pass\r\n"
        'coeff[n=2],-0.50402828673449762,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=3],-0.32964380206943877,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=4],-0.16336122375927831,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=5],-0.24524997321703546,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=6],-0.011514472141038068,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=7],-0.08874505699305113,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=8],-0.14172912827554485,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=9],-0.11607568543173663,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=10],-0.066889283052638804,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=11],-0.025707964538118022,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=12],-0.17901819501920183,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=13],-0.080537027677611284,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=14],-0.070484366728388148,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=15],-0.062123700999449916,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=16],-0.037717288471157934,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=17],-0.1254384701864118,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=18],-0.047656829788628674,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=19],-0.049967410971439891,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=20],-0.04267607802014331,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=-2],-2.8005240503127995,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=-1],-1.5653435601885264,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=0],-0.32964380206943877,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=0.5],-0.45926935608929698,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'fekete_szego[mu=1],-0.17376072403290688,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'fekete_szego[mu=2],-1.0815377874360621,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'log_diff_upper,-0.64428720134406636,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'log_diff_lower,-0.46412673059676313,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'inverse_log_diff_upper,-0.34249631102578193,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'inverse_log_diff_lower,-0.11696592247647236,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        '"bohr[beta=0.5,m=1,p=1,N=1]",-0.021171224064261945,"r=0.1773657034066072, mode=monomial, seed=[42, 0], row=0",2,true\r\n'
        '"rogosinski[beta=0.5,m=1,p=1,N=2]",-0.01634479605422956,"r=0.15391781009884792, mode=monomial, seed=[42, 0], row=0",2,true\r\n'
    ),
    ("verify", "--beta", "0.5", "--samples", "2", "--seed", "42", "--out-format", "json"): (
        "{\n"
        '  "beta_grid": [\n'
        "    0.5\n"
        "  ],\n"
        '  "samples": 2,\n'
        '  "atoms": 4,\n'
        '  "seed": 42,\n'
        '  "slack": 1e-09,\n'
        '  "all_pass": true,\n'
        '  "inequalities": [\n'
        "    {\n"
        '      "id": "coeff[n=2]",\n'
        '      "max_violation": -0.5040282867344976,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=3]",\n'
        '      "max_violation": -0.3296438020694388,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=4]",\n'
        '      "max_violation": -0.1633612237592783,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=5]",\n'
        '      "max_violation": -0.24524997321703546,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=6]",\n'
        '      "max_violation": -0.011514472141038068,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=7]",\n'
        '      "max_violation": -0.08874505699305113,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=8]",\n'
        '      "max_violation": -0.14172912827554485,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=9]",\n'
        '      "max_violation": -0.11607568543173663,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=10]",\n'
        '      "max_violation": -0.0668892830526388,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=11]",\n'
        '      "max_violation": -0.025707964538118022,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=12]",\n'
        '      "max_violation": -0.17901819501920183,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=13]",\n'
        '      "max_violation": -0.08053702767761128,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=14]",\n'
        '      "max_violation": -0.07048436672838815,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=15]",\n'
        '      "max_violation": -0.062123700999449916,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=16]",\n'
        '      "max_violation": -0.037717288471157934,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=17]",\n'
        '      "max_violation": -0.1254384701864118,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=18]",\n'
        '      "max_violation": -0.047656829788628674,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=19]",\n'
        '      "max_violation": -0.04996741097143989,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=20]",\n'
        '      "max_violation": -0.04267607802014331,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=-2]",\n'
        '      "max_violation": -2.8005240503127995,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=-1]",\n'
        '      "max_violation": -1.5653435601885264,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=0]",\n'
        '      "max_violation": -0.3296438020694388,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=0.5]",\n'
        '      "max_violation": -0.459269356089297,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=1]",\n'
        '      "max_violation": -0.17376072403290688,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=2]",\n'
        '      "max_violation": -1.081537787436062,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "log_diff_upper",\n'
        '      "max_violation": -0.6442872013440664,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "log_diff_lower",\n'
        '      "max_violation": -0.4641267305967631,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "inverse_log_diff_upper",\n'
        '      "max_violation": -0.34249631102578193,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "inverse_log_diff_lower",\n'
        '      "max_violation": -0.11696592247647236,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "bohr[beta=0.5,m=1,p=1,N=1]",\n'
        '      "max_violation": -0.021171224064261945,\n'
        '      "witness": "r=0.1773657034066072, mode=monomial, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "rogosinski[beta=0.5,m=1,p=1,N=2]",\n'
        '      "max_violation": -0.01634479605422956,\n'
        '      "witness": "r=0.15391781009884792, mode=monomial, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    # Two betas, 65 samples: the family fold order and checks summed across
    # betas.
    ("verify", "--beta-grid", "0,0.9", "--samples", "65", "--atoms", "3", "--seed", "7",
     "--out-format", "csv"): (
        "id,max_violation,witness,checks,pass\r\n"
        'coeff[n=2],-0.0025959427904642673,"beta=0.9, seed=[7, 1], row=55",130,true\r\n'
        'coeff[n=3],-4.4802099069429779e-05,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=4],-0.012250560701046687,"beta=0, seed=[7, 0], row=31",130,true\r\n'
        'coeff[n=5],-0.00010725165690023131,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=6],-0.00096994782636561361,"beta=0.9, seed=[7, 1], row=51",130,true\r\n'
        'coeff[n=7],-0.00017163829462041313,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=8],-0.0018568670658492825,"beta=0, seed=[7, 0], row=56",130,true\r\n'
        'coeff[n=9],-0.00023591834649885901,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=10],-0.00086461102933324541,"beta=0, seed=[7, 0], row=53",130,true\r\n'
        'coeff[n=11],-0.00029929637306985724,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=12],-0.00041819746083399112,"beta=0, seed=[7, 0], row=6",130,true\r\n'
        'coeff[n=13],-0.00036127182317075013,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=14],-2.5536424144267933e-05,"beta=0, seed=[7, 0], row=48",130,true\r\n'
        'coeff[n=15],-4.3438966374459431e-05,"beta=0, seed=[7, 0], row=20",130,true\r\n'
        'coeff[n=16],-0.00014428866582835709,"beta=0, seed=[7, 0], row=64",130,true\r\n'
        'coeff[n=17],-0.00043350676935474675,"beta=0, seed=[7, 0], row=54",130,true\r\n'
        'coeff[n=18],-0.0018210997147271035,"beta=0, seed=[7, 0], row=4",130,true\r\n'
        'coeff[n=19],-0.00032962454532942109,"beta=0, seed=[7, 0], row=40",130,true\r\n'
        'coeff[n=20],-0.00016530196508525441,"beta=0, seed=[7, 0], row=43",130,true\r\n'
        'fekete_szego[mu=-2],-0.02503730225074996,"beta=0, seed=[7, 0], row=1",130,true\r\n'
        'fekete_szego[mu=-1],-0.017332858798879469,"beta=0, seed=[7, 0], row=1",130,true\r\n'
        'fekete_szego[mu=0],-4.4802099069429779e-05,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'fekete_szego[mu=0.5],-0.032438849686301841,"beta=0, seed=[7, 0], row=20",130,true\r\n'
        'fekete_szego[mu=1],-0.026211019465938623,"beta=0.9, seed=[7, 1], row=36",130,true\r\n'
        'fekete_szego[mu=2],-0.0057794267086008766,"beta=0, seed=[7, 0], row=1",130,true\r\n'
        'log_diff_upper,-0.11281288330146844,"beta=0.9, seed=[7, 1], row=47",130,true\r\n'
        'log_diff_lower,-0.0022138522294604668,"beta=0.9, seed=[7, 1], row=6",130,true\r\n'
        'inverse_log_diff_upper,-0.097663082870285578,"beta=0.9, seed=[7, 1], row=55",130,true\r\n'
        'inverse_log_diff_lower,-0.066831603321413247,"beta=0, seed=[7, 0], row=52",130,true\r\n'
        '"bohr[beta=0,m=1,p=1,N=1]",-0.0024823750397279243,"r=0.2841940876622407, mode=monomial, seed=[7, 0], row=1",65,true\r\n'
        '"rogosinski[beta=0,m=1,p=1,N=2]",-0.0027265559813029472,"r=0.24275492842622712, mode=monomial, seed=[7, 0], row=1",65,true\r\n'
        '"bohr[beta=0.9,m=1,p=1,N=1]",-0.0011815930545795855,"r=0.04477768414484444, mode=monomial, seed=[7, 1], row=55",65,true\r\n'
        '"rogosinski[beta=0.9,m=1,p=1,N=2]",-0.0013319003109232702,"r=0.04181613481087239, mode=monomial, seed=[7, 1], row=55",65,true\r\n'
    ),
    ("sweep", "--beta-grid", "0,0.5", "--m", "1,2", "--variant", "both", "--out-format", "csv"): (
        "beta,m,p,N,variant,root,residual,iterations\r\n"
        "0,1,1,1,bohr,0.28519408766224069,4.4853398772914943e-11,8\r\n"
        "0,1,1,1,rogosinski,0.16320489851547759,6.9483530040770347e-11,8\r\n"
        "0,2,1,1,bohr,0.40216812044599975,-5.3743731687205809e-11,8\r\n"
        "0,2,1,1,rogosinski,0.24746237701180226,0,10\r\n"
        "0.5,1,1,1,bohr,0.17836570340660721,3.520303493154131e-11,8\r\n"
        "0.5,1,1,1,rogosinski,0.099449717276195906,6.4834249080547579e-11,8\r\n"
        "0.5,2,1,1,bohr,0.28959608729268138,-1.5510703832433137e-11,9\r\n"
        "0.5,2,1,1,rogosinski,0.16111816786081073,1.5466156133570053e-11,9\r\n"
    ),
    ("sweep", "--beta-grid", "0.25", "--m", "2", "--p", "0.5,2", "--N", "1,3",
     "--variant", "rogosinski"): (
        "beta,m,p,N,variant,root,residual,iterations\r\n"
        "0.25,2,0.5,1,rogosinski,0.14346385288698668,0,9\r\n"
        "0.25,2,0.5,3,rogosinski,0.27954482396457137,3.5109859464199644e-11,8\r\n"
        "0.25,2,2,1,rogosinski,0.23529572241286265,3.0992597377377251e-11,8\r\n"
        "0.25,2,2,3,rogosinski,0.51389801969097937,-6.7372885048655462e-11,11\r\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_is_byte_identical_to_the_recorded_bytes(argv):
    assert run_quiet(list(argv)) == (0, GOLDEN_STDOUT[argv], "")


class TestOutPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("radius", "--beta", "0.3"),
            ("fs-bound", "--beta", "0.3", "--mu=-1,1", "--out-format", "json"),
            ("log-bounds", "--beta", "0.3"),
            ("verify", "--beta", "0.3", "--samples", "1", "--out-format", "csv"),
            ("sweep", "--beta-grid", "0.1"),
        ],
    )
    def test_writes_the_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        _, expected, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--out-path", str(target)) == (0, "", "")
        assert target.read_bytes() == expected.encode()

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_path_is_one_error_line(self, tmp_path, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
        proc = run_process("radius", "--beta", "0.3", "--out-path", str(target))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: --out-path: ") and proc.stderr.count("\n") == 1


QUERY_COMMANDS_WITHOUT_NUMPY = """
import contextlib, io, json, os, sys
from abeta import cli
for argv in (
    ["radius", "--beta", "0.3"],
    ["rogosinski", "--beta", "0.3", "--N", "50"],
    ["fs-bound", "--beta", "0.3", "--mu=-1,0,1"],
    ["log-bounds", "--beta", "0.3"],
    ["sweep", "--beta-grid", "0,0.5", "--variant", "both"],
    ["radius", "--beta", "0.3", "--poly", "0.3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "a query command imported numpy"
blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--beta", "0.3", "--samples", "4"]) == 0
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([blas_threads, os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


def query_commands_then_verify(**environ):
    """Run QUERY_COMMANDS_WITHOUT_NUMPY in a fresh interpreter whose
    environment holds `environ` and no other OPENBLAS_NUM_THREADS (an
    in-process verify may have set it here): OPENBLAS_NUM_THREADS after
    the query commands, then after verify, and the native thread count."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=str(Path(abeta.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", QUERY_COMMANDS_WITHOUT_NUMPY],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestNumpyOffTheQueryPath:
    def test_only_verify_imports_numpy(self):
        query_commands_then_verify()

    def test_cli_import_skips_stdlib_the_query_path_does_not_use(self):
        # -S: a site .pth may itself import typing and its dependencies.
        loaded = ("dataclasses", "inspect", "typing", "json", "csv")
        done = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys, abeta.cli; print([m for m in {loaded!r} if m in sys.modules])"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(abeta.__file__).parents[1])},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_package_still_exports_verify_names(self):
        from abeta import VerifyConfig, falsification_sweep
        from abeta import verify

        assert (VerifyConfig, falsification_sweep) == (
            verify.VerifyConfig, verify.falsification_sweep
        )
        assert abeta.__all__ == [
            "AreaPolynomial", "BetaDomainError", "BetaParam", "ConvergenceError",
            "RadiusProblem", "Variant", "VerifyConfig", "area_majorant",
            "baseline_bohr_radius", "eval_extremal", "extremal_at_minus_one",
            "extremal_coeff", "falsification_sweep", "fekete_szego_bound",
            "growth_envelope", "inverse_log_diff_bounds", "log_coeffs",
            "log_diff_bounds", "solve_radius",
        ]
        with pytest.raises(AttributeError):
            abeta.no_such_name

    def test_verify_calls_the_sweep_through_the_cli_module(self, monkeypatch):
        # Tracing replaces cli.falsification_sweep; the command must find
        # the replacement.
        calls = []
        sweep = cli.falsification_sweep
        monkeypatch.setattr(cli, "falsification_sweep", lambda *a: calls.append(a) or sweep(*a))
        code, _, _ = run_quiet(["verify", "--beta", "0.3", "--samples", "2"])
        assert code == 0 and len(calls) == 1


class TestOneBlasThread:
    """verify, the only command that loads numpy, keeps OpenBLAS to one
    thread unless the caller chose a count; the query commands leave the
    environment alone."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_verify_runs_on_one_native_thread(self):
        after_queries, after_verify, tasks = query_commands_then_verify()
        assert (after_queries, after_verify, tasks) == (None, "1", 1)

    def test_a_preset_thread_count_is_kept(self):
        after_queries, after_verify, _ = query_commands_then_verify(OPENBLAS_NUM_THREADS="2")
        assert after_queries == after_verify == "2"


def run_quiet(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FAILING = [
    ["radius", "--beta", "2"],
    ["radius", "--beta", "0.3", "--bogus", "1"],
    ["rogosinski", "--beta"],
    ["verify"],
    ["verify", "--beta", "0", "--beta-grid", "0.5"],
    ["nope"],
    [],
    ["fs-bound", "--beta", "0", "--mu", "x"],
    ["sweep", "--beta-grid", "0.1", "--variant", "all"],
    ["radius", "--beta", "0", "--p", "1e-9"],
]

VALID = [
    ["rogosinski", "--beta", "0.3", "--m", "2", "--N", "3", "--poly", "0.1"],
    ["fs-bound", "--beta", "0.5", "--mu=-1,0,1", "--out-format", "json"],
    ["verify", "--beta-grid", "0,0.5", "--samples", "3", "--out-format", "csv"],
    ["sweep", "--beta-grid", "0.1,0.2", "--m", "1,2", "--variant", "both"],
]


class TestParserReuse:
    def test_built_once_over_twenty_calls(self, monkeypatch):
        build = cli.build_parser
        built = []

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        commands = (FAILING + VALID) * 2
        assert len(commands) >= 20
        for argv in commands:
            run_quiet(argv)
        assert len(built) == 1

    @pytest.mark.parametrize("valid", VALID)
    def test_failed_commands_leave_no_state(self, monkeypatch, valid):
        monkeypatch.setattr(cli, "_parser", None)
        alone = run_quiet(valid)  # the first call: a parser of its own
        assert alone[0] == 0
        parser = cli._parser
        for argv in FAILING:
            code, out, err = run_quiet(argv)
            assert code == 1 and out == "" and err.startswith("error: ")
        assert run_quiet(valid) == alone
        assert cli._parser is parser


# Values each flag may take in the fuzz test: (valid, malformed).
FUZZ_VALUES = {
    "--beta": (["0", "0.5", "0.9", "0.999"], ["1", "1.5", "-0.1", "nan", "x"]),
    "--m": (["1", "3"], ["0", "1.5", "1,2", ",", str(10**400), "x"]),
    "--p": (["0.5", "1", "2", "3000"], ["0", "-1", "inf", "1e-9", ",", "x"]),
    "--N": (["1", "3", "50"], ["0", "1,2", ",", "x"]),
    "--poly": (["0.1", "0.2,0.05", ""], ["-1", "nan", "a,b"]),
    "--tol": (["1e-10", "1e-6"], ["1e-17", "1", "x"]),
    "--mu": (["0", "-1,0,1", "0:1:0.25"], ["0:1:1e-12", "1:0:0.5", "0:1", "nan", ",", "x"]),
    "--beta-grid": (["0.5", "0,0.9", "0:0.3:0.1"], ["0.5,1", "0:1:1e-12", "nan", ",", "x"]),
    "--samples": (["1", "3"], ["0", "-1", "x"]),
    "--atoms": (["1", "4"], ["0", "10000000000000", "x"]),
    "--seed": (["0", "7"], ["-3", "x"]),
    "--slack": (["1e-9", "0"], ["-1", "nan", "x"]),
    "--variant": (["bohr", "rogosinski", "both"], ["all"]),
    "--out-format": (["csv", "json"], ["xml"]),
    "--out-path": (
        [os.devnull],
        ["/", str(Path(__file__).parent / "no-such-directory" / "out.csv")],
    ),
}

RADIUS_FLAGS = ["--beta", "--m", "--p", "--poly", "--tol", "--out-format", "--out-path"]
# Per subcommand: the flags it needs (verify's --samples keeps examples
# cheap), then the optional ones.
FUZZ_FLAGS = {
    "radius": (["--beta"], RADIUS_FLAGS),
    "rogosinski": (["--beta"], [*RADIUS_FLAGS, "--N"]),
    "fs-bound": (["--beta", "--mu"], ["--out-format", "--out-path"]),
    "log-bounds": (["--beta"], ["--out-format", "--out-path"]),
    "verify": (
        ["--beta", "--samples"],
        ["--beta-grid", "--atoms", "--seed", "--slack", "--out-format", "--out-path"],
    ),
    "sweep": (
        ["--beta-grid"],
        ["--m", "--p", "--N", "--variant", "--tol", "--out-format", "--out-path"],
    ),
    "nope": ([], ["--beta"]),
}


@st.composite
def fuzz_argv(draw):
    """A command line, malformed in about half of the draws: a subcommand
    (rarely missing), the flags it needs (each rarely missing) and up to
    three more, with values from FUZZ_VALUES (one in ten malformed), and
    sometimes an unknown flag or a trailing flag without a value."""
    rarely = st.integers(0, 9).map(lambda k: k == 0)
    command = draw(st.sampled_from(list(FUZZ_FLAGS)))
    required, optional = FUZZ_FLAGS[command]
    argv = [] if draw(rarely) else [command]
    flags = [f for f in required if not draw(rarely)]
    flags += draw(st.lists(st.sampled_from(optional), max_size=3))
    for flag in flags:
        valid, malformed = FUZZ_VALUES[flag]
        argv += [flag, draw(st.sampled_from(malformed if draw(rarely) else valid))]
    if draw(rarely):
        argv += ["--bogus", "1"]
    if draw(rarely):
        argv.append(draw(st.sampled_from(optional)))
    return argv


@given(st.lists(fuzz_argv(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_exit_code_contract_over_one_process(commands):
    for argv in commands:
        code, _, err = run_quiet(argv)  # an escaping exception fails the test
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
