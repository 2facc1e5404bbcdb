import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import abeta
from abeta import cli
from abeta.cli import CliError, main, parse_grid
from abeta.extremal import BetaParam
from abeta.radii import RadiusProblem, Variant, solve_radius
from oracles import argparse_namespace, cli_main_full_parse, csv_rows, json_document

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

    def test_rejects_too_many_samples_for_the_atoms_without_sampling(self):
        # 10^7 samples of 10^4 atoms would take hours; a fresh process shows a hang.
        proc = run_process("verify", "--beta", "0.5", "--atoms", "10000", "--samples", "10000000")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: --samples: must be <= 4000 at 10000 atoms, got 10000000\n"

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

    def test_rejects_a_grid_product_above_the_cap_before_solving(self):
        # 900 x 999999 cells once started 9e8 solves, their rows piling up in
        # memory; a fresh process shows a hang.
        proc = run_process("sweep", "--beta-grid", "0:0.9:0.001", "--m", "1:1000000:1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: --beta-grid x --m x --p x --N x --variant: 899999100 cells, more than 1000000\n"
        )

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
        "bohr,0.29999999999999999,1,1,1,0.10000000000000001;0.20000000000000001,0.22281843114580377,4.3897885326771302e-11,0.22281843112080377,0.22281843117080377,7\r\n"
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
        '  "root": 0.22281843114580377,\n'
        '  "residual": 4.38978853267713e-11,\n'
        '  "bracket_lo": 0.22281843112080377,\n'
        '  "bracket_hi": 0.22281843117080377,\n'
        '  "iterations": 7\n'
        "}\n"
    ),
    ("rogosinski", "--beta", "0.5", "--m", "2", "--p", "1.5", "--N", "3", "--out-format", "csv"): (
        "variant,beta,m,p,N,poly,root,residual,bracket_lo,bracket_hi,iterations\r\n"
        "rogosinski,0.5,2,1.5,3,,0.42442448908997882,0,0.42442448906497882,0.42442448911497882,10\r\n"
    ),
    ("rogosinski", "--beta", "0.5", "--m", "2", "--p", "1.5", "--N", "3", "--out-format", "json"): (
        "{\n"
        '  "variant": "rogosinski",\n'
        '  "beta": 0.5,\n'
        '  "m": 2,\n'
        '  "p": 1.5,\n'
        '  "N": 3,\n'
        '  "poly": [],\n'
        '  "root": 0.4244244890899788,\n'
        '  "residual": 0.0,\n'
        '  "bracket_lo": 0.4244244890649788,\n'
        '  "bracket_hi": 0.4244244891149788,\n'
        '  "iterations": 10\n'
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
        'coeff[n=2],-0.50402828673449751,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=3],-0.32964380206943888,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=4],-0.16336122375927842,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=5],-0.2452499732170354,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=6],-0.011514472141038068,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=7],-0.08874505699305113,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=8],-0.14172912827554479,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=9],-0.11607568543173663,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=10],-0.066889283052639081,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=11],-0.025707964538117967,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=12],-0.17901819501920177,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=13],-0.080537027677611145,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=14],-0.070484366728388009,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=15],-0.062123700999449832,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=16],-0.037717288471157767,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=17],-0.12543847018641183,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'coeff[n=18],-0.04765682978862848,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=19],-0.049967410971439891,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'coeff[n=20],-0.042676078020143088,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=-2],-2.8005240503127995,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=-1],-1.5653435601885266,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=0],-0.32964380206943888,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'fekete_szego[mu=0.5],-0.45926935608929698,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'fekete_szego[mu=1],-0.17376072403290677,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'fekete_szego[mu=2],-1.0815377874360625,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'log_diff_upper,-0.64428720134406636,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'log_diff_lower,-0.46412673059676313,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        'inverse_log_diff_upper,-0.3424963110257821,"beta=0.5, seed=[42, 0], row=0",2,true\r\n'
        'inverse_log_diff_lower,-0.11696592247647236,"beta=0.5, seed=[42, 0], row=1",2,true\r\n'
        '"bohr[beta=0.5,m=1,p=1,N=1]",-0.021171224124692384,"r=0.17736570336170457, mode=monomial, seed=[42, 0], row=0",2,true\r\n'
        '"rogosinski[beta=0.5,m=1,p=1,N=2]",-0.016344796054231281,"r=0.15391781009884695, mode=monomial, seed=[42, 0], row=0",2,true\r\n'
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
        '      "max_violation": -0.5040282867344975,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=3]",\n'
        '      "max_violation": -0.3296438020694389,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=4]",\n'
        '      "max_violation": -0.16336122375927842,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=5]",\n'
        '      "max_violation": -0.2452499732170354,\n'
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
        '      "max_violation": -0.1417291282755448,\n'
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
        '      "max_violation": -0.06688928305263908,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=11]",\n'
        '      "max_violation": -0.025707964538117967,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=12]",\n'
        '      "max_violation": -0.17901819501920177,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=13]",\n'
        '      "max_violation": -0.08053702767761114,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=14]",\n'
        '      "max_violation": -0.07048436672838801,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=15]",\n'
        '      "max_violation": -0.06212370099944983,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=16]",\n'
        '      "max_violation": -0.03771728847115777,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=17]",\n'
        '      "max_violation": -0.12543847018641183,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "coeff[n=18]",\n'
        '      "max_violation": -0.04765682978862848,\n'
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
        '      "max_violation": -0.04267607802014309,\n'
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
        '      "max_violation": -1.5653435601885266,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=1",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=0]",\n'
        '      "max_violation": -0.3296438020694389,\n'
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
        '      "max_violation": -0.17376072403290677,\n'
        '      "witness": "beta=0.5, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "fekete_szego[mu=2]",\n'
        '      "max_violation": -1.0815377874360625,\n'
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
        '      "max_violation": -0.3424963110257821,\n'
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
        '      "max_violation": -0.021171224124692384,\n'
        '      "witness": "r=0.17736570336170457, mode=monomial, seed=[42, 0], row=0",\n'
        '      "checks": 2\n'
        "    },\n"
        "    {\n"
        '      "id": "rogosinski[beta=0.5,m=1,p=1,N=2]",\n'
        '      "max_violation": -0.01634479605423128,\n'
        '      "witness": "r=0.15391781009884695, mode=monomial, seed=[42, 0], row=0",\n'
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
        'coeff[n=4],-0.012250560701046631,"beta=0, seed=[7, 0], row=31",130,true\r\n'
        'coeff[n=5],-0.00010725165690023131,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=6],-0.0009699478263660577,"beta=0.9, seed=[7, 1], row=51",130,true\r\n'
        'coeff[n=7],-0.00017163829462046865,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=8],-0.001856867065849227,"beta=0, seed=[7, 0], row=56",130,true\r\n'
        'coeff[n=9],-0.00023591834649885901,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=10],-0.00086461102933321765,"beta=0, seed=[7, 0], row=53",130,true\r\n'
        'coeff[n=11],-0.00029929637306991275,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=12],-0.00041819746083401887,"beta=0, seed=[7, 0], row=6",130,true\r\n'
        'coeff[n=13],-0.00036127182317083339,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'coeff[n=14],-2.55364241443512e-05,"beta=0, seed=[7, 0], row=48",130,true\r\n'
        'coeff[n=15],-4.3438966374459431e-05,"beta=0, seed=[7, 0], row=20",130,true\r\n'
        'coeff[n=16],-0.00014428866582838484,"beta=0, seed=[7, 0], row=64",130,true\r\n'
        'coeff[n=17],-0.00043350676935466348,"beta=0, seed=[7, 0], row=54",130,true\r\n'
        'coeff[n=18],-0.0018210997147270758,"beta=0, seed=[7, 0], row=4",130,true\r\n'
        'coeff[n=19],-0.00032962454532943497,"beta=0, seed=[7, 0], row=40",130,true\r\n'
        'coeff[n=20],-0.00016530196508533768,"beta=0, seed=[7, 0], row=43",130,true\r\n'
        'fekete_szego[mu=-2],-0.02503730225074996,"beta=0, seed=[7, 0], row=1",130,true\r\n'
        'fekete_szego[mu=-1],-0.017332858798879913,"beta=0, seed=[7, 0], row=1",130,true\r\n'
        'fekete_szego[mu=0],-4.4802099069429779e-05,"beta=0, seed=[7, 0], row=5",130,true\r\n'
        'fekete_szego[mu=0.5],-0.032438849686301729,"beta=0, seed=[7, 0], row=20",130,true\r\n'
        'fekete_szego[mu=1],-0.026211019465937957,"beta=0.9, seed=[7, 1], row=36",130,true\r\n'
        'fekete_szego[mu=2],-0.0057794267086006545,"beta=0, seed=[7, 0], row=1",130,true\r\n'
        'log_diff_upper,-0.11281288330146844,"beta=0.9, seed=[7, 1], row=47",130,true\r\n'
        'log_diff_lower,-0.0022138522294604668,"beta=0.9, seed=[7, 1], row=6",130,true\r\n'
        'inverse_log_diff_upper,-0.097663082870286022,"beta=0.9, seed=[7, 1], row=55",130,true\r\n'
        'inverse_log_diff_lower,-0.066831603321413247,"beta=0, seed=[7, 0], row=52",130,true\r\n'
        '"bohr[beta=0,m=1,p=1,N=1]",-0.0024823750843093184,"r=0.2841940876372939, mode=monomial, seed=[7, 0], row=1",65,true\r\n'
        '"rogosinski[beta=0,m=1,p=1,N=2]",-0.0027265558714428817,"r=0.24275492847446753, mode=monomial, seed=[7, 0], row=1",65,true\r\n'
        '"bohr[beta=0.9,m=1,p=1,N=1]",-0.001181593000041295,"r=0.04477768419133352, mode=monomial, seed=[7, 1], row=55",65,true\r\n'
        '"rogosinski[beta=0.9,m=1,p=1,N=2]",-0.001331900328710188,"r=0.041816134797420676, mode=monomial, seed=[7, 1], row=55",65,true\r\n'
    ),
    ("sweep", "--beta-grid", "0,0.5", "--m", "1,2", "--variant", "both", "--out-format", "csv"): (
        "beta,m,p,N,variant,root,residual,iterations\r\n"
        "0,1,1,1,bohr,0.28519408763729392,0,8\r\n"
        "0,1,1,1,rogosinski,0.16320489851548475,6.9503403032911137e-11,7\r\n"
        "0,2,1,1,bohr,0.40216812044599975,-5.3743731687205809e-11,7\r\n"
        "0,2,1,1,rogosinski,0.24746237701180226,0,9\r\n"
        "0.5,1,1,1,bohr,0.17836570336170457,-3.6343622555889965e-11,6\r\n"
        "0.5,1,1,1,rogosinski,0.099449717262768439,2.9966307213413756e-11,6\r\n"
        "0.5,2,1,1,bohr,0.28959608727819453,-4.0342840179619088e-11,8\r\n"
        "0.5,2,1,1,rogosinski,0.16111816783974314,-2.3905238899502024e-11,8\r\n"
    ),
    ("sweep", "--beta-grid", "0.25", "--m", "2", "--p", "0.5,2", "--N", "1,3",
     "--variant", "rogosinski"): (
        "beta,m,p,N,variant,root,residual,iterations\r\n"
        "0.25,2,0.5,1,rogosinski,0.1434638528622281,-5.9955818088042179e-11,6\r\n"
        "0.25,2,0.5,3,rogosinski,0.27954482396456909,3.5106695328579463e-11,6\r\n"
        "0.25,2,2,1,rogosinski,0.23529572241286267,3.0992652888528482e-11,7\r\n"
        "0.25,2,2,3,rogosinski,0.51389801969097937,-6.7372885048655462e-11,10\r\n"
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
from abeta.bounds import fekete_szego_functional, inverse_log_coeffs, log_coeffs
for value in (
    log_coeffs(0.5 + 0.25j, 0.1 - 0.3j).moduli_difference,
    inverse_log_coeffs(0.5 + 0.25j, 0.1 - 0.3j).moduli_difference,
    fekete_szego_functional(0.5 + 0.25j, 0.1 - 0.3j, 1.5),
):
    assert type(value) is float, value
assert "numpy" not in sys.modules, "a query command or scalar bound imported numpy"
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


# `--flag=--` of a single-value flag: argparse before 3.13 reads the value
# as [], and _Parser._get_values reads it as 3.13 does, as the string "--".  Each
# gives 3.13's one line on every version (the choices of --out-format are
# worded by argparse, differently on some versions).  They are FAILING
# argvs too, so TestDispatch checks them against the full parse.
DASH_DASH_VALUES = {
    ("radius", "--beta=--"): "error: argument --beta: invalid float value: '--'\n",
    ("fs-bound", "--beta", "0.5", "--mu=--"):
        "error: --mu: malformed grid '--' (could not convert string to float: '--')\n",
    ("sweep", "--beta-grid=--"):
        "error: --beta-grid: malformed grid '--' (could not convert string to float: '--')\n",
    ("verify", "--beta", "0.5", "--seed=--"): "error: argument --seed: invalid int value: '--'\n",
    ("radius", "--beta", "0.5", "--poly=--"): "error: --poly: could not convert string to float: '--'\n",
    ("radius", "--beta", "0.5", "--out-format=--"):
        "error: argument --out-format: invalid choice: '--' (choose from ",
    # Read before the missing --beta, on every version.
    ("radius", "--m=--"): "error: argument --m: invalid int value: '--'\n",
}


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
    *map(list, DASH_DASH_VALUES),
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


# Values on the edge of what argparse reads as a value in `--flag value`:
# "-0.5" looks like a negative number, " -1" holds a space, "-" is one
# character.  Not for --out-path, where they would name a file to write.
EDGE_VALUES = ["-0.5", " -1", "", "-"]
# Abbreviations argparse expands where they are unique (--bet is not, in verify).
ABBREVIATIONS = {"--beta": "--bet", "--poly": "--po"}


@st.composite
def fuzz_argv(draw):
    """A command line, malformed in about half of the draws: a subcommand
    (rarely missing), the flags it needs (each rarely missing) and up to
    three more, one rarely repeated, with values from FUZZ_VALUES (one in
    ten malformed, one in ten from EDGE_VALUES), each flag rarely
    abbreviated and written `--flag value` or `--flag=value`, and sometimes
    an unknown flag or a trailing flag without a value."""
    rarely = st.integers(0, 9).map(lambda k: k == 0)
    command = draw(st.sampled_from(list(FUZZ_FLAGS)))
    required, optional = FUZZ_FLAGS[command]
    argv = [] if draw(rarely) else [command]
    flags = [f for f in required if not draw(rarely)]
    flags += draw(st.lists(st.sampled_from(optional), max_size=3))
    if flags and draw(rarely):
        flags.append(draw(st.sampled_from(flags)))
    for flag in flags:
        valid, malformed = FUZZ_VALUES[flag]
        value = draw(st.sampled_from(malformed if draw(rarely) else valid))
        if flag != "--out-path" and draw(rarely):
            value = draw(st.sampled_from(EDGE_VALUES))
        if draw(rarely):
            flag = ABBREVIATIONS.get(flag, flag)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
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


def run_caught(cli_main, argv):
    """cli_main(argv) with its output captured: (exit code, or the
    SystemExit code as ("exit", code), stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


DISPATCH_EDGES = [
    [],
    ["nope"],
    ["radius"],
    ["radius", "--bogus", "1"],
    ["-h"],
    ["--help"],
    ["radius", "-h"],
    ["verify", "--help"],
]


class TestDispatch:
    """main sends a known subcommand straight to its own parser; the exit
    code, stdout and stderr are those of the full top-level parse."""

    @pytest.mark.parametrize("argv", FAILING + VALID + DISPATCH_EDGES)
    def test_same_as_the_full_parse(self, argv):
        assert run_caught(main, argv) == run_caught(cli_main_full_parse, argv)

    @given(fuzz_argv())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_commands_same_as_the_full_parse(self, argv):
        assert run_caught(main, argv) == run_caught(cli_main_full_parse, argv)

    def test_a_tuple_argv(self):
        argv = ("fs-bound", "--beta", "0.5", "--mu", "0,1")
        result = run_caught(main, argv)
        assert result[0] == 0 and result == run_caught(cli_main_full_parse, argv)

    @pytest.mark.parametrize("argv", [["radius", "--beta", "0.3"], ["rogosinski"], []])
    def test_no_argv_reads_sys_argv(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["abeta", *argv])
        assert run_caught(main, None) == run_caught(cli_main_full_parse, None)
        assert run_caught(main, None) == run_caught(main, argv)

    def test_a_known_subcommand_skips_the_top_level_parse(self, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        run_quiet(VALID[0])  # builds the parser
        top = cli._parser[1]
        reached = []
        parse = top.parse_known_args
        monkeypatch.setattr(top, "parse_known_args", lambda *a: reached.append(a[0]) or parse(*a))
        for argv in FAILING + VALID:
            run_quiet(argv)
        assert reached == [["nope"], []]


@contextlib.contextmanager
def table_only():
    """Parsers read only their flag tables: argparse's own parse_args
    returns None, so a parse that falls through to it gives None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", lambda *args: None)
        yield


def load_bench_workloads(monkeypatch):
    """bench/workloads.py, loaded without writing bytecode into bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestFlagTable:
    """A subparser reads a plain argv from a table of its own actions;
    wherever the table takes an argv, it sets what argparse would, and
    everything else is argparse's."""

    @pytest.mark.parametrize("argv, taken", [
        (["--beta", "0.5", "--m=2", "--out-format", "csv"], True),
        (["--beta=-0.5"], True),
        (["--beta", "0.1", "--beta", "0.2"], True),
        (["--beta", " -1", "--poly="], True),
        (("--beta", "0.5"), True),
        (["--beta", "-0.5"], False),
        (["--bet", "0.5"], False),
        (["--beta", "0.5", "--poly=--"], True),
        (["--beta", "0.5", "--"], False),
        (["--beta", "0.5", "-h"], False),
        (["--beta", "x"], False),
        (["--beta", "0.5", "--out-format", "xml"], False),
        (["--m", "2"], False),
        (["--beta"], False),
        (["--beta", 0.5], False),
        (["--beta", "0.5", 1], False),
        (["--beta", "0.5", "--bogus", "1"], False),
    ])
    def test_which_argvs_the_table_takes(self, argv, taken):
        radius = cli.build_parser().commands["radius"]
        with table_only():
            namespace = radius.parse_args(argv)
            assert radius.parse_args(argv, argparse.Namespace()) is None
        assert (namespace is not None) == taken
        if taken:
            assert repr(vars(namespace)) == repr(vars(argparse_namespace(radius, argv)))

    @pytest.mark.parametrize("add, argv", [
        (lambda p: p.add_argument("--x", type=float, default="0.5"), []),  # argparse converts it
        (lambda p: p.add_argument("--x", action="append"), ["--x", "1"]),
        (lambda p: p.add_argument("--x", nargs="+"), ["--x", "1"]),
        (lambda p: p.add_mutually_exclusive_group().add_argument("--x"), []),
    ])
    def test_a_parser_with_other_actions_has_no_table(self, add, argv):
        parser = cli._Parser()
        add(parser)
        with table_only():
            assert parser.parse_args(argv) is None

    @given(fuzz_argv())
    @settings(max_examples=300, deadline=None)
    def test_a_taken_argv_parses_as_argparse_parses_it(self, argv):
        commands = cli.build_parser().commands
        assume(argv and argv[0] in commands)
        parser = commands[argv[0]]
        with table_only():
            namespace = parser.parse_args(argv[1:])
        if namespace is not None:  # repr: NaN != NaN
            assert repr(vars(namespace)) == repr(vars(argparse_namespace(parser, argv[1:])))

    def test_the_full_parse_oracle_reads_no_table(self, monkeypatch):
        tables = []
        plain_table = cli._Parser._plain_table

        def recorded(parser):
            tables.append(plain_table(parser))
            return tables[-1]

        monkeypatch.setattr(cli._Parser, "_plain_table", recorded)
        for argv in VALID + FAILING:
            run_caught(cli_main_full_parse, argv)
        # Only each fresh top-level parser asks, and it has no table.
        assert tables == [False] * len(VALID + FAILING)

    def test_the_benchmark_commands_take_the_table(self, monkeypatch):
        workloads = load_bench_workloads(monkeypatch)
        commands = cli.build_parser().commands
        for argvs in [*map(workloads.query_mix, (1, 3, 7)), [workloads.sweep_grid(3)]]:
            with table_only():
                namespaces = [commands[argv[0]].parse_args(argv[1:]) for argv in argvs]
            assert None not in namespaces
            assert [repr(vars(ns)) for ns in namespaces] == [
                repr(vars(argparse_namespace(commands[argv[0]], argv[1:]))) for argv in argvs
            ]
        verify = workloads.falsify(3)
        with table_only():
            assert commands[verify[0]].parse_args(verify[1:]) is None

    def test_only_verify_reaches_the_subparser_argparse(self, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        run_quiet(VALID[0])  # builds the parser
        commands = cli._parser[1].commands
        reached = []
        for name in ("radius", "verify"):
            parse = commands[name].parse_known_args
            monkeypatch.setattr(
                commands[name], "parse_known_args",
                lambda *a, name=name, parse=parse: reached.append(name) or parse(*a),
            )
        assert run_quiet(["radius", "--beta", "0.3"])[0] == 0
        assert run_quiet(["verify", "--beta", "0.3", "--samples", "2"])[0] == 0
        assert reached == ["verify"]


class TestDashDashValue:
    @pytest.mark.parametrize("argv", list(DASH_DASH_VALUES), ids=" ".join)
    def test_one_error_line_in_a_fresh_interpreter(self, argv):
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(DASH_DASH_VALUES[argv]) and proc.stderr.count("\n") == 1

    def test_a_flag_of_many_values_keeps_its_empty_list(self):
        parser = cli._Parser()
        parser.add_argument("--x", nargs="*")
        assert parser.parse_args(["--x"]).x == []

    def test_a_single_value_flag_reads_dash_dash_not_its_list_default(self):
        # _get_values reads `--flag=--` as the string `--`; a [] default is
        # only the value of an unset flag.  parse_args reads this argv from
        # the flag table, parse_known_args through argparse's own parse.
        parser = cli._Parser()
        parser.add_argument("--x", default=[])
        for parse in (parser.parse_args, lambda argv: parser.parse_known_args(argv)[0]):
            assert parse(["--x=--"]).x == "--"
            assert parse([]).x == []


def written(doc, rows=None, out_format="json"):
    """cli._write's stdout for doc as JSON, or rows as CSV."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write(argparse.Namespace(out_format=out_format, out_path=None), doc, rows)
    return out.getvalue()


def is_flat(doc):
    """Whether cli._write writes doc without json.dumps: str keys, and each
    value exactly a str, an int, a finite float or a list of finite floats."""
    def finite(x):
        return type(x) is float and math.isfinite(x)

    return all(
        type(key) is str and (
            type(value) in (str, int) or finite(value)
            or type(value) is list and all(map(finite, value))
        )
        for key, value in doc.items()
    )


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
any_float = st.floats() | st.sampled_from(EDGE_FLOATS)
finite_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308]
)
# Non-ASCII, quotes, backslashes, control characters and a lone surrogate.
any_text = st.text() | st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\xe9\u2028\ud800\U0001f600'))
any_int = st.integers() | st.integers(-(10**400), 10**400)
flat_value = st.one_of(any_text, any_int, finite_float, st.lists(finite_float, max_size=4))
other_value = st.one_of(
    st.booleans(),
    st.none(),
    any_float.filter(lambda x: not math.isfinite(x)),
    st.lists(any_float, min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), any_float, max_size=2),
    st.lists(st.dictionaries(st.text(max_size=3), any_float, max_size=2), max_size=2),
)
any_key = st.text(max_size=8) | st.integers(-2, 2)


class TestWriters:
    """cli._write lays out a flat document and rows of floats from C-level
    primitives; every output equals the standard library's encoders'."""

    @given(st.dictionaries(st.text(max_size=8), flat_value, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_a_flat_document_is_json_dumps_indented(self, doc):
        assert cli._flat_json(doc) is not None
        assert written(doc) == json_document(doc)

    @given(st.dictionaries(any_key, flat_value | other_value, max_size=6))
    @example({})
    @example({"poly": []})
    @example({"poly": [0.5, math.inf]})
    @example({"root": math.nan})
    @example({"all_pass": True})
    @example({"m": 1, 1: 0.5})
    @settings(max_examples=300, deadline=None)
    def test_any_document_is_json_dumps_indented(self, doc):
        assert (cli._flat_json(doc) is not None) == is_flat(doc)
        assert written(doc) == json_document(doc)

    @pytest.mark.parametrize("columns", [1, 6])
    def test_edge_float_rows(self, columns):
        values = EDGE_FLOATS + [-x for x in EDGE_FLOATS] + [0.1, 1e22, 1e-7, 2.0**-1074 * 3]
        rows = [{f"c{i}": v for i in range(columns)} for v in values]
        assert written(None, rows, "csv") == csv_rows(rows)

    def test_a_float_subclass_cell_goes_through_cell(self):
        class Tagged(float):
            def __format__(self, spec):
                return "tagged"

        rows = [{"a": 0.5, "b": Tagged(0.5)}]
        assert written(None, rows, "csv") == csv_rows(rows) == "a,b\r\n0.5,tagged\r\n"

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(any_float, min_size=n, max_size=n), min_size=1, max_size=5)
    ))
    @settings(max_examples=300, deadline=None)
    def test_float_rows_are_the_csv_writers(self, table):
        rows = [{f"c{i}": v for i, v in enumerate(row)} for row in table]
        assert written(None, rows, "csv") == csv_rows(rows)

    @given(st.lists(
        st.lists(st.one_of(any_float, any_int, any_text, st.booleans(), st.lists(any_float)),
                 min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_rows_are_the_csv_writers(self, table):
        rows = [{f"c{i}": v for i, v in enumerate(row)} for row in table]
        assert written(None, rows, "csv") == csv_rows(rows)


@contextlib.contextmanager
def encoder_calls():
    """A list that records each json.dumps call and each csv writer's
    writerows call while the block runs."""
    calls = []
    dumps, writer = json.dumps, csv.writer

    class Writer:
        def __init__(self, *args, **kwargs):
            self.writer = writer(*args, **kwargs)

        def writerow(self, row):
            return self.writer.writerow(row)

        def writerows(self, rows):
            calls.append("writerows")
            return self.writer.writerows(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "dumps", lambda *a, **k: calls.append("json.dumps") or dumps(*a, **k))
        patch.setattr(csv, "writer", Writer)
        yield calls


class TestWriterPaths:
    """Which documents skip the pure-Python encoders, so that a silent
    fallback fails here rather than reading as a slower benchmark."""

    def test_the_query_commands_skip_them(self, monkeypatch):
        argvs = load_bench_workloads(monkeypatch).query_mix(1) + [
            ["log-bounds", "--beta", beta, "--out-format", out_format]
            for beta in ("0", "0.5", "0.999") for out_format in ("csv", "json")
        ] + [["fs-bound", "--beta", "0.5", "--mu=-3:1:0.25", "--out-format", "csv"]]
        with encoder_calls() as calls:
            codes = [run_quiet(argv)[0] for argv in argvs]
        assert codes == [0] * len(argvs) and calls == []

    def test_the_other_documents_keep_them(self):
        argvs = [
            ["fs-bound", "--beta", "0.5", "--mu=-1,1", "--out-format", "json"],
            ["radius", "--beta", "0.3", "--out-format", "csv"],
            ["sweep", "--beta-grid", "0.1,0.2"],
            ["verify", "--beta", "0.3", "--samples", "2"],
            ["verify", "--beta", "0.3", "--samples", "2", "--out-format", "csv"],
        ]
        with encoder_calls() as calls:
            codes = [run_quiet(argv)[0] for argv in argvs]
        assert codes == [0] * len(argvs)
        assert calls == ["json.dumps", "writerows", "writerows", "json.dumps", "writerows"]
