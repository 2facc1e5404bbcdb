import contextlib
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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("radius", "--beta", "0", "--m", "0"), "--m"),
            (("radius", "--beta", "0", "--p", "-1"), "--p"),
            (("rogosinski", "--beta", "0", "--N", "0"), "--N"),
            (("sweep", "--beta-grid", "0.5", "--N", "0"), "--N"),
            (("verify", "--beta-grid", "0.5,1", "--samples", "1"), "--beta-grid"),
            (("verify", "--beta", "0", "--samples", "1", "--seed", "-3"), "--seed"),
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

    def test_rejects_zero_samples(self, capsys):
        # Zero samples would check nothing and still report all_pass.
        code, out, err = run(capsys, "verify", "--beta", "0.5", "--samples", "0")
        assert (code, out, err) == (1, "", "error: --samples: must be >= 1, got 0\n")

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


QUERY_COMMANDS_WITHOUT_NUMPY = """
import contextlib, io, sys
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
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--beta", "0.3", "--samples", "4"]) == 0
"""


class TestNumpyOffTheQueryPath:
    def test_only_verify_imports_numpy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(abeta.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", QUERY_COMMANDS_WITHOUT_NUMPY],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr

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
    "--m": (["1", "3"], ["0", "1.5", "1,2", "x"]),
    "--p": (["0.5", "1", "2"], ["0", "-1", "inf", "1e-9", "x"]),
    "--N": (["1", "3", "50"], ["0", "1,2", "x"]),
    "--poly": (["0.1", "0.2,0.05", ""], ["-1", "nan", "a,b"]),
    "--tol": (["1e-10", "1e-6"], ["1e-17", "1", "x"]),
    "--mu": (["0", "-1,0,1", "0:1:0.25"], ["0:1:1e-12", "1:0:0.5", "0:1", "nan", "x"]),
    "--beta-grid": (["0.5", "0,0.9", "0:0.3:0.1"], ["0.5,1", "0:1:1e-12", "nan", "x"]),
    "--samples": (["1", "3"], ["0", "-1", "x"]),
    "--atoms": (["1", "4"], ["0", "10000000000000", "x"]),
    "--seed": (["0", "7"], ["-3", "x"]),
    "--slack": (["1e-9", "0"], ["-1", "nan", "x"]),
    "--variant": (["bohr", "rogosinski", "both"], ["all"]),
    "--out-format": (["csv", "json"], ["xml"]),
}

RADIUS_FLAGS = ["--beta", "--m", "--p", "--poly", "--tol", "--out-format"]
# Per subcommand: the flags it needs (verify's --samples keeps examples
# cheap), then the optional ones.
FUZZ_FLAGS = {
    "radius": (["--beta"], RADIUS_FLAGS),
    "rogosinski": (["--beta"], [*RADIUS_FLAGS, "--N"]),
    "fs-bound": (["--beta", "--mu"], ["--out-format"]),
    "log-bounds": (["--beta"], ["--out-format"]),
    "verify": (["--beta", "--samples"], ["--beta-grid", "--atoms", "--seed", "--slack", "--out-format"]),
    "sweep": (["--beta-grid"], ["--m", "--p", "--N", "--variant", "--tol", "--out-format"]),
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
