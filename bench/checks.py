"""Output checks for the benchmark, run outside the timed region.

Every check returns the number of items it attempted and the number that
failed; failures are counted, never filtered out.
"""

from __future__ import annotations

import csv
import io
import json
import math

from abeta.bounds import fekete_szego_bound, inverse_log_diff_bounds, log_diff_bounds
from abeta.extremal import BetaParam
from abeta.radii import AreaPolynomial, RadiusProblem, Variant

import workloads

# Tolerance the CLI certifies roots to when no --tol is given.
CLI_TOL = 1e-10
# Agreement required with the closed forms transcribed below.
REFERENCE_RTOL = 1e-12


# The paper's closed forms, written here independently of abeta.bounds, so
# a wrong formula there cannot pass by agreeing with itself.
def fs_reference(mu: float, b: float) -> float:
    """max(2, |4v - 2|) / (3 - 2b) with v = mu (3 - 2b) / (2 - b)^2."""
    v = mu * (3.0 - 2.0 * b) / (2.0 - b) ** 2
    return max(2.0, abs(4.0 * v - 2.0)) / (3.0 - 2.0 * b)


def log_bounds_reference(b: float) -> tuple[float, float, float, float]:
    """Sharp ranges of |gamma2| - |gamma1| for f and for its inverse."""
    upper = 1.0 / (3.0 - 2.0 * b)
    return (
        -1.0 / math.sqrt(5.0 - 6.0 * b + 2.0 * b * b),
        upper,
        -1.0 / math.sqrt(3.0 * (3.0 - 2.0 * b)),
        upper,
    )


def _matches(value: float, library: float, reference: float) -> bool:
    return value == library and math.isclose(value, reference, rel_tol=REFERENCE_RTOL)


def root_certified(problem: RadiusProblem, root: float, tol: float = CLI_TOL) -> bool:
    """equation(root - tol) < 0 < equation(root + tol), both values finite."""
    try:
        below, above = problem.equation(root - tol), problem.equation(root + tol)
    except (ValueError, ArithmeticError):
        return False
    return math.isfinite(below) and math.isfinite(above) and below < 0.0 < above


def flag_value(argv: list[str], name: str, default: str | None = None) -> str | None:
    """The value given as `name X` or `name=X` in argv."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    return default


def check_sweep(argv: list[str], code: int, stdout: str) -> tuple[int, int]:
    """Every row of the grid present, in order, with a certified root."""
    expected = [
        (beta, m, variant)
        for beta in workloads.grid_values(flag_value(argv, "--beta-grid"))
        for m in workloads.SWEEP_M
        for variant in workloads.SWEEP_VARIANTS
    ]
    if code != 0:
        return len(expected), len(expected)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    failed = abs(len(rows) - len(expected))
    for (beta, m, variant), row in zip(expected, rows):
        try:
            ok = (
                float(row["beta"]) == beta
                and int(row["m"]) == m
                and row["variant"] == variant
                and root_certified(
                    RadiusProblem(Variant(variant), BetaParam(beta), m=m), float(row["root"])
                )
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    return len(expected), failed


def check_falsify(argv: list[str], code: int, stdout: str) -> tuple[int, int]:
    """Exit 0, all_pass, and `checks` = samples x betas for every inequality.

    Bohr and Rogosinski checks are recorded per beta, so theirs equal the
    sample count, with one record per beta and variant.
    """
    samples = int(flag_value(argv, "--samples"))
    betas = [float(b) for b in flag_value(argv, "--beta-grid").split(",")]
    per_sample = 19 + 6 + 4  # coefficients n=2..20, Fekete-Szego mu grid, log bounds
    expected = per_sample + 2 * len(betas)
    try:
        doc = json.loads(stdout)
        records = doc["inequalities"]
        failed = abs(len(records) - expected) + (code != 0) + (doc["all_pass"] is not True)
        per_beta = 0
        for rec in records:
            radius_check = rec["id"].startswith(("bohr[", "rogosinski["))
            per_beta += radius_check
            want = samples if radius_check else samples * len(betas)
            failed += rec["checks"] != want or not rec["max_violation"] <= doc["slack"]
        failed += per_beta != 2 * len(betas)
    except (ValueError, KeyError, TypeError, AttributeError):
        return expected, expected
    return expected, min(failed, expected)


def _radius_problem(argv: list[str]) -> RadiusProblem:
    variant = Variant.BOHR_SCHWARZ if argv[0] == "radius" else Variant.BOHR_ROGOSINSKI
    return RadiusProblem(
        variant,
        BetaParam(float(flag_value(argv, "--beta"))),
        m=int(flag_value(argv, "--m")),
        p=float(flag_value(argv, "--p")),
        N=int(flag_value(argv, "--N", "1")),
        F=AreaPolynomial(tuple(float(x) for x in flag_value(argv, "--poly").split(","))),
    )


def check_command(argv: list[str], code: int, stdout: str) -> bool:
    """One query-mix command: a certified root, or bound values equal to
    abeta.bounds and within REFERENCE_RTOL of the transcribed closed forms."""
    if code != 0:
        return False
    try:
        beta = float(flag_value(argv, "--beta"))
        if argv[0] in ("radius", "rogosinski"):
            doc = json.loads(stdout)
            problem = _radius_problem(argv)
            return (
                doc["beta"] == beta
                and doc["m"] == problem.m
                and doc["N"] == problem.N
                and root_certified(problem, doc["root"])
            )
        rows = list(csv.reader(io.StringIO(stdout)))[1:]
        if argv[0] == "fs-bound":
            mus = workloads.grid_values(flag_value(argv, "--mu"))
            return len(rows) == len(mus) and all(
                float(b) == beta and float(mu) == want_mu
                and _matches(
                    float(bound), fekete_szego_bound(want_mu, beta), fs_reference(want_mu, beta)
                )
                for (b, mu, bound), want_mu in zip(rows, mus)
            )
        ((b, *values),) = rows
        library = (*log_diff_bounds(beta), *inverse_log_diff_bounds(beta))
        return float(b) == beta and all(
            _matches(float(v), lib, ref)
            for v, lib, ref in zip(values, library, log_bounds_reference(beta), strict=True)
        )
    except (ValueError, KeyError, TypeError):
        return False


def check_mix(commands: list[list[str]], codes: list[int], outputs: list[str]) -> tuple[int, int]:
    if len(codes) != len(commands):
        return len(commands), len(commands)
    failed = sum(
        not check_command(argv, code, out) for argv, code, out in zip(commands, codes, outputs)
    )
    return len(commands), failed
