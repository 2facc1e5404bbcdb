"""Reference implementations the tests compare the library against.

Each one recomputes a quantity by a different route from the library's
(the generic Psi pipeline behind the closed-form logarithmic bounds, Euler
summation of the boundary series, long division of power series, ...), so
none of them is needed by the library itself.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from abeta import cli
from abeta.extremal import (
    MAX_TERMS,
    TOLERANCE,
    BetaParam,
    ConvergenceError,
    beta_value,
    extremal_coeff,
)
from abeta.radii import (
    _MAX_TOL,
    _MIN_TOL,
    _UPPER_CAP,
    DEFAULT_TOL,
    SAFEGUARD_STEPS,
    BracketError,
    RadiusProblem,
    RootResult,
    Variant,
)
from abeta.verify import DEFAULT_ORDER, TWO_PI, ClassMember, HerglotzMeasure, _normalized_area_rows


# -- Caratheodory functional bounds behind the closed forms of abeta.bounds --


def ma_minda_bound(v: float) -> float:
    """Sharp bound on |c2 - v*c1^2| over the Caratheodory class.

    Piecewise linear in v: -4v+2 for v < 0, 2 on [0, 1], 4v-2 for v > 1;
    continuous at both breakpoints.
    """
    if v < 0.0:
        return -4.0 * v + 2.0
    if v <= 1.0:
        return 2.0
    return 4.0 * v - 2.0


@dataclass(frozen=True)
class PsiInputs:
    """Coefficients (B1 > 0, B2 complex, B3 real) of the Psi functional

    Psi+(c1, c2) = |B2 c1^2 + B3 c2| - |B1 c1| over the Caratheodory
    class, with the derived quantity B4 = |4 B2 + 2 B3|.
    """

    B1: float
    B2: complex
    B3: float

    def __post_init__(self) -> None:
        if not self.B1 > 0:
            raise ValueError(f"B1 must be positive, got {self.B1}")

    @property
    def B4(self) -> float:
        return abs(4.0 * self.B2 + 2.0 * self.B3)


def psi_plus_bound(b: PsiInputs) -> float:
    """Sharp upper bound on Psi+ over the Caratheodory class."""
    if abs(2.0 * b.B2 + b.B3) >= abs(b.B3) + b.B1:
        return b.B4 - 2.0 * b.B1
    return 2.0 * abs(b.B3)


def psi_minus_bound(b: PsiInputs) -> float:
    """Sharp upper bound on Psi- = -Psi+ over the Caratheodory class."""
    t = b.B4 + 2.0 * abs(b.B3)
    if b.B1 >= t:
        return 2.0 * b.B1 - b.B4
    if b.B1 ** 2 <= 2.0 * abs(b.B3) * t:
        return 2.0 * b.B1 * math.sqrt(2.0 * abs(b.B3) / t)
    return 2.0 * abs(b.B3) + b.B1 ** 2 / t


def psi_inputs_log(b: float) -> PsiInputs:
    return PsiInputs(B1=1.0, B2=-1.0 / (2.0 * (2.0 - b)), B3=(2.0 - b) / (3.0 - 2.0 * b))


def psi_inputs_inverse_log(b: float) -> PsiInputs:
    return PsiInputs(B1=1.0, B2=3.0 / (2.0 * (2.0 - b)), B3=-(2.0 - b) / (3.0 - 2.0 * b))


def log_diff_bounds_via_psi(beta: "float | BetaParam") -> tuple[float, float]:
    """log_diff_bounds recomputed through the generic Psi pipeline."""
    b = beta_value(beta)
    inputs = psi_inputs_log(b)
    scale = 1.0 / (2.0 * (2.0 - b))
    return -scale * psi_minus_bound(inputs), scale * psi_plus_bound(inputs)


def inverse_log_diff_bounds_via_psi(beta: "float | BetaParam") -> tuple[float, float]:
    """inverse_log_diff_bounds recomputed through the generic Psi pipeline."""
    b = beta_value(beta)
    inputs = psi_inputs_inverse_log(b)
    scale = 1.0 / (2.0 * (2.0 - b))
    return -scale * psi_minus_bound(inputs), scale * psi_plus_bound(inputs)


def inverse_coeffs(a2: complex, a3: complex) -> tuple[complex, complex]:
    """Taylor coefficients (A2, A3) of the inverse function."""
    return -a2, -a3 + 2.0 * a2 * a2


# -- Extremal function and area functionals --


def boundary_series_euler(beta: "float | BetaParam", terms: int = 64) -> float:
    """f(-1) via Euler-accelerated summation of the alternating series.

    Independent cross-check for extremal_at_minus_one; the raw series
    converges only like an alternating harmonic series, but the Euler
    transform of its smooth terms converges geometrically.
    """
    b = beta_value(beta, strict=True)
    d = np.array([extremal_coeff(n, b) for n in range(1, terms + 2)])
    # f(-1) = -sum_{k>=0} (-1)^k d[k]  (d[k] = a_{k+1});  Euler transform:
    # sum (-1)^k d_k = sum_k (-1)^k (Delta^k d)_0 / 2^{k+1}.
    total = 0.0
    sign = 1.0
    for k in range(terms):
        total += sign * d[0] / 2.0 ** (k + 1)
        d = d[1:] - d[:-1]
        sign = -sign
    return -total


def hat_f_by_ulp(N: int, beta: "BetaParam | float", r: float) -> float:
    """abeta.radii.hat_f stopping at the first term below half an ulp of
    the total, where the library stops at the first term the sum rounds away."""
    b = beta_value(beta)
    if N <= 2:
        return 0.0 if N == 1 else r
    total = r
    for n in range(2, N):
        term = 2.0 / ((1.0 - b) * n + b) * r ** n
        if term < 0.5 * math.ulp(total):
            break
        total += term
    return total


# The radius equation and its evaluators as they stood before their
# per-call work was trimmed, copied unchanged but for their names: every
# float operation that reaches a result is the same, so the library must
# give the same bits, and the same error for an invalid argument.


def reference_too_long(series: str, r: float) -> ConvergenceError:
    return ConvergenceError(
        f"{series} at r = {r}: tail bound above tolerance {TOLERANCE:.3e} "
        f"within the cap of {MAX_TERMS} terms"
    )


def reference_eval_extremal(r: float, beta: "BetaParam | float") -> float:
    """abeta.extremal.eval_extremal with its estimate clamped by max() and
    its series sized by an upward then a downward walk."""
    if not abs(r) < 1.0:
        raise ValueError(f"|r| must be < 1, got {r}")
    b = beta_value(beta)
    q = abs(r)
    if q == 0.0:
        return 0.0
    s = 1.0 - b
    log_inv_q = -math.log(q)
    a = math.log(2.0 / (TOLERANCE * (1.0 - q)))
    n = max(math.ceil((a - math.log(s * a / log_inv_q + b)) / log_inv_q), 1)
    while n <= MAX_TERMS and 2.0 / (s * (n + 1) + b) * q**n / (1.0 - q) > TOLERANCE:
        n += 1
    if n > MAX_TERMS:
        raise reference_too_long("extremal series", r)
    while n > 1 and 2.0 / (s * n + b) * q ** (n - 1) / (1.0 - q) <= TOLERANCE:
        n -= 1
    # term n is 2 r^n / d with d = s n + b, stepped from d = 1 at n = 1.
    total, power, d = 0.0, r, 1.0
    for _ in range(n - 1):
        power *= r
        d += s
        total += power / d
    return r + 2.0 * total


def reference_area_majorant(r: float, beta: "BetaParam | float") -> float:
    """abeta.extremal.area_majorant with a call per tail bound."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    b = beta_value(beta)
    x = r * r
    if x == 0.0:
        return 0.0
    s = 1.0 - b
    log_inv_x = -math.log(x)
    a = math.log(4.0 / (TOLERANCE * (1.0 - x)))
    k = a / log_inv_x
    n = max(math.ceil((a + math.log(k / (s * k + b) ** 2)) / log_inv_x - 1.0), 1)
    while n <= MAX_TERMS and reference_area_tail(n, s, b, x) > TOLERANCE:
        n += 1
    if n > MAX_TERMS:
        raise reference_too_long("area series", r)
    while n > 1 and reference_area_tail(n - 1, s, b, x) <= TOLERANCE:
        n -= 1
    # term j is 4 j x^j / d^2 with d = s j + b, stepped from d = 1 at j = 1.
    total, power, j, d = 0.0, x, 1.0, 1.0
    for _ in range(n - 1):
        power *= x
        j += 1.0
        d += s
        total += j * power / (d * d)
    return x + 4.0 * total


def reference_area_tail(n: int, s: float, b: float, x: float) -> float:
    """Bound on the area series beyond its n-th term (x = r^2, s = 1 - beta)."""
    # Ratio test: t_{k+1}/t_k <= x * (n+2)/(n+1) < q for every k > n.
    q = x * (n + 1) / n
    if q >= 1.0:
        return math.inf
    return 4.0 * (n + 1) / (s * (n + 1) + b) ** 2 * x ** (n + 1) / (1.0 - q)


def reference_hat_f(N: int, beta: "BetaParam | float", r: float) -> float:
    """abeta.radii.hat_f with 1 - beta formed once per term."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    b = beta_value(beta)
    if N <= 2:
        return 0.0 if N == 1 else r
    total = r
    for n in range(2, N):
        term = 2.0 / ((1.0 - b) * n + b) * r ** n  # extremal_coeff(n, b) * r ** n
        if total + term == total:
            break
        total += term
    return total


def reference_lead(self: RadiusProblem, r: float) -> float:
    """RadiusProblem.lead over reference_eval_extremal."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if self.variant is Variant.BOHR_SCHWARZ:
        return r ** (self.p * self.m)
    try:
        return reference_eval_extremal(r ** self.m, self.beta) ** self.p
    except OverflowError:  # a float power beyond the largest double
        return math.inf


def reference_equation(self: RadiusProblem, r: float) -> float:
    """RadiusProblem.equation with f(r) evaluated apart from the lead and
    hat_f called at every start."""
    beta = self.beta
    lead = reference_lead(self, r)
    # F == 0 skips the area bound, whose F value is 0 anyway.
    area = 0.0 if self.F.is_zero else self.F(reference_area_majorant(r, beta))
    return (
        lead + reference_eval_extremal(r, beta) - reference_hat_f(self.start, beta, r)
        + area - self.level
    )


def reference_solve_radius(problem: RadiusProblem, tol: float = DEFAULT_TOL) -> RootResult:
    """abeta.radii.solve_radius with its probes behind one closure and its
    clamps, bracket ends and step length taken by min, max and abs."""
    if not _MIN_TOL <= tol <= _MAX_TOL:
        raise ValueError(f"tol: must lie in [{_MIN_TOL:g}, {_MAX_TOL:g}], got {tol}")
    eq = problem.equation
    evaluations = 0

    def value(r: float, inf_ok: bool = False) -> float:
        nonlocal evaluations
        evaluations += 1
        y = eq(r)
        if not (math.isfinite(y) or (inf_ok and y == math.inf)):
            raise BracketError(f"equation value at r = {r!r} is {y}, not finite")
        return y

    low = min(tol, 1e-6)
    lo, flo = 0.0, -problem.level
    hi = problem.level ** (1.0 / (problem.p * problem.m))
    if hi <= 1e-6:
        lo, hi = low, hi if hi > low else 0.5
        flo = value(lo)
        if flo >= 0.0:
            raise BracketError(
                f"equation is nonnegative at r = {lo!r} (tol = {tol!r}): "
                "no root the solver can resolve"
            )

    hi = min(hi, 0.5)
    fhi = value(hi, inf_ok=True)
    while fhi <= 0.0:
        if hi >= _UPPER_CAP:
            raise BracketError(
                f"no sign change found below {_UPPER_CAP}; equation stuck at {fhi}"
            )
        if fhi < 0.0:
            lo, flo = hi, fhi
        hi = min(1.0 - 0.5 * (1.0 - hi), _UPPER_CAP)
        fhi = value(hi, inf_ok=True)
    while fhi == math.inf:
        if hi - lo <= tol:
            raise BracketError(f"equation is +inf down to r = {hi!r}: no finite bracket")
        x = 0.5 * (lo + hi)
        fx = value(x, inf_ok=True)
        if fx < 0.0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx

    # Chandrupatla's hybrid (Adv. Eng. Software 28(3), 1997): a is the
    # latest point, b the other end of the bracket and c the point a or b
    # replaced.  Each step goes a fraction t of the way from a to b: the
    # secant through a and b first, then the inverse quadratic through a, b
    # and c where his test finds it monotone, else t = 1/2.  Clamping t to
    # [tl, 1 - tl] keeps each step tol/2 inside the bracket, so once a is
    # within tol/2 of the root the next step crosses it and the bracket
    # closes.  A bisection step is forced after SAFEGUARD_STEPS - 1 steps
    # that have not halved the bracket, so a run takes at most
    # SAFEGUARD_STEPS * ceil(log2(width / tol)) steps after bracketing.
    inset = 0.25 * tol
    a, fa, b, fb = hi, fhi, lo, flo
    t = fa / (fa - fb)
    halved_at, stalled = hi - lo, 0
    while True:
        if fa == 0.0:  # an exact zero, from a bisection or a step
            lo, hi = a - inset, a + inset
            flo, fhi = value(lo), value(hi)
            if not flo < 0.0 < fhi:
                raise BracketError(
                    f"no sign change around the exact zero at r = {a!r}: "
                    f"values {flo} and {fhi}"
                )
            break
        lo, hi = min(a, b), max(a, b)
        if hi - lo <= tol:
            break
        if t == 0.5:
            x = 0.5 * (lo + hi)
        else:
            tl = 0.5 * tol / (hi - lo)
            x = a + min(max(t, tl), 1.0 - tl) * (b - a)
        x = min(max(x, lo + inset), hi - inset)
        fx = value(x)
        if (fx < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = x, fx
        if abs(b - a) <= 0.5 * halved_at:
            halved_at, stalled = abs(b - a), 0
        else:
            stalled += 1
        # fc has the sign of fa, so every denominator below is nonzero
        # once the test passes (it fails for fc == fa).
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        t = 0.5
        if stalled < SAFEGUARD_STEPS - 1 and phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (
                (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            )

    if lo < low:
        flo = value(low)
        if flo >= 0.0 or hi <= low:
            raise BracketError(
                f"equation is nonnegative at r = {low if flo >= 0.0 else hi!r} "
                f"(tol = {tol!r}): no root the solver can resolve"
            )
        lo = low

    iterations = evaluations
    root = 0.5 * (lo + hi)
    return RootResult(
        root=root,
        bracket=(lo, hi),
        residual=value(root),
        iterations=iterations,
    )


def monotone_spot_check(F: Callable[[float], float], grid_points: int = 32) -> bool:
    """Cheap sanity check that F(0) = 0 and F is nondecreasing on a grid."""
    if abs(F(0.0)) > 1e-14:
        return False
    ws = [4.0 * k / (grid_points - 1) for k in range(grid_points)]
    vals = [F(w) for w in ws]
    return all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


# -- Seeded Herglotz measures --


def reference_sample_measure(num_atoms: int, seed, row: int = 0) -> HerglotzMeasure:
    """Row `row` of one ``default_rng(seed).random((row + 1, 2 * num_atoms))``
    draw, with no ``advance``: the first num_atoms doubles u of the row give
    exponentials -log1p(-u), normalised by their sum taken left to right in
    a Python loop, and the rest give the angles 2 pi u.  The stream that
    abeta.verify.sample_measure and the sweep's blocks reproduce."""
    u = np.random.default_rng(seed).random((row + 1, 2 * num_atoms))[row]
    exponentials = -np.log1p(-u[:num_atoms])
    total = 0.0
    for e in exponentials.tolist():
        total += e
    return HerglotzMeasure(exponentials * (1.0 / total), TWO_PI * u[num_atoms:])


def reference_caratheodory(mu: HerglotzMeasure, order: int = DEFAULT_ORDER) -> np.ndarray:
    """c_1..c_order of one measure as a single matrix-vector product."""
    return 2.0 * np.exp(1j * np.outer(np.arange(1, order + 1), mu.angles)) @ mu.weights


# -- Truncated power series (coefficient arrays c_0..c_N) and members --


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated to the shorter operand."""
    return np.convolve(a, b)[: min(len(a), len(b))]


def series_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Long division truncated to the shorter operand.

    Requires den[0] != 0; satisfies series_mul(result, den) == num through
    the shared order.
    """
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if den[0] == 0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    q = np.zeros(min(num.size, den.size), dtype=complex)
    for k in range(q.size):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * q[k - j]
        q[k] = acc / den[0]
    return q


def identity_member(beta: "float | BetaParam", order: int = DEFAULT_ORDER) -> ClassMember:
    """f(z) = z, generated by p == 1."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    return ClassMember.from_caratheodory(c, beta)


def normalized_area(member: ClassMember, r: float) -> float:
    """S_r/pi = sum n |a_n|^2 r^{2n}, by the sweep's row evaluator."""
    return float(_normalized_area_rows(member.a[None], r)[0])


def generator_real_part(member: ClassMember, z: complex) -> float:
    """Re(beta*f(z)/z + (1-beta)*f'(z)) = Re p(z), by the truncated series.

    The z^{n-1} coefficient of beta*f/z + (1-beta)*f' is
    ((1-beta)*n + beta) * a_n.
    """
    b = member.beta.value
    n = np.arange(1, member.a.size + 1, dtype=float)
    p = ((1.0 - b) * n + b) * member.a
    return float(np.polynomial.polynomial.polyval(z, p).real)


# -- The command line's parse, by the top-level parser for every argv --


def cli_main_full_parse(argv=None) -> int:
    """cli.main as it ran before known subcommands skipped the top-level
    parser: a fresh parser tree parses every argv from the top.  argparse
    reaches a subparser through its parse_known_args, so no flag table of
    cli._Parser.parse_args is read."""
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (cli.CliError, ValueError, BracketError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def argparse_namespace(subparser, argv) -> argparse.Namespace:
    """The namespace argparse itself parses from argv, past the flag table
    that cli._Parser.parse_args reads a plain argv from (the `--flag=--`
    reading of cli._Parser._get_values still applies)."""
    return argparse.ArgumentParser.parse_args(subparser, argv)


# -- The command line's writers, by the standard library's encoders alone --


def json_document(doc) -> str:
    """The JSON cli._write prints for doc, by the pure-Python encoder that
    indent=2 selects."""
    return json.dumps(doc, indent=2) + "\n"


def csv_rows(rows) -> str:
    """The CSV cli._write prints for rows: a header of the first row's keys,
    then every row through csv.writer, one cli._cell per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(rows[0].keys())
    writer.writerows([cli._cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()
