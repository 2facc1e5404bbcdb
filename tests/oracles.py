"""Reference implementations the tests compare the library against.

Each one recomputes a quantity by a different route from the library's
(the generic Psi pipeline behind the closed-form logarithmic bounds, Euler
summation of the boundary series, the radius equation in closed form, long
division of power series, ...), so none of them is needed by the library
itself.  The radius equation's truth comes with the error bounds its
evaluators state, which the truth checks assert.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from abeta import cli
from abeta.extremal import TOLERANCE, BetaParam, ConvergenceError, beta_value, extremal_coeff
from abeta.radii import BracketError, RadiusProblem, Variant
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


# -- The radius equation in closed form, to 34 digits --
#
# With s = 1 - beta and d_n = 1 + s (n - 1), a_n = 2 / d_n for n >= 2, and the
# sums the library truncates have closed forms that share none of its code:
#   sum_{n>=N} a_n r^n = (2 r^N / d_N) 2F1(1, A; A + 1; r), A = d_N / s, so that
#     f(r) = r (2 2F1(1, 1/s; 1 + 1/s; r) - 1);
#   f(-1) = -1 + [psi((a + 1)/2) - psi(a/2)] / s, a = 2 + beta/s (DLMF 5.15.1 on
#     -1 + (2/s) sum_{j>=0} (-1)^j / (j + a));
#   x + sum_{n>=2} 4 n x^n / (s n + beta)^2 = 4 x 3F2(2, v, v; v + 1, v + 1; x) - 3 x,
#     v = 1/s, as 4 n / (s n + beta)^2 = 4 (k + 1) v^2 / (k + v)^2 with k = n - 1;
# at beta = 1 (s = 0) the two sums are 2 r^N / (1 - r) and 4 x / (1 - x)^2 - 3 x.


def _hyper(power: int, A, z) -> mpmath.mpf:
    """sum_{k>=0} (k + 1)^(power - 1) (A / (A + k))^power z^k for z < 1: the 2F1
    above at power 1 and the 3F2 at power 2.  Past z = 0.8 mpmath's 2F1 slows
    as A (1 - z) grows and its 3F2 sums term by term, so there (A / (A + k))^power
    = int_0^inf w^(power - 1) e^{-w (1 + k/A)} dw gives a smooth quadrature."""
    if z > 0.8:
        return mpmath.quad(
            lambda w: w ** (power - 1) * mpmath.exp(-w) / (1 - z * mpmath.exp(-w / A)) ** power, [0, mpmath.inf]
        )
    return mpmath.hyper([power] + [A] * power, [A + 1] * power, z, maxterms=10**6)


@functools.cache
@mpmath.workdps(34)
def true_tail(N: int, beta: float, r) -> mpmath.mpf:
    """sum_{n>=N} a_n r^n of the extremal function, N >= 1 (a_1 = 1): f(r) at N = 1."""
    s, r = 1 - mpmath.mpf(beta), mpmath.mpf(r)
    d = 1 + s * (N - 1)
    total = 2 * r**N / (1 - r) if s == 0 else 2 * r**N / d * _hyper(1, d / s, r)
    return total - r if N == 1 else total


def true_f(r, beta: float) -> mpmath.mpf:
    return true_tail(1, beta, r)


@functools.cache
@mpmath.workdps(34)
def true_head(N: int, beta: float, r: float) -> mpmath.mpf:
    """sum_{n<N} a_n r^n, term by term."""
    s, r = 1 - mpmath.mpf(beta), mpmath.mpf(r)
    return mpmath.fsum([r] + [2 * r**n / (1 + s * (n - 1)) for n in range(2, N)]) if N > 1 else r * 0


@functools.cache
@mpmath.workdps(34)
def true_f_minus_one(beta: float) -> mpmath.mpf:
    s = 1 - mpmath.mpf(beta)
    a = 2 + mpmath.mpf(beta) / s
    return -1 + (mpmath.digamma((a + 1) / 2) - mpmath.digamma(a / 2)) / s


@functools.cache
@mpmath.workdps(34)
def true_area(r: float, beta: float) -> mpmath.mpf:
    """r^2 + sum_{n>=2} 4 n / (s n + beta)^2 r^{2n}, the sum area_majorant bounds."""
    x, s = mpmath.mpf(r) ** 2, 1 - mpmath.mpf(beta)
    return 4 * x * (1 / (1 - x) ** 2 if s == 0 else _hyper(2, 1 / s, x)) - 3 * x


@mpmath.workdps(34)
def true_equation(problem: RadiusProblem, r: float) -> mpmath.mpf:
    """problem.equation(r): lead + sum_{n>=start} a_n r^n + F(area sum) + f(-1)."""
    beta, r_m = problem.beta.value, mpmath.mpf(r) ** problem.m
    lead = r_m**problem.p if problem.variant is Variant.BOHR_SCHWARZ else true_f(r_m, beta) ** problem.p
    area = problem.F(true_area(r, beta)) if any(problem.F.lambdas) else 0
    return lead + true_tail(problem.start, beta, r) + area + true_f_minus_one(beta)


# -- The error bounds the evaluators state --
#
# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), 3.1 and
# 4.2: k roundings (1 + delta)^{+-1}, |delta| <= u = 2^-53, make 1 + theta_k,
# |theta_k| <= gamma_k = k u / (1 - k u), and a sum of positive terms, each
# within 1 + theta_j and summed by k more roundings, is within gamma_{j+k}
# of its value times that value.  pow is within an ulp: two roundings.

U = 2.0**-53


def gamma(k: int) -> mpmath.mpf:
    return mpmath.mpf(k) * U / (1 - k * U)


def extremal_length(q: float) -> int:
    """Most terms eval_extremal sums at |r| = q in (0, 1): it stops at the
    least n with tail bound a_{n+1} q^n / (1 - q) <= TOLERANCE, and as
    a_{n+1} <= 2, every n >= log(2 / (TOLERANCE (1 - q))) / log(1/q) has one."""
    return max(1, math.ceil(math.log(2 / (TOLERANCE * (1 - q))) / -math.log(q)))


def extremal_bound(r: float, beta: float) -> mpmath.mpf:
    """eval_extremal's error: truncation TOLERANCE |r|, scaled by 1 + gamma_9
    for the tail test's own roundings (seven, s = 1 - beta's among them, and
    pow's two), plus rounding.  Term k of n, r^k after k - 1 products over
    s k + beta after k - 1 sums and s, is within theta_{2k}; n - 2 sums and
    the sum with r add n - 1: gamma_{3n} f(|r|)."""
    q = abs(r)
    if q == 0.0:
        return mpmath.mpf(0)
    return TOLERANCE * q * (1 + gamma(9)) + gamma(3 * extremal_length(q)) * true_f(q, beta)


def area_length(x: float) -> int:
    """Most terms area_majorant sums at x = r^2 in (0, 1): its least n has
    tail bound 4 (n+1) x^{n+1} / ((s (n+1) + beta)^2 (1 - x (n+1)/n)) <=
    TOLERANCE, and with s (n+1) + beta >= 1, 1 - x (n+1)/n >= (1 - x)/2 for
    n >= 2 / (1 - x), and (n+1) x^{(n+1)/2} <= 2 / (e L), L = log(1/x), every
    such n with (n+1) L / 2 >= log(16 / (e L (1 - x) TOLERANCE)) has one."""
    L = -math.log(x)
    return max(math.ceil(2 / (1 - x)), math.ceil(2 * math.log(16 / (math.e * L * (1 - x) * TOLERANCE)) / L))


def area_bound(r: float, beta: float) -> mpmath.mpf:
    """area_majorant's error: truncation TOLERANCE, scaled by 1 + gamma_{n+12}
    for the tail test's roundings and its x^{n+1} at the rounded x = r r,
    plus rounding.  x^j is within theta_{2j-1}, (s j + beta)^2 within
    theta_{2j+1}, and j x^j / (s j + beta)^2 adds two; n - 2 sums and the
    sum with x add n - 1: gamma_{5n+1} times the sum."""
    x = r * r
    n = area_length(x) if x > 0.0 else 1
    return TOLERANCE * (1 + gamma(n + 12)) + gamma(5 * n + 1) * true_area(r, beta)


def head_bound(N: int, head) -> mpmath.mpf:
    """hat_f's error on a head of that value: each term is within theta_7 and
    at most N - 2 sums add N - 2; the terms left after the first one adding
    would round away (at most u times the total) are smaller, N u (1 +
    gamma_7) times the total at most.  In all gamma_{2N+6} times the head."""
    return gamma(2 * N + 6) * head


@mpmath.workdps(34)
def equation_bound(problem: RadiusProblem, r: float) -> mpmath.mpf:
    """problem.equation's error at r: the bounds of its terms, then gamma_4
    times the sum of their moduli for its four additions.
    - The lead is r^{pm} with p m rounded, or f(r^m)^p with r^m rounded and
      f within extremal_bound; pow is within an ulp, or underflows.
    - F(w) of a monotone polynomial moves by F(A + e) - F(A) for |w - A| <= e,
      and its k Horner steps by gamma_{2k} F (Higham, section 5.1).
    - extremal_at_minus_one omits less than 1e-17 of its series, and fewer
      than 32 roundings reach any of its terms, whose moduli sum to at most
      1 + 2 (1 + f(-1)): its tail's asymptotic terms are below 1.3% of t."""
    beta, p, mp = problem.beta.value, problem.p, mpmath.mpf
    if problem.variant is Variant.BOHR_SCHWARZ:
        exponent = mp(p) * problem.m
        lead, lo, hi = (mp(r) ** (exponent * k) for k in (1, 1 + U, 1 - U))
    else:
        x = r**problem.m
        base, err = true_f(x, beta), extremal_bound(x, beta)
        lead = true_f(mp(r) ** problem.m, beta) ** p
        lo, hi = max(base - err, 0) ** p, (base + err) ** p
    lo, hi = lo * (1 - 2 * U) - 2.0**-1074, hi * (1 + 2 * U)
    f_r, level = true_f(r, beta), -true_f_minus_one(beta)
    bound = max(hi - lead, lead - lo) + extremal_bound(r, beta)
    bound += head_bound(problem.start, f_r - true_tail(problem.start, beta, r)) if problem.start > 2 else 0
    area = 0
    if any(problem.F.lambdas):
        w, e = true_area(r, beta), area_bound(r, beta)
        area = problem.F(w + e)
        bound += area - problem.F(w) + gamma(2 * len(problem.F.lambdas)) * area
    bound += 1e-17 + gamma(32) * (3 - 2 * level)
    return bound + gamma(4) * (hi + 2 * f_r + area + level + bound)


def bisect_oracle(fn: Callable[[float], float], lo: float = 1e-12, hi: float = 0.999999) -> float:
    """Root of fn by 200 plain bisection steps, independent of the library solver."""
    assert fn(lo) < 0 < fn(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fn(mid) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


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
