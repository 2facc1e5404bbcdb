"""Evaluation of the extremal member of the beta-filtration class.

The extremal function is the power series

    f(z) = z + sum_{n>=2} 2/((1-beta)*n + beta) * z^n,

which attains every coefficient and growth bound implemented in this
package.  All evaluators here certify their truncation error, and the
boundary value f(-1) is computed by quadrature of a smooth integrand
rather than by direct (conditionally convergent) summation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """The truncated series could not meet the requested tolerance."""


class BetaDomainError(ValueError):
    """beta lies outside the range required by the requested operation."""


@dataclass(frozen=True)
class BetaParam:
    """Filtration parameter beta in [0, 1].

    Radius computations additionally require beta < 1 (the extremal
    series diverges on the boundary at beta = 1); use
    :meth:`require_strict` to enforce that.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (0.0 <= v <= 1.0) or math.isnan(v):
            raise BetaDomainError(f"beta must lie in [0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)

    def require_strict(self) -> float:
        """Return the value, rejecting beta = 1."""
        if self.value >= 1.0:
            raise BetaDomainError(
                "beta = 1 is rejected: the boundary series of the extremal "
                "function does not converge"
            )
        return self.value


def beta_value(beta: "BetaParam | float", strict: bool = False) -> float:
    """Coerce a float or BetaParam to a validated float in [0, 1]."""
    b = beta if isinstance(beta, BetaParam) else BetaParam(float(beta))
    return b.require_strict() if strict else b.value


# Absolute truncation error target of every certified series, the hard cap
# on a series' length, and the Gauss-Laguerre nodes used for f(-1).
TOLERANCE = 1e-12
MAX_TERMS = 4_000_000
QUADRATURE_POINTS = 64


def extremal_coeff(n: int, beta: "BetaParam | float") -> float:
    """n-th Taylor coefficient of the extremal function.

    Returns 1 for n = 1 and 2/((1-beta)*n + beta) for n >= 2; the value
    is strictly decreasing in n whenever beta < 1.
    """
    if n < 1:
        raise ValueError(f"coefficient index must be >= 1, got {n}")
    if n == 1:
        return 1.0
    b = beta_value(beta)
    return 2.0 / ((1.0 - b) * n + b)


def _coeff_array(n_max: int, b: float) -> np.ndarray:
    """Coefficients a_1..a_{n_max} as an array (index k holds a_{k+1})."""
    n = np.arange(1, n_max + 1, dtype=float)
    a = 2.0 / ((1.0 - b) * n + b)
    a[0] = 1.0
    return a


def _series_length(r_abs: float, b: float) -> int:
    """Smallest doubling length N whose geometric tail bound meets tolerance.

    Tail bound: coeff(N+1) * r^{N+1} / (1 - r), valid because the
    coefficients are non-increasing in n.
    """
    if r_abs == 0.0:
        return 1
    n = 16
    while True:
        tail = extremal_coeff(n + 1, b) * r_abs ** (n + 1) / (1.0 - r_abs)
        if tail <= TOLERANCE:
            return n
        if n >= MAX_TERMS:
            raise ConvergenceError(
                f"tail bound {tail:.3e} above tolerance {TOLERANCE:.3e} "
                f"after {n} terms (r = {r_abs}, beta = {b})"
            )
        n = min(2 * n, MAX_TERMS)


def eval_extremal(r: float, beta: "BetaParam | float") -> float:
    """Value of the extremal function at real r, |r| < 1.

    The series is truncated where the certified geometric tail bound
    drops below TOLERANCE.
    """
    if not abs(r) < 1.0:
        raise ValueError(f"|r| must be < 1, got {r}")
    b = beta_value(beta)
    n_max = _series_length(abs(r), b)
    a = _coeff_array(n_max, b)
    n = np.arange(1, n_max + 1, dtype=float)
    # Powers computed in log space to stay stable for very long series.
    if r > 0:
        powers = np.exp(n * math.log(r))
    elif r < 0:
        powers = np.exp(n * math.log(-r))
        powers[::2] *= -1.0  # odd powers of a negative base
    else:
        return 0.0
    return float(np.dot(a, powers))


def extremal_at_minus_one(beta: "BetaParam | float") -> float:
    """Boundary value f(-1) of the extremal function, for beta < 1.

    Computed as the negative of the integral

        int_0^1 (1 - t^(1-beta)) / (1 + t^(1-beta)) dt.

    The substitution t = exp(-y/(1-beta)) turns this into
    int_0^inf tanh(y/2 * (1-beta)) e^{-y} dy, a smooth exponentially
    weighted integrand handled by Gauss-Laguerre quadrature uniformly
    well over beta in [0, 1).
    """
    b = beta_value(beta, strict=True)
    y, w = _laguerre_nodes()
    integral = float(np.dot(w, np.tanh(0.5 * (1.0 - b) * y)))
    return -integral


@functools.cache
def _laguerre_nodes() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(QUADRATURE_POINTS)


def area_majorant(r: float, beta: "BetaParam | float") -> float:
    """Sharp upper bound on the normalized image area at radius r.

    Returns r^2 + sum_{n>=2} 4n/((1-beta)n + beta)^2 * r^{2n} with
    certified absolute truncation error <= TOLERANCE.  Permits
    beta = 1 (the terms 4n r^{2n} still converge for r < 1).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    b = beta_value(beta)
    x = r * r
    if x == 0.0:
        return 0.0

    def term(n: float) -> float:
        return 4.0 * n / ((1.0 - b) * n + b) ** 2 * x ** n

    # Ratio test: t_{n+1}/t_n <= x * (n+1)/n for all beta in [0, 1].
    n_max = 16
    while True:
        q = x * (n_max + 1) / n_max
        if q < 1.0:
            tail = term(n_max + 1.0) / (1.0 - q)
            if tail <= TOLERANCE:
                break
        if n_max >= MAX_TERMS:
            raise ConvergenceError(
                f"area series tail above tolerance after {n_max} terms (r = {r})"
            )
        n_max = min(2 * n_max, MAX_TERMS)
    n = np.arange(2, n_max + 1, dtype=float)
    body = 4.0 * n / ((1.0 - b) * n + b) ** 2
    powers = np.exp(n * math.log(x))
    return float(x + np.dot(body, powers))


def growth_envelope(r: float, beta: "BetaParam | float") -> tuple[float, float]:
    """Sharp modulus bounds (-f(-r), f(r)) for class members on |z| <= r."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    lower = -eval_extremal(-r, beta)
    upper = eval_extremal(r, beta)
    return lower, upper
