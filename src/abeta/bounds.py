"""Sharp closed-form coefficient bounds for the beta-filtration class.

Covers the Fekete-Szego functional |a3 - mu*a2^2| (via the Caratheodory
functional bound |c2 - v*c1^2|), the difference of moduli of logarithmic
coefficients of class members and of their inverses (via the Psi+/Psi-
functional bounds), and the extraction maps from (a2, a3) to the
logarithmic coefficient pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremal import beta_value


@dataclass(frozen=True)
class LogCoeffPair:
    """First two logarithmic coefficients (of a member or of its inverse)."""

    first: complex
    second: complex

    @property
    def moduli_difference(self) -> float:
        """|second| - |first|, the quantity the sharp bounds control."""
        return complex_modulus(self.second) - complex_modulus(self.first)


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


def _fs_threshold(b: float) -> float:
    return (2.0 - b) ** 2 / (3.0 - 2.0 * b)


def fekete_szego_bound(mu: float, beta: "float | object") -> float:
    """Sharp bound on |a3 - mu*a2^2| for real mu.

    Equals ma_minda_bound(mu*(3-2*beta)/(2-beta)^2) / (3-2*beta); the
    explicit piecewise form below is asserted against that reduction in
    the tests.
    """
    if isinstance(mu, complex):
        raise TypeError("mu must be real")
    b = beta_value(beta)
    first = ((8.0 - 12.0 * mu) + (8.0 * mu - 8.0) * b + 2.0 * b * b) / (
        (3.0 - 2.0 * b) * (2.0 - b) ** 2
    )
    if mu < 0.0:
        return first
    if mu <= _fs_threshold(b):
        return 2.0 / (3.0 - 2.0 * b)
    return -first


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


# Complex products and moduli of member coefficients are written out in real
# arithmetic, so a block of members (numpy arrays) rounds exactly as one
# member (CPython complex scalars) does: numpy's complex multiply may fuse a
# product into the sum, and its complex abs is not libm's hypot.
def complex_product(z, w):
    """z * w for complex scalars or arrays."""
    return (z.real * w.real - z.imag * w.imag) + (z.real * w.imag + z.imag * w.real) * 1j


def complex_modulus(z):
    """|z| for complex scalars or arrays."""
    return np.hypot(z.real, z.imag)


def fekete_szego_functional(a2, a3, mu: float):
    """|a3 - mu*a2^2|, for complex scalars or arrays of (a2, a3)."""
    return complex_modulus(a3 - complex_product(mu * a2, a2))


def log_coeffs(a2: complex, a3: complex) -> LogCoeffPair:
    """First two logarithmic coefficients of a member from (a2, a3).

    a2 and a3 may also be arrays, one entry per member.
    """
    return LogCoeffPair(first=a2 / 2.0, second=(a3 - complex_product(a2, a2) / 2.0) / 2.0)


def inverse_coeffs(a2: complex, a3: complex) -> tuple[complex, complex]:
    """Taylor coefficients (A2, A3) of the inverse function."""
    return -a2, -a3 + 2.0 * a2 * a2


def inverse_log_coeffs(a2: complex, a3: complex) -> LogCoeffPair:
    """First two logarithmic coefficients of the inverse from (a2, a3),
    which may also be arrays."""
    return LogCoeffPair(first=-a2 / 2.0, second=-(a3 - complex_product(1.5 * a2, a2)) / 2.0)


def _psi_inputs_log(b: float) -> PsiInputs:
    return PsiInputs(B1=1.0, B2=-1.0 / (2.0 * (2.0 - b)), B3=(2.0 - b) / (3.0 - 2.0 * b))


def _psi_inputs_inverse_log(b: float) -> PsiInputs:
    return PsiInputs(B1=1.0, B2=3.0 / (2.0 * (2.0 - b)), B3=-(2.0 - b) / (3.0 - 2.0 * b))


def log_diff_bounds(beta: "float | object") -> tuple[float, float]:
    """Sharp range of |gamma2| - |gamma1| over the class.

    Returns (-1/sqrt(5 - 6*beta + 2*beta^2), 1/(3 - 2*beta)); identical
    to the Psi pipeline with the inputs of _psi_inputs_log scaled by
    1/(2*(2-beta)), which the tests assert.
    """
    b = beta_value(beta)
    lower = -1.0 / math.sqrt(5.0 - 6.0 * b + 2.0 * b * b)
    upper = 1.0 / (3.0 - 2.0 * b)
    return lower, upper


def inverse_log_diff_bounds(beta: "float | object") -> tuple[float, float]:
    """Sharp range of |Gamma2| - |Gamma1| for inverse functions.

    The stated upper bound switches branch exactly at beta = 1, where
    both expressions evaluate to 1; the continuous branch 1/(3-2*beta)
    is therefore used on all of [0, 1].
    """
    b = beta_value(beta)
    lower = -1.0 / math.sqrt(3.0 * (3.0 - 2.0 * b))
    upper = 1.0 / (3.0 - 2.0 * b)
    return lower, upper


def log_diff_bounds_via_psi(beta: "float | object") -> tuple[float, float]:
    """log_diff_bounds recomputed through the generic Psi pipeline."""
    b = beta_value(beta)
    inputs = _psi_inputs_log(b)
    scale = 1.0 / (2.0 * (2.0 - b))
    return -scale * psi_minus_bound(inputs), scale * psi_plus_bound(inputs)


def inverse_log_diff_bounds_via_psi(beta: "float | object") -> tuple[float, float]:
    """inverse_log_diff_bounds recomputed through the generic Psi pipeline."""
    b = beta_value(beta)
    inputs = _psi_inputs_inverse_log(b)
    scale = 1.0 / (2.0 * (2.0 - b))
    return -scale * psi_minus_bound(inputs), scale * psi_plus_bound(inputs)
