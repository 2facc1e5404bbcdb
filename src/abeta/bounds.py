"""Sharp closed-form coefficient bounds for the beta-filtration class.

Covers the Fekete-Szego functional |a3 - mu*a2^2|, the difference of
moduli of logarithmic coefficients of class members and of their inverses,
and the extraction maps from (a2, a3) to the logarithmic coefficient
pairs.  `tests/oracles.py` derives each closed form again from the
Caratheodory functional bounds it reduces to (|c2 - v*c1^2| and Psi+/Psi-).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .extremal import beta_value


class LogCoeffPair(namedtuple("LogCoeffPair", "first second")):
    """First two logarithmic coefficients (of a member or of its inverse)."""

    __slots__ = ()

    @property
    def moduli_difference(self) -> float:
        """|second| - |first|, the quantity the sharp bounds control."""
        return complex_modulus(self.second) - complex_modulus(self.first)


def _fs_threshold(b: float) -> float:
    return (2.0 - b) ** 2 / (3.0 - 2.0 * b)


def fekete_szego_bound(mu: float, beta: "float | object") -> float:
    """Sharp bound on |a3 - mu*a2^2| for real mu.

    Equals the sharp bound on |c2 - v*c1^2| over the Caratheodory class at
    v = mu*(3-2*beta)/(2-beta)^2, divided by 3-2*beta; the explicit
    piecewise form below is asserted against that reduction in the tests.
    Raises ValueError, naming mu first, when mu or the bound is not a
    finite double (12*mu overflows from mu of about 1.5e307).
    """
    if isinstance(mu, complex):
        raise TypeError("mu must be real")
    if not math.isfinite(mu):
        raise ValueError(f"mu: must be finite, got {mu!r}")
    b = beta_value(beta)
    if 0.0 <= mu <= _fs_threshold(b):
        return 2.0 / (3.0 - 2.0 * b)
    first = ((8.0 - 12.0 * mu) + (8.0 * mu - 8.0) * b + 2.0 * b * b) / (
        (3.0 - 2.0 * b) * (2.0 - b) ** 2
    )
    bound = first if mu < 0.0 else -first
    if not math.isfinite(bound):
        raise ValueError(f"mu: the bound overflows a double at mu = {mu!r}")
    return bound


# Complex products and moduli of member coefficients are written out in real
# arithmetic, so a block of members (numpy arrays) rounds exactly as one
# member (CPython complex scalars) does: numpy's complex multiply may fuse a
# product into the sum, and its complex abs is not libm's hypot.
def complex_product(z, w):
    """z * w for complex scalars or arrays."""
    return (z.real * w.real - z.imag * w.imag) + (z.real * w.imag + z.imag * w.real) * 1j


def complex_modulus(z):
    """|z| for complex scalars or arrays."""
    import numpy as np  # here, not at the top: no radius or bound command calls this

    return np.hypot(z.real, z.imag)


def fekete_szego_functional(a2, a3, mu: float):
    """|a3 - mu*a2^2|, for complex scalars or arrays of (a2, a3)."""
    return complex_modulus(a3 - complex_product(mu * a2, a2))


def log_coeffs(a2: complex, a3: complex) -> LogCoeffPair:
    """First two logarithmic coefficients of a member from (a2, a3).

    a2 and a3 may also be arrays, one entry per member.
    """
    return LogCoeffPair(first=a2 / 2.0, second=(a3 - complex_product(a2, a2) / 2.0) / 2.0)


def inverse_log_coeffs(a2: complex, a3: complex) -> LogCoeffPair:
    """First two logarithmic coefficients of the inverse from (a2, a3),
    which may also be arrays."""
    return LogCoeffPair(first=-a2 / 2.0, second=-(a3 - complex_product(1.5 * a2, a2)) / 2.0)


def log_diff_bounds(beta: "float | object") -> tuple[float, float]:
    """Sharp range of |gamma2| - |gamma1| over the class.

    Returns (-1/sqrt(5 - 6*beta + 2*beta^2), 1/(3 - 2*beta)); identical
    to the Psi pipeline scaled by 1/(2*(2-beta)), which the tests assert.
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
