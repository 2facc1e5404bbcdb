"""Truncated power-series arithmetic and Caratheodory-to-member conversion.

A :class:`TruncatedSeries` holds coefficients c_0..c_N of a power series
truncated at order N.  Products and quotients carry the minimum of the
operand orders, so truncation error never silently leaks into higher
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extremal import beta_value

DEFAULT_ORDER = 64


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series c_0 + c_1 z + ... + c_N z^N known through order N."""

    coeffs: np.ndarray = field()

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __getitem__(self, n: int) -> complex:
        return complex(self.coeffs[n])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def eval(self, z: complex) -> complex:
        """Horner evaluation of the truncated polynomial."""
        acc = 0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the minimum operand order."""
    order = min(a.order, b.order)
    full = np.convolve(a.coeffs, b.coeffs)
    return TruncatedSeries(full[: order + 1])


def series_div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Long division truncated to the minimum operand order.

    Requires den.c_0 != 0; satisfies series_mul(result, den) == num
    through the shared order.
    """
    if den.coeffs[0] == 0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    order = min(num.order, den.order)
    q = np.zeros(order + 1, dtype=complex)
    d0 = den.coeffs[0]
    for k in range(order + 1):
        acc = num.coeffs[k] if k <= num.order else 0j
        jmax = min(k, den.order)
        for j in range(1, jmax + 1):
            acc -= den.coeffs[j] * q[k - j]
        q[k] = acc / d0
    return TruncatedSeries(q)


def caratheodory_to_member(
    c: TruncatedSeries, beta: "float | object"
) -> np.ndarray:
    """Taylor coefficients a_1..a_{N+1} of the class member generated by p.

    The defining relation beta*f(z)/z + (1-beta)*f'(z) = p(z) matches the
    z^{n-1} coefficient as (beta + (1-beta)*n) * a_n = c_{n-1}, i.e.
    a_n = c_{n-1} / (n - beta*(n-1)) for n >= 2, with a_1 = 1 forced by
    the normalization p(0) = 1.  (Derivation in docs/coefficients.md.)

    The returned array stores a_{k+1} at index k.
    """
    if c[0] != 1:
        raise ValueError(f"Caratheodory series must have c_0 = 1, got {c[0]}")
    return transport_rows(c.coeffs, beta)


def transport_rows(c: np.ndarray, beta: "float | object") -> np.ndarray:
    """:func:`caratheodory_to_member` along the last axis of c_0..c_N rows.

    c_0 = 1 is taken as given; index k of each returned row holds a_{k+1}.
    """
    b = beta_value(beta)
    n = np.arange(2, c.shape[-1] + 1, dtype=float)
    a = np.empty(c.shape, dtype=complex)
    a[..., 0] = 1.0
    a[..., 1:] = c[..., 1:] / ((1.0 - b) * n + b)
    return a
