"""Evaluation of the extremal member of the beta-filtration class.

The extremal function is the power series

    f(z) = z + sum_{n>=2} 2/((1-beta)*n + beta) * z^n,

which attains every coefficient and growth bound implemented in this
package.  All evaluators here certify their truncation error and use only
the standard library.  The boundary value f(-1) is an alternating series:
its first terms are summed directly and the rest comes from the tail's
asymptotic expansion.
"""

from __future__ import annotations

import math


class ConvergenceError(RuntimeError):
    """The truncated series could not meet the requested tolerance."""


class BetaDomainError(ValueError):
    """beta lies outside the range required by the requested operation."""


class Frozen:
    """Base of the package's immutable value types: equality, hash and repr
    over the class's `_fields`, as a frozen dataclass gives them, without
    importing dataclasses.  __init__ sets each slot with object.__setattr__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class BetaParam(Frozen):
    """Filtration parameter beta in [0, 1].

    Radius computations additionally require beta < 1 (the extremal
    series diverges on the boundary at beta = 1); use
    :meth:`require_strict` to enforce that.
    """

    __slots__ = _fields = ("value",)

    def __init__(self, value: float) -> None:
        v = float(value)
        if not (0.0 <= v <= 1.0) or math.isnan(v):
            raise BetaDomainError(f"beta must lie in [0, 1], got {value!r}")
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


# Truncation error target of every certified series (eval_extremal scales
# it by |r|), and the hard cap on a series' length.
TOLERANCE = 1e-12
MAX_TERMS = 4_000_000

# Each series stops at the least n whose tail bound, as _f_tail_meets and
# _area_tail_meets evaluate it with pow, is <= TOLERANCE; that bound falls by a
# factor below 1 - 6e-6 a term wherever a series fits MAX_TERMS.  Its loop
# tests the bound on its running power and denominator, within 2e-9 of the pow
# test for n <= MAX_TERMS (n - 1 products and n sums): it goes on while that
# test fails widened by _WIDE, stops where it passes narrowed by _NARROW, and
# lets the pow test decide in between.
_WIDE, _NARROW = 1.0 + 2.0**-27, (1.0 - 2.0**-27) / (1.0 + 2.0**-27)
# At n = MAX_TERMS the bounds are largest at beta = 1, where s (n+1) + beta =
# 1, and grow with q = |r| and x = r^2, to TOLERANCE at q = 0.9999900398 and
# x = 0.9999861441: the cap binds only above these.
_F_CAP_ABOVE, _AREA_CAP_ABOVE = 0.99999, 0.999986


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


def _too_long(series: str, r: float) -> ConvergenceError:
    return ConvergenceError(
        f"{series} at r = {r}: tail bound above tolerance {TOLERANCE:.3e} "
        f"within the cap of {MAX_TERMS} terms"
    )


def _f_tail_meets(q: float, s: float, b: float, n: int) -> bool:
    """a_{n+1} q^n / (1 - q) <= TOLERANCE: f's tail past n terms at |r| = q."""
    return 2.0 / (s * (n + 1) + b) * q**n / (1.0 - q) <= TOLERANCE


def _area_tail_meets(x: float, s: float, b: float, n: int) -> bool:
    """t_{n+1} / (1 - x (n+1)/n) <= TOLERANCE: the area series' tail past n terms."""
    return (q := x * (n + 1) / n) < 1.0 and (
        4.0 * (n + 1) / (s * (n + 1) + b) ** 2 * x ** (n + 1) / (1.0 - q) <= TOLERANCE)


def eval_extremal(r: float, beta: "BetaParam | float") -> float:
    """Value of the extremal function at real r, |r| < 1.

    The series stops at the first n whose geometric tail bound
    a_{n+1} |r|^{n+1} / (1 - |r|) meets TOLERANCE * |r|; the bound holds
    because the coefficients are non-increasing in n.  The error is thus
    small next to f(r) ~ r as well: the radius equations raise f(r^m) to
    powers p < 1, which would magnify a merely absolute error at tiny r^m.
    The stop is the bound's as pow evaluates it, in seven roundings and pow's
    two (the running power's gamma_{n-1} decides only where it agrees), so
    with rounding the error is at most (1 + gamma_9) TOLERANCE |r| + gamma_{3n}
    f(|r|), gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, sections 3.1 and 4.2).
    """
    q = abs(r)
    if not q < 1.0:
        raise ValueError(f"|r| must be < 1, got {r}")
    b = beta.value if beta.__class__ is BetaParam else beta_value(beta)
    if q == 0.0:
        return 0.0
    s = 1.0 - b
    if q > _F_CAP_ABOVE and not _f_tail_meets(q, s, b, MAX_TERMS):
        raise _too_long("extremal series", r)
    # term n + 1 is 2 r^(n+1) / d, d = s (n+1) + b stepped from 1 + s at n = 1,
    # added while |r^n| > TOLERANCE (1 - q) d / 2; n = log|r^n| / log q.
    wide = 0.5 * TOLERANCE * _WIDE * (1.0 - q)
    total, power, d = 0.0, r, 1.0 + s
    while (lim := wide * d) < power or power < -lim or abs(power) > _NARROW * lim and not (
            _f_tail_meets(q, s, b, round(math.log(abs(power)) / math.log(q)))):
        power *= r
        total += power / d
        d += s
    return r + 2.0 * total


# Coefficients (2^{2k} - 1) B_{2k} / (2k), k = 1..8, of the asymptotic expansion
#     sum_{j>=0} (-1)^j / (x + j) ~ t/2 + sum_{k>=1} (2^{2k} - 1) B_{2k} / (2k) t^{2k},
# t = 1/x and B_{2k} the Bernoulli numbers; all are exact in binary.  The first
# omitted coefficient, of t^18, is 3202291/4.
_ALTERNATING_TAIL = (1 / 4, -1 / 8, 1 / 4, -17 / 16, 31 / 4, -691 / 8, 5461 / 4, -929569 / 32)
_OMITTED_TAIL_COEFF = 3202291 / 4


def extremal_at_minus_one(beta: "BetaParam | float") -> float:
    """Boundary value f(-1) of the extremal function, for beta < 1.

    With s = 1 - beta and c = beta/s, the conditionally convergent series

        f(-1) = -1 + (2/s) * sum_{n>=2} (-1)^n / (n + c)

    is summed directly for n = 2..K+1 (K even, adjacent terms paired), and
    its tail sum_{j>=0} (-1)^j / (x + j), x = K + 2 + c, comes from the
    asymptotic expansion above.  K is the smallest even count for which the
    first omitted term, (2/s) * 3202291/4 * x^-18, is below 1e-17: at most
    18 terms, and none once c = beta/s exceeds about 20 (beta >= 0.96).
    """
    b = beta_value(beta, strict=True)
    s = 1.0 - b
    c = b / s
    x_min = (2.0 / s * _OMITTED_TAIL_COEFF / 1e-17) ** (1.0 / 18.0)
    k = max(2 * math.ceil(0.5 * (x_min - 2.0 - c)), 0)
    # 1/(n+c) - 1/(n+1+c) = 1/((n+c)(n+1+c)), a positive term.
    head = 0.0
    for n in range(2, k + 2, 2):
        head += 1.0 / ((n + c) * (n + 1 + c))
    t = 1.0 / (k + 2 + c)
    u = t * t
    tail = 0.0
    for coeff in reversed(_ALTERNATING_TAIL):
        tail = (tail + coeff) * u
    return -1.0 + 2.0 / s * (head + 0.5 * t + tail)


def area_majorant(r: float, beta: "BetaParam | float") -> float:
    """Sharp upper bound on the normalized image area at radius r.

    Returns r^2 + sum_{n>=2} 4n/((1-beta)n + beta)^2 * r^{2n} with
    certified absolute truncation error <= TOLERANCE.  Permits
    beta = 1 (the terms 4n r^{2n} still converge for r < 1).

    The sum stops before the first term t_{n+1} whose ratio-test tail bound
    t_{n+1} / (1 - x (n+1)/n), x = r^2, is <= TOLERANCE as pow evaluates it.
    With rounding, the error of n terms summing to A is at most
    (1 + gamma_{n+12}) TOLERANCE + gamma_{5n+1} A (gamma_k as in
    eval_extremal).  Near beta, r -> 1 the series is thousands of terms
    long: at r = 0.99, beta = 1 the result is 3.9e-11 off the exact value
    4x/(1-x)^2 - 3x, x = r^2.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    b = beta.value if beta.__class__ is BetaParam else beta_value(beta)
    x = r * r
    if x == 0.0:
        return 0.0
    s, w = 1.0 - b, 1.0 - x
    if x > _AREA_CAP_ABOVE and not _area_tail_meets(x, s, b, MAX_TERMS):
        raise _too_long("area series", r)
    # term j = n + 1, t_j = 4 j x^j / d^2 with d = s j + b stepped from 1 + s, is
    # added while t_j (j - 1) > TOLERANCE (j w - 1) / 4, surely if 4 t_j > TOLERANCE w.
    wide = 0.25 * TOLERANCE * _WIDE
    first = wide * w
    total, power, j, d = 0.0, x * x, 2.0, 1.0 + s
    while (t := j * power / (d * d)) > first or t * (j - 1.0) > (lim := wide * (j * w - 1.0)) or (
            t * (j - 1.0) > _NARROW * lim and not _area_tail_meets(x, s, b, int(j) - 1)):
        total += t
        power *= x
        j += 1.0
        d += s
    return x + 4.0 * total


def growth_envelope(r: float, beta: "BetaParam | float") -> tuple[float, float]:
    """Sharp modulus bounds (-f(-r), f(r)) for class members on |z| <= r."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    lower = -eval_extremal(-r, beta)
    upper = eval_extremal(r, beta)
    return lower, upper
