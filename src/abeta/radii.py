"""Radius equations for the Bohr-type inequalities and their certified roots.

Both inequalities bound one majorant, lead(r) + sum_{n >= start} |a_n| r^n
+ F(S_r/pi), by the level -f(-1); RadiusProblem alone knows each variant's
lead and start.  Its equation, the extremal member's majorant minus the
level, rises on (0, 1) from negative at 0+ to positive near 1: one root.
The solver keeps a sign-change bracket and reports the final bracket and
residual.  It steps by inverse quadratic interpolation where Chandrupatla's
test accepts it (Adv. Eng. Software 28(3), 1997) and bisects otherwise,
and it forces a bisection after SAFEGUARD_STEPS - 1 steps that did not
halve the bracket: at most SAFEGUARD_STEPS * ceil(log2(width / tol))
evaluations after bracketing, against about 10 on the radius equations.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple

from .extremal import (
    BetaParam,
    Frozen,
    area_majorant,
    beta_value,
    eval_extremal,
    extremal_at_minus_one,
)

# Never evaluate the equations at or beyond this point; the extremal
# series diverges as r -> 1 and the certified evaluation becomes
# prohibitively long first.
_UPPER_CAP = 1.0 - 1e-8

DEFAULT_TOL = 1e-10

# Every solver step stays tol/4 inside the bracket, and the root is the
# midpoint of a final bracket at least tol/4 wide; tol/8 must exceed the
# spacing of doubles below 1 (2**-53) for both to hold.
_MIN_TOL = 1e-15

# A bracket wider than this cannot place the small radii (about 4e-3 at
# beta = 0.99 with m = p = 1); a tol as wide as the first bracket would
# return that bracket's midpoint, which is no root at all.
_MAX_TOL = 1e-3

# Interpolation steps allowed in a row without halving the bracket; the
# next one is a bisection.
SAFEGUARD_STEPS = 4


class BracketError(RuntimeError):
    """No sign change found below the upper cap; signals an evaluation bug."""


class Variant(enum.Enum):
    BOHR_SCHWARZ = "bohr"
    BOHR_ROGOSINSKI = "rogosinski"


class AreaPolynomial(Frozen):
    """Monotone polynomial lambda_1 w + ... + lambda_k w^k with lambda_j >= 0.

    Nonnegative coefficients guarantee monotonicity and F(0) = 0, the
    contract the radius equations need.  An empty tuple is F == 0, and
    is_zero says whether every coefficient is 0.
    """

    _fields = ("lambdas",)
    __slots__ = (*_fields, "is_zero")

    def __init__(self, lambdas: tuple[float, ...] = ()) -> None:
        lams = tuple(float(l) for l in lambdas)
        if not all(math.isfinite(l) and l >= 0 for l in lams):
            raise ValueError(f"all polynomial coefficients must be finite and >= 0: {lams}")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "is_zero", all(l == 0.0 for l in lams))

    def __call__(self, w: float) -> float:
        """Horner's rule; on a float64 array, the same operations per element."""
        acc = 0.0
        for lam in reversed(self.lambdas):
            acc = (acc + lam) * w
        return acc


ZERO_POLYNOMIAL = AreaPolynomial()
# For lead and start: a global reads in ~50 ns, Variant.BOHR_SCHWARZ in ~200.
_BOHR = Variant.BOHR_SCHWARZ


class RadiusProblem(Frozen):
    """Specification of one radius equation.

    N is only meaningful for the Rogosinski variant (start index of the
    coefficient tail); it is carried but ignored for the plain Bohr
    equation.  Each validation error starts with the name of the offending
    field.  Two terms of the equation are fixed per problem: start, the
    first index n of the majorant's sum (2 for Bohr, N for Rogosinski), and
    level, -f(-1) of the extremal function, the bound on the majorant at
    every r.
    """

    _fields = ("variant", "beta", "m", "p", "N", "F")
    __slots__ = (*_fields, "start", "level")

    def __init__(self, variant: Variant, beta: BetaParam, m: int = 1, p: float = 1.0,
                 N: int = 1, F: AreaPolynomial = ZERO_POLYNOMIAL) -> None:
        beta = beta if isinstance(beta, BetaParam) else BetaParam(beta)
        beta.require_strict()
        if m < 1:
            raise ValueError(f"m: must be a positive integer, got {m}")
        if m > sys.float_info.max:  # r ** m needs m as a double
            raise ValueError(f"m: must not exceed the largest double, {sys.float_info.max!r}")
        if not 0 < p < math.inf:
            raise ValueError(f"p: must be positive and finite, got {p}")
        if N < 1:
            raise ValueError(f"N: must be a positive integer, got {N}")
        if not isinstance(F, AreaPolynomial):
            raise TypeError(f"F: must be an AreaPolynomial, got {F!r}")
        for name, value in zip(self._fields, (variant, beta, m, p, N, F)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "start", 2 if variant is _BOHR else N)
        object.__setattr__(self, "level", -extremal_at_minus_one(beta))

    def lead(self, r: float) -> float:
        """r^{pm} (Bohr) or f(r^m)^p (Rogosinski) at |z| = r; +inf past the largest double."""
        if not 0.0 < r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {r}")
        if self.variant is _BOHR:
            return r ** (self.p * self.m)
        try:
            return eval_extremal(r ** self.m, self.beta) ** self.p
        except OverflowError:  # a float power beyond the largest double
            return math.inf

    def equation(self, r: float) -> float:
        """The majorant of the extremal member minus the level: lead(r) +
        f(r) - hat_f(start, r) + F(area bound at r) - level, where f(r) -
        hat_f(start, r) is the extremal sum from n = start.  f(r) is also an
        m = 1 Rogosinski lead's base, and hat_f is called only from start 3."""
        if not 0.0 < r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {r}")
        beta = self.beta
        f_r = eval_extremal(r, beta) if self.m == 1 and self.variant is not _BOHR else None
        if self.variant is _BOHR:
            lead = r ** (self.p * self.m)
        else:
            try:
                lead = (eval_extremal(r ** self.m, beta) if f_r is None else f_r) ** self.p
            except OverflowError:  # a float power beyond the largest double
                lead = math.inf
        # F == 0 skips the area bound, whose F value is 0 anyway.
        area = 0.0 if self.F.is_zero else self.F(area_majorant(r, beta))
        f_r = eval_extremal(r, beta) if f_r is None else f_r
        head = hat_f(self.start, beta, r) if self.start > 2 else r if self.start == 2 else 0.0
        return lead + f_r - head + area - self.level


class RootResult(namedtuple("RootResult", "root bracket residual iterations")):
    """A certified root: bracket straddles the sign change, width <= tol."""

    __slots__ = ()


def hat_f(N: int, beta: "BetaParam | float", r: float) -> float:
    """Extremal section sum_{n<N} a_n r^n, left out of f(r) by a majorant from n = N.

    Exactly 0 for N = 1, r for N = 2 (the Bohr start), and r +
    sum_{n=2}^{N-1} a_n r^n for N >= 3.  The terms decrease, so the sum
    stops at the first term that adding would round away: every later
    term would be rounded away too.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    b = beta.value if beta.__class__ is BetaParam else beta_value(beta)
    if N <= 2:
        return 0.0 if N == 1 else r
    s, total = 1.0 - b, r
    for n in range(2, N):
        term = 2.0 / (s * n + b) * r ** n  # extremal_coeff(n, b) * r ** n
        if total + term == total:
            break
        total += term
    return total


def solve_radius(problem: RadiusProblem, tol: float = DEFAULT_TOL) -> RootResult:
    """Unique root of the problem's equation in (0, 1), bracketed to tol.

    The initial bracket starts at lo = min(tol, 1e-6) and moves hi from
    0.5 halfway to 1 until a sign change appears, keeping each negative hi
    as the new lo; the equation diverges to +inf as r -> 1, so failure to
    bracket below the cap indicates an evaluation bug.  An hi where the
    equation is +inf (a lead beyond the largest double, see
    RadiusProblem.lead) is then bisected down to a finite one, each
    negative midpoint becoming lo; any other non-finite value, or +inf
    anywhere else, raises BracketError.  An equation already nonnegative
    at the first lo raises BracketError: its root, if any, lies below lo,
    where a bracket of width tol would not place it.
    """
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

    lo = min(tol, 1e-6)
    flo = value(lo)
    if flo >= 0.0:
        raise BracketError(
            f"equation is nonnegative at r = {lo!r} (tol = {tol!r}): "
            "no root the solver can resolve"
        )

    hi = 0.5
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

    iterations = evaluations
    root = 0.5 * (lo + hi)
    return RootResult(
        root=root,
        bracket=(lo, hi),
        residual=value(root),
        iterations=iterations,
    )


def baseline_bohr_radius(
    beta: "BetaParam | float", m: int, tol: float = DEFAULT_TOL
) -> RootResult:
    """Named baseline: root of r^m + f(r) - r + f(-1) = 0 (p = 1, F = 0)."""
    return solve_radius(RadiusProblem(Variant.BOHR_SCHWARZ, beta, m=m), tol)
