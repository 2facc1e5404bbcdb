"""The radius equation, its evaluators and its solver against the closed-form
truth of tests/oracles.py, within the error bounds the evaluators state, and
the errors they raise for a bad argument."""

import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeta.extremal import (
    MAX_TERMS,
    BetaDomainError,
    BetaParam,
    ConvergenceError,
    area_majorant,
    beta_value,
    eval_extremal,
)
from abeta.radii import (
    DEFAULT_TOL,
    SAFEGUARD_STEPS,
    ZERO_POLYNOMIAL,
    AreaPolynomial,
    BracketError,
    RadiusProblem,
    Variant,
    hat_f,
    solve_radius,
)
from oracles import (
    area_bound,
    area_length,
    equation_bound,
    extremal_bound,
    extremal_length,
    head_bound,
    true_area,
    true_equation,
    true_f,
    true_head,
)


def too_long(series, r):
    return f"{series} at r = {r}: tail bound above tolerance 1.000e-12 within the cap of 4000000 terms"


def check_eval_extremal(r, beta):
    """Within extremal_bound of f(r), or refused where the series could pass MAX_TERMS."""
    try:
        value = eval_extremal(r, beta)
    except ConvergenceError as exc:
        assert str(exc) == too_long("extremal series", r) and extremal_length(abs(r)) > MAX_TERMS
        return
    b = beta_value(beta)
    assert abs(value - true_f(r, b)) <= extremal_bound(r, b)


def check_area_majorant(r, beta):
    """Within area_bound of the area sum, or refused where the series could pass MAX_TERMS."""
    try:
        value = area_majorant(r, beta)
    except ConvergenceError as exc:
        assert str(exc) == too_long("area series", r) and area_length(r * r) > MAX_TERMS
        return
    b = beta_value(beta)
    assert abs(value - true_area(r, b)) <= area_bound(r, b)


def check_equation(problem, r):
    """Within equation_bound of the truth; +inf only where the lead may pass the largest double."""
    value, truth, bound = problem.equation(r), true_equation(problem, r), equation_bound(problem, r)
    if value == math.inf:
        assert truth + bound >= sys.float_info.max
    else:
        assert abs(value - truth) <= bound, (problem, r)


# r in [0, 1): zero, subnormal, tiny, ordinary, series thousands of terms
# long near 1, and past the MAX_TERMS cap (the last two sampled values).
MODULI = st.one_of(
    st.sampled_from(
        [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 0.5, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 2**-53]
    ),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.99, max_value=0.999),
)
# beta in [0, 1], as a float, an int or a BetaParam.
BETAS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0, 1, 1.0 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0),
).flatmap(lambda b: st.sampled_from([b, BetaParam(b)]))
STARTS = st.sampled_from([1, 2, 3, 5, 10, 50, 200])
POLYNOMIALS = st.sampled_from(
    [ZERO_POLYNOMIAL, AreaPolynomial((0.0, 0.0)), AreaPolynomial((0.2, 0.05)), AreaPolynomial((3.0,))]
)
# p log-uniform on [0.01, 3000]: small p puts the root below the first
# probe, and large p overflows the Rogosinski lead at the second.
LEAD_POWERS = st.one_of(
    st.sampled_from([0.01, 3000.0]), st.floats(math.log(0.01), math.log(3000.0)).map(math.exp)
)
TOLS = st.one_of(
    st.sampled_from([1e-15, 1e-10, 1e-3]), st.floats(-15.0, -3.0).map(lambda e: 10.0**e)
)


class OutsideTheUnitInterval(BaseException):
    """Raised on an evaluation at r outside (0, 1); not an Exception, so no
    error check catches it."""


class Watched(RadiusProblem):
    """A problem whose equation may be evaluated in (0, 1) only; Watched.calls
    lists the points it was evaluated at."""

    calls = []

    def equation(self, r):
        if not 0.0 < r < 1.0:
            raise OutsideTheUnitInterval(f"equation evaluated at r = {r!r}")
        Watched.calls.append(r)
        return self.value(r)

    def value(self, r):
        return super().equation(r)


def custom(fn):
    """A problem whose equation is fn, at beta = 0 and p = m = 1."""

    class Custom(Watched):
        def value(self, r):
            return fn(r)

    return Custom(Variant.BOHR_SCHWARZ, BetaParam(0.0))


# Zero at the midpoint of the first bracket (0, level), where the first
# bisection lands exactly above a pole, and where the first secant step
# lands exactly on a line through (0, -level), the analytic end.
_ZERO = 0.5 * custom(None).level
CUSTOM_ROOTS = {
    "linear-exact-zero": lambda r: 2.0 * (r - _ZERO),
    "pole-then-exact-zero": lambda r: math.inf if r > 0.3 else r - _ZERO,
}
# Each equation, and the BracketError message at tol 1e-10 and at 1e-6; the
# first probe is level = 0.386...
_NOT_FINITE = "equation value at r = {} is {}, not finite".format
_NONNEGATIVE = "equation is nonnegative at r = {} (tol = {}): no root the solver can resolve".format
CUSTOM_ERRORS = {
    "nan": (lambda r: math.nan, [_NOT_FINITE(0.3862943611198907, "nan")] * 2),
    # Only +inf is bisected past, so nan and -inf at a probe raise.
    "nan-above-0.1": (lambda r: -1.0 if r < 0.1 else math.nan, [_NOT_FINITE(0.3862943611198907, "nan")] * 2),
    "minus-inf-above-0.1": (lambda r: -1.0 if r < 0.1 else -math.inf, [_NOT_FINITE(0.3862943611198907, "-inf")] * 2),
    # Finite at both probes, +inf where the first secant step lands.
    "pole-inside-the-bracket": (
        lambda r: math.inf if 1e-3 < r < 0.3 else r * r - 0.1, [_NOT_FINITE(0.15821854307250274, "inf")] * 2
    ),
    "inf-above-a-jump": (
        lambda r: -1.0 if r <= 1e-9 else math.inf,
        [f"equation is +inf down to r = {r}: no finite bracket" for r in (1.0792939768728539e-09, 7.367980215452017e-07)],
    ),
    "positive": (lambda r: 1.0, [_NONNEGATIVE(1e-10, 1e-10), _NONNEGATIVE(1e-06, 1e-06)]),
    "negative": (lambda r: -1.0, ["no sign change found below 0.99999999; equation stuck at -1.0"] * 2),
    "exact-zero-without-a-sign-change": (
        lambda r: 0.0 if abs(r - _ZERO) < 1e-3 else 2.0 * (r - _ZERO),
        ["no sign change around the exact zero at r = 0.19314718055994534: values 0.0 and 0.0"] * 2,
    ),
    # Positive wherever a step lands, so the bracket closes on the analytic
    # end 0, and negative at the low probe min(tol, 1e-6) above it.
    "negative-only-at-the-low-probe": (
        lambda r: -1.0 if r in (1e-10, 1e-6) else 1.0,
        [_NONNEGATIVE(5.012465713749285e-11, 1e-10), _NONNEGATIVE(8.212423825406828e-07, 1e-06)],
    ),
}

BAD_R = [math.nan, 1.0, -1.0, 1.5, -1.5, math.inf, -math.inf]
BAD_BETAS = [-0.1, 1.1, -5e-324, math.nan, math.inf, "x", None]


def raised(evaluate, *args):
    """The type and message of what evaluate(*args) raised."""
    with pytest.raises(Exception) as info:
        evaluate(*args)
    return info.type, str(info.value)


def beta_error(beta):
    """What a bad beta raises: float()'s own error, else BetaDomainError."""
    try:
        value = float(beta)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return BetaDomainError, f"beta must lie in [0, 1], got {value!r}"


class TestSameBits:
    """The evaluators and the solver against the closed-form truth, within
    their stated error bounds; the class name is kept so the test ids stay
    the same."""

    @given(q=MODULI, negative=st.booleans(), beta=BETAS)
    @settings(max_examples=200, deadline=None)
    @example(q=1.061e-06, negative=False, beta=0.06)  # the estimate is one above the least n
    @example(q=0.0001184, negative=True, beta=0.08)
    @example(q=0.999, negative=True, beta=1.0)
    def test_eval_extremal(self, q, negative, beta):
        check_eval_extremal(-q if negative else q, beta)

    @given(r=MODULI, beta=BETAS)
    @settings(max_examples=200, deadline=None)
    @example(r=1e-160, beta=0.0)  # the estimate's ceiling is 0
    @example(r=0.9608, beta=0.98)
    @example(r=0.999, beta=1.0)
    def test_area_majorant(self, r, beta):
        check_area_majorant(r, beta)

    @given(N=STARTS, beta=BETAS, r=MODULI)
    @settings(max_examples=200, deadline=None)
    def test_hat_f(self, N, beta, r):
        head = true_head(N, beta_value(beta), r)
        assert abs(hat_f(N, beta, r) - head) <= head_bound(N, head)

    @given(
        variant=st.sampled_from(list(Variant)),
        beta=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        m=st.integers(1, 4),
        p=st.one_of(st.sampled_from([0.07, 1.0, 3000.0, 1e300]), st.floats(0.01, 50.0)),
        N=STARTS,
        F=POLYNOMIALS,
        r=st.one_of(
            st.sampled_from([5e-324, 1e-300, 1e-160, 0.5, 0.999]),
            st.floats(min_value=5e-324, max_value=0.999),
        ),
    )
    @settings(max_examples=200, deadline=None)
    # m = 1 Rogosinski leads past the largest double: +inf, as in lead.
    @example(variant=Variant.BOHR_ROGOSINSKI, beta=0.9, m=1, p=3000.0, N=1, F=ZERO_POLYNOMIAL, r=0.5)
    @example(variant=Variant.BOHR_ROGOSINSKI, beta=0.5, m=1, p=1e300, N=2, F=ZERO_POLYNOMIAL, r=0.3)
    def test_equation(self, variant, beta, m, p, N, F, r):
        check_equation(RadiusProblem(variant, BetaParam(beta), m=m, p=p, N=N, F=F), r)

    @given(
        variant=st.sampled_from(list(Variant)),
        beta=st.floats(min_value=0.0, max_value=0.999),
        m=st.integers(1, 8),
        p=LEAD_POWERS,
        N=st.sampled_from([1, 2, 3, 5, 50, 200]),
        F=st.lists(st.floats(0.0, 4.0), max_size=3).map(lambda c: AreaPolynomial(tuple(c))),
        tol=TOLS,
    )
    @settings(max_examples=200, deadline=None)
    # The overflow set's Rogosinski leads past the largest double: +inf at
    # r = 1/2, bisected down to a finite bracket end.
    @example(variant=Variant.BOHR_ROGOSINSKI, beta=0.9, m=1, p=3000.0, N=1, F=ZERO_POLYNOMIAL, tol=DEFAULT_TOL)
    @example(variant=Variant.BOHR_ROGOSINSKI, beta=0.5, m=1, p=1e300, N=1, F=ZERO_POLYNOMIAL, tol=DEFAULT_TOL)
    # radius --beta 0.5 --m 3 --p 0.01: nonnegative at the first probe.
    @example(variant=Variant.BOHR_SCHWARZ, beta=0.5, m=3, p=0.01, N=1, F=ZERO_POLYNOMIAL, tol=DEFAULT_TOL)
    def test_solve_radius(self, variant, beta, m, p, N, F, tol):
        problem = Watched(variant, BetaParam(beta), m=m, p=p, N=N, F=F)
        Watched.calls = []
        try:
            res = solve_radius(problem, tol)
        except BracketError as exc:
            # Refused where the equation is nonnegative at the low probe, or
            # where its float value is an exact zero without a sign change
            # tol/4 either side: true there, up to its bound.
            low = min(tol, 1e-6)
            zero = re.fullmatch(r"no sign change around the exact zero at r = (\S+): values \S+ and \S+", str(exc))
            if zero:
                r = float(zero[1])
                assert abs(true_equation(problem, r)) <= equation_bound(problem, r)
            else:
                assert str(exc) == _NONNEGATIVE(repr(low), repr(tol))
                assert true_equation(problem, low) >= -equation_bound(problem, low)
            return
        lo, hi = res.bracket
        assert lo < res.root < hi and hi - lo <= tol
        assert true_equation(problem, lo) < equation_bound(problem, lo)
        assert true_equation(problem, hi) > -equation_bound(problem, hi)
        # Bracketing takes at most 27 expansions to the cap, the first and
        # low probes and an exact zero's two; the +inf bisection and the
        # steps at most ceil(log2(1/tol)) and SAFEGUARD_STEPS times that.
        assert len(Watched.calls) == res.iterations + 1
        assert res.iterations <= 32 + (SAFEGUARD_STEPS + 1) * math.ceil(math.log2(1 / tol))
        # The majorant is at least r^{pm}, so its root is at most the first
        # probe's level^{1/(pm)}.
        assert res.root <= problem.level ** (1 / (p * m)) + tol

    @pytest.mark.parametrize("name", list(CUSTOM_ROOTS))
    def test_solve_radius_on_an_exact_zero(self, name):
        fn = CUSTOM_ROOTS[name]
        res = solve_radius(custom(fn), 1e-6)
        # The bracket the exact-zero branch sets, tol/4 either side.
        assert res.bracket == (_ZERO - 0.25e-6, _ZERO + 0.25e-6)
        lo, hi = res.bracket
        assert fn(lo) < 0.0 < fn(hi) < math.inf and lo < res.root < hi


class TestSameErrors:
    def test_eval_extremal(self):
        for r, beta in [*((r, 0.5) for r in BAD_R), *((r, b) for r in (0.0, 0.5, math.nan) for b in BAD_BETAS)]:
            expected = beta_error(beta) if abs(r) < 1.0 else (ValueError, f"|r| must be < 1, got {r}")
            assert raised(eval_extremal, r, beta) == expected

    def test_area_majorant(self):
        bad_r = [*BAD_R, -0.5, -5e-324]
        for r, beta in [*((r, 0.5) for r in bad_r), *((r, b) for r in (0.0, 0.5, -0.5) for b in BAD_BETAS)]:
            expected = beta_error(beta) if 0.0 <= r < 1.0 else (ValueError, f"r must lie in [0, 1), got {r}")
            assert raised(area_majorant, r, beta) == expected

    def test_hat_f(self):
        cases = [
            *((N, 0.5, 0.5, (ValueError, f"N must be >= 1, got {N}")) for N in (0, -1)),
            *((3, 0.5, r, (ValueError, f"r must lie in [0, 1), got {r}")) for r in (*BAD_R, -0.5)),
            *((N, b, 0.5, beta_error(b)) for N in (1, 2, 3) for b in BAD_BETAS),
            (0, 2.0, 2.0, (ValueError, "N must be >= 1, got 0")),
        ]
        for N, beta, r, expected in cases:
            assert raised(hat_f, N, beta, r) == expected

    def test_equation(self):
        # r outside (0, 1) is refused before any series; r = 1 - 1e-6 is
        # inside but past both series' caps, where the first series the
        # equation evaluates names the error: the Rogosinski lead's at r^m,
        # then the area's, then f(r)'s.
        r = 1.0 - 1e-6
        for variant in Variant:
            for m, F in ((1, ZERO_POLYNOMIAL), (1, AreaPolynomial((0.2,))), (2, AreaPolynomial((0.2,)))):
                problem = RadiusProblem(variant, BetaParam(0.5), m=m, N=3, F=F)
                for bad in (*BAD_R, 0.0, -0.5):
                    assert raised(problem.equation, bad) == (ValueError, f"r must lie in (0, 1), got {bad}")
                if variant is Variant.BOHR_ROGOSINSKI:
                    expected = too_long("extremal series", r**m)
                else:
                    expected = too_long("extremal series" if F.is_zero else "area series", r)
                assert raised(problem.equation, r) == (ConvergenceError, expected)

    @pytest.mark.parametrize("name", list(CUSTOM_ERRORS))
    def test_solve_radius(self, name):
        fn, messages = CUSTOM_ERRORS[name]
        for tol, message in zip((1e-10, 1e-6), messages):
            assert raised(solve_radius, custom(fn), tol) == (BracketError, message)
