"""The radius equation, its evaluators and its solver give the bits of their
reference copies in tests/oracles.py, and raise the same error for a bad
argument.

The references are the evaluators as they stood before their per-call work
(beta coercion, the series-length walk, the area tail calls, hat_f at the
first two starts, f(r) twice for an m = 1 Rogosinski lead) was trimmed, and
the solver as it stood before its steps stopped calling min, max, abs and a
probe closure.  Every float operation that reaches a result is unchanged,
so any difference in a result's bits is a fault.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeta.extremal import BetaParam, area_majorant, eval_extremal
import abeta.radii
from abeta.radii import (
    DEFAULT_TOL,
    ZERO_POLYNOMIAL,
    AreaPolynomial,
    RadiusProblem,
    Variant,
    hat_f,
    solve_radius,
)
from oracles import (
    reference_area_majorant,
    reference_equation,
    reference_eval_extremal,
    reference_hat_f,
    reference_solve_radius,
)
from test_radii import ADVERSARIAL_EQUATIONS


def outcome(evaluate, *args):
    """The result's bits, or the type and message of what it raised."""
    try:
        return evaluate(*args).hex()
    except Exception as exc:  # every error must match the reference's
        return type(exc), str(exc)


# r in [0, 1): zero, subnormal, tiny, ordinary and series thousands of terms
# long; the last two sampled values lie past the MAX_TERMS cap.
MODULI = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 0.5, 0.999, 1.0 - 1e-6, 1.0 - 2**-53]),
    st.floats(min_value=0.0, max_value=0.999),
)
# beta in [0, 1], as a float, an int or a BetaParam.
BETAS = st.one_of(
    st.sampled_from([0.0, 1.0, 0, 1, 1.0 - 2**-53]),
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


def solved(solve, problem, tol):
    """The root, bracket and residual bits and the count, or the error."""
    try:
        res = solve(problem, tol)
    except Exception as exc:  # every error must match the reference's
        return type(exc), str(exc)
    lo, hi = res.bracket
    return res.root.hex(), lo.hex(), hi.hex(), res.residual.hex(), res.iterations


class OutsideTheUnitInterval(BaseException):
    """Raised on an evaluation at r outside (0, 1); not an Exception, so it
    passes solved() and fails the test."""


class Watched(RadiusProblem):
    """A problem whose equation may be evaluated in (0, 1) only."""

    def equation(self, r):
        if not 0.0 < r < 1.0:
            raise OutsideTheUnitInterval(f"equation evaluated at r = {r!r}")
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
CUSTOM_ERRORS = {
    "nan": lambda r: math.nan,
    "nan-above-0.1": lambda r: -1.0 if r < 0.1 else math.nan,
    "minus-inf-above-0.1": lambda r: -1.0 if r < 0.1 else -math.inf,
    "pole-inside-the-bracket": lambda r: math.inf if 1e-3 < r < 0.3 else r * r - 0.1,
    "inf-above-a-jump": lambda r: -1.0 if r <= 1e-9 else math.inf,
    "positive": lambda r: 1.0,
    "negative": lambda r: -1.0,
    "exact-zero-without-a-sign-change": lambda r: 0.0 if abs(r - _ZERO) < 1e-3 else 2.0 * (r - _ZERO),
    # Positive wherever a step lands, so the bracket closes on the analytic
    # end 0, and negative at the low probe min(tol, 1e-6) above it.
    "negative-only-at-the-low-probe": lambda r: -1.0 if r in (1e-10, 1e-6) else 1.0,
}

# Both solvers on one adversarial equation at two tols, in a fresh
# interpreter, so a stall fails the test instead of hanging the suite.
ADVERSARIAL_BOTH = """
import math, sys
from test_equation_bits import custom, solved
from abeta.radii import solve_radius
from oracles import reference_solve_radius

fn = eval("lambda r: " + sys.argv[1], vars(math))
for tol in (1e-10, 1e-14):
    print(repr(solved(solve_radius, custom(fn), tol)))
    print(repr(solved(reference_solve_radius, custom(fn), tol)))
"""

BAD_R = [math.nan, 1.0, -1.0, 1.5, -1.5, math.inf, -math.inf]
BAD_BETAS = [-0.1, 1.1, -5e-324, math.nan, math.inf, "x", None]


class TestSameBits:
    @given(q=MODULI, negative=st.booleans(), beta=BETAS)
    @settings(max_examples=200, deadline=None)
    @example(q=1.061e-06, negative=False, beta=0.06)  # the estimate is one above the least n
    @example(q=0.0001184, negative=True, beta=0.08)
    @example(q=0.999, negative=True, beta=1.0)
    def test_eval_extremal(self, q, negative, beta):
        r = -q if negative else q
        assert outcome(eval_extremal, r, beta) == outcome(reference_eval_extremal, r, beta)

    @given(r=MODULI, beta=BETAS)
    @settings(max_examples=200, deadline=None)
    @example(r=1e-160, beta=0.0)  # the estimate's ceiling is 0
    @example(r=0.9608, beta=0.98)
    @example(r=0.999, beta=1.0)
    def test_area_majorant(self, r, beta):
        assert outcome(area_majorant, r, beta) == outcome(reference_area_majorant, r, beta)

    @given(N=STARTS, beta=BETAS, r=MODULI)
    @settings(max_examples=200, deadline=None)
    def test_hat_f(self, N, beta, r):
        assert outcome(hat_f, N, beta, r) == outcome(reference_hat_f, N, beta, r)

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
        problem = RadiusProblem(variant, BetaParam(beta), m=m, p=p, N=N, F=F)
        assert outcome(problem.equation, r) == outcome(reference_equation, problem, r)

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
        got = solved(solve_radius, problem, tol)
        assert got == solved(reference_solve_radius, problem, tol)
        if isinstance(got[0], str):
            # The majorant is at least r^{pm}, so its root is at most the
            # first probe's level^{1/(pm)}.
            assert float.fromhex(got[0]) <= problem.level ** (1 / (p * m)) + tol

    @pytest.mark.parametrize("name", list(CUSTOM_ROOTS))
    def test_solve_radius_on_an_exact_zero(self, name):
        problem = custom(CUSTOM_ROOTS[name])
        expected = solved(reference_solve_radius, problem, 1e-6)
        # The bracket the exact-zero branch sets, tol/4 either side.
        assert expected[1:3] == ((_ZERO - 0.25e-6).hex(), (_ZERO + 0.25e-6).hex())
        assert solved(solve_radius, problem, 1e-6) == expected

    @pytest.mark.parametrize("name", list(ADVERSARIAL_EQUATIONS))
    def test_solve_radius_on_an_adversarial_equation(self, name):
        roots = [str(Path(abeta.radii.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(roots))
        done = subprocess.run(
            [sys.executable, "-c", ADVERSARIAL_BOTH, ADVERSARIAL_EQUATIONS[name]],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 4
        assert lines[0] == lines[1] and lines[2] == lines[3]


class TestSameErrors:
    def test_eval_extremal(self):
        for r, beta in [*((r, 0.5) for r in BAD_R), *((r, b) for r in (0.0, 0.5, math.nan) for b in BAD_BETAS)]:
            expected = outcome(reference_eval_extremal, r, beta)
            assert isinstance(expected, tuple)
            assert outcome(eval_extremal, r, beta) == expected

    def test_area_majorant(self):
        bad_r = [*BAD_R, -0.5, -5e-324]
        for r, beta in [*((r, 0.5) for r in bad_r), *((r, b) for r in (0.0, 0.5, -0.5) for b in BAD_BETAS)]:
            expected = outcome(reference_area_majorant, r, beta)
            assert isinstance(expected, tuple)
            assert outcome(area_majorant, r, beta) == expected

    def test_hat_f(self):
        cases = [
            *((N, 0.5, 0.5) for N in (0, -1)),
            *((3, 0.5, r) for r in (*BAD_R, -0.5)),
            *((N, b, 0.5) for N in (1, 2, 3) for b in BAD_BETAS),
            (0, 2.0, 2.0),
        ]
        for N, beta, r in cases:
            expected = outcome(reference_hat_f, N, beta, r)
            assert isinstance(expected, tuple)
            assert outcome(hat_f, N, beta, r) == expected

    def test_equation(self):
        # r outside (0, 1) is refused before any series; r = 1 - 1e-6 is
        # inside but past both series' caps, where the first series the
        # equation evaluates names the error.
        for variant in Variant:
            for m, F in ((1, ZERO_POLYNOMIAL), (1, AreaPolynomial((0.2,))), (2, AreaPolynomial((0.2,)))):
                problem = RadiusProblem(variant, BetaParam(0.5), m=m, N=3, F=F)
                for r in (*BAD_R, 0.0, -0.5, 1.0 - 1e-6):
                    expected = outcome(reference_equation, problem, r)
                    assert isinstance(expected, tuple)
                    assert outcome(problem.equation, r) == expected

    @pytest.mark.parametrize("name", list(CUSTOM_ERRORS))
    def test_solve_radius(self, name):
        problem = custom(CUSTOM_ERRORS[name])
        for tol in (1e-10, 1e-6):
            expected = solved(reference_solve_radius, problem, tol)
            assert isinstance(expected[0], type)
            assert solved(solve_radius, problem, tol) == expected
