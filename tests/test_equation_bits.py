"""The radius equation and its evaluators give the bits of their reference
copies in tests/oracles.py, and raise the same error for a bad argument.

The references are the evaluators as they stood before their per-call work
(beta coercion, the series-length walk, the area tail calls, hat_f at the
first two starts, f(r) twice for an m = 1 Rogosinski lead) was trimmed.
Every float operation that reaches a result is unchanged, so any difference
in a result's bits is a fault.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeta.extremal import BetaParam, area_majorant, eval_extremal
from abeta.radii import AreaPolynomial, RadiusProblem, Variant, ZERO_POLYNOMIAL, hat_f
from oracles import (
    reference_area_majorant,
    reference_equation,
    reference_eval_extremal,
    reference_hat_f,
)


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
