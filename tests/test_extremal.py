import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeta.extremal import (
    _AREA_CAP_ABOVE,
    _F_CAP_ABOVE,
    MAX_TERMS,
    TOLERANCE,
    BetaDomainError,
    BetaParam,
    ConvergenceError,
    _area_tail_meets,
    _f_tail_meets,
    area_majorant,
    eval_extremal,
    extremal_at_minus_one,
    extremal_coeff,
    growth_envelope,
)
from oracles import boundary_series_euler, true_area, true_f, true_f_minus_one
from test_equation_bits import BETAS, MODULI, check_area_majorant, check_eval_extremal, too_long


def last_passing(passes, lo=0.0, hi=1.0):
    """The largest double in [lo, hi) at which passes holds, for a test that
    holds at lo, fails at hi and fails above any double at which it fails."""
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


def doubles_around(edge, steps=3):
    """edge and the `steps` doubles on each side of it, in order."""
    points = [edge]
    for _ in range(steps):
        points = [math.nextafter(points[0], 0.0), *points, math.nextafter(points[-1], 1.0)]
    return points


def f_tilde_beta0(r: float) -> float:
    # Closed form at beta = 0: r + sum 2/n r^n = -r - 2 log(1 - r).
    return -r - 2.0 * math.log1p(-r)


class TestExtremalCoeff:
    def test_examples(self):
        assert extremal_coeff(2, 0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert extremal_coeff(1, 0.7) == 1.0
        assert extremal_coeff(3, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_defining_identity_exact(self):
        for beta in (0.0, 0.3, 0.77, 1.0):
            for n in range(2, 50):
                assert extremal_coeff(n, beta) * (n - beta * (n - 1)) == pytest.approx(
                    2.0, abs=1e-13
                )

    def test_strictly_decreasing_for_beta_below_one(self):
        for beta in (0.0, 0.5, 0.99):
            vals = [extremal_coeff(n, beta) for n in range(2, 40)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            extremal_coeff(0, 0.5)


class TestEvalExtremal:
    def test_beta0_closed_form(self):
        assert eval_extremal(0.5, 0.0) == pytest.approx(f_tilde_beta0(0.5), abs=1e-9)
        assert eval_extremal(-0.5, 0.0) == pytest.approx(
            0.5 - 2.0 * math.log(1.5), abs=1e-9
        )

    def test_at_zero(self):
        for beta in (0.0, 0.4, 1.0):
            assert eval_extremal(0.0, beta) == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("r", [0.3, -0.3, 0.6, -0.6])
    def test_hypergeometric_representation(self, beta, r):
        # r * (-1 + 2 * 2F1(1, 1/(1-b); (2-b)/(1-b); r)) is the same function.
        assert eval_extremal(r, beta) == pytest.approx(float(true_f(r, beta)), abs=1e-9)

    def test_truncation_certificate(self):
        # The certified series (tail below 1e-12) against closed forms,
        # long series included: -r - 2 log(1 - r) at beta = 0 and
        # r + 2 r^2 / (1 - r) at beta = 1.
        for r in (0.9, -0.8, 0.5):
            assert abs(eval_extremal(r, 0.0) - f_tilde_beta0(r)) < 1e-11
            assert abs(eval_extremal(r, 1.0) - (r + 2.0 * r * r / (1.0 - r))) < 1e-11

    def test_series_too_long_to_certify(self):
        # Near |r| = 1 the tail bound stays above the tolerance up to the
        # cap on the series length.
        with pytest.raises(ConvergenceError):
            eval_extremal(1.0 - 1e-9, 0.0)
        with pytest.raises(ConvergenceError):
            area_majorant(1.0 - 1e-9, 0.0)

    def test_monotone_and_dominates_r(self):
        for beta in (0.0, 0.5, 0.9):
            rs = np.linspace(0.0, 0.95, 40)
            vals = [eval_extremal(r, beta) for r in rs]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert all(v >= r for v, r in zip(vals, rs))
            assert all(-eval_extremal(-r, beta) <= r + 1e-12 for r in rs)

    def test_rejects_out_of_disk(self):
        with pytest.raises(ValueError):
            eval_extremal(1.0, 0.0)


class TestBoundaryValue:
    def test_beta0(self):
        assert extremal_at_minus_one(0.0) == pytest.approx(1 - 2 * math.log(2), abs=1e-9)

    def test_beta_half_analytic(self):
        # Substituting t = u^2 integrates to 2(3/2 - 2 log 2).
        assert extremal_at_minus_one(0.5) == pytest.approx(
            -(3.0 - 4.0 * math.log(2)), abs=1e-12
        )

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_euler_series_cross_check(self, beta):
        assert extremal_at_minus_one(beta) == pytest.approx(
            boundary_series_euler(beta), abs=1e-10
        )

    def test_negative_and_rejects_beta_one(self):
        for beta in (0.0, 0.5, 0.999):
            assert extremal_at_minus_one(beta) < 0
        with pytest.raises(BetaDomainError):
            extremal_at_minus_one(1.0)
        with pytest.raises(BetaDomainError):
            extremal_at_minus_one(BetaParam(1.0))

    def test_abel_boundary_consistency(self):
        # eval_extremal(-r) approaches f(-1) as r -> 1 (slow convergence,
        # loose tolerance).
        r = 1.0 - 1e-4
        for beta in (0.0, 0.5):
            assert eval_extremal(-r, beta) == pytest.approx(
                extremal_at_minus_one(beta), abs=1e-3
            )


class TestAreaMajorant:
    def test_beta0_closed_form(self):
        expected = -0.75 - 4.0 * math.log(0.75)
        assert area_majorant(0.5, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_at_zero(self):
        for beta in (0.0, 0.5, 1.0):
            assert area_majorant(0.0, beta) == 0.0

    def test_beta1_geometric_closed_form(self):
        # beta = 1 terms are 4 n x^n: sum = 4 x/(1-x)^2, minus the n=1
        # correction 3x.
        x = 0.09
        expected = 4.0 * x / (1.0 - x) ** 2 - 3.0 * x
        assert area_majorant(0.3, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_partial_sum_oracle(self):
        for beta, r in [(0.2, 0.4), (0.8, 0.6), (1.0, 0.5)]:
            n = np.arange(2, 4000, dtype=float)
            brute = r * r + float(
                np.sum(4 * n / ((1 - beta) * n + beta) ** 2 * (r * r) ** n)
            )
            assert area_majorant(r, beta) == pytest.approx(brute, abs=1e-10)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            area_majorant(-0.1, 0.0)


class TestAccuracyOracles:
    """Each evaluator against the 34-digit closed forms in tests/oracles.py."""

    RADII = (0.05, -0.05, 0.28, -0.28, 0.5, -0.5, 0.9, -0.9, 0.99)

    @pytest.mark.parametrize(
        "beta", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999]
    )
    def test_boundary_value(self, beta):
        assert abs(extremal_at_minus_one(beta) - true_f_minus_one(beta)) < 2e-15

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("r", RADII)
    def test_extremal_value(self, beta, r):
        assert abs(eval_extremal(r, beta) - true_f(r, beta)) <= TOLERANCE + 1e-15

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("r", [r for r in RADII if r >= 0])
    def test_area_majorant(self, beta, r):
        assert abs(area_majorant(r, beta) - true_area(r, beta)) <= TOLERANCE + 1e-15

    @pytest.mark.parametrize("beta", [0.9, 0.95])
    @pytest.mark.parametrize("r", [0.9, 0.95])
    def test_area_majorant_at_the_solver_corner(self, beta, r):
        # Truncation and rounding together, far inside oracles.area_bound:
        # the rounding outgrows TOLERANCE only closer to beta, r = 1.
        assert abs(area_majorant(r, beta) - true_area(r, beta)) <= TOLERANCE + 1e-15

    def test_error_is_small_next_to_tiny_values(self):
        # f(r^m)^p with p < 1 magnifies the error of f at tiny arguments, so
        # the tail is held below TOLERANCE * |r|, not TOLERANCE alone.
        for r in (1.4e-7, -1.4e-7, 1e-3):
            assert abs(eval_extremal(r, 0.3) - true_f(r, 0.3)) <= TOLERANCE * abs(r) + 1e-22


class TestGrowthEnvelope:
    def test_beta0_values(self):
        lower, upper = growth_envelope(0.5, 0.0)
        assert lower == pytest.approx(-(0.5 - 2.0 * math.log(1.5)), abs=1e-9)
        assert upper == pytest.approx(f_tilde_beta0(0.5), abs=1e-9)

    def test_degenerate_at_zero(self):
        assert growth_envelope(0.0, 0.3) == (0.0, 0.0)

    @given(
        r=st.floats(min_value=0.01, max_value=0.9),
        beta=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_ordered_and_nonnegative(self, r, beta):
        lower, upper = growth_envelope(r, beta)
        assert 0.0 < lower <= upper


class TestSeriesSizing:
    """Each series is long enough to meet its stated error bound against the
    closed-form truth, and refused only where it could pass MAX_TERMS."""

    @given(q=MODULI, negative=st.booleans(), beta=BETAS)
    @settings(max_examples=300, deadline=None)
    @example(q=1.061e-06, negative=False, beta=0.06)
    @example(q=0.0001184, negative=True, beta=0.08)
    def test_eval_extremal(self, q, negative, beta):
        check_eval_extremal(-q if negative else q, beta)

    @given(r=MODULI, beta=BETAS)
    @settings(max_examples=300, deadline=None)
    @example(r=0.9608, beta=0.98)
    @example(r=0.9081, beta=0.98)
    def test_area_majorant(self, r, beta):
        check_area_majorant(r, beta)

    # Around the modulus where the tail bound past n terms starts to fail, as
    # pow takes it, f's running test, which rounds more, may stop a term on
    # either side of the pow test's least n.  At that modulus and the three
    # doubles on each side the value is within its stated bound of the truth;
    # a stop a term too early fails this only where the tail it leaves is
    # above that bound.  At the examples' moduli the running test stops one
    # term off the pow test.
    @given(beta=st.floats(0.0, 1.0), n=st.integers(1, 60), negative=st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(beta=0.48785665652414756, n=101, negative=False)
    @example(beta=0.8599465287952899, n=32, negative=True)
    def test_eval_extremal_stops_at_the_least_n(self, beta, n, negative):
        q = last_passing(lambda q: _f_tail_meets(q, 1.0 - beta, beta, n))
        for x in doubles_around(q):
            check_eval_extremal(-x if negative else x, beta)

    # The same for the area series at r, x = r r; at the example's modulus its
    # running test stops one term off the pow test.
    @given(beta=st.floats(0.0, 1.0), n=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    @example(beta=0.31856625537613464, n=9)
    def test_area_majorant_stops_at_the_least_n(self, beta, n):
        r = last_passing(lambda r: _area_tail_meets(r * r, 1.0 - beta, beta, n))
        for x in doubles_around(r):
            check_area_majorant(x, beta)

    # At the largest modulus where MAX_TERMS terms meet the tail bound, each
    # series sums them, within its stated error; at the next double it is
    # refused.  Both crossings lie above the moduli up to which the cap is
    # never tested, which are set from beta = 1, where they are least.  At the
    # last beta, a length estimate from logarithms lands one term past
    # MAX_TERMS at that modulus, where MAX_TERMS terms meet the bound.
    @pytest.mark.parametrize("beta", [0.0, 1.0 - 1e-9, 1.0, 0.9999999999994107])
    def test_eval_extremal_at_the_cap(self, beta):
        q = last_passing(lambda q: _f_tail_meets(q, 1.0 - beta, beta, MAX_TERMS))
        assert q > _F_CAP_ABOVE
        check_eval_extremal(q, beta)
        for r in (math.nextafter(q, 1.0), -math.nextafter(q, 1.0)):
            with pytest.raises(ConvergenceError) as info:
                eval_extremal(r, beta)
            assert str(info.value) == too_long("extremal series", r)

    @pytest.mark.parametrize("beta", [0.0, 1.0 - 1e-9, 1.0])
    def test_area_majorant_at_the_cap(self, beta):
        r = last_passing(lambda r: _area_tail_meets(r * r, 1.0 - beta, beta, MAX_TERMS))
        assert r * r > _AREA_CAP_ABOVE
        check_area_majorant(r, beta)
        with pytest.raises(ConvergenceError) as info:
            area_majorant(math.nextafter(r, 1.0), beta)
        assert str(info.value) == too_long("area series", math.nextafter(r, 1.0))


class TestConfigValidation:
    def test_beta_param_range(self):
        with pytest.raises(BetaDomainError):
            BetaParam(-0.1)
        with pytest.raises(BetaDomainError):
            BetaParam(1.1)
