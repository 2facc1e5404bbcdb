import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeta.bounds import (
    LogCoeffPair,
    fekete_szego_bound,
    inverse_log_coeffs,
    inverse_log_diff_bounds,
    log_coeffs,
    log_diff_bounds,
)
from oracles import (
    PsiInputs,
    inverse_coeffs,
    inverse_log_diff_bounds_via_psi,
    log_diff_bounds_via_psi,
    ma_minda_bound,
    psi_minus_bound,
    psi_plus_bound,
)

BETA_GRID = np.linspace(0.0, 1.0, 21)


class TestMaMinda:
    def test_branch_values(self):
        assert ma_minda_bound(0.5) == 2.0
        assert ma_minda_bound(-1.0) == 6.0
        assert ma_minda_bound(2.0) == 6.0

    def test_continuity_at_breakpoints(self):
        eps = 1e-12
        assert abs(ma_minda_bound(-eps) - ma_minda_bound(eps)) <= 1e-11
        assert abs(ma_minda_bound(1 - eps) - ma_minda_bound(1 + eps)) <= 1e-11


class TestFeketeSzego:
    def test_known_values(self):
        assert fekete_szego_bound(1.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fekete_szego_bound(-1.0, 0.0) == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert fekete_szego_bound(2.0, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_continuity_at_zero(self):
        for beta in BETA_GRID:
            left = fekete_szego_bound(-1e-13, beta)
            right = fekete_szego_bound(1e-13, beta)
            assert abs(left - right) <= 1e-12

    def test_continuity_at_upper_breakpoint(self):
        for beta in BETA_GRID:
            thresh = (2.0 - beta) ** 2 / (3.0 - 2.0 * beta)
            left = fekete_szego_bound(thresh - 1e-13, beta)
            right = fekete_szego_bound(thresh + 1e-13, beta)
            assert abs(left - right) <= 1e-11

    @given(
        mu=st.floats(min_value=-5.0, max_value=5.0),
        beta=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_reduction_identity(self, mu, beta):
        v = mu * (3.0 - 2.0 * beta) / (2.0 - beta) ** 2
        expected = ma_minda_bound(v) / (3.0 - 2.0 * beta)
        assert fekete_szego_bound(mu, beta) == pytest.approx(expected, abs=1e-12)

    def test_rejects_complex_mu(self):
        with pytest.raises(TypeError):
            fekete_szego_bound(1j, 0.0)

    @pytest.mark.parametrize("mu", [1e308, 2e307, -1e308, -2e307, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_rejects_non_finite_mu_or_bound(self, mu, beta):
        # 12*mu overflows from about 1.5e307: the bound once came back inf or nan.
        with pytest.raises(ValueError, match="^mu: "):
            fekete_szego_bound(mu, beta)

    @pytest.mark.parametrize("mu", [-1e307, -1.0, 5.0, 1e307])
    def test_finite_bound_keeps_the_closed_form_bits(self, mu):
        b = 0.3
        first = ((8.0 - 12.0 * mu) + (8.0 * mu - 8.0) * b + 2.0 * b * b) / (
            (3.0 - 2.0 * b) * (2.0 - b) ** 2
        )
        assert fekete_szego_bound(mu, b) == (first if mu < 0.0 else -first)


class TestPsiBounds:
    def test_plus_second_branch(self):
        # Condition |2 B2 + B3| >= |B3| + B1 fails: bound is 2|B3|.
        b = PsiInputs(B1=1.0, B2=-0.25, B3=2.0 / 3.0)
        assert abs(2 * b.B2 + b.B3) < abs(b.B3) + b.B1
        assert psi_plus_bound(b) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_plus_first_branch(self):
        b = PsiInputs(B1=1.0, B2=1.5, B3=-1.0)
        assert abs(2 * b.B2 + b.B3) >= abs(b.B3) + b.B1
        assert psi_plus_bound(b) == pytest.approx(2.0, abs=1e-12)

    def test_plus_degenerate(self):
        assert psi_plus_bound(PsiInputs(B1=1.0, B2=0.0, B3=0.0)) == 0.0

    def test_minus_middle_branch(self):
        b = PsiInputs(B1=1.0, B2=-0.25, B3=2.0 / 3.0)
        assert b.B1 ** 2 <= 2 * abs(b.B3) * (b.B4 + 2 * abs(b.B3))
        assert psi_minus_bound(b) == pytest.approx(4.0 / math.sqrt(5.0), abs=1e-12)

    def test_minus_first_branch_degenerate(self):
        assert psi_minus_bound(PsiInputs(B1=1.0, B2=0.0, B3=0.0)) == 2.0

    def test_minus_scaled_inverse_value(self):
        # The inverse-coefficient inputs at beta = 0, scaled by
        # 1/(2(2-beta)), give the lower bound magnitude 1/3.
        b = PsiInputs(B1=1.0, B2=0.75, B3=-2.0 / 3.0)
        assert psi_minus_bound(b) / 4.0 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_nonpositive_b1(self):
        with pytest.raises(ValueError):
            PsiInputs(B1=0.0, B2=0.0, B3=1.0)


class TestLogCoeffMaps:
    def test_extremal_beta0(self):
        pair = log_coeffs(1.0, 2.0 / 3.0)
        assert pair.first == pytest.approx(0.5)
        assert pair.second == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_zero(self):
        assert log_coeffs(0.0, 0.0) == LogCoeffPair(0.0, 0.0)
        assert inverse_log_coeffs(0.0, 0.0) == LogCoeffPair(0.0, 0.0)

    def test_even_extremal_attains_upper(self):
        pair = log_coeffs(0.0, 2.0 / 3.0)
        assert pair.moduli_difference == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_inverse_values(self):
        pair = inverse_log_coeffs(1.0, 2.0 / 3.0)
        assert pair.first == pytest.approx(-0.5)
        assert pair.second == pytest.approx(5.0 / 12.0, abs=1e-15)

    def test_inverse_attains_beta1_upper(self):
        # Extremal coefficients at beta = 1: a2 = 2, a3 = 2.
        pair = inverse_log_coeffs(2.0, 2.0)
        assert pair.moduli_difference == pytest.approx(1.0, abs=1e-12)

    def test_inverse_taylor_coeffs(self):
        A2, A3 = inverse_coeffs(1.0, 2.0 / 3.0)
        assert A2 == -1.0
        assert A3 == pytest.approx(-2.0 / 3.0 + 2.0)

    def test_inverse_log_coeffs_match_defining_expansion(self):
        # Build F = f^{-1} from (A2, A3) and expand log(F(w)/w)/2 directly.
        a2, a3 = 0.7 + 0.2j, -0.3 + 0.5j
        A2, A3 = inverse_coeffs(a2, a3)
        # log(1 + A2 w + A3 w^2) = (A2) w + (A3 - A2^2/2) w^2 + O(w^3)
        Gamma1 = A2 / 2.0
        Gamma2 = (A3 - A2 * A2 / 2.0) / 2.0
        pair = inverse_log_coeffs(a2, a3)
        assert pair.first == pytest.approx(Gamma1, abs=1e-14)
        assert pair.second == pytest.approx(Gamma2, abs=1e-14)

    @given(
        a2=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        a3=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        theta=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariance(self, a2, a3, theta):
        w = cmath.exp(1j * theta)
        base = log_coeffs(a2, a3).moduli_difference
        rotated = log_coeffs(a2 * w, a3 * w * w).moduli_difference
        assert rotated == pytest.approx(base, abs=1e-10)
        base_i = inverse_log_coeffs(a2, a3).moduli_difference
        rotated_i = inverse_log_coeffs(a2 * w, a3 * w * w).moduli_difference
        assert rotated_i == pytest.approx(base_i, abs=1e-10)


class TestDiffBounds:
    def test_log_diff_known_values(self):
        assert log_diff_bounds(0.0) == pytest.approx(
            (-1.0 / math.sqrt(5.0), 1.0 / 3.0), abs=1e-12
        )
        assert log_diff_bounds(0.5) == pytest.approx(
            (-1.0 / math.sqrt(2.5), 0.5), abs=1e-12
        )
        assert log_diff_bounds(1.0) == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_inverse_log_diff_known_values(self):
        assert inverse_log_diff_bounds(0.0) == pytest.approx(
            (-1.0 / 3.0, 1.0 / 3.0), abs=1e-12
        )
        assert inverse_log_diff_bounds(0.5) == pytest.approx(
            (-1.0 / math.sqrt(6.0), 0.5), abs=1e-12
        )
        assert inverse_log_diff_bounds(1.0) == pytest.approx(
            (-1.0 / math.sqrt(3.0), 1.0), abs=1e-12
        )

    def test_pipeline_identity(self):
        for beta in BETA_GRID:
            assert log_diff_bounds(beta) == pytest.approx(
                log_diff_bounds_via_psi(beta), abs=1e-12
            )
            assert inverse_log_diff_bounds(beta) == pytest.approx(
                inverse_log_diff_bounds_via_psi(beta), abs=1e-12
            )

    def test_branch_selectors_on_grid(self):
        # The Psi+ condition fails for the member inputs everywhere on
        # [0, 1] and holds for the inverse inputs only at beta = 1; the
        # Psi- middle branch is selected in both pipelines.
        for beta in BETA_GRID:
            b = PsiInputs(1.0, -1.0 / (2 * (2 - beta)), (2 - beta) / (3 - 2 * beta))
            assert abs(2 * b.B2 + b.B3) < abs(b.B3) + b.B1
            assert b.B1 < b.B4 + 2 * abs(b.B3)
            assert b.B1 ** 2 <= 2 * abs(b.B3) * (b.B4 + 2 * abs(b.B3))
            bi = PsiInputs(1.0, 3.0 / (2 * (2 - beta)), -(2 - beta) / (3 - 2 * beta))
            cond = abs(2 * bi.B2 + bi.B3) >= abs(bi.B3) + bi.B1
            assert cond == (beta == 1.0)
            assert bi.B1 < bi.B4 + 2 * abs(bi.B3)
            assert bi.B1 ** 2 <= 2 * abs(bi.B3) * (bi.B4 + 2 * abs(bi.B3))
