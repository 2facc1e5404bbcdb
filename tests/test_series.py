import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeta.extremal import extremal_coeff
from abeta.verify import caratheodory_to_member
from oracles import series_div, series_mul


def S(*coeffs):
    return np.array(coeffs, dtype=complex)


class TestMul:
    def test_difference_of_squares(self):
        out = series_mul(S(1, 1, 0), S(1, -1, 0))
        assert np.allclose(out, [1, 0, -1])

    def test_identity_element(self):
        a = S(1, 2, 2)
        out = series_mul(a, S(1, 0, 0))
        assert np.allclose(out, a)

    def test_truncates_to_min_order(self):
        out = series_mul(S(1, 1, 1, 1), S(1, 1))
        assert out.size == 2


class TestDiv:
    def test_even_geometric(self):
        # (1+z^2)/(1-z^2) = 1 + 2z^2 + 2z^4 + ...
        out = series_div(S(1, 0, 1, 0, 0), S(1, 0, -1, 0, 0))
        assert np.allclose(out, [1, 0, 2, 0, 2])

    def test_moebius_kernel(self):
        out = series_div(S(1, 1, 0, 0), S(1, -1, 0, 0))
        assert np.allclose(out, [1, 2, 2, 2])

    def test_division_by_one(self):
        a = S(3, 1, 4, 1)
        out = series_div(a, S(1, 0, 0, 0))
        assert np.allclose(out, a)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ZeroDivisionError):
            series_div(S(1, 1), S(0, 1))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=8,
        ),
        st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=8,
        ),
        st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, num, den_tail, den_head):
        num_s = np.array(num, dtype=complex)
        den_s = np.array([den_head] + den_tail, dtype=complex)
        size = min(num_s.size, den_s.size)
        quot = series_div(num_s, den_s)
        back = series_mul(quot, den_s)
        # Long division amplifies rounding by the quotient magnitude; scale
        # the tolerance with the conditioning of the product.
        scale = 1.0 + np.max(np.abs(quot)) * np.sum(np.abs(den_s))
        assert np.allclose(back, num_s[:size], atol=1e-13 * scale)


class TestCaratheodoryToMember:
    def test_extremal_source(self):
        # c = (1, 2, 2, ...) reproduces the extremal coefficients.
        c = S(*([1] + [2] * 8))
        for beta in (0.0, 0.4, 1.0):
            a = caratheodory_to_member(c, beta)
            for n in range(1, 10):
                assert a[n - 1] == pytest.approx(extremal_coeff(n, beta), abs=1e-14)

    def test_even_extremal_source(self):
        a = caratheodory_to_member(S(1, 0, 2), 0.0)
        assert a[1] == 0
        assert a[2] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_identity_member(self):
        a = caratheodory_to_member(S(1, 0, 0, 0), 0.7)
        assert a[0] == 1
        assert np.allclose(a[1:], 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            caratheodory_to_member(S(2, 1), 0.0)

    def test_block_of_rows(self):
        rows = np.array([S(1, 2, 2, 2), S(1, 0, 2, 0), S(1, 0.5j, -1, 0.25)])
        block = caratheodory_to_member(rows, 0.3)
        for row, a in zip(rows, block):
            assert np.array_equal(a, caratheodory_to_member(row, 0.3))
        rows[1, 0] = 0.5
        with pytest.raises(ValueError):
            caratheodory_to_member(rows, 0.3)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=12,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_coefficient_bound_consistency(self, c_tail, beta):
        # Any source with |c_n| <= 2 yields |a_n| within the sharp bound.
        c = np.array([1.0 + 0j] + c_tail)
        a = caratheodory_to_member(c, beta)
        for n in range(2, c.size + 1):
            assert abs(a[n - 1]) <= extremal_coeff(n, beta) + 1e-12
