"""Unit and property tests for repro.utils.bits."""

import pytest
from hypothesis import given, strategies as st

from lifting_oracle import shift_add_apply
from repro.utils.bits import bit_length, is_power_of_two, signed_digit_expansion


class TestPowerOfTwo:
    def test_powers_are_recognised(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers_are_rejected(self):
        for value in (0, -1, -2, 3, 5, 6, 7, 9, 12, 100, 1023):
            assert not is_power_of_two(value)


class TestBitLength:
    def test_zero(self):
        assert bit_length(0) == 0

    def test_positive(self):
        assert bit_length(1) == 1
        assert bit_length(255) == 8
        assert bit_length(256) == 9

    def test_negative_uses_magnitude(self):
        assert bit_length(-255) == 8


class TestSignedDigitExpansion:
    def test_paper_example_9_over_128(self):
        """The paper's Figure 3(b): 9/128 = 1/2^4 + 1/2^7."""
        terms = signed_digit_expansion(9, 7)
        assert terms == [(1, 4), (1, 7)]

    def test_zero_has_no_terms(self):
        assert signed_digit_expansion(0, 10) == []

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            signed_digit_expansion(3, -1)

    @given(st.integers(min_value=-(2**20), max_value=2**20), st.integers(min_value=0, max_value=24))
    def test_expansion_evaluates_back(self, numerator, beta):
        terms = signed_digit_expansion(numerator, beta)
        value = sum(sign * 2.0 ** (-shift) for sign, shift in terms)
        assert value == pytest.approx(numerator / 2**beta, abs=1e-12)

    @given(st.integers(min_value=1, max_value=2**20))
    def test_non_adjacent_form_is_sparse(self, numerator):
        """NAF never uses two adjacent digit positions."""
        terms = signed_digit_expansion(numerator, 0)
        shifts = sorted(shift for _, shift in terms)
        for a, b in zip(shifts, shifts[1:]):
            assert b - a >= 2

    def test_shift_add_apply_matches_multiplication(self):
        terms = signed_digit_expansion(9, 7)  # 9/128
        operand = 128 * 1000
        assert shift_add_apply(operand, terms) == operand * 9 // 128

    @given(
        st.integers(min_value=-(2**30), max_value=2**30),
        st.integers(min_value=1, max_value=2**12),
        st.integers(min_value=4, max_value=16),
    )
    def test_shift_add_apply_close_to_product(self, operand, numerator, beta):
        terms = signed_digit_expansion(numerator, beta)
        exact = operand * numerator / 2**beta
        approx = shift_add_apply(operand, terms)
        # Each of the <= beta shifted terms floors once.
        assert abs(approx - exact) <= len(terms) + 1
