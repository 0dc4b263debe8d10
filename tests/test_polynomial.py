"""Unit and property tests for negacyclic polynomial arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tgsw_oracle import negacyclic_convolution, poly_add, poly_mul_by_xk, poly_sub
from repro.tfhe.polynomial import negacyclic_convolution_int64

DEGREE = 16

coeff_arrays = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=DEGREE, max_size=DEGREE
).map(lambda xs: np.array(xs, dtype=np.int32))

small_arrays = st.lists(
    st.integers(min_value=-512, max_value=512), min_size=DEGREE, max_size=DEGREE
).map(lambda xs: np.array(xs, dtype=np.int64))


class TestLinearOps:
    @given(coeff_arrays, coeff_arrays)
    def test_add_sub_roundtrip(self, a, b):
        assert np.array_equal(poly_sub(poly_add(a, b), b), a)


class TestRotation:
    @given(coeff_arrays, st.integers(min_value=0, max_value=4 * DEGREE))
    def test_rotation_by_2n_is_identity(self, a, k):
        rotated = poly_mul_by_xk(poly_mul_by_xk(a, k), 2 * DEGREE - (k % (2 * DEGREE)))
        assert np.array_equal(rotated, a)

    @given(coeff_arrays)
    def test_rotation_by_n_negates(self, a):
        assert np.array_equal(poly_mul_by_xk(a, DEGREE), poly_sub(np.zeros_like(a), a))

    @given(coeff_arrays, st.integers(min_value=0, max_value=2 * DEGREE), st.integers(min_value=0, max_value=2 * DEGREE))
    def test_rotation_composes_additively(self, a, j, k):
        both = poly_mul_by_xk(a, j + k)
        sequential = poly_mul_by_xk(poly_mul_by_xk(a, j), k)
        assert np.array_equal(both, sequential)

    def test_rotation_moves_coefficients_negacyclically(self):
        poly = np.zeros(4, dtype=np.int32)
        poly[3] = 7
        rotated = poly_mul_by_xk(poly, 1)  # X * X^3 = X^4 = -1
        assert rotated[0] == -7
        assert not rotated[1:].any()


class TestConvolution:
    def test_multiply_by_one(self):
        one = np.zeros(DEGREE, dtype=np.int64)
        one[0] = 1
        b = np.arange(DEGREE, dtype=np.int32)
        assert np.array_equal(negacyclic_convolution(one, b), b)

    def test_multiply_by_x_equals_rotation(self):
        x = np.zeros(DEGREE, dtype=np.int64)
        x[1] = 1
        b = np.arange(1, DEGREE + 1, dtype=np.int32)
        assert np.array_equal(negacyclic_convolution(x, b), poly_mul_by_xk(b, 1))

    @given(small_arrays, coeff_arrays, coeff_arrays)
    @settings(max_examples=25)
    def test_distributes_over_addition(self, a, b, c):
        left = negacyclic_convolution(a, poly_add(b, c))
        right = poly_add(negacyclic_convolution(a, b), negacyclic_convolution(a, c))
        assert np.array_equal(left, right)

    @given(small_arrays, small_arrays)
    @settings(max_examples=25)
    def test_int64_variant_is_commutative(self, a, b):
        assert np.array_equal(
            negacyclic_convolution_int64(a, b), negacyclic_convolution_int64(b, a)
        )

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            negacyclic_convolution(np.zeros(8, dtype=np.int64), np.zeros(16, dtype=np.int32))

    def test_negacyclic_wraparound_sign(self):
        # (X^{N-1}) * (X) = X^N = -1
        a = np.zeros(DEGREE, dtype=np.int64)
        a[DEGREE - 1] = 1
        b = np.zeros(DEGREE, dtype=np.int32)
        b[1] = 1
        result = negacyclic_convolution(a, b)
        assert result[0] == -1
        assert not result[1:].any()
