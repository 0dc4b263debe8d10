"""Tests for the approximate multiplication-less integer negacyclic transform."""

import numpy as np
import pytest

from tgsw_oracle import negacyclic_convolution
from repro.core.integer_fft import ApproximateNegacyclicTransform, IntegerSpectrum
from repro.tfhe.polynomial import negacyclic_convolution_int64
from repro.tfhe.torus import TORUS_SCALE

DEGREE = 256


def random_operands(seed=0, degree=DEGREE, int_bound=512):
    rng = np.random.default_rng(seed)
    int_poly = rng.integers(-int_bound, int_bound, degree)
    torus_poly = rng.integers(-(2**31), 2**31, degree).astype(np.int32)
    return int_poly, torus_poly


class TestRoundTrip:
    def test_forward_backward_recovers_small_polynomial(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        poly, _ = random_operands(1)
        recovered = transform.backward(transform.forward(poly))
        assert np.array_equal(recovered, poly)

    def test_forward_backward_recovers_torus_polynomial(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        _, poly = random_operands(2)
        recovered = transform.backward(transform.forward(poly))
        assert np.max(np.abs(recovered - poly.astype(np.int64))) <= 4

    def test_forward_attaches_scale_to_small_inputs(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        small, big = random_operands(3)
        assert transform.forward(small).scale_bits > transform.forward(big).scale_bits


class TestMultiplication:
    def test_product_is_close_to_exact(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        a, b = random_operands(4)
        exact = negacyclic_convolution_int64(a, b)
        approx = transform.backward(
            transform.spectrum_mul(transform.forward(a), transform.forward(b))
        )
        relative = np.abs(approx - exact) / TORUS_SCALE
        assert relative.max() < 1e-5

    def test_multiply_wraps_onto_torus(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        a, b = random_operands(5)
        wrapped = transform.multiply(a, b)
        exact = negacyclic_convolution(a, b)
        diff = (wrapped.astype(np.int64) - exact.astype(np.int64)) & 0xFFFFFFFF
        diff = np.minimum(diff, 2**32 - diff)
        assert diff.max() < 2**14

    def test_error_decreases_with_twiddle_bits(self):
        a, b = random_operands(6)
        exact = negacyclic_convolution_int64(a, b)
        errors = []
        for bits in (12, 20, 32):
            transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=bits)
            approx = transform.backward(
                transform.spectrum_mul(transform.forward(a), transform.forward(b))
            )
            errors.append(float(np.sqrt(np.mean((approx - exact) ** 2.0))))
        assert errors[0] > errors[1] > errors[2]

    def test_error_floor_independent_of_bits_beyond_50(self):
        a, b = random_operands(7)
        exact = negacyclic_convolution_int64(a, b)
        rms = []
        for bits in (54, 64):
            transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=bits)
            approx = transform.backward(
                transform.spectrum_mul(transform.forward(a), transform.forward(b))
            )
            rms.append(float(np.sqrt(np.mean((approx - exact) ** 2.0))))
        assert rms[1] <= rms[0] * 1.5 + 1.0


class TestSpectrumAlgebra:
    def test_spectrum_add_aligns_scales(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        small, big = random_operands(9)
        sum_spectrum = transform.spectrum_add(transform.forward(small), transform.forward(big))
        summed = transform.backward(sum_spectrum)
        expected = small.astype(np.int64) + big.astype(np.int64)
        assert np.max(np.abs(summed - expected)) <= 8

    def test_spectrum_zero_behaves_as_identity_for_add(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        poly, _ = random_operands(10)
        spectrum = transform.forward(poly)
        zero = IntegerSpectrum(np.zeros(DEGREE // 2, dtype=np.complex128), 0)
        total = transform.spectrum_add(zero, spectrum)
        assert np.array_equal(transform.backward(total), poly)

    def test_spectrum_copy_is_independent(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        poly, _ = random_operands(11)
        spectrum = transform.forward(poly)
        clone = spectrum.copy()
        clone.values[0] += 1000.0
        assert spectrum.values[0] != clone.values[0]

    def test_stats_track_directions(self):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        a, b = random_operands(12)
        transform.multiply(a, b)
        assert transform.stats.forward_polys == 2
        assert transform.stats.backward_polys == 1


class TestValidation:
    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            ApproximateNegacyclicTransform(100)

    def test_wrong_length_input_rejected(self):
        transform = ApproximateNegacyclicTransform(DEGREE)
        with pytest.raises(ValueError):
            transform.forward(np.zeros(DEGREE // 2))

    def test_invalid_twiddle_bits_rejected(self):
        with pytest.raises(ValueError):
            ApproximateNegacyclicTransform(DEGREE, twiddle_bits=0)

    def test_spectrum_length_checked_on_backward(self):
        transform = ApproximateNegacyclicTransform(DEGREE)
        with pytest.raises(ValueError):
            transform.backward(IntegerSpectrum(np.zeros(DEGREE, dtype=np.complex128), 0))
