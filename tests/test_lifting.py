"""Tests for dyadic quantisation and the multiplication-less lifting rotation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lifting_oracle import LiftingRotation, dyadic_apply, shift_add_apply
from repro.core.lifting import DyadicCoefficient, LiftingRotationArray


class TestDyadicCoefficient:
    def test_paper_example(self):
        """9/128 from Figure 3(b): two shift/add terms, 1/2^4 + 1/2^7."""
        coeff = DyadicCoefficient(numerator=9, beta=7)
        assert coeff.value == 9 / 128
        assert coeff.shift_add_terms() == [(1, 4), (1, 7)]
        assert coeff.adder_count() == 2

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), st.integers(min_value=1, max_value=40))
    def test_quantisation_error_bound(self, value, beta):
        coeff = DyadicCoefficient.from_float(value, beta)
        assert coeff.quantisation_error(value) <= 2.0 ** (-beta - 1) + 1e-15

    @given(st.integers(min_value=-(2**30), max_value=2**30))
    @settings(max_examples=50)
    def test_shift_add_matches_rounded_product(self, operand):
        coeff = DyadicCoefficient.from_float(math.sin(1.0), 16)
        exact = dyadic_apply(coeff, operand)
        shift_add = shift_add_apply(operand, coeff.shift_add_terms())
        # Floor-per-term vs round-at-the-end: bounded by the term count.
        assert abs(shift_add - exact) <= coeff.adder_count() + 1

    def test_apply_rounds_product(self):
        coeff = DyadicCoefficient.from_float(0.25, 8)
        assert [dyadic_apply(coeff, x) for x in (100, 101, -7)] == [25, 25, -2]

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            DyadicCoefficient.from_float(0.5, -1)


class TestLiftingRotationScalar:
    @pytest.mark.parametrize("angle", [0.1, 0.7, 1.3, 2.0, 3.0, -0.4, -2.5, 5.9])
    def test_forward_approximates_rotation(self, angle):
        rotation = LiftingRotation(angle=angle, beta=24)
        re, im = 1_000_000, -250_000
        got_re, got_im = rotation.forward(re, im)
        expect_re = re * math.cos(angle) - im * math.sin(angle)
        expect_im = re * math.sin(angle) + im * math.cos(angle)
        assert abs(got_re - expect_re) <= 64
        assert abs(got_im - expect_im) <= 64

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.1, 2.2, -1.8, 3.14159, 4.7])
    @pytest.mark.parametrize("beta", [4, 8, 16])
    def test_perfect_reconstruction(self, angle, beta):
        """Lifting with rounding is exactly invertible whatever the quantisation."""
        rotation = LiftingRotation(angle=angle, beta=beta)
        for re, im in [(0, 0), (12345, -999), (-2**20, 2**19), (7, 3)]:
            fw = rotation.forward(re, im)
            assert rotation.inverse(*fw) == (re, im)

    def test_adder_count_positive_for_nontrivial_angle(self):
        rotation = LiftingRotation(angle=0.9, beta=16)
        assert rotation.tan_half.adder_count() + rotation.sin.adder_count() > 0

    def test_quarter_turn_reduction_keeps_coefficients_small(self):
        rotation = LiftingRotation(angle=3.0, beta=32)
        assert abs(rotation.tan_half.value) <= math.tan(math.pi / 8) + 1e-6
        assert abs(rotation.sin.value) <= math.sin(math.pi / 4) + 1e-6


class TestLiftingRotationArray:
    def test_matches_scalar_implementation(self):
        angles = np.linspace(-3.0, 3.0, 17)
        array_rotation = LiftingRotationArray(angles, beta=20)
        re = np.full(angles.shape, 54321.0)
        im = np.full(angles.shape, -11111.0)
        got_re, got_im = array_rotation.forward(re, im)
        for idx, angle in enumerate(angles):
            scalar = LiftingRotation(angle=float(angle), beta=20)
            s_re, s_im = scalar.forward(54321, -11111)
            assert abs(got_re[idx] - s_re) <= 1
            assert abs(got_im[idx] - s_im) <= 1

    @pytest.mark.parametrize("beta", [2, 4, 8, 12, 16, 24, 32, 40])
    def test_matches_scalar_implementation_at_beta(self, beta):
        angles = np.linspace(-6.0, 6.0, 25)
        array_rotation = LiftingRotationArray(angles, beta=beta)
        re = np.full(angles.shape, 987654.0)
        im = np.full(angles.shape, -123457.0)
        got_re, got_im = array_rotation.forward(re, im)
        back_re, back_im = array_rotation.inverse(got_re, got_im)
        assert np.array_equal(back_re, re) and np.array_equal(back_im, im)
        for idx, angle in enumerate(angles):
            s_re, s_im = LiftingRotation(angle=float(angle), beta=beta).forward(987654, -123457)
            assert abs(got_re[idx] - s_re) <= 1
            assert abs(got_im[idx] - s_im) <= 1

    def test_vectorised_perfect_reconstruction(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(-6.0, 6.0, 64)
        rotation = LiftingRotationArray(angles, beta=12)
        re = np.round(rng.uniform(-1e6, 1e6, 64))
        im = np.round(rng.uniform(-1e6, 1e6, 64))
        fw_re, fw_im = rotation.forward(re, im)
        back_re, back_im = rotation.inverse(fw_re, fw_im)
        assert np.array_equal(back_re, re)
        assert np.array_equal(back_im, im)

    def test_rotation_accuracy_improves_with_beta(self):
        angles = np.linspace(0.05, 2.9, 33)
        re = np.full(angles.shape, 1.0e6)
        im = np.zeros(angles.shape)
        errors = []
        for beta in (4, 10, 20):
            rotation = LiftingRotationArray(angles, beta=beta)
            got_re, got_im = rotation.forward(re, im)
            expect_re = 1.0e6 * np.cos(angles)
            expect_im = 1.0e6 * np.sin(angles)
            errors.append(float(np.max(np.abs(got_re - expect_re) + np.abs(got_im - expect_im))))
        assert errors[0] > errors[1] > errors[2]

    def test_zero_angle_is_identity(self):
        rotation = LiftingRotationArray(np.zeros(4), beta=16)
        re, im = rotation.forward(np.array([1.0, 2, 3, 4]), np.array([5.0, 6, 7, 8]))
        assert np.array_equal(re, [1, 2, 3, 4])
        assert np.array_equal(im, [5, 6, 7, 8])

    def test_length(self):
        assert len(LiftingRotationArray(np.zeros(7), beta=8)) == 7
