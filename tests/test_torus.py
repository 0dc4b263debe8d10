"""Unit and property tests for the torus arithmetic layer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tfhe.torus import (
    TORUS_SCALE,
    double_to_torus32,
    gaussian_torus32,
    modswitch_from_torus32,
    modswitch_to_torus32,
    torus32_from_int64,
    torus32_to_double,
    torus_distance,
    uniform_torus32,
)

torus_ints = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestEncodingRoundtrip:
    @given(st.floats(min_value=-0.49, max_value=0.49, allow_nan=False))
    def test_double_roundtrip(self, value):
        encoded = double_to_torus32(value)
        decoded = float(torus32_to_double(encoded))
        assert abs(decoded - value) <= 1.0 / TORUS_SCALE

    @given(st.integers(min_value=0, max_value=7))
    def test_modswitch_roundtrip(self, message):
        encoded = modswitch_to_torus32(message, 8)
        assert int(modswitch_from_torus32(encoded, 8)) == message

    def test_eighth_encoding_sign(self):
        plus = double_to_torus32(0.125)
        minus = double_to_torus32(-0.125)
        assert int(plus) > 0
        assert int(minus) < 0
        assert int(plus) == -int(minus)


class TestArithmetic:
    """Torus addition is int64 arithmetic folded back by ``torus32_from_int64``."""

    @given(torus_ints, torus_ints)
    def test_add_sub_inverse(self, a, b):
        total = torus32_from_int64(a + b)
        assert int(torus32_from_int64(int(total) - b)) == np.int32(a)

    @given(torus_ints, torus_ints, torus_ints)
    def test_add_associative(self, a, b, c):
        left = torus32_from_int64(int(torus32_from_int64(a + b)) + c)
        right = torus32_from_int64(a + int(torus32_from_int64(b + c)))
        assert int(left) == int(right)

    @given(torus_ints)
    def test_scale_by_one_is_identity(self, a):
        assert int(torus32_from_int64(1 * a)) == np.int32(a)

    @given(torus_ints, st.integers(min_value=-8, max_value=8))
    def test_scale_matches_repeated_addition(self, a, k):
        expected = 0
        for _ in range(abs(k)):
            expected = int(torus32_from_int64(expected + a))
        if k < 0:
            expected = int(torus32_from_int64(-expected))
        assert int(torus32_from_int64(k * a)) == expected

    def test_wraparound_is_mod_2_32(self):
        assert int(torus32_from_int64(2**32 + 17)) == 17
        assert int(torus32_from_int64(-(2**32) - 17)) == -17


class TestApproxPhase:
    """``modswitch_from_torus32`` rounds a noisy phase to the nearest grid point."""

    def test_rounds_to_message_grid(self):
        mu = double_to_torus32(0.125)
        noisy = torus32_from_int64(int(mu) + 1000)
        assert int(modswitch_to_torus32(modswitch_from_torus32(noisy, 8), 8)) == int(mu)

    def test_large_noise_moves_to_next_point(self):
        mu = double_to_torus32(0.125)
        noisy = torus32_from_int64(int(mu) + int(double_to_torus32(0.09)))
        assert int(modswitch_to_torus32(modswitch_from_torus32(noisy, 8), 8)) != int(mu)


@pytest.mark.parametrize("space", [2, 4, 8, 16, 32, 64, 256, 1024, 2**16])
def test_modswitch_decodes_within_half_an_interval(space):
    """Every message survives a phase error just under half its interval and
    moves to the next one just over it."""
    messages = np.arange(min(space, 512))
    encoded = modswitch_to_torus32(messages, space).astype(np.int64)
    half = TORUS_SCALE // space // 2
    assert np.array_equal(modswitch_from_torus32(encoded, space), messages)
    for offset in (half - 1, -half):
        noisy = torus32_from_int64(encoded + offset)
        assert np.array_equal(modswitch_from_torus32(noisy, space), messages)
    moved = modswitch_from_torus32(torus32_from_int64(encoded + half), space)
    assert np.array_equal(moved, (messages + 1) % space)


class TestSampling:
    def test_gaussian_stddev_is_respected(self):
        rng = np.random.default_rng(0)
        samples = torus32_to_double(gaussian_torus32(2.0**-10, size=20000, rng=rng))
        assert np.std(samples) == pytest.approx(2.0**-10, rel=0.05)

    def test_uniform_covers_both_signs(self):
        rng = np.random.default_rng(0)
        samples = uniform_torus32(1000, rng)
        assert (samples > 0).any() and (samples < 0).any()

    def test_gaussian_deterministic_for_seed(self):
        a = gaussian_torus32(2.0**-10, size=16, rng=7)
        b = gaussian_torus32(2.0**-10, size=16, rng=7)
        assert np.array_equal(a, b)


class TestDistance:
    @given(torus_ints)
    def test_distance_to_self_is_zero(self, a):
        assert float(torus_distance(a, a)) == 0.0

    @given(torus_ints, torus_ints)
    def test_distance_symmetry(self, a, b):
        assert float(torus_distance(a, b)) == pytest.approx(float(torus_distance(b, a)))

    @given(torus_ints, torus_ints)
    def test_distance_bounded_by_half(self, a, b):
        assert float(torus_distance(a, b)) <= 0.5 + 1e-9
