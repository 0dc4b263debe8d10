"""Tests for twiddle-factor schedules, DVQTF quantisation and read accounting."""

import cmath

import numpy as np
import pytest

from repro.core.twiddle import (
    TwiddleFactorBuffer,
    breadth_first_twiddle_reads,
    conjugate_pair_twiddle_reads,
    twiddle_read_counts,
)


def _quantisation_error(twiddle) -> float:
    """Distance between a quantised root of unity and the exact one."""
    return abs(twiddle.value - cmath.exp(1j * twiddle.angle))


class TestTwiddleBuffer:
    def test_entries_are_unit_roots(self):
        buffer = TwiddleFactorBuffer(16, twiddle_bits=40)
        values = np.array([buffer.read(k).value for k in range(16)])
        assert np.allclose(np.abs(values), 1.0, atol=1e-6)

    def test_quantisation_error_decreases_with_bits(self):
        def max_error(twiddle_bits):
            buffer = TwiddleFactorBuffer(64, twiddle_bits=twiddle_bits)
            return max(_quantisation_error(buffer.read(k)) for k in range(64))

        coarse = max_error(6)
        fine = max_error(20)
        assert fine < coarse

    def test_reads_are_counted_and_resettable(self):
        buffer = TwiddleFactorBuffer(8, twiddle_bits=16)
        buffer.read(1)
        buffer.read(3)
        assert buffer.reads == 2
        buffer.reset_reads()
        assert buffer.reads == 0

    def test_index_wraps(self):
        buffer = TwiddleFactorBuffer(8, twiddle_bits=16)
        assert buffer.read(9).angle == buffer.read(1).angle

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            TwiddleFactorBuffer(12, twiddle_bits=16)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            TwiddleFactorBuffer(8, twiddle_bits=16, sign=2)


@pytest.mark.parametrize("twiddle_bits", [4, 8, 12, 16, 24, 32])
def test_quantisation_error_is_bounded_by_the_twiddle_bits(twiddle_bits):
    """Each part rounds to the nearest multiple of 2^-bits, so a quantised
    root of unity lies within sqrt(2)/2 · 2^-bits of the exact one."""
    buffer = TwiddleFactorBuffer(64, twiddle_bits=twiddle_bits)
    worst = max(_quantisation_error(buffer.read(k)) for k in range(64))
    assert worst <= 2.0**-0.5 * 2.0**-twiddle_bits + 1e-15


@pytest.mark.parametrize("log_size", range(2, 13))
def test_read_counts_follow_the_closed_forms(log_size):
    size = 1 << log_size
    counts = twiddle_read_counts(size)
    assert counts["breadth_first_reads"] == size // 2 * log_size
    assert counts["conjugate_pair_reads"] == size // 4 * (log_size - 1)
    assert counts["reduction_factor"] >= 2.0


class TestReadAccounting:
    def test_breadth_first_formula(self):
        # N/2 butterflies per stage, log2 N stages.
        assert breadth_first_twiddle_reads(512) == 256 * 9

    def test_conjugate_pair_reads_fewer(self):
        for size in (64, 256, 512, 1024):
            assert conjugate_pair_twiddle_reads(size) < breadth_first_twiddle_reads(size)

    def test_reduction_factor_at_least_two(self):
        counts = twiddle_read_counts(512)
        assert counts["reduction_factor"] >= 2.0
