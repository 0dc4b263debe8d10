"""Tests for the depth-first conjugate-pair FFT (structural model)."""

import numpy as np
import pytest

from repro.core.conjugate_pair import ConjugatePairFFT


def reference_dft(values: np.ndarray, sign: int = 1) -> np.ndarray:
    """Direct ``O(n^2)`` DFT used to validate the conjugate-pair flow."""
    values = np.asarray(values, dtype=np.complex128)
    n = values.shape[0]
    k = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    return kernel @ values


@pytest.fixture
def random_signal():
    rng = np.random.default_rng(9)
    return rng.normal(size=64) + 1j * rng.normal(size=64)


class TestCorrectness:
    @pytest.mark.parametrize("size", [4, 8, 16, 32, 128])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_reference_dft(self, size, sign):
        rng = np.random.default_rng(size)
        signal = rng.normal(size=size) + 1j * rng.normal(size=size)
        fft = ConjugatePairFFT(size, twiddle_bits=None, sign=sign)
        got = fft.transform(signal)
        ref = reference_dft(signal, sign)
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-6)

    def test_matches_numpy_inverse_convention(self, random_signal):
        fft = ConjugatePairFFT(64, twiddle_bits=None, sign=1)
        got = fft.transform(random_signal)
        ref = np.fft.ifft(random_signal) * 64
        assert np.allclose(got, ref, atol=1e-6)

    def test_quantised_twiddles_stay_close(self, random_signal):
        exact = ConjugatePairFFT(64, twiddle_bits=None).transform(random_signal)
        quantised = ConjugatePairFFT(64, twiddle_bits=20).transform(random_signal)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - quantised)) / scale < 1e-3

    def test_wrong_length_rejected(self):
        fft = ConjugatePairFFT(16)
        with pytest.raises(ValueError):
            fft.transform(np.zeros(8, dtype=np.complex128))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ConjugatePairFFT(24)


class TestDepthFirstStructure:
    def test_completion_order_is_depth_first(self, random_signal):
        fft = ConjugatePairFFT(64, twiddle_bits=None)
        fft.transform(random_signal)
        order = fft.stats.completion_order
        # The first completed sub-transform is a leaf; the full transform is last.
        assert order[0] <= 2
        assert order[-1] == 64

    def test_recursion_depth_is_logarithmic(self, random_signal):
        fft = ConjugatePairFFT(64, twiddle_bits=None)
        fft.transform(random_signal)
        assert fft.stats.max_depth <= int(np.log2(64)) + 1

    def test_butterflies_counted(self, random_signal):
        fft = ConjugatePairFFT(64, twiddle_bits=None)
        fft.transform(random_signal)
        assert fft.stats.butterflies > 0

    def test_twiddle_reads_below_breadth_first(self, random_signal):
        from repro.core.twiddle import breadth_first_twiddle_reads

        fft = ConjugatePairFFT(64, twiddle_bits=24)
        fft.transform(random_signal)
        assert fft.stats.twiddle_reads < breadth_first_twiddle_reads(64)

    def test_stats_reset_between_transforms(self, random_signal):
        fft = ConjugatePairFFT(64, twiddle_bits=None)
        fft.transform(random_signal)
        first = fft.stats.butterflies
        fft.transform(random_signal)
        assert fft.stats.butterflies == first
