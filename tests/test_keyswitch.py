"""Tests for LWE key switching.

The kernel is compared with :mod:`keyswitch_oracle`, the digit-by-digit
accumulation that skips zero digits.  A single sample is switched as a
one-row batch.
"""

import math

import numpy as np
import pytest

from keyswitch_oracle import (
    keyswitch_apply_batch_oracle,
    keyswitch_apply_oracle,
    keyswitch_totals_oracle,
)
from repro.tfhe import keyswitch
from repro.tfhe.keyswitch import KeySwitchKey, keyswitch_apply_batch, keyswitch_key_generate
from repro.tfhe.lwe import (
    LweBatch,
    LweSample,
    gate_message,
    lwe_decrypt_bit,
    lwe_encrypt,
    lwe_key_generate,
    lwe_noise,
)
from repro.tfhe.noise import TfheNoiseModel
from repro.tfhe.params import TEST_SMALL, TEST_TINY, KeySwitchParams
from repro.tfhe.tgsw import BootstrapWorkspace
from repro.tfhe.torus import torus32_from_int64, torus32_to_double


def keyswitch_one(ks: KeySwitchKey, sample: LweSample) -> LweSample:
    """The kernel on one sample: a one-row view in, row 0 out."""
    return keyswitch_apply_batch(ks, LweBatch(a=sample.a[None], b=np.asarray(sample.b)[None]))[0]


@pytest.fixture(scope="module")
def keys():
    params = TEST_SMALL
    input_key = lwe_key_generate(
        type(params.lwe)(dimension=params.N, noise_stddev=params.lwe.noise_stddev), rng=51
    )
    output_key = lwe_key_generate(params.lwe, rng=52)
    ks = keyswitch_key_generate(input_key, output_key, params.keyswitch, rng=53)
    return params, input_key, output_key, ks


class TestKeyGeneration:
    def test_key_shape(self, keys):
        params, input_key, output_key, ks = keys
        assert ks.data.shape == (
            input_key.dimension,
            params.keyswitch.length,
            params.keyswitch.base - 1,
            output_key.dimension + 1,
        )
        assert np.shares_memory(ks.table, ks.data)

    def test_dimensions_recorded(self, keys):
        _, input_key, output_key, ks = keys
        assert ks.input_dimension == input_key.dimension
        assert ks.output_dimension == output_key.dimension

    def test_entry_v_minus_one_encrypts_digit_v(self, keys):
        """``data[i, j, v − 1]`` encrypts ``v · key_in[i] / base^(j+1)``."""
        params, input_key, output_key, ks = keys
        ks_params = params.keyswitch
        base_bits, t, base = ks_params.base_bits, ks_params.length, ks_params.base
        data = ks.data.astype(np.int64)
        phase = data[..., -1] - data[..., :-1] @ output_key.key.astype(np.int64)
        values = np.arange(1, base, dtype=np.int64)
        shifts = 32 - base_bits * np.arange(1, t + 1, dtype=np.int64)
        message = (
            input_key.key.astype(np.int64)[:, None, None]
            * values[None, None, :]
            << shifts[None, :, None]
        )
        error = torus32_to_double(torus32_from_int64(phase - message))
        assert np.max(np.abs(error)) < 8 * ks_params.noise_stddev


class TestKeySwitching:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_switched_sample_decrypts_under_new_key(self, keys, bit):
        _, input_key, output_key, ks = keys
        sample = lwe_encrypt(input_key, gate_message(bit), rng=54 + bit)
        switched = keyswitch_one(ks, sample)
        assert switched.dimension == output_key.dimension
        assert lwe_decrypt_bit(output_key, switched) == bit

    def test_keyswitch_noise_is_bounded(self, keys):
        _, input_key, output_key, ks = keys
        mu = gate_message(1)
        sample = lwe_encrypt(input_key, mu, rng=60)
        switched = keyswitch_one(ks, sample)
        assert abs(lwe_noise(output_key, switched, mu)) < 1.0 / 32.0

    def test_dimension_mismatch_rejected(self, keys):
        _, _, output_key, ks = keys
        bad = lwe_encrypt(output_key, gate_message(0), rng=61)
        with pytest.raises(ValueError):
            keyswitch_one(ks, bad)

    def test_many_samples_roundtrip(self, keys):
        _, input_key, output_key, ks = keys
        rng = np.random.default_rng(62)
        failures = 0
        for i in range(20):
            bit = int(rng.integers(0, 2))
            sample = lwe_encrypt(input_key, gate_message(bit), rng=rng)
            if lwe_decrypt_bit(output_key, keyswitch_one(ks, sample)) != bit:
                failures += 1
        assert failures == 0


class TestWrapAroundMasks:
    """Regression: mask coefficients near the torus wrap-around.

    The key switch adds a rounding offset to the unsigned mask
    coefficients; for ``a ≈ 2^32 − 1`` the sum carries into bit 32 and must be
    reduced back onto the 32-bit torus before digit extraction.
    """

    def test_wraparound_sample_matches_reference(self, keys):
        _, input_key, _, ks = keys
        n_in = input_key.dimension
        # Every mask coefficient sits right at the wrap-around boundary, so the
        # rounding offset carries out of 32 bits for all of them.
        a = np.full(n_in, -1, dtype=np.int32)  # unsigned 0xFFFFFFFF
        a[::3] = np.int32(2**31 - 1)
        a[1::3] = np.int32(-(2**31))
        sample = LweSample(a=a, b=np.int32(1234567))
        switched = keyswitch_one(ks, sample)
        reference = keyswitch_apply_oracle(ks, sample)
        assert np.array_equal(switched.a, reference.a)
        assert int(switched.b) == int(reference.b)

    def test_wraparound_sample_still_decrypts(self, keys):
        """An honest encryption whose mask is forced near the wrap-around."""
        _, input_key, output_key, ks = keys
        rng = np.random.default_rng(77)
        for bit in (0, 1):
            # A fresh sample's mask is its seed's read-only expansion: edit a copy.
            sample = lwe_encrypt(input_key, gate_message(bit), rng=rng).copy()
            # Push a few coefficients to the boundary and patch b to keep the
            # phase: adding delta to a_i adds delta * s_i to a·s.
            delta_total = 0
            for idx in (0, 1, 2):
                target = np.int32(-1)
                delta = int(np.int64(target) - np.int64(sample.a[idx]))
                delta_total += delta * int(input_key.key[idx])
                sample.a[idx] = target
            sample.b = np.int32(torus32_from_int64(int(np.int64(sample.b)) + delta_total))
            assert lwe_decrypt_bit(output_key, keyswitch_one(ks, sample)) == bit


class TestTinyParameters:
    def test_keyswitch_with_tiny_parameters(self):
        params = TEST_TINY
        input_key = lwe_key_generate(
            type(params.lwe)(dimension=params.N, noise_stddev=params.lwe.noise_stddev), rng=63
        )
        output_key = lwe_key_generate(params.lwe, rng=64)
        ks = keyswitch_key_generate(input_key, output_key, params.keyswitch, rng=65)
        sample = lwe_encrypt(input_key, gate_message(1), rng=66)
        assert lwe_decrypt_bit(output_key, keyswitch_one(ks, sample)) == 1


class TestBlockedAccumulation:
    """The blocked uint32 accumulation against the digit-by-digit int64 oracle."""

    N_IN, N_OUT = 24, 9

    @staticmethod
    def _synthetic_key(ks_params, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(
            -(2**31), 2**31, (n_in, ks_params.length, ks_params.base - 1, n_out + 1)
        ).astype(np.int32)
        return KeySwitchKey(
            params=ks_params, data=data, input_dimension=n_in, output_dimension=n_out
        )

    @staticmethod
    def _masks(rng, batch, n_in, ks_params):
        """Random masks with the wrap-around and rounding-carry edges mixed in."""
        a = rng.integers(-(2**31), 2**31, (batch, n_in)).astype(np.int32)
        kept = ks_params.base_bits * ks_params.length
        half_ulp = 1 << (31 - kept) if kept < 32 else 0
        edges = np.array(
            [
                -1,  # ≡ 2^32 − 1: rounding carries out of bit 31
                0,
                2**31 - 1,
                -(2**31),
                -half_ulp,  # exactly the carry threshold below the wrap
                -half_ulp - 1,
                half_ulp,
                half_ulp - 1 if half_ulp else 1,
            ],
            dtype=np.int64,
        ).astype(np.int32)
        a[0, : len(edges)] = edges
        if batch > 1:
            a[1] = -1
        if batch > 2:
            a[2] = 0
        return a

    @pytest.mark.parametrize("batch", [1, 2, 65, 200])
    @pytest.mark.parametrize(
        "ks_params",
        [
            KeySwitchParams(base_bits=2, length=3, noise_stddev=0.0),
            KeySwitchParams(base_bits=4, length=8, noise_stddev=0.0),  # 32 bits: no rounding bit
        ],
        ids=["2x3", "4x8-no-rounding"],
    )
    # Table rows per block: one block for everything, a divisor of n_in·t
    # (72 and 192), a non-divisor, and fewer rows than wide batches have
    # ciphertexts (several ciphertext groups, one row each).
    @pytest.mark.parametrize("block_rows", [4096, 24, 7, 50])
    def test_totals_match_reference_mod_2_32(self, monkeypatch, ks_params, batch, block_rows):
        ks = self._synthetic_key(ks_params, self.N_IN, self.N_OUT, seed=70)
        monkeypatch.setattr(
            keyswitch, "KEYSWITCH_BLOCK_WORDS", block_rows * (self.N_OUT + 1)
        )
        a = self._masks(np.random.default_rng(71 + batch), batch, self.N_IN, ks_params)
        totals = keyswitch._keyswitch_totals(ks, a)
        reference = keyswitch_totals_oracle(ks, a)
        assert totals.dtype == np.uint32
        assert totals.shape == (batch, self.N_OUT + 1)
        assert np.array_equal(totals, (reference & 0xFFFFFFFF).astype(np.uint32))
        b = np.random.default_rng(72).integers(-(2**31), 2**31, batch).astype(np.int32)
        switched = keyswitch_apply_batch(ks, LweBatch(a=a, b=b))
        expected = keyswitch_apply_batch_oracle(ks, LweBatch(a=a, b=b))
        assert switched.a.dtype == switched.b.dtype == np.int32
        assert np.array_equal(switched.a, expected.a)
        assert np.array_equal(switched.b, expected.b)

    @staticmethod
    def _digit_extremes(ks_params):
        """Coefficients whose rounded digits are all 0, and one whose are all ``base − 1``."""
        kept = ks_params.base_bits * ks_params.length
        half_ulp = 1 << (31 - kept) if kept < 32 else 0
        # 0, the top of the zero bucket, and −half_ulp, which the rounding
        # carries round the torus to 0; all ones once rounded.
        zero_digits = [0] + ([half_ulp - 1, -half_ulp] if half_ulp else [])
        return np.array(zero_digits, dtype=np.int32), np.int32(-half_ulp - 1)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize(
        "ks_params",
        [
            KeySwitchParams(base_bits=2, length=3, noise_stddev=0.0),
            KeySwitchParams(base_bits=4, length=8, noise_stddev=0.0),
        ],
        ids=["2x3", "4x8-no-rounding"],
    )
    def test_a_mask_of_zero_digits_switches_to_its_body_alone(self, ks_params, batch):
        """No sample is selected, so the correction must cancel every row-0 read."""
        ks = self._synthetic_key(ks_params, self.N_IN, self.N_OUT, seed=80)
        zero_digits, _ = self._digit_extremes(ks_params)
        rng = np.random.default_rng(81)
        a = rng.choice(zero_digits, (batch, self.N_IN)).astype(np.int32)
        b = rng.integers(-(2**31), 2**31, batch).astype(np.int32)
        switched = keyswitch_apply_batch(ks, LweBatch(a=a, b=b))
        assert not switched.a.any()
        assert np.array_equal(switched.b, b)

    def test_a_zero_mask_switches_to_its_body_alone_under_a_real_key(self, keys):
        _, input_key, output_key, ks = keys
        switched = keyswitch_one(
            ks, LweSample(a=np.zeros(input_key.dimension, dtype=np.int32), b=np.int32(-7))
        )
        assert np.array_equal(switched.a, np.zeros(output_key.dimension, dtype=np.int32))
        assert switched.b == -7

    @pytest.mark.parametrize("batch", [1, 3, 65])
    @pytest.mark.parametrize(
        "ks_params",
        [
            KeySwitchParams(base_bits=2, length=3, noise_stddev=0.0),
            KeySwitchParams(base_bits=4, length=8, noise_stddev=0.0),
        ],
        ids=["2x3", "4x8-no-rounding"],
    )
    @pytest.mark.parametrize("block_rows", [4096, 24, 7, 50])
    def test_zero_full_and_wrapping_digits_match_the_oracle(
        self, monkeypatch, ks_params, batch, block_rows
    ):
        """Zero-digit counts from none to every digit, under every block shape."""
        ks = self._synthetic_key(ks_params, self.N_IN, self.N_OUT, seed=82)
        monkeypatch.setattr(
            keyswitch, "KEYSWITCH_BLOCK_WORDS", block_rows * (self.N_OUT + 1)
        )
        zero_digits, full = self._digit_extremes(ks_params)
        rng = np.random.default_rng(83 + batch)
        values = np.concatenate([zero_digits, [full, -1, 2**31 - 1, -(2**31)]]).astype(np.int32)
        a = rng.choice(values, (batch, self.N_IN)).astype(np.int32)
        a[0] = zero_digits[-1]  # every digit 0
        if batch > 1:
            a[1] = full  # no digit 0
            a[2:, ::3] = rng.integers(-(2**31), 2**31, a[2:, ::3].shape)
        b = rng.integers(-(2**31), 2**31, batch).astype(np.int32)
        totals = keyswitch._keyswitch_totals(ks, a)
        reference = keyswitch_totals_oracle(ks, a)
        assert np.array_equal(totals, (reference & 0xFFFFFFFF).astype(np.uint32))
        switched = keyswitch_apply_batch(ks, LweBatch(a=a, b=b))
        expected = keyswitch_apply_batch_oracle(ks, LweBatch(a=a, b=b))
        assert np.array_equal(switched.a, expected.a)
        assert np.array_equal(switched.b, expected.b)

    def test_workspace_block_is_reused_and_results_do_not_alias_it(self):
        ks = self._synthetic_key(
            KeySwitchParams(base_bits=2, length=3, noise_stddev=0.0), self.N_IN, self.N_OUT, 73
        )
        rng = np.random.default_rng(74)
        workspace = BootstrapWorkspace()
        results = []
        for batch in (3, 1, 5):
            a = self._masks(rng, batch, self.N_IN, ks.params)
            sample = LweBatch(a=a, b=np.arange(batch, dtype=np.int32))
            results.append((sample, keyswitch_apply_batch(ks, sample, workspace)))
            assert set(workspace._pools) == {"keyswitch"}
            assert workspace.nbytes == 4 * keyswitch.KEYSWITCH_BLOCK_WORDS
        for sample, switched in results:
            expected = keyswitch_apply_batch_oracle(ks, sample)
            assert np.array_equal(switched.a, expected.a)
            assert np.array_equal(switched.b, expected.b)
            assert not np.shares_memory(switched.a, workspace._pools["keyswitch"])

    def test_one_row_matches_the_oracle(self, keys):
        _, input_key, _, ks = keys
        sample = lwe_encrypt(input_key, gate_message(1), rng=75)
        switched = keyswitch_one(ks, sample)
        reference = keyswitch_apply_oracle(ks, sample)
        assert np.array_equal(switched.a, reference.a)
        assert switched.b == reference.b
        assert isinstance(switched.b, np.int32)

    def test_non_contiguous_key_is_flattened_once_not_per_call(self):
        ks_params = KeySwitchParams(base_bits=2, length=3, noise_stddev=0.0)
        dense = self._synthetic_key(ks_params, self.N_IN, 2 * self.N_OUT + 1, seed=76)
        strided = KeySwitchKey(
            params=ks_params,
            data=dense.data[..., ::2],  # every other column: not C-contiguous
            input_dimension=self.N_IN,
            output_dimension=self.N_OUT,
        )
        assert not strided.data.flags.c_contiguous
        assert np.shares_memory(dense.table, dense.data)  # contiguous keys: a view
        table = strided.table
        a = self._masks(np.random.default_rng(77), 3, self.N_IN, ks_params)
        sample = LweBatch(a=a, b=np.zeros(3, dtype=np.int32))
        first = keyswitch_apply_batch(strided, sample)
        second = keyswitch_apply_batch(strided, sample)
        assert strided.table is table  # the one flattened copy, cached
        expected = keyswitch_apply_batch_oracle(strided, sample)
        for switched in (first, second):
            assert np.array_equal(switched.a, expected.a)
            assert np.array_equal(switched.b, expected.b)

    def test_replacing_the_key_data_does_not_inherit_the_flattened_table(self):
        from dataclasses import replace

        ks_params = KeySwitchParams(base_bits=2, length=3, noise_stddev=0.0)
        first = self._synthetic_key(ks_params, self.N_IN, self.N_OUT, seed=78)
        first.table
        other = self._synthetic_key(ks_params, self.N_IN, self.N_OUT, seed=79)
        replaced = replace(first, data=other.data)
        assert np.shares_memory(replaced.table, other.data)


class TestKeySwitchNoise:
    """The measured key-switch error against ``TfheNoiseModel.keyswitch_variance``.

    The model counts one key sample per digit and every coefficient's full
    rounding error, so it bounds the error from above: a zero digit selects
    no sample, and a rounding error only counts where the key bit is 1.
    """

    SAMPLES = 2000

    def test_error_variance_of_noise_free_inputs_is_within_the_model(self, keys):
        params, input_key, output_key, ks = keys
        rng = np.random.default_rng(90)
        a = rng.integers(-(2**31), 2**31, (self.SAMPLES, input_key.dimension)).astype(np.int32)
        mu = rng.integers(-(2**31), 2**31, self.SAMPLES)
        # Noise-free inputs: the phase under the input key is exactly mu.
        b = torus32_from_int64(a.astype(np.int64) @ input_key.key.astype(np.int64) + mu)
        switched = keyswitch_apply_batch(ks, LweBatch(a=a, b=b))
        phase = switched.b.astype(np.int64) - switched.a.astype(np.int64) @ output_key.key.astype(
            np.int64
        )
        error = torus32_to_double(torus32_from_int64(phase - mu))
        variance = float(np.mean(error**2))
        model = TfheNoiseModel(params).keyswitch_variance()
        # N·s²/σ² is χ²_N for Gaussian errors: mean N, standard deviation
        # √(2N).  Six standard deviations of slack: 1 + 6·√(2/N) ≈ 1.19.
        slack = 1 + 6 * math.sqrt(2 / self.SAMPLES)
        assert variance <= model * slack
        assert variance > 0
