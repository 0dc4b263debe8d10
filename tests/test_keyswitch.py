"""Tests for LWE key switching."""

import numpy as np
import pytest

from repro.tfhe import keyswitch
from repro.tfhe.keyswitch import (
    KeySwitchKey,
    keyswitch_apply,
    keyswitch_apply_batch,
    keyswitch_key_generate,
)
from repro.tfhe.lwe import (
    LweBatch,
    gate_message,
    lwe_decrypt_bit,
    lwe_encrypt,
    lwe_key_generate,
    lwe_noise,
    lwe_phase,
)
from repro.tfhe.params import TEST_SMALL, TEST_TINY, KeySwitchParams
from repro.tfhe.tgsw import BootstrapWorkspace
from repro.tfhe.torus import torus_distance


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
        base = params.keyswitch.base
        assert ks.data.shape == (
            input_key.dimension,
            params.keyswitch.length,
            base,
            output_key.dimension + 1,
        )

    def test_dimensions_recorded(self, keys):
        _, input_key, output_key, ks = keys
        assert ks.input_dimension == input_key.dimension
        assert ks.output_dimension == output_key.dimension

    def test_zero_digit_rows_encrypt_zero(self, keys):
        """The v = 0 entries must encrypt 0 so skipped digits add only noise."""
        _, _, output_key, ks = keys
        row = ks.data[0, 0, 0]
        from repro.tfhe.lwe import LweSample

        sample = LweSample(a=row[:-1], b=np.int32(row[-1]))
        assert float(torus_distance(lwe_phase(output_key, sample), 0)) < 1e-3


class TestKeySwitching:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_switched_sample_decrypts_under_new_key(self, keys, bit):
        _, input_key, output_key, ks = keys
        sample = lwe_encrypt(input_key, gate_message(bit), rng=54 + bit)
        switched = keyswitch_apply(ks, sample)
        assert switched.dimension == output_key.dimension
        assert lwe_decrypt_bit(output_key, switched) == bit

    def test_keyswitch_noise_is_bounded(self, keys):
        _, input_key, output_key, ks = keys
        mu = gate_message(1)
        sample = lwe_encrypt(input_key, mu, rng=60)
        switched = keyswitch_apply(ks, sample)
        assert abs(lwe_noise(output_key, switched, mu)) < 1.0 / 32.0

    def test_dimension_mismatch_rejected(self, keys):
        _, _, output_key, ks = keys
        bad = lwe_encrypt(output_key, gate_message(0), rng=61)
        with pytest.raises(ValueError):
            keyswitch_apply(ks, bad)

    def test_many_samples_roundtrip(self, keys):
        _, input_key, output_key, ks = keys
        rng = np.random.default_rng(62)
        failures = 0
        for i in range(20):
            bit = int(rng.integers(0, 2))
            sample = lwe_encrypt(input_key, gate_message(bit), rng=rng)
            if lwe_decrypt_bit(output_key, keyswitch_apply(ks, sample)) != bit:
                failures += 1
        assert failures == 0


class TestWrapAroundMasks:
    """Regression: mask coefficients near the torus wrap-around.

    ``keyswitch_apply`` adds a rounding offset to the unsigned mask
    coefficients; for ``a ≈ 2^32 − 1`` the sum carries into bit 32 and must be
    reduced back onto the 32-bit torus before digit extraction.
    """

    def _reference_apply(self, ks, sample):
        """Digit-by-digit scalar reference with explicit mod-2^32 arithmetic."""
        params = ks.params
        t = params.length
        base_bits = params.base_bits
        n_out = ks.output_dimension
        rounding = 1 << (32 - base_bits * t - 1) if 32 - base_bits * t - 1 >= 0 else 0
        totals = np.zeros(n_out + 1, dtype=np.int64)
        for i in range(ks.input_dimension):
            a_in = ((int(np.int64(sample.a[i])) & 0xFFFFFFFF) + rounding) % (1 << 32)
            for j in range(t):
                digit = (a_in >> (32 - base_bits * (j + 1))) & (params.base - 1)
                totals += ks.data[i, j, digit].astype(np.int64)
        from repro.tfhe.torus import torus32_from_int64
        from repro.tfhe.lwe import LweSample

        a_out = torus32_from_int64(-totals[:n_out])
        b_out = torus32_from_int64(int(np.int64(sample.b)) - int(totals[n_out]))
        return LweSample(a=a_out, b=np.int32(b_out))

    def test_wraparound_sample_matches_reference(self, keys):
        from repro.tfhe.lwe import LweSample

        _, input_key, _, ks = keys
        n_in = input_key.dimension
        # Every mask coefficient sits right at the wrap-around boundary, so the
        # rounding offset carries out of 32 bits for all of them.
        a = np.full(n_in, -1, dtype=np.int32)  # unsigned 0xFFFFFFFF
        a[::3] = np.int32(2**31 - 1)
        a[1::3] = np.int32(-(2**31))
        sample = LweSample(a=a, b=np.int32(1234567))
        switched = keyswitch_apply(ks, sample)
        reference = self._reference_apply(ks, sample)
        assert np.array_equal(switched.a, reference.a)
        assert int(switched.b) == int(reference.b)

    def test_wraparound_sample_still_decrypts(self, keys):
        """An honest encryption whose mask is forced near the wrap-around."""
        _, input_key, output_key, ks = keys
        rng = np.random.default_rng(77)
        for bit in (0, 1):
            sample = lwe_encrypt(input_key, gate_message(bit), rng=rng)
            # Push a few coefficients to the boundary and patch b to keep the
            # phase: adding delta to a_i adds delta * s_i to a·s.
            delta_total = 0
            for idx in (0, 1, 2):
                target = np.int32(-1)
                delta = int(np.int64(target) - np.int64(sample.a[idx]))
                delta_total += delta * int(input_key.key[idx])
                sample.a[idx] = target
            from repro.tfhe.torus import torus32_from_int64

            sample.b = np.int32(torus32_from_int64(int(np.int64(sample.b)) + delta_total))
            assert lwe_decrypt_bit(output_key, keyswitch_apply(ks, sample)) == bit


class TestTinyParameters:
    def test_keyswitch_with_tiny_parameters(self):
        params = TEST_TINY
        input_key = lwe_key_generate(
            type(params.lwe)(dimension=params.N, noise_stddev=params.lwe.noise_stddev), rng=63
        )
        output_key = lwe_key_generate(params.lwe, rng=64)
        ks = keyswitch_key_generate(input_key, output_key, params.keyswitch, rng=65)
        sample = lwe_encrypt(input_key, gate_message(1), rng=66)
        assert lwe_decrypt_bit(output_key, keyswitch_apply(ks, sample)) == 1


class TestBlockedAccumulation:
    """The blocked uint32 accumulation against the per-level int64 reference."""

    N_IN, N_OUT = 24, 9

    @staticmethod
    def _synthetic_key(ks_params, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(
            -(2**31), 2**31, (n_in, ks_params.length, ks_params.base, n_out + 1)
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
        reference = keyswitch._keyswitch_totals_reference(ks, a)
        assert totals.dtype == np.uint32
        assert totals.shape == (batch, self.N_OUT + 1)
        assert np.array_equal(totals, (reference & 0xFFFFFFFF).astype(np.uint32))
        b = np.random.default_rng(72).integers(-(2**31), 2**31, batch).astype(np.int32)
        switched = keyswitch_apply_batch(ks, LweBatch(a=a, b=b))
        expected = keyswitch.keyswitch_apply_batch_reference(ks, LweBatch(a=a, b=b))
        assert switched.a.dtype == switched.b.dtype == np.int32
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
            expected = keyswitch.keyswitch_apply_batch_reference(ks, sample)
            assert np.array_equal(switched.a, expected.a)
            assert np.array_equal(switched.b, expected.b)
            assert not np.shares_memory(switched.a, workspace._pools["keyswitch"])

    def test_scalar_apply_is_the_batch_on_one_row(self, keys):
        _, input_key, _, ks = keys
        sample = lwe_encrypt(input_key, gate_message(1), rng=75)
        switched = keyswitch_apply(ks, sample)
        reference = keyswitch.keyswitch_apply_reference(ks, sample)
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
        expected = keyswitch.keyswitch_apply_batch_reference(strided, sample)
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
