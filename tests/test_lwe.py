"""Tests for scalar LWE encryption and its homomorphic linear operations."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tfhe.lwe import (
    SEED_WORDS,
    LweBatch,
    LweSample,
    gate_message,
    lwe_add,
    lwe_add_constant,
    lwe_batch_decrypt_bits,
    lwe_decrypt_bit,
    lwe_encrypt,
    lwe_encrypt_trivial,
    lwe_key_generate,
    lwe_masks,
    lwe_negate,
    lwe_noise,
    lwe_phase,
    lwe_round_mask,
    lwe_scale,
)
from repro.tfhe.params import TEST_SMALL, TEST_TINY
from repro.tfhe.torus import double_to_torus32, torus32_from_int64, torus_distance


@pytest.fixture(scope="module")
def key():
    return lwe_key_generate(TEST_SMALL.lwe, rng=11)


class TestKeyGeneration:
    def test_key_is_binary(self, key):
        assert set(np.unique(key.key)).issubset({0, 1})

    def test_key_dimension(self, key):
        assert key.dimension == TEST_SMALL.n

    def test_different_seeds_differ(self):
        k1 = lwe_key_generate(TEST_TINY.lwe, rng=1)
        k2 = lwe_key_generate(TEST_TINY.lwe, rng=2)
        assert not np.array_equal(k1.key, k2.key)


class TestEncryptDecrypt:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_bit_roundtrip(self, key, bit):
        sample = lwe_encrypt(key, gate_message(bit), rng=3)
        assert lwe_decrypt_bit(key, sample) == bit

    def test_noise_is_small(self, key):
        mu = gate_message(1)
        sample = lwe_encrypt(key, mu, rng=4)
        assert abs(lwe_noise(key, sample, mu)) < 1e-3

    def test_trivial_sample_has_no_mask(self):
        sample = lwe_encrypt_trivial(16, np.int32(123))
        assert not sample.a.any()
        assert sample.b == 123

    def test_trivial_sample_decrypts_without_key_interaction(self, key):
        mu = gate_message(1)
        sample = lwe_encrypt_trivial(key.dimension, mu)
        assert lwe_decrypt_bit(key, sample) == 1

    def test_phase_equals_message_plus_noise(self, key):
        mu = gate_message(0)
        sample = lwe_encrypt(key, mu, rng=5)
        phase = lwe_phase(key, sample)
        assert float(torus_distance(phase, mu)) < 1e-3

    def test_encryptions_are_randomised(self, key):
        mu = gate_message(1)
        s1 = lwe_encrypt(key, mu, rng=6)
        s2 = lwe_encrypt(key, mu, rng=7)
        assert not np.array_equal(s1.a, s2.a)


class TestHomomorphicLinearOps:
    def test_add_sums_messages(self, key):
        eighth = int(double_to_torus32(0.125))
        c1 = lwe_encrypt(key, np.int32(eighth), rng=8)
        c2 = lwe_encrypt(key, np.int32(eighth), rng=9)
        total = lwe_add(c1, c2)
        assert float(torus_distance(lwe_phase(key, total), np.int32(2 * eighth))) < 1e-3

    def test_sub_cancels(self, key):
        mu = gate_message(1)
        c1 = lwe_encrypt(key, mu, rng=10)
        diff = lwe_add(c1, lwe_negate(c1))
        assert float(torus_distance(lwe_phase(key, diff), 0)) < 1e-9

    def test_negate_flips_sign(self, key):
        mu = gate_message(1)
        sample = lwe_encrypt(key, mu, rng=12)
        assert lwe_decrypt_bit(key, lwe_negate(sample)) == 0

    @given(st.integers(min_value=-3, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_scale_scales_phase(self, scalar):
        key = lwe_key_generate(TEST_TINY.lwe, rng=13)
        eighth = int(double_to_torus32(0.125))
        sample = lwe_encrypt(key, np.int32(eighth), noise_stddev=2.0**-25, rng=14)
        scaled = lwe_scale(scalar, sample)
        expected = torus32_from_int64(scalar * eighth)
        assert float(torus_distance(lwe_phase(key, scaled), expected)) < 1e-3

    def test_add_constant_shifts_body_only(self, key):
        mu = gate_message(0)
        sample = lwe_encrypt(key, mu, rng=15)
        shifted = lwe_add_constant(sample, gate_message(1))
        assert np.array_equal(shifted.a, sample.a)
        assert shifted.b != sample.b

    def test_copy_is_independent(self, key):
        sample = lwe_encrypt(key, gate_message(1), rng=16)
        clone = sample.copy()
        clone.a[0] += 1
        assert clone.a[0] != sample.a[0]


class TestSeededMasks:
    """A fresh encryption's mask is its seed's expansion, and stays so."""

    def _batch(self, key, bits=(1, 0, 1, 1)):
        return LweBatch.from_samples(
            [lwe_encrypt(key, gate_message(b), rng=17 + i) for i, b in enumerate(bits)]
        )

    def test_a_fresh_sample_is_its_seed_expanded_and_read_only(self, key):
        sample = lwe_encrypt(key, gate_message(1), rng=16)
        assert sample.seed.dtype == np.int32 and sample.seed.shape == (SEED_WORDS,)
        assert np.array_equal(sample.a, lwe_masks(sample.seed, key.dimension))
        assert not sample.a.flags.writeable and not sample.seed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sample.a[0] += 1
        assert lwe_decrypt_bit(key, sample) == 1

    def test_a_fresh_batch_is_its_seeds_expanded_and_read_only(self, key):
        batch = self._batch(key)
        assert batch.seed.shape == (4, SEED_WORDS)
        assert np.array_equal(batch.a, lwe_masks(batch.seed, key.dimension))
        for row in range(4):
            assert np.array_equal(batch.a[row], lwe_masks(batch.seed[row], key.dimension))
        assert not batch.a.flags.writeable and not batch.seed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch.a[1, 2] = 0
        assert lwe_batch_decrypt_bits(key, batch).tolist() == [1, 0, 1, 1]

    def test_copy_is_writable_and_unseeded(self, key):
        sample = lwe_encrypt(key, gate_message(0), rng=18)
        batch = self._batch(key)
        for fresh in (sample, batch):
            clone = fresh.copy()
            assert clone.seed is None and clone.a.flags.writeable
            assert np.array_equal(clone.a, fresh.a) and np.array_equal(clone.b, fresh.b)
            assert not np.shares_memory(clone.a, fresh.a)

    def test_seeds_survive_every_row_view(self, key):
        batch = self._batch(key)
        samples = batch.to_samples()
        for row, sample in enumerate(samples):
            assert np.array_equal(sample.seed, batch.seed[row])
            assert np.array_equal(batch[row].seed, batch.seed[row])
            assert not sample.a.flags.writeable
        rows = batch.rows(1, 3)
        assert np.array_equal(rows.seed, batch.seed[1:3]) and not rows.a.flags.writeable
        restacked = LweBatch.from_samples(samples)
        assert np.array_equal(restacked.seed, batch.seed)
        assert np.array_equal(restacked.a, batch.a) and not restacked.a.flags.writeable

    def test_seeds_are_kept_only_when_every_row_has_one(self, key):
        samples = self._batch(key).to_samples()
        mixed = LweBatch.from_samples(samples[:2] + [samples[2].copy()])
        assert mixed.seed is None and mixed.a.flags.writeable
        assert mixed[0].seed is None and mixed.rows(0, 2).seed is None
        assert all(s.seed is None for s in mixed.to_samples())
        assert mixed.copy().seed is None

    def test_derived_ciphertexts_carry_no_seed(self, key):
        x = lwe_encrypt(key, gate_message(1), rng=19)
        y = lwe_encrypt(key, gate_message(0), rng=20)
        for derived in (lwe_add(x, y), lwe_negate(x), lwe_scale(3, x),
                        lwe_add_constant(x, gate_message(1))):
            assert derived.seed is None and derived.a.flags.writeable

    def test_a_pickled_seeded_ciphertext_keeps_its_seed_and_read_only_mask(self, key):
        """What the worker pool's pipes carry."""
        for fresh in (lwe_encrypt(key, gate_message(1), rng=21), self._batch(key)):
            for copy in (fresh, fresh.copy()):
                clone = pickle.loads(pickle.dumps(copy))
                assert type(clone) is type(copy) and np.array_equal(clone.a, copy.a)
                assert np.array_equal(clone.b, copy.b)
                if copy.seed is None:
                    assert clone.seed is None and clone.a.flags.writeable
                else:
                    assert np.array_equal(clone.seed, copy.seed)
                    assert not clone.a.flags.writeable and not clone.seed.flags.writeable

    def test_the_expander_is_deterministic_and_refuses_malformed_seeds(self):
        seeds = np.arange(8, dtype=np.int32).reshape(2, SEED_WORDS)
        masks = lwe_masks(seeds, 37)
        assert masks.shape == (2, 37) and masks.dtype == np.int32
        assert np.array_equal(masks, lwe_masks(seeds.copy(), 37))
        assert np.array_equal(lwe_masks(seeds[1], 37), masks[1])
        assert np.array_equal(lwe_masks(seeds[0], 5), masks[0, :5])  # one XOF stream
        assert not np.array_equal(masks[0], masks[1])
        for bad in (seeds.astype(np.int64), seeds[:, :3], seeds[None], np.int32(7)):
            with pytest.raises(ValueError, match="seeds must be int32"):
                lwe_masks(bad, 8)
        for n in (0, -1, 8.0, True):
            with pytest.raises(ValueError, match="positive int"):
                lwe_masks(seeds, n)

    def test_a_seed_of_the_wrong_shape_is_refused_at_construction(self, key):
        a = np.zeros(key.dimension, dtype=np.int32)
        with pytest.raises(ValueError, match="seed must be int32"):
            LweSample(a=a, b=np.int32(0), seed=np.zeros(3, dtype=np.int32))
        with pytest.raises(ValueError, match="seed must be int32"):
            LweBatch(a=a[None], b=np.zeros(1, np.int32), seed=np.zeros((2, 4), np.int32))


class TestRoundMask:
    def test_each_word_moves_by_at_most_half_a_step_and_b_stays(self, key):
        fresh = LweBatch.from_samples([lwe_encrypt(key, np.int32(0), rng=12 + i) for i in range(4)])
        for x in (fresh, fresh[1], fresh.copy()):
            rounded = lwe_round_mask(x)
            assert type(rounded) is type(x) and rounded.seed is None
            moved = torus32_from_int64(rounded.a.astype(np.int64) - x.a)
            assert np.abs(moved.astype(np.int64)).max() <= 2**15
            assert not (rounded.a & 0xFFFF).any()
            assert np.array_equal(rounded.b, x.b)
            assert np.array_equal(lwe_round_mask(rounded).a, rounded.a)  # idempotent
        assert fresh.seed is not None  # the input is left as it was

    def test_the_top_of_the_torus_wraps_to_the_bottom(self):
        a = np.array([2**31 - 1, 2**31 - 2**15, 2**31 - 2**15 - 1, -(2**15), -(2**15) - 1], np.int32)
        rounded = lwe_round_mask(LweSample(a=a, b=np.int32(0))).a
        assert rounded.tolist() == [-(2**31), -(2**31), 2**31 - 2**16, 0, -(2**16)]


class TestGateMessage:
    def test_messages_are_opposite(self):
        assert int(gate_message(1)) == -int(gate_message(0))

    def test_message_is_one_eighth(self):
        assert int(gate_message(1)) == int(double_to_torus32(0.125))
