"""Tests for bootstrapping-key unrolling (Figures 4-5)."""

import numpy as np
import pytest

from bootstrap_oracle import extract_oracle
from repro.arch.memory import bootstrapping_key_bytes, tgsw_ciphertext_bytes
from repro.core.bku import UnrolledBlindRotator, x_power_minus_one_polynomials
from repro.tfhe.gates import MU, PLAINTEXT_GATES, TFHEGateEvaluator, decrypt_bit, encrypt_bit
from repro.tfhe.keys import (
    generate_bootstrapping_key,
    generate_cloud_key,
    generate_secret_key,
    group_indices,
    indicator_message,
)
from repro.tfhe.lwe import LweBatch, gate_message, lwe_encrypt, lwe_phase
from repro.tfhe.params import TEST_TINY
from repro.tfhe.bootstrap import blind_rotate_and_extract_batch, make_test_vector
from repro.tfhe.tgsw import tgsw_transform
from repro.tfhe.transform import NaiveNegacyclicTransform


def _extract(rotator, sample, extract=blind_rotate_and_extract_batch) -> LweBatch:
    """Lines 2–8 of Algorithm 1 on one sample, as a one-row batch."""
    row = LweBatch(a=sample.a[None], b=np.asarray(sample.b)[None])
    return extract(row, make_test_vector(TEST_TINY, int(MU)), rotator, TEST_TINY)


def _rotator(m: int, secret_seed: int, key_seed: int) -> tuple:
    transform = NaiveNegacyclicTransform(TEST_TINY.N)
    secret = generate_secret_key(TEST_TINY, rng=secret_seed)
    key = generate_bootstrapping_key(secret, transform, m, rng=key_seed)
    spectra = [tgsw_transform(sample, transform) for sample in key]
    return secret, UnrolledBlindRotator(spectra, TEST_TINY, m, transform)


class TestGrouping:
    def test_even_split(self):
        groups = group_indices(8, 2)
        assert groups == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_remainder_group_is_smaller(self):
        groups = group_indices(7, 3)
        assert groups[-1] == [6]
        assert sum(len(g) for g in groups) == 7

    def test_m1_is_one_index_per_group(self):
        assert group_indices(4, 1) == [[0], [1], [2], [3]]

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            group_indices(8, 0)


class TestIndicators:
    def test_truth_table_m2(self):
        """Figure 4: the indicator selected for each (s_{2i-1}, s_{2i}) pattern."""
        # pattern bit j selects s_j; indicator is the product of selected bits
        # and complements of unselected bits.
        assert indicator_message([1, 1], 0b11) == 1
        assert indicator_message([1, 0], 0b01) == 1
        assert indicator_message([0, 1], 0b10) == 1
        assert indicator_message([0, 0], 0b01) == 0
        assert indicator_message([1, 1], 0b01) == 0

    def test_indicators_partition_unity(self):
        """Exactly one indicator is 1 for any key-bit combination (Section 4.2)."""
        for bits in ([0, 0], [0, 1], [1, 0], [1, 1], [1, 0, 1], [0, 1, 1, 0]):
            total = sum(
                indicator_message(bits, pattern) for pattern in range(1, 1 << len(bits))
            )
            zero_pattern = int(all(b == 0 for b in bits))
            assert total + zero_pattern == 1


class TestXPowerMinusOne:
    def test_zero_power_is_zero_polynomial(self):
        assert not x_power_minus_one_polynomials(8, [0])[0].any()

    def test_small_power(self):
        poly = x_power_minus_one_polynomials(8, [3])[0]
        assert poly[0] == -1 and poly[3] == 1

    def test_wrapped_power_is_negated(self):
        poly = x_power_minus_one_polynomials(8, [11])[0]  # X^11 = -X^3
        assert poly[0] == -1 and poly[3] == -1

    def test_power_equal_to_degree(self):
        poly = x_power_minus_one_polynomials(8, [8])[0]  # X^8 = -1 -> -2 at position 0
        assert poly[0] == -2


class TestUnrolledKeyMaterial:
    @pytest.mark.parametrize("m,expected_keys", [(1, 1), (2, 3), (3, 7), (4, 15)])
    def test_keys_per_group(self, m, expected_keys):
        _, rotator = _rotator(m, 81, 82)
        indices, keys = rotator.groups[0]
        assert indices == list(range(m))
        assert len(keys) == expected_keys
        assert rotator.unroll_factor == m

    def test_group_count_is_ceil_n_over_m(self):
        _, rotator = _rotator(3, 83, 84)
        assert len(rotator.groups) == -(-TEST_TINY.n // 3)

    def test_groups_slice_the_flat_key_in_order(self):
        _, rotator = _rotator(3, 83, 84)
        flat = [key for _, keys in rotator.groups for key in keys]
        assert len(flat) == len(rotator.bootstrapping_key)
        assert all(a is b for a, b in zip(flat, rotator.bootstrapping_key))

    def test_a_key_of_the_wrong_length_is_refused(self):
        _, rotator = _rotator(2, 83, 84)
        with pytest.raises(ValueError, match="holds 24 TGSW samples, got 23"):
            UnrolledBlindRotator(
                rotator.bootstrapping_key[:-1], TEST_TINY, 2, rotator.transform
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_key_length_matches_the_memory_model(self, m):
        """The flat key's bytes are ``arch.memory``'s coefficient-domain size."""
        secret = generate_secret_key(TEST_TINY, rng=87)
        cloud = generate_cloud_key(
            secret, NaiveNegacyclicTransform(TEST_TINY.N), m, rng=88, eager=False
        )
        assert len(cloud.bootstrapping_key) * tgsw_ciphertext_bytes(
            TEST_TINY, transformed=False
        ) == bootstrapping_key_bytes(TEST_TINY, m, transformed=False)

    def test_key_size_grows_exponentially_with_m(self):
        sizes = [
            bootstrapping_key_bytes(TEST_TINY, m, transformed=False) for m in (1, 2, 3, 4)
        ]
        assert sizes[1] > sizes[0]
        assert sizes[2] >= 1.5 * sizes[1]
        assert sizes[3] >= 1.5 * sizes[2]
        # Per-group key count is 2^m - 1, so size per covered key bit grows
        # roughly as (2^m - 1) / m.
        assert sizes[3] / sizes[0] >= 3.0


class TestUnrolledBlindRotation:
    @pytest.mark.parametrize("m", [2, 3])
    def test_bootstrap_sign_correct(self, m):
        secret, rotator = _rotator(m, 85, 86)
        for bit in (0, 1):
            sample = lwe_encrypt(secret.lwe_key, gate_message(bit), rng=87 + bit)
            extracted = _extract(rotator, sample)
            phase = lwe_phase(secret.extracted_key, extracted[0])
            assert (int(phase) > 0) == bool(bit)
            expected = _extract(rotator, sample, extract_oracle)
            assert np.array_equal(extracted.a, expected.a)
            assert np.array_equal(extracted.b, expected.b)

    def test_one_external_product_per_group(self):
        """Only the groups' external products backward-transform: one
        polynomial per output column each."""
        secret, rotator = _rotator(2, 89, 90)
        rotator.transform.reset_stats()
        _extract(rotator, lwe_encrypt(secret.lwe_key, gate_message(1), rng=91))
        per_product = TEST_TINY.k + 1
        assert rotator.transform.stats.backward_polys == (
            len(rotator.groups) * per_product
        )


class TestUnrolledGates:
    def test_nand_truth_table_m2(self, tiny_keys_naive_m2):
        secret, cloud = tiny_keys_naive_m2
        assert cloud.unroll_factor == 2
        evaluator = TFHEGateEvaluator(cloud)
        for a in (0, 1):
            for b in (0, 1):
                ca = encrypt_bit(secret, a, rng=92 + a)
                cb = encrypt_bit(secret, b, rng=94 + b)
                got = decrypt_bit(secret, evaluator.nand(ca, cb))
                assert got == PLAINTEXT_GATES["nand"](a, b)

    def test_unrolled_and_classical_agree(self, tiny_keys_naive, tiny_keys_naive_m2):
        secret1, cloud1 = tiny_keys_naive
        secret2, cloud2 = tiny_keys_naive_m2
        ev1, ev2 = TFHEGateEvaluator(cloud1), TFHEGateEvaluator(cloud2)
        for a, b in ((0, 0), (1, 1)):
            r1 = decrypt_bit(secret1, ev1.xor(encrypt_bit(secret1, a, rng=96), encrypt_bit(secret1, b, rng=97)))
            r2 = decrypt_bit(secret2, ev2.xor(encrypt_bit(secret2, a, rng=96), encrypt_bit(secret2, b, rng=97)))
            assert r1 == r2 == PLAINTEXT_GATES["xor"](a, b)

    def test_generate_cloud_key_rejects_bad_factor(self):
        secret = generate_secret_key(TEST_TINY, rng=98)
        with pytest.raises(ValueError):
            generate_cloud_key(secret, NaiveNegacyclicTransform(TEST_TINY.N), unroll_factor=0)
