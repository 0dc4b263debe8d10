"""Tests for bootstrapping-key unrolling (Figures 4-5)."""

import numpy as np
import pytest

from repro.core.bku import (
    UnrolledBlindRotator,
    bootstrapping_key_size_bytes,
    generate_unrolled_bootstrapping_key,
    group_indices,
    indicator_message,
    pattern_exponent,
    x_power_minus_one_polynomial,
)
from repro.tfhe.gates import MU, PLAINTEXT_GATES, TFHEGateEvaluator, decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_cloud_key, generate_keys, generate_secret_key
from repro.tfhe.lwe import gate_message, lwe_encrypt, lwe_phase
from repro.tfhe.params import TEST_TINY
from repro.tfhe.bootstrap import blind_rotate_and_extract, make_test_vector
from repro.tfhe.transform import NaiveNegacyclicTransform


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

    def test_pattern_exponent_sums_selected_coefficients(self):
        bara = np.array([10, 20, 30, 40])
        assert pattern_exponent(bara, [2, 3], 0b01) == 30
        assert pattern_exponent(bara, [2, 3], 0b10) == 40
        assert pattern_exponent(bara, [2, 3], 0b11) == 70


class TestXPowerMinusOne:
    def test_zero_power_is_zero_polynomial(self):
        assert not x_power_minus_one_polynomial(8, 0).any()

    def test_small_power(self):
        poly = x_power_minus_one_polynomial(8, 3)
        assert poly[0] == -1 and poly[3] == 1

    def test_wrapped_power_is_negated(self):
        poly = x_power_minus_one_polynomial(8, 11)  # X^11 = -X^3
        assert poly[0] == -1 and poly[3] == -1

    def test_power_equal_to_degree(self):
        poly = x_power_minus_one_polynomial(8, 8)  # X^8 = -1 -> -2 at position 0
        assert poly[0] == -2


class TestUnrolledKeyMaterial:
    @pytest.mark.parametrize("m,expected_keys", [(1, 1), (2, 3), (3, 7), (4, 15)])
    def test_keys_per_group(self, m, expected_keys):
        transform = NaiveNegacyclicTransform(TEST_TINY.N)
        secret = generate_secret_key(TEST_TINY, rng=81)
        key = generate_unrolled_bootstrapping_key(secret, transform, m, rng=82)
        assert key.groups[0].pattern_count == expected_keys
        assert key.unroll_factor == m

    def test_group_count_is_ceil_n_over_m(self):
        transform = NaiveNegacyclicTransform(TEST_TINY.N)
        secret = generate_secret_key(TEST_TINY, rng=83)
        key = generate_unrolled_bootstrapping_key(secret, transform, 3, rng=84)
        assert key.external_products_per_bootstrap == -(-TEST_TINY.n // 3)

    def test_key_size_grows_exponentially_with_m(self):
        sizes = [bootstrapping_key_size_bytes(TEST_TINY, m) for m in (1, 2, 3, 4)]
        assert sizes[1] > sizes[0]
        assert sizes[2] >= 1.5 * sizes[1]
        assert sizes[3] >= 1.5 * sizes[2]
        # Per-group key count is 2^m - 1, so size per covered key bit grows
        # roughly as (2^m - 1) / m.
        assert sizes[3] / sizes[0] >= 3.0


class TestUnrolledBlindRotation:
    @pytest.mark.parametrize("m", [2, 3])
    def test_bootstrap_sign_correct(self, m):
        transform = NaiveNegacyclicTransform(TEST_TINY.N)
        secret = generate_secret_key(TEST_TINY, rng=85)
        key = generate_unrolled_bootstrapping_key(secret, transform, m, rng=86)
        rotator = UnrolledBlindRotator(key, transform)
        for bit in (0, 1):
            sample = lwe_encrypt(secret.lwe_key, gate_message(bit), rng=87 + bit)
            extracted = blind_rotate_and_extract(
                sample, make_test_vector(TEST_TINY, int(MU)), rotator, TEST_TINY
            )
            phase = lwe_phase(secret.extracted_key, extracted)
            assert (int(phase) > 0) == bool(bit)

    def test_rotator_counters_advance(self):
        transform = NaiveNegacyclicTransform(TEST_TINY.N)
        secret = generate_secret_key(TEST_TINY, rng=89)
        key = generate_unrolled_bootstrapping_key(secret, transform, 2, rng=90)
        rotator = UnrolledBlindRotator(key, transform)
        sample = lwe_encrypt(secret.lwe_key, gate_message(1), rng=91)
        blind_rotate_and_extract(
            sample, make_test_vector(TEST_TINY, int(MU)), rotator, TEST_TINY
        )
        assert rotator.external_products == key.external_products_per_bootstrap
        assert rotator.bundles_built == rotator.external_products


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
