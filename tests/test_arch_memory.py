"""Tests for the memory-system models."""

import pytest

from repro.arch.memory import bootstrapping_key_bytes, tgsw_ciphertext_bytes
from repro.tfhe.params import PAPER_110BIT, TEST_TINY


class TestFootprints:
    def test_coefficient_domain_tgsw_size(self):
        # (k+1) l (k+1) N 32-bit words = 12 * 1024 * 4 bytes.
        assert tgsw_ciphertext_bytes(PAPER_110BIT, transformed=False) == 12 * 1024 * 4

    def test_transformed_tgsw_is_twice_as_large(self):
        plain = tgsw_ciphertext_bytes(PAPER_110BIT, transformed=False)
        transformed = tgsw_ciphertext_bytes(PAPER_110BIT, transformed=True)
        assert transformed == 2 * plain

    def test_bootstrapping_key_exceeds_spm(self):
        """The BK never fits in the 4 MB scratchpad -> it must stream from HBM."""
        for m in (1, 2, 3, 4):
            assert bootstrapping_key_bytes(PAPER_110BIT, m) > 4096 * 1024

    def test_bootstrapping_key_growth(self):
        sizes = [bootstrapping_key_bytes(PAPER_110BIT, m) for m in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        assert sizes[3] > 3 * sizes[0]

    def test_remainder_group_counted(self):
        # 630 % 4 = 2 -> one extra group with 2^2 - 1 keys.
        m = 4
        full_groups = PAPER_110BIT.n // m
        expected_keys = full_groups * 15 + 3
        expected = expected_keys * tgsw_ciphertext_bytes(PAPER_110BIT)
        assert bootstrapping_key_bytes(PAPER_110BIT, m) == expected

    def test_invalid_unroll_rejected(self):
        with pytest.raises(ValueError):
            bootstrapping_key_bytes(TEST_TINY, 0)
