"""Tests for the TFHE parameter sets."""

import pytest

from repro.tfhe.params import (
    PAPER_110BIT,
    PARAMETER_SETS,
    TEST_SMALL,
    TEST_TINY,
    KeySwitchParams,
    LweParams,
    TFHEParameters,
    TgswParams,
    TlweParams,
    get_parameters,
)


class TestPaperParameters:
    """The Section 5 parameter values must match the paper."""

    def test_ring_degree(self):
        assert PAPER_110BIT.N == 1024

    def test_tlwe_dimension(self):
        assert PAPER_110BIT.k == 1

    def test_gadget_base(self):
        assert PAPER_110BIT.Bg == 1024

    def test_decomposition_length(self):
        assert PAPER_110BIT.l == 3

    def test_lwe_dimension(self):
        assert PAPER_110BIT.n == 630

    def test_security_level(self):
        assert PAPER_110BIT.security_bits == 110

    def test_message_space_is_gate_bootstrapping(self):
        assert PAPER_110BIT.message_space == 8

    def test_describe_mentions_key_facts(self):
        text = PAPER_110BIT.describe()
        assert "n=630" in text and "N=1024" in text and "110" in text


class TestParameterValidation:
    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            LweParams(dimension=0, noise_stddev=1e-5)

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LweParams(dimension=8, noise_stddev=1.5)

    def test_non_power_of_two_degree_rejected(self):
        with pytest.raises(ValueError):
            TlweParams(degree=1000, mask_count=1, noise_stddev=1e-9)

    def test_decomposition_base_bits_bounds(self):
        with pytest.raises(ValueError):
            TgswParams(decomp_length=3, decomp_base_bits=0)
        with pytest.raises(ValueError):
            TgswParams(decomp_length=3, decomp_base_bits=40)

    def test_keyswitch_lengths_positive(self):
        with pytest.raises(ValueError):
            KeySwitchParams(base_bits=2, length=0, noise_stddev=1e-5)

    def test_extracted_dimension(self):
        from repro.tfhe.tlwe import tlwe_extract_lwe_key, tlwe_key_generate

        key = tlwe_extract_lwe_key(tlwe_key_generate(PAPER_110BIT.tlwe, rng=0))
        assert key.params.dimension == 1024


class TestRegistry:
    def test_all_sets_registered(self):
        assert set(PARAMETER_SETS) >= {"paper-110bit", "test-small", "test-tiny"}

    def test_lookup_by_name(self):
        assert get_parameters("paper-110bit") is PAPER_110BIT

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_parameters("nonexistent")

    def test_test_sets_are_smaller(self):
        assert TEST_SMALL.N < PAPER_110BIT.N
        assert TEST_TINY.N < TEST_SMALL.N
        assert TEST_SMALL.n < PAPER_110BIT.n

    def test_parameter_sets_are_frozen(self):
        with pytest.raises(Exception):
            PAPER_110BIT.message_space = 4  # type: ignore[misc]
