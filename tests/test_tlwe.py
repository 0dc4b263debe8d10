"""Tests for ring TLWE encryption, rotation and sample extraction.

A single ciphertext goes through the batched helpers as a one-row batch.
"""

import numpy as np
import pytest

from tgsw_oracle import poly_mul_by_xk, tlwe_batch_add, tlwe_batch_sub, tlwe_phase
from repro.tfhe.lwe import lwe_phase
from repro.tfhe.params import TEST_SMALL, TEST_TINY
from repro.tfhe.tlwe import (
    TlweBatch,
    TlweSample,
    tlwe_batch_rotate,
    tlwe_batch_sample_extract,
    tlwe_batch_trivial,
    tlwe_encrypt,
    tlwe_extract_lwe_key,
    tlwe_key_generate,
)
from repro.tfhe.torus import double_to_torus32, torus_distance
from repro.tfhe.transform import NaiveNegacyclicTransform


@pytest.fixture(scope="module")
def setup():
    params = TEST_TINY.tlwe
    transform = NaiveNegacyclicTransform(params.degree)
    key = tlwe_key_generate(params, rng=21)
    return params, transform, key


def message_poly(degree, value=0.125):
    return np.full(degree, double_to_torus32(value), dtype=np.int32)


def _row(sample: TlweSample) -> TlweBatch:
    return TlweBatch(sample.data[None])


def _trivial(message, mask_count: int) -> TlweSample:
    return tlwe_batch_trivial(message, mask_count, 1)[0]


def _zero(params) -> TlweSample:
    return TlweSample(np.zeros((params.mask_count + 1, params.degree), dtype=np.int32))


class TestKeyAndStructure:
    def test_key_shape_and_binarity(self, setup):
        params, _, key = setup
        assert key.key.shape == (params.mask_count, params.degree)
        assert set(np.unique(key.key)).issubset({0, 1})

    def test_trivial_batch_shape(self, setup):
        params, _, _ = setup
        batch = tlwe_batch_trivial(np.zeros(params.degree, dtype=np.int32), params.mask_count, 3)
        assert batch.data.shape == (3, params.mask_count + 1, params.degree)
        assert batch.data.dtype == np.int32
        assert not batch.data.any()

    def test_trivial_sample_stores_message_in_body(self, setup):
        params, _, _ = setup
        msg = message_poly(params.degree)
        per_row = np.stack([msg, -msg])
        for message, width in ((msg, 2), (per_row, 2)):
            batch = tlwe_batch_trivial(message, params.mask_count, width)
            bodies = np.broadcast_to(message, (width, params.degree))
            assert np.array_equal(batch.data[:, -1], bodies)
            assert not batch.data[:, :-1].any()

    def test_accessors(self, setup):
        params, _, _ = setup
        sample = _zero(params)
        assert sample.mask_count == params.mask_count
        assert sample.degree == params.degree


class TestEncryption:
    def test_phase_recovers_message(self, setup):
        params, transform, key = setup
        msg = message_poly(params.degree)
        ct = tlwe_encrypt(key, msg, transform, rng=22)
        phase = tlwe_phase(key, ct, transform)
        assert torus_distance(phase, msg).max() < 1e-3

    def test_homomorphic_add(self, setup):
        params, transform, key = setup
        msg = message_poly(params.degree)
        c1 = tlwe_encrypt(key, msg, transform, rng=23)
        c2 = tlwe_encrypt(key, msg, transform, rng=24)
        total_phase = tlwe_phase(key, tlwe_batch_add(_row(c1), _row(c2))[0], transform)
        expected = np.full(params.degree, 2 * int(double_to_torus32(0.125)), dtype=np.int64)
        assert torus_distance(total_phase, expected.astype(np.int32)).max() < 1e-3

    def test_homomorphic_sub_cancels(self, setup):
        params, transform, key = setup
        msg = message_poly(params.degree)
        c1 = tlwe_encrypt(key, msg, transform, rng=25)
        diff_phase = tlwe_phase(key, tlwe_batch_sub(_row(c1), _row(c1))[0], transform)
        assert torus_distance(diff_phase, np.zeros(params.degree, dtype=np.int32)).max() == 0

    def test_trivial_phase_is_message(self, setup):
        params, transform, key = setup
        msg = message_poly(params.degree)
        sample = _trivial(msg, params.mask_count)
        assert np.array_equal(tlwe_phase(key, sample, transform), msg)


class TestRotation:
    def test_rotation_rotates_message(self, setup):
        params, transform, key = setup
        msg = np.zeros(params.degree, dtype=np.int32)
        msg[0] = double_to_torus32(0.125)
        ct = tlwe_encrypt(key, msg, transform, rng=26)
        rotated_phase = tlwe_phase(key, tlwe_batch_rotate(_row(ct), [3])[0], transform)
        assert torus_distance(rotated_phase, poly_mul_by_xk(msg, 3)).max() < 1e-3

    def test_rotation_by_zero_is_identity(self, setup):
        params, _, _ = setup
        batch = _row(_trivial(message_poly(params.degree), params.mask_count))
        assert np.array_equal(tlwe_batch_rotate(batch, [0]).data, batch.data)

    def test_rotation_by_2n_is_identity(self, setup):
        params, _, _ = setup
        batch = _row(_trivial(message_poly(params.degree), params.mask_count))
        assert np.array_equal(tlwe_batch_rotate(batch, [2 * params.degree]).data, batch.data)

    def test_batch_rotate_needs_one_power_per_ciphertext(self, setup):
        params, _, _ = setup
        batch = tlwe_batch_trivial(message_poly(params.degree), params.mask_count, 2)
        for powers in ([1], [1, 2, 3], [[1], [2]]):
            with pytest.raises(ValueError, match="one rotation power per batched ciphertext"):
                tlwe_batch_rotate(batch, powers)


class TestSampleExtract:
    def test_extract_matches_polynomial_phase(self, setup):
        params, transform, key = setup
        rng = np.random.default_rng(27)
        msg = rng.integers(-(2**28), 2**28, params.degree).astype(np.int32)
        ct = tlwe_encrypt(key, msg, transform, rng=28)
        poly_phase = tlwe_phase(key, ct, transform)
        extracted_key = tlwe_extract_lwe_key(key)
        for index in (0, 1, params.degree // 2, params.degree - 1):
            extracted = tlwe_batch_sample_extract(_row(ct), index)[0]
            scalar_phase = lwe_phase(extracted_key, extracted)
            assert float(torus_distance(scalar_phase, poly_phase[index])) == 0.0

    def test_extracted_key_dimension(self, setup):
        params, _, key = setup
        assert tlwe_extract_lwe_key(key).dimension == params.degree * params.mask_count

    def test_extract_index_out_of_range(self, setup):
        params, _, _ = setup
        with pytest.raises(ValueError):
            tlwe_batch_sample_extract(_row(_zero(params)), params.degree)

    def test_copy_is_independent(self, setup):
        params, _, _ = setup
        sample = _zero(params)
        clone = sample.copy()
        clone.data[0, 0] = 5
        assert sample.data[0, 0] == 0
