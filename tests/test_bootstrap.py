"""Tests for gate bootstrapping (Algorithm 1): blind rotation, extract, key switch."""

import numpy as np
import pytest

from bootstrap_oracle import extract_oracle
from repro.tfhe.bootstrap import (
    blind_rotate_and_extract_batch,
    make_test_vector,
    modswitch_batch,
)
from repro.tfhe.gates import MU
from repro.tfhe.lwe import (
    LweBatch,
    gate_message,
    lwe_decrypt_bit,
    lwe_encrypt,
    lwe_encrypt_trivial,
    lwe_phase,
    lwe_noise,
)
from repro.tfhe.params import TEST_TINY
from repro.tfhe.tlwe import tlwe_batch_trivial, tlwe_extract_lwe_key
from repro.tfhe.torus import torus_distance


class TestTestVector:
    def test_all_coefficients_equal_mu(self):
        testv = make_test_vector(TEST_TINY, 77)
        assert (testv == 77).all()
        assert testv.shape == (TEST_TINY.N,)


def _row(sample) -> LweBatch:
    return LweBatch(a=sample.a[None], b=np.asarray(sample.b)[None])


class TestModSwitch:
    def test_rescales_to_2n(self, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        sample = lwe_encrypt(secret.lwe_key, gate_message(1), rng=70)
        barb, bara = modswitch_batch(_row(sample), TEST_TINY.N)
        assert barb.shape == (1,) and 0 <= barb[0] < 2 * TEST_TINY.N
        assert bara.shape == (1, TEST_TINY.n)
        assert bara.min() >= 0 and bara.max() < 2 * TEST_TINY.N

    def test_trivial_sample_maps_message(self):
        sample = lwe_encrypt_trivial(TEST_TINY.n, gate_message(1))
        barb, bara = modswitch_batch(_row(sample), TEST_TINY.N)
        # +1/8 of the torus is N/4 in Z_{2N}.
        assert barb[0] == TEST_TINY.N // 4
        assert not bara.any()


def _extract(cloud, sample):
    """Lines 2–8 against the all-``MU`` test vector (no key switch), checked
    against the oracle composition of the same lines."""
    row, test_vector = _row(sample), make_test_vector(TEST_TINY, int(MU))
    rotator = cloud.default_context().rotator
    extracted = blind_rotate_and_extract_batch(row, test_vector, rotator, TEST_TINY)
    expected = extract_oracle(row, test_vector, rotator, TEST_TINY)
    assert np.array_equal(extracted.a, expected.a)
    assert np.array_equal(extracted.b, expected.b)
    return extracted[0]


class TestBlindRotateAndExtract:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_extracted_phase_has_correct_sign(self, tiny_keys_naive, bit):
        secret, cloud = tiny_keys_naive
        sample = lwe_encrypt(secret.lwe_key, gate_message(bit), rng=71 + bit)
        extracted = _extract(cloud, sample)
        phase = lwe_phase(secret.extracted_key, extracted)
        assert (int(phase) > 0) == bool(bit)

    def test_output_noise_is_fresh(self, tiny_keys_naive):
        """Bootstrapping must produce a sample whose noise is input-independent."""
        secret, cloud = tiny_keys_naive
        sample = lwe_encrypt(secret.lwe_key, gate_message(1), rng=73)
        extracted = _extract(cloud, sample)
        noise = lwe_noise(secret.extracted_key, extracted, MU)
        assert abs(noise) < 1.0 / 16.0

    def test_trivial_input_rotates_to_plus_mu(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        sample = lwe_encrypt_trivial(TEST_TINY.n, gate_message(1))
        extracted = _extract(cloud, sample)
        phase = lwe_phase(secret.extracted_key, extracted)
        assert float(torus_distance(phase, MU)) < 1.0 / 16.0


def _refresh(context, sample):
    """A full gate bootstrapping of one sample: the context's row path
    against the all-``MU`` test vector."""
    vector = make_test_vector(context.params, int(MU))
    return context.batch_evaluator(1).bootstrap_rows(_row(sample), vector)[0]


class TestGateBootstrap:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_full_bootstrap_returns_to_original_key(self, tiny_keys_naive, bit):
        secret, cloud = tiny_keys_naive
        sample = lwe_encrypt(secret.lwe_key, gate_message(bit), rng=75 + bit)
        refreshed = _refresh(cloud.default_context(), sample)
        assert refreshed.dimension == TEST_TINY.n
        assert lwe_decrypt_bit(secret.lwe_key, refreshed) == bit

    def test_rotator_counts_external_products(self, tiny_keys_naive):
        """Without unrolling, blind rotation runs one external product per key bit."""
        _, cloud = tiny_keys_naive
        assert len(cloud.default_context().rotator.bootstrapping_key) == TEST_TINY.n

    def test_bootstrap_is_idempotent_on_messages(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        sample = lwe_encrypt(secret.lwe_key, gate_message(1), rng=77)
        context = cloud.default_context()
        twice = _refresh(context, _refresh(context, sample))
        assert lwe_decrypt_bit(secret.lwe_key, twice) == 1


class TestRotateInputValidation:
    """``bara`` must be ``(B, ≥ n)``: one typed error from the one entry,
    ``rotate_batch``, of both rotators (classical CMux and BKU ``m = 2``)."""

    @pytest.fixture(params=["tiny_keys_naive", "tiny_keys_naive_m2"], ids=["cmux", "bku-m2"])
    def rotator(self, request):
        _, cloud = request.getfixturevalue(request.param)
        return cloud.default_context().rotator

    @staticmethod
    def _accumulators(width):
        return tlwe_batch_trivial(make_test_vector(TEST_TINY, int(MU)), TEST_TINY.k, width)

    def test_too_few_rotation_amounts_raise_the_same_value_error(self, rotator):
        short = np.ones(TEST_TINY.n - 1, dtype=np.int64)
        batch = self._accumulators(2)
        with pytest.raises(ValueError, match="one rotation amount per row and key bit"):
            rotator.rotate_batch(batch, np.stack([short, short]))

    def test_batch_rejects_one_dimensional_and_mismatched_bara(self, rotator):
        full = np.ones(TEST_TINY.n, dtype=np.int64)
        with pytest.raises(ValueError, match="one rotation amount per row and key bit"):
            rotator.rotate_batch(self._accumulators(1), full)
        with pytest.raises(ValueError, match="one rotation amount per row and key bit"):
            rotator.rotate_batch(self._accumulators(3), np.stack([full, full]))

    def test_extra_trailing_amounts_are_ignored(self, rotator):
        full = np.arange(1, TEST_TINY.n + 1, dtype=np.int64)
        batch = self._accumulators(1)
        exact = rotator.rotate_batch(batch, full[None])
        padded = rotator.rotate_batch(batch, np.append(full, 9)[None])
        assert np.array_equal(exact.data, padded.data)

    @pytest.mark.parametrize("width", [1, 2])
    def test_non_integer_rotation_amounts_are_refused(self, rotator, width):
        # A float amount used to be truncated by the one-row CMux path (a
        # different accumulator than the integer amount's), raise a bare
        # IndexError from the batched gather, and pass through BKU.
        batch = self._accumulators(width)
        amounts = np.tile(np.arange(1, TEST_TINY.n + 1, dtype=np.int64), (width, 1))
        for bad in (amounts + 0.4, amounts.astype(np.float32), amounts > 3):
            with pytest.raises(ValueError, match=f"integers mod 2N: got dtype {bad.dtype}"):
                rotator.rotate_batch(batch, bad)
        for dtype in (np.int32, np.uint16):
            assert np.array_equal(
                rotator.rotate_batch(batch, amounts.astype(dtype)).data,
                rotator.rotate_batch(batch, amounts).data,
            )

    @pytest.mark.parametrize("width", [1, 2])
    def test_accumulators_must_be_int32_of_the_keys_shape(self, rotator, width):
        good = self._accumulators(width)
        amounts = np.ones((width, TEST_TINY.n), dtype=np.int64)
        blocks, degree = TEST_TINY.k + 1, TEST_TINY.N
        wrong = {
            "int64": good.data.astype(np.int64),
            "uint32": good.data.view(np.uint32),
            rf"\({width}, {blocks}, {degree // 2}\)": good.data[..., : degree // 2],
            rf"\({width}, {blocks + 1}, {degree}\)": np.concatenate(
                [good.data, good.data[:, :1]], axis=1
            ),
            rf"\({blocks}, {degree}\)": good.data[0],
        }
        for named, data in wrong.items():
            expected = rf"int32 accumulators of shape \(B, {blocks}, {degree}\): got .*{named}"
            with pytest.raises(ValueError, match=expected):
                rotator.rotate_batch(type(good)(data), amounts)
