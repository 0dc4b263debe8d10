"""Round-trip, corruption and byte-layout tests for the serialization layer."""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import random
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import ciphertext_form
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import FheContext
from repro.tfhe import serialize
from repro.tfhe.gates import (
    PLAINTEXT_GATES,
    TFHEGateEvaluator,
    decrypt_bit,
    decrypt_bit_batch,
    encrypt_bit,
    encrypt_bit_batch,
)
from repro.tfhe.integers import RadixInt, encrypt_radix
from repro.tfhe.keys import TFHECloudKey, TFHESecretKey, generate_keys
from repro.tfhe.lwe import (
    LweBatch,
    LweSample,
    gate_message,
    lwe_encrypt,
    lwe_key_generate,
    lwe_masks,
    lwe_round_mask,
)
from repro.tfhe.params import (
    PARAMETER_SETS,
    PAPER_110BIT,
    TEST_SMALL,
    TEST_TINY,
    DigitEncoding,
    KeySwitchParams,
    LweParams,
    TFHEParameters,
    TgswParams,
    TlweParams,
)
from repro.tfhe.serialize import SerializationError, from_bytes, from_owned_buffer, to_bytes
from repro.tfhe.transform import (
    NaiveNegacyclicTransform,
    TransformSpec,
    available_engines,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Structurally complete but minute parameters (cloud key ≈ 1.7 KB), so the
#: corruption tests can afford to visit every byte of every artifact kind.
MICRO = TFHEParameters(
    name="micro",
    security_bits=0,
    lwe=LweParams(dimension=4, noise_stddev=2.0**-30),
    tlwe=TlweParams(degree=8, mask_count=1, noise_stddev=2.0**-30),
    tgsw=TgswParams(decomp_length=1, decomp_base_bits=8),
    keyswitch=KeySwitchParams(base_bits=1, length=2, noise_stddev=2.0**-30),
    message_space=16,
)


def _micro_artifacts():
    """One valid artifact of every kind (both cloud-key layouts, and the three
    ciphertext layouts: a fresh one's seed, a derived one's mask and a
    rounded one's halves), by name."""
    engine = NaiveNegacyclicTransform(MICRO.N)
    secret, cloud = generate_keys(MICRO, engine, rng=3, eager=False)
    _, unrolled = generate_keys(MICRO, engine, unroll_factor=2, rng=3, eager=False)
    sample = encrypt_bit(secret, 1, rng=5)
    batch = encrypt_bit_batch(secret, [1, 0, 1], rng=6)
    return {
        "secret_key": secret,
        "cloud_key": cloud,
        "cloud_key_m2": unrolled,
        "lwe_sample": sample,
        "lwe_sample_a": sample.copy(),
        "lwe_batch": batch,
        "lwe_batch_a": batch.copy(),
        "lwe_sample_hi": lwe_round_mask(sample),
        "lwe_batch_hi": lwe_round_mask(batch),
        "radix_int": encrypt_radix(secret.lwe_key, 9, 2, DigitEncoding(2, 1), rng=7),
    }


MICRO_BLOBS = {name: to_bytes(obj) for name, obj in _micro_artifacts().items()}


def artifact_arrays(artifact):
    """A loaded artifact's arrays by name: its keys' entries, a cloud key's
    TGSW stack row by row (``bootstrapping_key[i]``), a ciphertext's ``a``
    (whatever form its mask travelled in), its seed and a batch's ``b``, and
    a radix integer's digit masks (``digit[i]``)."""
    if isinstance(artifact, TFHESecretKey):
        return {"lwe_key": artifact.lwe_key.key, "tlwe_key": artifact.tlwe_key.key}
    if isinstance(artifact, TFHECloudKey):
        rows = enumerate(artifact.bootstrapping_key)
        return {"keyswitch": artifact.keyswitch_key.data,
                **{f"bootstrapping_key[{i}]": row.data for i, row in rows}}
    if isinstance(artifact, RadixInt):
        return {f"digit[{i}]": digit.a for i, digit in enumerate(artifact.digits)}
    arrays = {"a": artifact.a}
    if artifact.seed is not None:
        arrays["seed"] = artifact.seed
    if isinstance(artifact, LweBatch):
        arrays["b"] = artifact.b
    return arrays


def read_only_by_contract(artifact, key):
    """A fresh ciphertext's mask and seed are read-only (see ``LweSample``)."""
    return getattr(artifact, "seed", None) is not None and key in ("a", "seed")


class TestSecretKeyRoundTrip:
    def test_fields_and_decryption_survive(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        path = tmp_path / "secret.tfhe"
        serialize.save(path, secret)
        loaded = serialize.load(path)
        assert isinstance(loaded, TFHESecretKey)
        assert loaded.params == secret.params
        assert np.array_equal(loaded.lwe_key.key, secret.lwe_key.key)
        assert np.array_equal(loaded.tlwe_key.key, secret.tlwe_key.key)
        assert np.array_equal(loaded.extracted_key.key, secret.extracted_key.key)
        ct = encrypt_bit(secret, 1, rng=3)
        assert decrypt_bit(loaded, ct) == 1


class TestCloudKeyRoundTrip:
    def test_classical_key_evaluates_bit_identically(self, tmp_path, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        path = tmp_path / "cloud.tfhe"
        serialize.save(path, cloud)
        loaded = serialize.load(path)
        assert isinstance(loaded, TFHECloudKey)
        assert loaded.params == cloud.params
        assert loaded.unroll_factor == 1
        assert loaded.transform_spec == cloud.transform_spec
        context = FheContext(loaded)
        ca, cb = encrypt_bit(secret, 1, rng=5), encrypt_bit(secret, 0, rng=6)
        reference = TFHEGateEvaluator(cloud)
        evaluator = TFHEGateEvaluator(context)
        for name in sorted(PLAINTEXT_GATES):
            expected = reference.gate(name, ca, cb)
            got = evaluator.gate(name, ca, cb)
            assert np.array_equal(got.a, expected.a), name
            assert np.int32(got.b) == np.int32(expected.b), name

    def test_unrolled_key_evaluates_bit_identically(self, tmp_path, tiny_keys_naive_m2):
        secret, cloud = tiny_keys_naive_m2
        path = tmp_path / "cloud-m2.tfhe"
        serialize.save(path, cloud)
        loaded = serialize.load(path)
        assert loaded.unroll_factor == 2
        assert len(loaded.bootstrapping_key) == len(cloud.bootstrapping_key) == 24
        ca, cb = encrypt_bit(secret, 1, rng=7), encrypt_bit(secret, 1, rng=8)
        expected = TFHEGateEvaluator(cloud).and_(ca, cb)
        got = TFHEGateEvaluator(FheContext(loaded)).and_(ca, cb)
        assert np.array_equal(got.a, expected.a)
        assert np.int32(got.b) == np.int32(expected.b)
        assert decrypt_bit(secret, got) == 1

    def test_unserializable_adhoc_engine_rejected(self, tmp_path):
        engine = NaiveNegacyclicTransform(TEST_TINY.N)
        _, cloud = generate_keys(TEST_TINY, engine, rng=13)
        cloud.transform_spec = None
        with pytest.raises(SerializationError, match="unregistered engine"):
            serialize.save(tmp_path / "bad.tfhe", cloud)


def _seeded_tiny_key(unroll_factor: int) -> TFHECloudKey:
    engine = NaiveNegacyclicTransform(TEST_TINY.N)
    _, cloud = generate_keys(TEST_TINY, engine, unroll_factor=unroll_factor, rng=38, eager=False)
    return cloud


class TestCloudKeyBytes:
    """SHA-256 pins of seeded ``test-tiny`` keys: key generation draws the
    same randomness in the same order whatever the key's in-memory layout."""

    def test_an_m1_container_is_pinned_byte_for_byte(self):
        blob = to_bytes(_seeded_tiny_key(1))
        assert len(blob) == 572883
        assert hashlib.sha256(blob).hexdigest() == (
            "10f36c025238ba01e4dcfba1e36872598bd33ab331f560f0579d75cc79530f20"
        )

    def test_an_m2_payload_is_pinned_byte_for_byte(self):
        """The payload only — key-switching table, then the stacked TGSW
        samples in group-major pattern order; the directory names them."""
        blob = to_bytes(_seeded_tiny_key(2))
        payload = blob[_payload_start(blob) :]
        assert len(payload) == 4 * (64 * 4 * 31 * 17 + 24 * 4 * 2 * 64)
        assert hashlib.sha256(payload).hexdigest() == (
            "cec51f726bc129a0a26eca28689eace45fc9fde63ff3d1ce8d9089e94c919661"
        )


class TestSeededCiphertextBytes:
    """SHA-256 pins of fresh ``test-tiny`` ciphertexts under the key of
    :class:`TestCloudKeyBytes`: the seed draw, the expander's domain tag and
    word order, and the seeded layout cannot drift unnoticed."""

    @pytest.fixture(scope="class")
    def secret(self):
        secret, _ = generate_keys(
            TEST_TINY, NaiveNegacyclicTransform(TEST_TINY.N), rng=38, eager=False
        )
        return secret

    def test_the_expander_is_pinned(self):
        """SHAKE-128 over the domain tag and the seed's little-endian bytes."""
        seed = np.array([1, -2, 3, -(2**31)], dtype=np.int32)
        masks = lwe_masks(seed, 630)
        xof = hashlib.shake_128(b"repro-tfhe/lwe-mask/v1\x00" + seed.astype("<i4").tobytes())
        assert masks.astype("<i4").tobytes() == xof.digest(4 * 630)
        assert hashlib.sha256(masks.astype("<i4").tobytes()).hexdigest() == (
            "c74a1fa776fb61ff6a35668a6e1051e563b874df57b047cb9664a416e0f654eb"
        )

    def test_a_seeded_sample_is_pinned_byte_for_byte(self, secret):
        blob = to_bytes(encrypt_bit(secret, 1, rng=39))
        assert blob[:16] == b"rTFA\x03\x01" + struct.pack("<IHI", 6, 1, 16)
        assert hashlib.sha256(blob).hexdigest() == (
            "d4952cdcff87f4fc0b891ea1f932bd1e919592443ca8460a82fa07fd0d27c135"
        )

    def test_a_seeded_batch_is_pinned_byte_for_byte(self, secret):
        blob = to_bytes(encrypt_bit_batch(secret, [1, 0, 1], rng=40))
        assert blob[:20] == b"rTFA\x03\x02" + struct.pack("<IHII", 10, 1, 16, 3)
        assert hashlib.sha256(blob).hexdigest() == (
            "17e4d36d96bcbc4c9937497817a0c8c34c109f6004659e814c4911617cf13cb6"
        )


class TestSeededCiphertexts:
    """A fresh ciphertext crosses the wire as its seed and comes back whole."""

    @pytest.mark.parametrize("params", [TEST_SMALL, PAPER_110BIT], ids=lambda p: p.name)
    def test_a_fresh_operand_is_36_bytes_at_any_n(self, params):
        """Prefix (10) + head (6) + seed (16) + b (4)."""
        key = lwe_key_generate(params.lwe, rng=1)
        sample = lwe_encrypt(key, gate_message(1), rng=2)
        assert len(to_bytes(sample)) == 36
        assert len(to_bytes(sample.copy())) == 10 + 6 + 4 * (params.n + 1)
        assert len(to_bytes(LweBatch.from_samples([sample] * 16))) == 10 + 10 + 16 * 20

    @pytest.mark.parametrize(
        "keys",
        ["tiny_keys_naive", "tiny_keys_naive_m2", "small_keys_double", "small_keys_approx_m2"],
    )
    def test_round_trip_is_byte_identical_and_decrypts(self, keys, request):
        secret, cloud = request.getfixturevalue(keys)
        sample = encrypt_bit(secret, 1, rng=41)
        batch = encrypt_bit_batch(secret, [0, 1, 1, 0, 1], rng=42)
        for fresh in (sample, batch):
            blob = to_bytes(fresh)
            assert ciphertext_form(blob) == "seed"
            for decode in (from_bytes, from_owned_buffer):
                loaded = decode(bytearray(blob))
                assert type(loaded) is type(fresh) and to_bytes(loaded) == blob
                assert np.array_equal(loaded.seed, fresh.seed)
                assert np.array_equal(loaded.a, fresh.a) and np.array_equal(loaded.b, fresh.b)
                assert not loaded.a.flags.writeable
        ca, cb = from_bytes(to_bytes(sample)), from_bytes(to_bytes(batch))[2]
        assert decrypt_bit(secret, ca) == 1 and decrypt_bit(secret, cb) == 1
        assert decrypt_bit_batch(secret, from_bytes(to_bytes(batch))) == [0, 1, 1, 0, 1]
        reply = TFHEGateEvaluator(FheContext(cloud)).nand(ca, cb)
        assert reply.seed is None and ciphertext_form(to_bytes(reply)) == "a"  # derived
        assert decrypt_bit(secret, from_bytes(to_bytes(reply))) == 0

    def test_every_shipped_parameter_set_fits_the_expansion_bounds(self):
        for params in PARAMETER_SETS.values():
            # fresh samples live under the LWE key or, in tests, the extracted key
            assert max(params.n, params.k * params.N) <= serialize.MAX_SEEDED_DIMENSION
            assert 1024 * params.n <= serialize.MAX_SEEDED_WORDS


def _json_blob(kind: int, meta: dict, directory: list, words: int) -> bytes:
    """A hand-built JSON-headed container with ``words`` zero payload words."""
    header = json.dumps({**meta, "arrays": directory}, separators=(",", ":")).encode()
    version = serialize.CONTAINER_VERSION
    return struct.pack("<4sBBI", b"rTFA", version, kind, len(header)) + header + bytes(4 * words)


def _ciphertext_blob(kind: int, head: tuple, words: int) -> bytes:
    """A hand-built ciphertext container: ``head`` — the form code, then
    ``n`` and a batch's rows — packed as one u16 and u32s, then ``words``
    zero payload words."""
    packed = struct.pack("<H" + "I" * (len(head) - 1), *head)
    version = serialize.CONTAINER_VERSION
    return struct.pack("<4sBBI", b"rTFA", version, kind, len(packed)) + packed + bytes(4 * words)


class TestSeededHeaderChecks:
    """A seeded head is refused before the expander runs, whichever reader."""

    BOUND_N = serialize.MAX_SEEDED_DIMENSION
    #: The fewest rows of the largest admissible ``n`` that exceed the word bound.
    ROWS = serialize.MAX_SEEDED_WORDS // serialize.MAX_SEEDED_DIMENSION + 1
    REFUSED = [
        ("n = bound + 1", 1, (1, BOUND_N + 1), 5, "expansion bound"),
        ("n = 2**32 - 1", 1, (1, 2**32 - 1), 5, "expansion bound"),
        ("rows × n", 2, (1, BOUND_N, ROWS), 5 * ROWS, "expansion bound"),
        ("n zero", 1, (1, 0), 5, "n >= 1"),
        ("n zero, batch", 2, (1, 0, 1), 5, "n >= 1"),
        ("form 3", 1, (3, 16), 5, "unknown ciphertext form 3"),
        ("form 0xFFFF, batch", 2, (0xFFFF, 16, 1), 5, "unknown ciphertext form 65535"),
        ("a word short", 1, (1, 16), 4, "truncated"),
        ("a word long", 1, (1, 16), 6, "4 trailing bytes"),
        ("a row short", 2, (1, 16, 2), 9, "truncated"),
        ("a row long", 2, (1, 16, 1), 10, "20 trailing bytes"),
        ("a batch head on a sample", 1, (1, 16, 1), 5, "lwe_sample head is 6 bytes, not 10"),
        ("a sample head on a batch", 2, (1, 16), 5, "lwe_batch head is 10 bytes, not 6"),
    ]

    @pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
    @pytest.mark.parametrize("case", REFUSED, ids=[case[0] for case in REFUSED])
    def test_refused_before_any_expansion(self, decode, case, monkeypatch):
        _, kind, head, words, match = case
        blob = _ciphertext_blob(kind, head, words)

        def expander_must_not_run(*_args):
            raise AssertionError("the mask expander ran on a refused header")

        monkeypatch.setattr(serialize, "lwe_masks", expander_must_not_run)
        for _ in range(2):  # a refused header is never cached: refused again
            with pytest.raises(SerializationError, match=match):
                decode(bytearray(blob))

    def test_the_bound_itself_is_admitted(self):
        rows = self.ROWS - 1
        batch = from_bytes(_ciphertext_blob(2, (1, self.BOUND_N, rows), 5 * rows))
        assert batch.a.shape == (rows, self.BOUND_N)
        assert np.array_equal(batch.a[0], lwe_masks(np.zeros(4, np.int32), self.BOUND_N))

    def test_a_radix_int_never_expands_a_seed(self):
        meta = {"n": 4, "encoding": {"message_bits": 2, "carry_bits": 1}, "bounds": [0]}
        blob = _json_blob(3, meta, [["seed", [1, 4]], ["b", [1]]], 5)
        with pytest.raises(SerializationError, match="missing the 'a' entry"):
            from_bytes(blob)


class TestRoundedCiphertexts:
    """A rounded reply (:func:`lwe_round_mask`) travels as its high halves."""

    def test_a_paper_reply_is_1280_bytes_instead_of_2540(self):
        key = lwe_key_generate(PAPER_110BIT.lwe, rng=1)
        reply = lwe_encrypt(key, gate_message(1), rng=2).copy()
        assert len(to_bytes(reply)) == 2540
        rounded = to_bytes(lwe_round_mask(reply))
        assert rounded[10:16] == struct.pack("<HI", 2, 630)
        assert len(rounded) == 1280 == 4 * -(-PAPER_110BIT.n // 2) + 20

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 630])
    def test_a_rounded_sample_and_batch_round_trip_byte_for_byte(self, n):
        rng = np.random.default_rng(n)
        a = rng.integers(-(2**31), 2**31, (3, n)).astype(np.int32)
        a[0, 0] = -(2**31)  # rounds to itself; a word near the top wraps
        a[1, 0] = 2**31 - 2**14
        batch = LweBatch(a=a, b=rng.integers(-(2**31), 2**31, 3).astype(np.int32))
        rounded = lwe_round_mask(batch)
        assert rounded.a[1, 0] == -(2**31)
        for ciphertext in (rounded, rounded[1]):
            blob = to_bytes(ciphertext)
            assert ciphertext_form(blob) == "a_hi"
            assert blob == b"".join(serialize.to_pieces(ciphertext))
            for decode in (from_bytes, from_owned_buffer):
                loaded = decode(bytearray(blob))
                assert type(loaded) is type(ciphertext) and to_bytes(loaded) == blob
                assert np.array_equal(loaded.a, ciphertext.a)
                assert np.array_equal(loaded.b, ciphertext.b)
                assert loaded.seed is None and loaded.a.flags.writeable

    def test_an_unrounded_derived_ciphertext_writes_its_full_mask(self, small_keys_double):
        secret, cloud = small_keys_double
        ca, cb = encrypt_bit(secret, 1, rng=51), encrypt_bit(secret, 1, rng=52)
        reply = TFHEGateEvaluator(FheContext(cloud)).nand(ca, cb)
        blob = to_bytes(reply)
        assert blob[10:-4 * (TEST_SMALL.n + 1)] == struct.pack("<HI", 0, TEST_SMALL.n)
        rounded = to_bytes(lwe_round_mask(reply))
        assert ciphertext_form(rounded) == "a_hi" and len(rounded) < len(blob)
        for wire in (blob, rounded):
            assert decrypt_bit(secret, from_bytes(wire)) == 0

    def test_a_rounded_test_small_reply_is_pinned_byte_for_byte(self):
        """The rounding, the packing (two high halves per little-endian word)
        and the header, under the exact engine so every platform agrees."""
        secret, cloud = generate_keys(
            TEST_SMALL, NaiveNegacyclicTransform(TEST_SMALL.N), rng=53, eager=False
        )
        ca, cb = encrypt_bit(secret, 1, rng=54), encrypt_bit(secret, 0, rng=55)
        reply = lwe_round_mask(TFHEGateEvaluator(FheContext(cloud)).nand(ca, cb))
        blob = to_bytes(reply)
        assert blob[:10] == b"rTFA\x03\x01" + struct.pack("<I", 6)
        assert blob[10:16] == struct.pack("<HI", 2, 32)
        halves = np.frombuffer(blob[16:-4], "<u2")
        assert np.array_equal(halves.astype(np.uint32) << 16, reply.a.view(np.uint32))
        assert blob[-4:] == struct.pack("<i", reply.b)
        assert len(blob) == 16 + 2 * 32 + 4 == 84
        assert decrypt_bit(secret, from_bytes(blob)) == 1
        assert hashlib.sha256(blob).hexdigest() == (
            "bb288ce8038e926015cff8cc85da9761169d1796f6494e56525a5015d241bca6"
        )


class TestHalvedHeaderChecks:
    """An ``a_hi`` head is refused before any array is built, whichever reader."""

    REFUSED = [
        ("n zero", 1, (2, 0), 1, "n >= 1"),
        ("n zero, batch", 2, (2, 0, 1), 2, "n >= 1"),
        ("n = 16, 9 words", 1, (2, 16), 10, "4 trailing bytes"),
        ("n = 15, 7 words", 1, (2, 15), 8, "truncated"),
        ("n = 16, 16 words a row", 2, (2, 16, 2), 34, "64 trailing bytes"),
        ("more rows than carried", 2, (2, 16, 3), 18, "truncated"),
        ("n = 2**32 - 1", 1, (2, 2**32 - 1), 3, "truncated"),
        ("rows = 2**32 - 1", 2, (2, 16, 2**32 - 1), 9, "truncated"),
        ("a head of 2 bytes", 1, (2,), 3, "head is 6 bytes, not 2"),
        ("a head of 14 bytes", 2, (2, 16, 1, 0), 9, "head is 10 bytes, not 14"),
        ("no rows", 2, (2, 16, 0), 0, "an empty lwe_batch travels as 'a'"),
    ]

    @pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
    @pytest.mark.parametrize("case", REFUSED, ids=[case[0] for case in REFUSED])
    def test_refused_before_any_array_is_built(self, decode, case, monkeypatch):
        _, kind, head, words, match = case
        blob = _ciphertext_blob(kind, head, words)

        def must_not_run(*_args, **_kwargs):
            raise AssertionError("an array was built for a refused header")

        monkeypatch.setattr(serialize, "_arrays", must_not_run)
        monkeypatch.setattr(serialize, "_unpack_halves", must_not_run)
        for _ in range(2):  # a refused header is never cached: refused again
            with pytest.raises(SerializationError, match=match):
                decode(bytearray(blob))

    @pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
    @pytest.mark.parametrize("kind, rows", [(1, None), (2, 3)])
    def test_an_odd_n_needs_a_zero_pad_half(self, decode, kind, rows):
        n, width = 15, 8
        head = (2, n) if rows is None else (2, n, rows)
        blob = bytearray(_ciphertext_blob(kind, head, (rows or 1) * (width + 1)))
        start = _payload_start(blob)
        # Row 0's pad half: the high half of its last word.
        blob[start + 4 * width - 2 : start + 4 * width] = b"\xff\xff"
        blob[start : start + 2] = b"\x01\x00"  # a real half, which is kept
        with pytest.raises(SerializationError, match="non-zero pad half"):
            decode(bytearray(blob))
        blob[start + 4 * width - 2 : start + 4 * width] = b"\x00\x00"
        loaded = decode(bytearray(blob))
        assert loaded.a.shape == ((n,) if rows is None else (rows, n))
        assert loaded.a.reshape(-1, n)[0, 0] == 1 << 16
        assert to_bytes(loaded) == bytes(blob)

    @pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
    def test_only_the_writers_form_is_read(self, decode):
        """An ``a`` mask whose low halves are all zero is written as
        ``a_hi``, and an empty batch as ``a``: the other spelling of either
        is refused, so what is read re-encodes to the bytes it came from."""
        zero_lows = _ciphertext_blob(1, (0, 4), 5)
        with pytest.raises(SerializationError, match="low halves are all zero"):
            decode(bytearray(zero_lows))
        halved = bytearray(zero_lows)
        halved[16:18] = b"\x01\x00"  # one low half: an honest 'a' mask
        assert to_bytes(decode(halved)) == bytes(halved)
        empty = _ciphertext_blob(2, (0, 16, 0), 0)
        loaded = decode(bytearray(empty))
        assert loaded.a.shape == (0, 16) and loaded.b.shape == (0,)
        assert to_bytes(loaded) == empty

    def test_a_radix_int_never_reads_halves(self):
        meta = {"n": 4, "encoding": {"message_bits": 2, "carry_bits": 1}, "bounds": [0]}
        blob = _json_blob(3, meta, [["a_hi", [1, 2]], ["b", [1]]], 3)
        with pytest.raises(SerializationError, match="missing the 'a' entry"):
            from_bytes(blob)


class TestCiphertextRoundTrip:
    def test_lwe_sample(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        sample = encrypt_bit(secret, 1, rng=21)
        path = tmp_path / "ct.tfhe"
        serialize.save(path, sample)
        loaded = serialize.load(path)
        assert isinstance(loaded, LweSample)
        assert np.array_equal(loaded.a, sample.a)
        assert np.int32(loaded.b) == np.int32(sample.b)

    def test_lwe_batch(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        batch = encrypt_bit_batch(secret, [0, 1, 1, 0], rng=22)
        path = tmp_path / "batch.tfhe"
        serialize.save(path, batch)
        loaded = serialize.load(path)
        assert isinstance(loaded, LweBatch)
        assert np.array_equal(loaded.a, batch.a)
        assert np.array_equal(loaded.b, batch.b)


class TestRadixIntRoundTrip:
    ENCODING = None  # set lazily to keep module import cheap

    @staticmethod
    def _value(secret, value=173, width=4):
        from repro.tfhe.integers import encrypt_radix
        from repro.tfhe.params import DigitEncoding

        encoding = DigitEncoding(message_bits=2, carry_bits=2)
        return encrypt_radix(secret.lwe_key, value, width, encoding, rng=44)

    def test_round_trip_preserves_digits_bounds_and_encoding(
        self, tmp_path, tiny_keys_naive
    ):
        from repro.tfhe.integers import decrypt_radix

        secret, _ = tiny_keys_naive
        x = self._value(secret)
        path = tmp_path / "radix.tfhe"
        serialize.save(path, x)
        loaded = serialize.load(path)
        assert isinstance(loaded, RadixInt)
        assert loaded.encoding == x.encoding
        assert loaded.bounds == x.bounds
        assert loaded.width == x.width
        for got, expected in zip(loaded.digits, x.digits):
            assert np.array_equal(got.a, expected.a)
            assert np.int32(got.b) == np.int32(expected.b)
        assert decrypt_radix(secret.lwe_key, loaded) == 173

    def test_unnormalised_bounds_survive(self, tmp_path, tiny_keys_naive):
        from repro.tfhe.integers import RadixInt

        secret, _ = tiny_keys_naive
        x = self._value(secret)
        grown = RadixInt(
            digits=x.digits, bounds=(7, 11, 3, 15), encoding=x.encoding
        )
        path = tmp_path / "radix-wide.tfhe"
        serialize.save(path, grown)
        assert serialize.load(path).bounds == (7, 11, 3, 15)

    def test_dispatch_recognises_radix_ints(self, tmp_path, tiny_keys_naive):
        from repro.tfhe.integers import RadixInt

        secret, _ = tiny_keys_naive
        path = tmp_path / "radix.tfhe"
        serialize.save(path, self._value(secret))
        assert isinstance(serialize.load(path), RadixInt)

    def test_malformed_radix_metadata_rejected(self, tiny_keys_naive, edit_artifact):
        secret, _ = tiny_keys_naive
        blob = to_bytes(self._value(secret))
        cases = [
            lambda m: m.pop("encoding"),
            lambda m: m["encoding"].__setitem__("message_bits", 9),
            lambda m: m.__setitem__("bounds", "not-a-list"),
            lambda m: m.__setitem__("bounds", [1, 2]),  # wrong digit count
            lambda m: m.__setitem__("bounds", [99, 0, 0, 0]),  # above P − 1
        ]
        for mutate in cases:
            with pytest.raises(SerializationError):
                from_bytes(edit_artifact(blob, mutate))

    def test_row_count_disagreement_rejected(self, tiny_keys_naive, edit_artifact):
        secret, _ = tiny_keys_naive
        blob = to_bytes(self._value(secret))

        def drop_one_b_row(meta):
            assert meta["arrays"][1] == ["b", [4]]
            meta["arrays"][1] = ["b", [3]]

        shorter = edit_artifact(blob, drop_one_b_row)[:-4]
        with pytest.raises(SerializationError, match="'b' has rank 1 and shape"):
            from_bytes(shorter)


class TestCorruptArchives:
    """Every artifact kind must fail loudly, not load garbage."""

    def test_truncation_at_every_offset_and_a_trailing_byte_rejected(self):
        for name, blob in MICRO_BLOBS.items():
            assert to_bytes(from_bytes(blob)) == blob, name
            for cut in range(len(blob)):
                with pytest.raises(SerializationError):
                    from_bytes(blob[:cut])
            with pytest.raises(SerializationError, match="1 trailing bytes"):
                from_bytes(blob + b"\x00")

    def test_truncated_file_rejected(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        path = tmp_path / "ct.tfhe"
        serialize.save(path, encrypt_bit(secret, 1, rng=61))
        blob = path.read_bytes()
        for cut in (len(blob) // 2, len(blob) - 1, 10):
            path.write_bytes(blob[:cut])
            with pytest.raises(SerializationError):
                serialize.load(path)

    def test_wrong_dtype_payload_rejected(self, tiny_keys_naive, edit_artifact):
        """The container has no dtype to lie about: an int64/float64 payload
        under an honest directory is twice the bytes the directory owns."""
        secret, cloud = tiny_keys_naive
        objs = [
            secret,
            cloud,
            encrypt_bit(secret, 1, rng=62),
            encrypt_bit_batch(secret, [1, 0], rng=63),
            TestRadixIntRoundTrip._value(secret),
        ]
        for obj, wide in zip(objs, (np.int64, np.float64, np.float64, np.int64, np.uint64)):
            blob = to_bytes(obj)
            values = np.frombuffer(blob, dtype="<i4", offset=_payload_start(blob))
            widened = values.astype(wide).tobytes()
            with pytest.raises(SerializationError, match="trailing bytes|truncated"):
                from_bytes(edit_artifact(blob, payload=widened))

    def test_missing_entry_rejected(self, tiny_keys_naive, edit_artifact):
        secret, cloud = tiny_keys_naive
        for obj in (secret, cloud):
            blob = to_bytes(obj)
            name, shape = _directory(blob)[-1]
            cut = 4 * int(np.prod(shape))
            with pytest.raises(SerializationError, match=f"missing the '{name}' entry"):
                from_bytes(edit_artifact(blob, lambda m: m["arrays"].pop())[:-cut])

    CIPHERTEXTS = [
        "lwe_sample", "lwe_sample_a", "lwe_sample_hi", "lwe_batch", "lwe_batch_a", "lwe_batch_hi",
    ]

    @pytest.mark.parametrize("name", CIPHERTEXTS)
    def test_an_extra_payload_word_is_refused(self, name, monkeypatch):
        """A ciphertext carrying more than its head states is refused — by
        both readers, the same way, and before a seed is expanded — not
        loaded with the extra word dropped."""
        blob = MICRO_BLOBS[name] + bytes(4)

        def expander_must_not_run(*_args):
            raise AssertionError("the mask expander ran on a refused header")

        monkeypatch.setattr(serialize, "lwe_masks", expander_must_not_run)
        messages = set()
        for decode in (from_bytes, from_owned_buffer):
            for _ in range(2):  # a refused header is never cached: refused again
                with pytest.raises(SerializationError, match="4 trailing bytes") as caught:
                    decode(bytearray(blob))
                messages.add(str(caught.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("name", CIPHERTEXTS)
    def test_a_head_under_the_other_ciphertext_kind_is_refused(self, name, edit_artifact):
        """A sample's head under the batch kind byte, or a batch's under the
        sample's, is refused for its size, by both readers."""
        blob = MICRO_BLOBS[name]
        size = {1: 6, 2: 10}
        other = 3 - blob[5]
        bad = edit_artifact(blob, kind=other)
        for decode in (from_bytes, from_owned_buffer):
            with pytest.raises(SerializationError, match=f"head is {size[other]} bytes, not {size[blob[5]]}"):
                decode(bytearray(bad))

    def test_version_skew_rejected_for_every_kind(
        self, tmp_path, tiny_keys_naive, edit_artifact
    ):
        secret, cloud = tiny_keys_naive
        objs = {
            "secret.tfhe": secret,
            "cloud.tfhe": cloud,
            "ct.tfhe": encrypt_bit(secret, 0, rng=65),
            "batch.tfhe": encrypt_bit_batch(secret, [1, 0], rng=66),
            "radix.tfhe": TestRadixIntRoundTrip._value(secret),
        }
        for version in (0, 1, serialize.CONTAINER_VERSION + 1, 255):
            for name, obj in objs.items():
                path = tmp_path / name
                path.write_bytes(edit_artifact(to_bytes(obj), version=version))
                with pytest.raises(SerializationError, match=f"version {version}"):
                    serialize.load(path)

    def test_old_container_refused_by_name(self, tmp_path):
        """Container 1 stated format 3 and the kind in its JSON header: refused,
        and the error names it."""
        payload = struct.pack("<17i", *range(17))
        header = (
            b'{"format":"repro-tfhe","version":3,"artifact":"lwe_sample",'
            b'"arrays":[["a",[16]],["b",[]]]}'
        )
        old = struct.pack("<4sBI", b"rTFA", 1, len(header)) + header + payload
        with pytest.raises(SerializationError, match="container 1 / format 3"):
            from_bytes(old)
        path = tmp_path / "old.tfhe"
        path.write_bytes(old)
        for source in (path, io.BytesIO(old)):
            with pytest.raises(SerializationError, match="container 1 / format 3"):
                serialize.load(source)

    def test_container_2_refused_by_name(self, tmp_path):
        """Container 2 gave a ciphertext a JSON directory: refused, and the
        error names it."""
        header = b'{"n":16,"arrays":[["seed",[4]],["b",[]]]}'
        old = struct.pack("<4sBBI", b"rTFA", 2, 1, len(header)) + header + bytes(20)
        for decode in (from_bytes, from_owned_buffer):
            with pytest.raises(SerializationError, match="container 2 "):
                decode(bytearray(old))
        path = tmp_path / "old.tfhe"
        path.write_bytes(old)
        with pytest.raises(SerializationError, match="container 2 "):
            serialize.load(path)

    def test_kind_skew_rejected_from_the_prefix(self, edit_artifact):
        for name, blob in MICRO_BLOBS.items():
            for kind in (0, 6, 255):
                with pytest.raises(SerializationError, match=f"kind byte {kind}$"):
                    from_bytes(edit_artifact(blob, kind=kind))

    def test_old_npz_archive_refused_by_name(self, tmp_path, tiny_keys_naive):
        """Format versions 1-2 were npz: refused, and the error says so."""
        secret, _ = tiny_keys_naive
        sample = encrypt_bit(secret, 1, rng=67)
        meta = {"format": "repro-tfhe", "version": 2, "artifact": "lwe_sample"}
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            a=sample.a,
            b=np.asarray(sample.b),
        )
        with pytest.raises(SerializationError, match="npz"):
            from_bytes(buffer.getvalue())
        path = tmp_path / "old.npz"
        path.write_bytes(buffer.getvalue())
        with pytest.raises(SerializationError, match="npz"):
            serialize.load(path)

    def test_prefix_corruption_rejected(self):
        blob = MICRO_BLOBS["lwe_sample"]
        bad_magic = b"rTFB" + blob[4:]
        bad_container = blob[:4] + b"\x04" + blob[5:]
        bad_kind = blob[:5] + b"\x09" + blob[6:]
        long_header = blob[:6] + (len(blob)).to_bytes(4, "little") + blob[10:]
        for bad, match in (
            (bad_magic, "container"),
            (bad_container, "version 4"),
            (bad_kind, "kind byte 9"),
            (long_header, "header length"),
        ):
            with pytest.raises(SerializationError, match=match):
                from_bytes(bad)

    def test_header_must_be_a_json_object_with_a_directory(self, edit_artifact):
        blob = MICRO_BLOBS["radix_int"]
        prefix, payload = blob[:6], blob[_payload_start(blob) :]
        for header in (b"[1,2]", b"{not json", b"\xff\xfe", b"{}", b"[" * 100_000):
            bad = prefix + len(header).to_bytes(4, "little") + header + payload
            with pytest.raises(SerializationError, match="header"):
                from_bytes(bad)
        with pytest.raises(SerializationError, match="header"):
            from_bytes(edit_artifact(blob, lambda m: m.pop("arrays")))

    def test_directory_lies_rejected_without_allocating(self, edit_artifact):
        blob = MICRO_BLOBS["radix_int"]
        lies = [
            lambda m: m.__setitem__("arrays", {"a": [3, 4]}),  # not a list
            lambda m: m["arrays"].__setitem__(0, "a"),  # entry not a pair
            lambda m: m["arrays"].__setitem__(0, ["a", 12]),  # shape not a list
            lambda m: m["arrays"].__setitem__(0, ["a", [-3, -4]]),  # negative dims
            lambda m: m["arrays"].__setitem__(0, ["a", [3.0, 4]]),  # float dim
            lambda m: m["arrays"].__setitem__(0, ["a", [True, 12]]),  # bool dim
            lambda m: m["arrays"].__setitem__(0, ["a", [1] * 5]),  # rank beyond any artifact
            lambda m: m["arrays"].__setitem__(0, [7, [3, 4]]),  # name not a string
            lambda m: m["arrays"].__setitem__(1, ["a", [3]]),  # duplicate name
            lambda m: m["arrays"].__setitem__(0, ["a", [2**40, 4]]),  # far past the buffer
            lambda m: m["arrays"].__setitem__(0, ["a", [2**62, 2**62]]),  # past int64, too
            lambda m: m["arrays"].append(["c", [2**31]]),  # an extra giant entry
        ]
        head_lies = [
            lambda m: m.__setitem__("n", 2**32 - 1),
            lambda m: m.__setitem__("rows", 2**32 - 1),
            lambda m: m.update(n=2**32 - 1, rows=2**32 - 1),
        ]
        corpus = [edit_artifact(blob, lie) for lie in lies]
        for name in ("lwe_batch_a", "lwe_batch_hi"):
            corpus += [edit_artifact(MICRO_BLOBS[name], lie) for lie in head_lies]
        tracemalloc.start()
        try:
            for bad in corpus:
                with pytest.raises(SerializationError):
                    from_bytes(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"a lying directory made the reader allocate {peak} bytes"


class TestCorruptArchivesOnAWarmCache(TestCorruptArchives):
    """The same refusals with every valid header of the suite already cached."""

    @pytest.fixture(autouse=True)
    def _warm(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        objs = [
            secret,
            cloud,
            encrypt_bit(secret, 1, rng=1),
            encrypt_bit_batch(secret, [1, 0], rng=2),
            TestRadixIntRoundTrip._value(secret),
        ]
        for blob in [*MICRO_BLOBS.values(), *(to_bytes(obj) for obj in objs)]:
            from_bytes(blob)


def _cold():
    serialize._LAYOUTS.clear()
    serialize._HEADS.clear()


def _read(data, decode=from_bytes):
    """What reading ``data`` gives: its re-encoding, or the refusal's text."""
    try:
        return "ok", to_bytes(decode(data))
    except SerializationError as exc:
        return "refused", str(exc)


class TestCodecCaches:
    """The header caches change no byte and no error — only the cost."""

    @pytest.mark.parametrize("name", sorted(MICRO_BLOBS))
    def test_encoding_is_byte_identical_cold_and_warm(self, name):
        obj = from_bytes(MICRO_BLOBS[name])
        _cold()
        cold = to_bytes(obj)
        assert to_bytes(obj) == cold == MICRO_BLOBS[name]
        assert to_bytes(from_bytes(cold)) == cold  # decoded warm, too

    def test_a_warm_sample_header_writes_any_int32_sample_and_refuses_the_rest(self):
        a = np.arange(-16, 16, dtype=np.int32)
        for sample in (
            LweSample(a=a[::2], b=np.int32(-2**31)),  # strided view
            LweSample(a=a[:16], b=np.int32(2**31 - 1)),
        ):
            _cold()
            cold = to_bytes(sample)
            assert to_bytes(sample) == cold
            loaded = from_bytes(cold)
            assert np.array_equal(loaded.a, sample.a) and loaded.b == sample.b
        for bad in (
            LweSample(a=a[:16].astype(np.int64), b=np.int32(1)),
            LweSample(a=a[:16], b=1),
            LweSample(a=a[:16], b=np.int64(1)),
        ):
            with pytest.raises(SerializationError, match="int32 only"):
                to_bytes(bad)

    @pytest.mark.parametrize("name", sorted(MICRO_BLOBS))
    def test_to_bytes_is_the_join_of_to_pieces(self, name):
        """Either entry may fill the header cache the other then reads: the
        bytes are the same every way round, cold and warm."""
        obj = from_bytes(MICRO_BLOBS[name])

        def joined(artifact):
            return b"".join(serialize.to_pieces(artifact))

        for first, second in ((to_bytes, joined), (joined, to_bytes)):
            _cold()
            assert first(obj) == second(obj) == MICRO_BLOBS[name]

    def test_corrupt_containers_read_the_same_cold_and_warm(self, edit_artifact):
        corpus = []
        for blob in MICRO_BLOBS.values():
            corpus.extend(blob[:cut] for cut in range(0, len(blob), 7))
            corpus.append(blob + b"\x00")
        edits = [
            {"mutate": lambda m: m.pop("rows")},
            {"mutate": lambda m: m.__setitem__("rows", 2)},
            {"mutate": lambda m: m.__setitem__("form", 0)},
            {"version": 1},
            {"version": 2},
            {"kind": 0xEE},
            {"kind": 1},  # a batch's head under the sample's kind byte
        ]
        corpus.extend(edit_artifact(MICRO_BLOBS["lwe_batch"], **edit) for edit in edits)
        for bad in corpus:
            _cold()
            cold = _read(bad)
            for blob in MICRO_BLOBS.values():
                from_bytes(blob)
            assert _read(bad) == cold

    def test_a_header_one_byte_off_is_validated_in_full(self):
        for name in (
            "lwe_sample", "lwe_sample_a", "lwe_sample_hi",
            "lwe_batch", "lwe_batch_a", "lwe_batch_hi", "radix_int",
        ):
            blob = MICRO_BLOBS[name]
            # the kind byte, then every byte of the header
            for position in (5, *range(10, _payload_start(blob))):
                for flip in (0x01, 0x20):
                    bad = bytearray(blob)
                    bad[position] ^= flip
                    _cold()
                    cold = _read(bytes(bad))
                    from_bytes(blob)  # the true header is cached ...
                    assert _read(bytes(bad)) == cold, (name, position, flip)

    def test_a_warm_ciphertext_is_its_own_copy(self):
        """A derived ciphertext's ``a`` is a writable copy (a halved one's its
        unpacking); a seeded one's is its expansion, read-only, and so is its
        seed."""
        for name in (
            "lwe_sample", "lwe_sample_a", "lwe_sample_hi",
            "lwe_batch", "lwe_batch_a", "lwe_batch_hi",
        ):
            buffer = bytearray(MICRO_BLOBS[name])
            backing = np.frombuffer(buffer, dtype=np.uint8)
            for _ in range(2):  # cold, then warm
                loaded = from_bytes(buffer)
                arrays = [loaded.a, np.asarray(loaded.b)]
                if loaded.seed is not None:
                    arrays.append(loaded.seed)
                for array in arrays:
                    assert array.dtype == np.int32 and not np.shares_memory(array, backing)
                derived = name.endswith(("_a", "_hi"))
                assert loaded.a.flags.writeable == derived
                assert (loaded.seed is None) == derived
            assert to_bytes(loaded) == MICRO_BLOBS[name]

    def test_threads_sharing_the_caches_past_their_bound_read_right(self):
        """More threads than cores, a short switch interval and more shapes
        than the caches hold: every round trip is exact and the bound holds."""
        errors = []

        def churn(offset):
            try:
                for i in range(1500):
                    n = 1 + (offset + 7 * i) % (2 * serialize._CACHE_BOUND)
                    sample = LweSample(a=np.full(n, n, dtype=np.int32), b=np.int32(-n))
                    loaded = from_bytes(to_bytes(sample))
                    assert loaded.a.shape == (n,) and (loaded.a == n).all() and loaded.b == -n
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(serialize._LAYOUTS) <= serialize._CACHE_BOUND
        assert len(serialize._HEADS) <= serialize._CACHE_BOUND

    def test_distinct_headers_do_not_grow_the_caches_past_their_bound(self):
        for n in range(1, 10_001):
            sample = LweSample(a=np.zeros(n, dtype=np.int32), b=np.int32(n))
            assert from_bytes(to_bytes(sample)).b == n
        assert len(serialize._LAYOUTS) == serialize._CACHE_BOUND
        assert len(serialize._HEADS) == serialize._CACHE_BOUND


def _payload_start(blob):
    return 10 + int.from_bytes(blob[6:10], "little")


def _directory(blob):
    """A key's or radix integer's JSON directory."""
    return json.loads(blob[10 : _payload_start(blob)])["arrays"]


class TestContainerBytes:
    """The byte layout itself: pinned, deterministic, copy semantics."""

    #: TEST_TINY-sized (n = 16) ciphertexts with fixed torus values.
    A = [(i * 0x10203040 + 7) % 2**32 - 2**31 for i in range(48)]
    B = [-2, 0x7FFFFFFF, -(2**31)]

    def test_golden_bytes_of_a_sample_and_a_batch(self):
        """Spelled out byte for byte, so the next format change is explicit
        (and the ledger's byte-identical wire totals keep meaning something)."""

        def golden(kind, header, *int32s):
            return (
                b"rTFA\x03"
                + bytes([kind])
                + struct.pack("<I", len(header))
                + header
                + struct.pack(f"<{len(int32s)}i", *int32s)
            )

        sample = LweSample(a=np.array(self.A[:16], dtype=np.int32), b=np.int32(self.B[0]))
        header = struct.pack("<HI", 0, 16)
        blob = to_bytes(sample)
        assert blob == golden(1, header, *self.A[:16], self.B[0])
        assert len(blob) == 10 + 6 + 4 * (16 + 1) == 84

        batch = LweBatch(
            a=np.array(self.A, dtype=np.int32).reshape(3, 16),
            b=np.array(self.B, dtype=np.int32),
        )
        header = struct.pack("<HII", 0, 16, 3)
        assert to_bytes(batch) == golden(2, header, *self.A, *self.B)

    def test_encoding_is_deterministic_and_layout_independent(self):
        artifacts = _micro_artifacts()  # regenerated from the same seeds
        for name, obj in artifacts.items():
            assert to_bytes(obj) == MICRO_BLOBS[name], name
        batch = artifacts["lwe_batch"]
        strided = LweBatch(a=np.asfortranarray(batch.a), b=batch.b[::1])
        assert to_bytes(strided) == MICRO_BLOBS["lwe_batch_a"]
        seeded = LweBatch(a=batch.a, b=batch.b[::1], seed=np.asfortranarray(batch.seed))
        assert to_bytes(seeded) == MICRO_BLOBS["lwe_batch"]

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_decoded_arrays_are_owned_writable_int32(self, wrap):
        for name, blob in MICRO_BLOBS.items():
            buffer = bytearray(blob)
            backing = np.frombuffer(buffer, dtype=np.uint8)
            loaded = from_bytes(wrap(buffer))
            arrays = artifact_arrays(loaded)
            assert arrays, name
            for key, array in arrays.items():
                assert array.dtype == np.int32, (name, key)
                writable = not read_only_by_contract(loaded, key)
                assert array.flags.writeable == writable, (name, key)
                assert array.flags.c_contiguous and array.flags.aligned, (name, key)
                assert not np.shares_memory(array, backing), (name, key)
            assert to_bytes(loaded) == blob, name

    def test_binary_handles_round_trip(self, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        sample = encrypt_bit(secret, 1, rng=31)
        handle = io.BytesIO()
        serialize.save(handle, sample)
        assert handle.getvalue() == to_bytes(sample)
        handle.seek(0)
        assert np.array_equal(serialize.load(handle).a, sample.a)

    def test_writers_refuse_instead_of_cast(self, tmp_path, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        sample = encrypt_bit(secret, 1, rng=32)
        batch = encrypt_bit_batch(secret, [1, 0], rng=33)
        radix = TestRadixIntRoundTrip._value(secret)
        wide_ks = replace(cloud.keyswitch_key, data=cloud.keyswitch_key.data.astype(np.int64))
        narrow_lwe = replace(secret.lwe_key, key=secret.lwe_key.key.astype(np.int8))
        refused = [
            LweSample(a=sample.a.astype(np.int64), b=sample.b),
            LweSample(a=sample.a.astype(np.float64), b=sample.b),
            LweSample(a=sample.a.view(np.uint32), b=sample.b),
            LweSample(a=sample.a, b=int(sample.b)),  # a Python int is int64 to NumPy
            LweSample(a=list(sample.a), b=sample.b),
            LweBatch(a=batch.a, b=batch.b.astype(np.int64)),
            RadixInt(
                digits=[LweSample(a=d.a.astype(np.int64), b=d.b) for d in radix.digits],
                bounds=radix.bounds,
                encoding=radix.encoding,
            ),
            replace(secret, lwe_key=narrow_lwe),
            replace(cloud, keyswitch_key=wide_ks),
        ]
        for obj in refused:
            with pytest.raises(SerializationError, match="int32"):
                to_bytes(obj)
        path = tmp_path / "never.tfhe"
        with pytest.raises(SerializationError, match="int32"):
            serialize.save(path, refused[0])

    def test_writers_refuse_a_ciphertext_no_reader_reads(self):
        """A mask or ``b`` of the wrong rank for its kind, or an empty mask,
        is refused when written, not written as a container every reader
        refuses."""
        a = np.arange(12, dtype=np.int32)
        refused = [
            LweSample(a=a[:0], b=np.int32(1)),
            LweBatch(a=a.reshape(12, 1)[:, :0], b=np.arange(12, dtype=np.int32)),
            LweSample(a=a.reshape(3, 4), b=np.int32(1)),
            LweSample(a=a, b=np.array([1], dtype=np.int32)),
            LweBatch(a=a, b=np.array([1], dtype=np.int32)),
            LweBatch(a=a.reshape(3, 4), b=np.arange(2, dtype=np.int32)),
            LweBatch(a=a.reshape(3, 4), b=np.int32(1)),
        ]
        for obj in refused:
            with pytest.raises(SerializationError, match="refusing to write what no reader reads"):
                to_bytes(obj)


class TestLoaderChecks:
    """Headers and shapes are checked at load, with typed errors — never a
    ``KeyError``/``TypeError``/``IndexError`` and never 'fails in the kernel'."""

    HEADER_DAMAGE = [
        lambda m: m.pop("params"),
        lambda m: m.__setitem__("params", None),
        lambda m: m.__setitem__("params", [1, 2]),
        lambda m: m["params"].pop("lwe"),
        lambda m: m["params"].__setitem__("lwe", 5),
        lambda m: m["params"]["lwe"].__setitem__("dimension", "16"),
        lambda m: m["params"]["lwe"].__setitem__("colour", 1),
        lambda m: m["params"]["tlwe"].__setitem__("degree", 48),
        lambda m: m["params"]["keyswitch"].__setitem__("base_bits", 10**9),
        lambda m: m["params"].__setitem__("security_bits", None),
        lambda m: m["params"].__setitem__("message_space", 7),
    ]
    CLOUD_HEADER_DAMAGE = [
        lambda m: m.pop("unroll_factor"),
        lambda m: m.__setitem__("unroll_factor", None),
        lambda m: m.__setitem__("unroll_factor", 0),
        lambda m: m.__setitem__("unroll_factor", "two"),
        lambda m: m.pop("transform"),
        lambda m: m.__setitem__("transform", None),
        lambda m: m.__setitem__("transform", "double"),
        lambda m: m.__setitem__("transform", {"kwargs": {}}),
        lambda m: m.__setitem__("transform", {"kind": ["double"]}),
        lambda m: m.__setitem__("transform", {"kind": "double", "kwargs": [1]}),
    ]

    def test_malformed_key_headers_are_typed_errors(self, edit_artifact):
        cases = [("secret_key", damage) for damage in self.HEADER_DAMAGE]
        for name in ("cloud_key", "cloud_key_m2"):
            cases += [(name, d) for d in self.HEADER_DAMAGE + self.CLOUD_HEADER_DAMAGE]
        for name, damage in cases:
            with pytest.raises(SerializationError):
                from_bytes(edit_artifact(MICRO_BLOBS[name], damage))

    def test_cloud_key_shapes_are_checked_against_its_own_params(self, edit_artifact):
        n, big_n, k, l = MICRO.n, MICRO.N, MICRO.k, MICRO.l
        ks = MICRO.keyswitch
        digits = 2**ks.base_bits - 1  # digit 0 has no sample
        assert _directory(MICRO_BLOBS["cloud_key"]) == [
            ["keyswitch", [k * big_n, ks.length, digits, n + 1]],
            ["bootstrapping_key", [n, (k + 1) * l, k + 1, big_n]],
        ]

        def reshape(index, shape):
            return lambda m: m["arrays"][index].__setitem__(1, shape)

        same_bytes = [
            # the ring degree disagrees with N=8 (was: fails in the first gate's kernel)
            ("cloud_key", reshape(1, [n, (k + 1) * l, 2 * (k + 1), big_n // 2])),
            ("cloud_key", reshape(1, [n * 2, (k + 1) * l, k + 1, big_n // 2])),
            ("cloud_key", reshape(0, [k * big_n * ks.length, digits, n + 1])),
            ("cloud_key", reshape(0, [k * big_n, 1, ks.length * digits, n + 1])),
            ("cloud_key_m2", reshape(1, [3, (k + 1) * l, k + 1, 2 * big_n])),
        ]
        for name, lie in same_bytes:
            with pytest.raises(SerializationError, match="has rank"):
                from_bytes(edit_artifact(MICRO_BLOBS[name], lie))
        # a 0-d keyswitch entry (was an IndexError)
        blob = MICRO_BLOBS["cloud_key"]
        start = _payload_start(blob)
        ks_bytes = 4 * k * big_n * ks.length * digits * (n + 1)
        scalar_ks = edit_artifact(
            blob, reshape(0, []), payload=blob[start : start + 4] + blob[start + ks_bytes :]
        )
        with pytest.raises(SerializationError, match="'keyswitch' has rank 0"):
            from_bytes(scalar_ks)
        # params that disagree with honest arrays
        with pytest.raises(SerializationError, match="'bootstrapping_key' has rank"):
            from_bytes(
                edit_artifact(
                    blob, lambda m: m["params"]["tgsw"].__setitem__("decomp_length", 2)
                )
            )

    @pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
    @pytest.mark.parametrize("name", ["cloud_key", "cloud_key_m2"])
    def test_a_key_with_digit_zero_samples_is_refused_by_name(self, decode, name):
        """The earlier ``base``-digit layout is refused by its directory shape,
        the error naming the shape this container expects; no version moved."""
        blob = old_layout_key(_micro_artifacts()[name])
        n, big_n, k, ks = MICRO.n, MICRO.N, MICRO.k, MICRO.keyswitch
        assert _directory(blob)[0] == ["keyswitch", [k * big_n, ks.length, ks.base, n + 1]]
        expected = f"expected {(k * big_n, ks.length, ks.base - 1, n + 1)}"
        with pytest.raises(SerializationError, match="'keyswitch' has rank") as caught:
            decode(bytearray(blob))
        assert expected in str(caught.value)

    @pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
    def test_an_unrolled_key_entry_is_refused_by_name(self, decode):
        """The earlier BKU layout, its TGSW stack under ``unrolled_key``, is
        refused by its directory, naming the entry every key now carries."""
        blob = old_unrolled_key(_micro_artifacts()["cloud_key_m2"])
        assert [name for name, _ in _directory(blob)] == ["keyswitch", "unrolled_key"]
        with pytest.raises(
            SerializationError, match="archive is missing the 'bootstrapping_key' entry"
        ):
            decode(bytearray(blob))

    def test_secret_key_shapes_are_checked(self, edit_artifact):
        blob = MICRO_BLOBS["secret_key"]
        with pytest.raises(SerializationError, match="'tlwe_key' has rank"):
            from_bytes(
                edit_artifact(blob, lambda m: m["arrays"][1].__setitem__(1, [MICRO.N]))
            )


def old_layout_key(cloud) -> bytes:
    """``cloud`` in a container whose key-switching key still has digit-0 samples."""
    ks = cloud.keyswitch_key
    n_in, t, _, width = ks.data.shape
    old = np.zeros((n_in, t, ks.params.base, width), dtype=np.int32)
    return to_bytes(replace(cloud, keyswitch_key=replace(ks, data=old)))


def old_unrolled_key(cloud) -> bytes:
    """``cloud`` (``m >= 2``) in a container naming its TGSW stack ``unrolled_key``."""
    blob = to_bytes(cloud)
    start = _payload_start(blob)
    header = blob[10:start].replace(b'"bootstrapping_key"', b'"unrolled_key"')
    return blob[:6] + struct.pack("<I", len(header)) + header + blob[start:]


_ARTIFACT_TYPES = (TFHESecretKey, TFHECloudKey, LweSample, LweBatch, RadixInt)


def _loads_or_refuses(data):
    """The fuzz property: a typed refusal, or an artifact that re-encodes."""
    try:
        artifact = from_bytes(data)
    except SerializationError:
        return
    assert isinstance(artifact, _ARTIFACT_TYPES)
    assert from_bytes(to_bytes(artifact)) is not None


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, data):
        _loads_or_refuses(data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 255), st.binary(max_size=256))
    def test_arbitrary_header_behind_a_valid_prefix(self, kind, header):
        blob = struct.pack("<4sBBI", b"rTFA", serialize.CONTAINER_VERSION, kind, len(header)) + header
        _loads_or_refuses(blob)
        _loads_or_refuses(blob + MICRO_BLOBS["lwe_sample"][-20:])

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(sorted(MICRO_BLOBS)), st.data())
    def test_single_byte_mutations(self, name, data):
        blob = bytearray(MICRO_BLOBS[name])
        # Half the draws aim at the header, where every byte means something.
        limit = data.draw(st.sampled_from([_payload_start(blob), len(blob)]))
        position = data.draw(st.integers(0, limit - 1))
        blob[position] ^= data.draw(st.integers(1, 255))
        _loads_or_refuses(blob)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(name for name in MICRO_BLOBS if not name.startswith("lwe_"))),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=8), inner, max_size=3),
            max_leaves=6,
        ),
        st.data(),
    )
    def test_arbitrary_json_in_any_header_field(self, name, value, data):
        """A well-formed container whose JSON header lies in one field, at any
        depth (a ciphertext's head is fuzzed by :class:`TestCiphertextHeadFuzz`)."""
        blob = MICRO_BLOBS[name]
        start = _payload_start(blob)
        meta = json.loads(blob[10:start])
        node = meta
        while True:
            key = data.draw(st.sampled_from(sorted(node)))
            if isinstance(node[key], dict) and node[key] and data.draw(st.booleans()):
                node = node[key]
                continue
            node[key] = value
            break
        header = json.dumps(meta).encode("utf-8")
        _loads_or_refuses(blob[:6] + len(header).to_bytes(4, "little") + header + blob[start:])


class TestCiphertextHeadFuzz:
    """Seeded, structure-aware mutation of the six ciphertext layouts
    (sample and batch × ``a`` / ``seed`` / ``a_hi``) at ``test-tiny``: each
    mutant of the form, ``n``, rows or ``header_len`` fields, truncated,
    extended or resized to what its head states either reads back to the
    very same bytes or is refused with a :class:`SerializationError`, and
    no seeded head past the expansion bounds reaches the expander."""

    MUTANTS_PER_LAYOUT = 2000
    DIM, WORDS = serialize.MAX_SEEDED_DIMENSION, serialize.MAX_SEEDED_WORDS
    #: Field values worth trying besides uniform ones: the edges of every
    #: rule a head is checked against.
    EDGES = [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 32, 2**15, 2**16 - 1, DIM, DIM + 1,
             WORDS // DIM + 1, WORDS // 4 + 1, 2**31, 2**32 - 1]

    @staticmethod
    def _layouts():
        key = lwe_key_generate(TEST_TINY.lwe, rng=91)
        samples = [lwe_encrypt(key, gate_message(i % 2), rng=92 + i) for i in range(3)]
        layouts = {}
        for kind, fresh in (("sample", samples[0]), ("batch", LweBatch.from_samples(samples))):
            layouts[f"{kind}_seed"] = to_bytes(fresh)
            layouts[f"{kind}_a"] = to_bytes(fresh.copy())
            layouts[f"{kind}_a_hi"] = to_bytes(lwe_round_mask(fresh.copy()))
        for name, blob in layouts.items():
            assert ciphertext_form(blob) == name.split("_", 1)[1], name
        return layouts

    @staticmethod
    def _fields(blob: bytes):
        """``(offset, format)`` of the form, ``n``, a batch's rows and ``header_len``."""
        return [(10, "<H"), (12, "<I"), *[(16, "<I")] * (blob[5] == 2), (6, "<I")]

    def _sweep(self, rng: random.Random, blob: bytes):
        """Every edge value in every head field, the payload then resized to
        what the head states: its own words and random ones, or zeros."""
        for offset, fmt in self._fields(blob):
            for value in self.EDGES:
                for zero in (False, True):
                    data = bytearray(blob)
                    struct.pack_into(fmt, data, offset, value % (1 << 8 * struct.calcsize(fmt)))
                    yield bytes(self._resized(rng, data, zero))

    def _mutant(self, rng: random.Random, blob: bytes) -> bytes:
        """One to three random edits: a head field, a cut, an extension, or
        the payload resized to what the head states."""
        data = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            action = rng.choice(["field"] * 4 + ["truncate", "append", "resize", "zero"])
            if action == "field":
                offset, fmt = rng.choice(self._fields(blob))
                width = struct.calcsize(fmt)
                value = rng.choice(self.EDGES) if rng.random() < 0.7 else rng.getrandbits(32)
                if offset + width <= len(data):
                    struct.pack_into(fmt, data, offset, value % (1 << 8 * width))
            elif action == "truncate":
                del data[rng.randrange(len(data) + 1) :]
            elif action == "append":
                data += rng.randbytes(rng.randint(1, 8))
            else:
                data = self._resized(rng, data, zero=action == "zero")
        return bytes(data)

    @staticmethod
    def _resized(rng: random.Random, data: bytearray, zero: bool) -> bytearray:
        """``data`` with the payload its head states, when that is a few KiB
        at most: its own words cut or grown by random ones, or all zeros."""
        if len(data) < 20 or data[5] not in (1, 2):
            return data
        form, n = struct.unpack_from("<HI", data, 10)
        rows = struct.unpack_from("<I", data, 16)[0] if data[5] == 2 else None
        width = {0: n, 1: 4, 2: (n + 1) // 2}.get(form)
        start = 10 + struct.unpack_from("<I", data, 6)[0]
        if width is None or start > len(data):
            return data
        size = 4 * (rows if rows is not None else 1) * (width + 1)
        if size > 1 << 14:
            return data
        payload = bytes(size) if zero else bytes(data[start : start + size])
        return data[:start] + payload + rng.randbytes(size - len(payload))

    LAYOUTS = ["batch_a", "batch_a_hi", "batch_seed", "sample_a", "sample_a_hi", "sample_seed"]

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_every_mutant_reads_back_identically_or_is_refused(self, name, monkeypatch):
        expand = serialize.lwe_masks

        def bounded_expander(seed, n):
            rows = seed.shape[0] if seed.ndim == 2 else 1
            if n > self.DIM or rows * n > self.WORDS:
                raise AssertionError(f"expanded a seeded head past the bounds: {rows} × {n}")
            return expand(seed, n)

        monkeypatch.setattr(serialize, "lwe_masks", bounded_expander)
        outcomes = {"read": 0, "refused": 0}
        blob = self._layouts()[name]
        rng = random.Random(1000 + self.LAYOUTS.index(name))
        mutants = [*self._sweep(rng, blob)]
        mutants += [self._mutant(rng, blob) for _ in range(self.MUTANTS_PER_LAYOUT)]
        for mutant in mutants:
            for decode in (from_bytes, from_owned_buffer):
                try:
                    loaded = decode(bytearray(mutant))
                except SerializationError:
                    outcomes["refused"] += 1
                    continue
                assert to_bytes(loaded) == mutant, mutant.hex()
                outcomes["read"] += 1
        # Both branches are exercised, not just the refusals.
        assert outcomes["read"] > 300 and outcomes["refused"] > 3000, outcomes

    @pytest.mark.parametrize("head", [(1, DIM + 1), (1, 2**32 - 1), (1, DIM, WORDS // DIM + 1)])
    def test_a_seeded_head_past_the_bounds_never_expands(self, head, monkeypatch):
        def expander_must_not_run(*_args):
            raise AssertionError("the mask expander ran on a refused head")

        monkeypatch.setattr(serialize, "lwe_masks", expander_must_not_run)
        kind = 1 if len(head) == 2 else 2
        blob = _ciphertext_blob(kind, head, 5 * (head[2] if kind == 2 else 1))
        for decode in (from_bytes, from_owned_buffer):
            with pytest.raises(SerializationError, match="expansion bound"):
                decode(bytearray(blob))


class TestDispatchAndVersioning:
    def test_save_load_dispatch_on_type_and_header(self, tmp_path, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        objs = {
            "secret.tfhe": secret,
            "cloud.tfhe": cloud,
            "ct.tfhe": encrypt_bit(secret, 0, rng=23),
            "batch.tfhe": encrypt_bit_batch(secret, [1, 0], rng=24),
        }
        for name, obj in objs.items():
            path = tmp_path / name
            serialize.save(path, obj)
            assert type(serialize.load(path)) is type(obj)

    def test_bytes_round_trip(self, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        sample = encrypt_bit(secret, 1, rng=25)
        loaded = serialize.from_bytes(serialize.to_bytes(sample))
        assert np.array_equal(loaded.a, sample.a)

    def test_version_mismatch_rejected(self, tmp_path, tiny_keys_naive, edit_artifact):
        secret, _ = tiny_keys_naive
        path = tmp_path / "future.tfhe"
        blob = to_bytes(encrypt_bit(secret, 1, rng=26))
        path.write_bytes(edit_artifact(blob, version=serialize.CONTAINER_VERSION + 1))
        with pytest.raises(SerializationError, match="version"):
            serialize.load(path)

    def test_unknown_format_rejected(self, tmp_path, tiny_keys_naive):
        """The magic is the format: someone else's is refused."""
        secret, _ = tiny_keys_naive
        path = tmp_path / "alien.tfhe"
        path.write_bytes(b"XTFA" + to_bytes(encrypt_bit(secret, 1, rng=27))[4:])
        with pytest.raises(SerializationError, match="container"):
            serialize.load(path)

    def test_wrong_artifact_kind_rejected(self, tmp_path, tiny_keys_naive, edit_artifact):
        """The kind byte decides what a file holds; a header of another kind
        under it is refused by that kind's reader."""
        secret, _ = tiny_keys_naive
        path = tmp_path / "ct.tfhe"
        serialize.save(path, encrypt_bit(secret, 1, rng=28))
        assert type(serialize.load(path)) is LweSample
        for kind, match in ((2, "lwe_batch head is 10 bytes, not 6"), (4, "malformed header")):
            path.write_bytes(edit_artifact(to_bytes(encrypt_bit(secret, 1, rng=28)), kind=kind))
            with pytest.raises(SerializationError, match=match):
                serialize.load(path)

    def test_not_an_archive_rejected(self, tmp_path):
        path = tmp_path / "noise.tfhe"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError):
            serialize.load(path)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot serialize"):
            serialize.save(tmp_path / "x.tfhe", object())


class TestKeygenCli:
    @staticmethod
    def _keygen(tmp_path, *args):
        return subprocess.run(
            [
                sys.executable,
                str(ROOT / "tools" / "keygen.py"),
                "--params",
                "test-tiny",
                "--seed",
                "3",
                "--out-dir",
                str(tmp_path),
                "--prefix",
                "t",
                *args,
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )

    def test_generates_loadable_keypair(self, tmp_path):
        result = self._keygen(tmp_path, "--engine", "naive")
        assert result.returncode == 0, result.stderr
        secret = serialize.load(tmp_path / "t.secret.tfhe")
        cloud = serialize.load(tmp_path / "t.cloud.tfhe")
        assert isinstance(secret, TFHESecretKey) and isinstance(cloud, TFHECloudKey)
        # The pair matches: a fresh encryption survives a bootstrapped gate.
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        out = TFHEGateEvaluator(FheContext(cloud)).and_(ca, cb)
        assert decrypt_bit(secret, out) == 1

    def test_an_approx_key_records_its_twiddle_bits(self, tmp_path):
        result = self._keygen(tmp_path, "--engine", "approx", "--twiddle-bits", "24")
        assert result.returncode == 0, result.stderr
        cloud = serialize.load(tmp_path / "t.cloud.tfhe")
        assert cloud.transform_spec == TransformSpec.from_options(
            "approx", twiddle_bits=24, target_msb=36
        )
        assert FheContext(cloud).engine.twiddle_bits == 24

    def test_the_engine_choices_are_the_registered_kinds(self, tmp_path):
        result = self._keygen(tmp_path, "--engine", "compiled")
        assert result.returncode == 2
        assert "invalid choice: 'compiled'" in result.stderr
        for kind in available_engines():
            assert kind in result.stderr
        assert not any(tmp_path.iterdir())

    def test_twiddle_bits_are_refused_for_a_non_approx_engine(self, tmp_path):
        result = self._keygen(tmp_path, "--engine", "double", "--twiddle-bits", "24")
        assert result.returncode == 2
        assert "--twiddle-bits only applies to the approx engine" in result.stderr
        assert not any(tmp_path.iterdir())


class TestCircuitJsonRoundTrip:
    @staticmethod
    def _circuit():
        from repro.compiler import FheUint8, fhe_max, optimize, trace

        return optimize(
            trace(lambda a, b: fhe_max(a * 3, b + 1), FheUint8("a"), FheUint8("b"))
        )

    def test_round_trip_is_structurally_identical(self):
        circuit = self._circuit()
        restored = serialize.circuit_from_json(serialize.circuit_to_json(circuit))
        assert restored.name == circuit.name
        assert restored.nodes == circuit.nodes
        assert restored.input_wires == circuit.input_wires
        assert restored.output_wires == circuit.output_wires

    def test_round_trip_preserves_semantics(self):
        from repro.compiler import verify_equivalent

        circuit = self._circuit()
        restored = serialize.circuit_from_json(serialize.circuit_to_json(circuit))
        verify_equivalent(circuit, restored, trials=20, rng=1)

    def test_file_round_trip(self, tmp_path):
        circuit = self._circuit()
        path = tmp_path / "circuit.json"
        path.write_text(serialize.circuit_to_json(circuit, indent=2))
        restored = serialize.circuit_from_json(path.read_bytes())
        assert restored.nodes == circuit.nodes

    def test_unknown_format_rejected(self):
        import json

        payload = json.loads(serialize.circuit_to_json(self._circuit()))
        payload["format"] = "not-a-circuit"
        with pytest.raises(SerializationError, match="format"):
            serialize.circuit_from_json(json.dumps(payload))

    def test_version_mismatch_rejected(self):
        import json

        payload = json.loads(serialize.circuit_to_json(self._circuit()))
        payload["version"] = 99
        with pytest.raises(SerializationError, match="version"):
            serialize.circuit_from_json(json.dumps(payload))

    def test_malformed_json_rejected(self):
        with pytest.raises(SerializationError):
            serialize.circuit_from_json("{this is not json")
        with pytest.raises(SerializationError):
            serialize.circuit_from_json("[1, 2, 3]")

    def test_structural_tampering_rejected(self):
        import json

        text = serialize.circuit_to_json(self._circuit())

        def corrupted(mutate):
            payload = json.loads(text)
            mutate(payload)
            return json.dumps(payload)

        cases = [
            lambda p: p["nodes"].__setitem__(4, {"op": "mystery", "args": [0, 1]}),
            lambda p: p["nodes"].__setitem__(
                next(i for i, n in enumerate(p["nodes"]) if n["op"] == "and"),
                {"op": "and", "args": [-1, 0]},
            ),
            lambda p: p["nodes"].append({"op": "const", "value": 7}),
            lambda p: p["outputs"].__setitem__("out", [10**9]),
            lambda p: p["outputs"].__setitem__("out", []),
            lambda p: p["inputs"].__setitem__("a", [0, 1, 2]),
            lambda p: p["nodes"].append({"op": "input", "name": "ghost", "bit": 0}),
            lambda p: p["nodes"].__setitem__(
                4, {"op": "and", "args": [len(p["nodes"]) + 5, 0]}
            ),
            lambda p: p.pop("nodes"),
        ]
        for mutate in cases:
            with pytest.raises(SerializationError):
                serialize.circuit_from_json(corrupted(mutate))

    def test_lut_nodes_round_trip(self):
        from repro.compiler import verify_equivalent
        from repro.compiler.passes import LUT_PIPELINE, PassManager
        from repro.tfhe.netlist import adder_netlist

        circuit = PassManager(passes=LUT_PIPELINE, verify=True, trials=8, rng=7).run(
            adder_netlist(4)
        )
        live = circuit.live_nodes()
        assert any(circuit.node(n).op == "lut" for n in live)
        restored = serialize.circuit_from_json(serialize.circuit_to_json(circuit))
        assert restored.nodes == circuit.nodes
        verify_equivalent(circuit, restored, trials=16, rng=8)

    def test_tampered_lut_table_rejected(self):
        import json

        from repro.tfhe.netlist import Circuit

        c = Circuit("one_lut")
        a, b, d = c.inputs("x", 3)
        c.output("out", [c.lut(0x96, [a, b, d])])
        payload = json.loads(serialize.circuit_to_json(c))
        for node in payload["nodes"]:
            if node["op"] == "lut":
                node["value"] = 0x1669  # no single-bootstrap realisation
                node["args"] = node["args"] + [0]
        with pytest.raises(SerializationError):
            serialize.circuit_from_json(json.dumps(payload))

    def test_circuit_format_is_distinct_from_artifact_family(self):
        text = serialize.circuit_to_json(self._circuit())
        with pytest.raises(SerializationError, match="container"):
            from_bytes(text.encode("utf-8"))
        with pytest.raises(SerializationError, match="circuit JSON"):
            serialize.circuit_from_json(MICRO_BLOBS["lwe_sample"])
