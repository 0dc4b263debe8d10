"""Round-trip, corruption and byte-layout tests for the serialization layer."""

from __future__ import annotations

import io
import json
import pathlib
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import FheContext
from repro.tfhe import serialize
from repro.tfhe.gates import PLAINTEXT_GATES, decrypt_bit, encrypt_bit, encrypt_bit_batch
from repro.tfhe.integers import RadixInt, encrypt_radix
from repro.tfhe.keys import TFHECloudKey, TFHESecretKey, generate_keys
from repro.tfhe.lwe import LweBatch, LweSample
from repro.tfhe.params import (
    TEST_TINY,
    DigitEncoding,
    KeySwitchParams,
    LweParams,
    TFHEParameters,
    TgswParams,
    TlweParams,
)
from repro.tfhe.serialize import SerializationError, from_bytes, to_bytes
from repro.tfhe.transform import NaiveNegacyclicTransform

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
    """One valid artifact of every kind (both cloud-key layouts), by name."""
    engine = NaiveNegacyclicTransform(MICRO.N)
    secret, cloud = generate_keys(MICRO, engine, rng=3, eager=False)
    _, unrolled = generate_keys(MICRO, engine, unroll_factor=2, rng=3, eager=False)
    return {
        "secret_key": secret,
        "cloud_key": cloud,
        "cloud_key_m2": unrolled,
        "lwe_sample": encrypt_bit(secret, 1, rng=5),
        "lwe_batch": encrypt_bit_batch(secret, [1, 0, 1], rng=6),
        "radix_int": encrypt_radix(secret.lwe_key, 9, 2, DigitEncoding(2, 1), rng=7),
    }


MICRO_BLOBS = {name: to_bytes(obj) for name, obj in _micro_artifacts().items()}


class TestSecretKeyRoundTrip:
    def test_fields_and_decryption_survive(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        path = tmp_path / "secret.tfhe"
        serialize.save_secret_key(path, secret)
        loaded = serialize.load_secret_key(path)
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
        serialize.save_cloud_key(path, cloud)
        loaded = serialize.load_cloud_key(path)
        assert loaded.params == cloud.params
        assert loaded.unroll_factor == 1
        assert loaded.transform_spec == cloud.transform_spec
        context = FheContext(loaded)
        ca, cb = encrypt_bit(secret, 1, rng=5), encrypt_bit(secret, 0, rng=6)
        reference = cloud.default_context().evaluator()
        evaluator = context.evaluator()
        for name in sorted(PLAINTEXT_GATES):
            expected = reference.gate(name, ca, cb)
            got = evaluator.gate(name, ca, cb)
            assert np.array_equal(got.a, expected.a), name
            assert np.int32(got.b) == np.int32(expected.b), name

    def test_unrolled_key_evaluates_bit_identically(self, tmp_path, tiny_keys_naive_m2):
        secret, cloud = tiny_keys_naive_m2
        path = tmp_path / "cloud-m2.tfhe"
        serialize.save_cloud_key(path, cloud)
        loaded = serialize.load_cloud_key(path)
        assert loaded.unroll_factor == 2
        assert loaded.tgsw_sample_count == cloud.tgsw_sample_count
        ca, cb = encrypt_bit(secret, 1, rng=7), encrypt_bit(secret, 1, rng=8)
        expected = cloud.default_context().evaluator().and_(ca, cb)
        got = FheContext(loaded).evaluator().and_(ca, cb)
        assert np.array_equal(got.a, expected.a)
        assert np.int32(got.b) == np.int32(expected.b)
        assert decrypt_bit(secret, got) == 1

    def test_unserializable_adhoc_engine_rejected(self, tmp_path):
        engine = NaiveNegacyclicTransform(TEST_TINY.N)
        _, cloud = generate_keys(TEST_TINY, engine, rng=13)
        cloud.transform_spec = None
        with pytest.raises(SerializationError, match="unregistered engine"):
            serialize.save_cloud_key(tmp_path / "bad.tfhe", cloud)


class TestCiphertextRoundTrip:
    def test_lwe_sample(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        sample = encrypt_bit(secret, 1, rng=21)
        path = tmp_path / "ct.tfhe"
        serialize.save_lwe_sample(path, sample)
        loaded = serialize.load_lwe_sample(path)
        assert isinstance(loaded, LweSample)
        assert np.array_equal(loaded.a, sample.a)
        assert np.int32(loaded.b) == np.int32(sample.b)

    def test_lwe_batch(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        batch = encrypt_bit_batch(secret, [0, 1, 1, 0], rng=22)
        path = tmp_path / "batch.tfhe"
        serialize.save_lwe_batch(path, batch)
        loaded = serialize.load_lwe_batch(path)
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
        serialize.save_radix_int(path, x)
        loaded = serialize.load_radix_int(path)
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
        serialize.save_radix_int(path, grown)
        assert serialize.load_radix_int(path).bounds == (7, 11, 3, 15)

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
        serialize.save_lwe_sample(path, encrypt_bit(secret, 1, rng=61))
        blob = path.read_bytes()
        for cut in (len(blob) // 2, 100, 10):
            path.write_bytes(blob[:cut])
            with pytest.raises(SerializationError):
                serialize.load_lwe_sample(path)

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

    def test_wrong_rank_rejected(self, tiny_keys_naive, edit_artifact):
        secret, _ = tiny_keys_naive
        blob = to_bytes(encrypt_bit_batch(secret, [1, 0], rng=63))

        def ravel_a(meta):
            name, (rows, n) = meta["arrays"][0]
            meta["arrays"][0] = [name, [rows * n]]

        with pytest.raises(SerializationError, match="rank"):
            from_bytes(edit_artifact(blob, ravel_a))

    def test_vector_b_on_a_single_sample_rejected(self, tiny_keys_naive, edit_artifact):
        secret, _ = tiny_keys_naive
        blob = to_bytes(encrypt_bit(secret, 1, rng=64))
        with pytest.raises(SerializationError, match="'b' has rank 1"):
            from_bytes(edit_artifact(blob, lambda m: m["arrays"].__setitem__(1, ["b", [1]])))

    def test_missing_entry_rejected(self, tiny_keys_naive, edit_artifact):
        secret, cloud = tiny_keys_naive
        for obj in (secret, cloud, encrypt_bit(secret, 1, rng=64)):
            blob = to_bytes(obj)
            name, shape = _directory(blob)[-1]
            cut = 4 * int(np.prod(shape))
            with pytest.raises(SerializationError, match=f"missing the '{name}' entry"):
                from_bytes(edit_artifact(blob, lambda m: m["arrays"].pop())[:-cut])

    def test_version_skew_rejected_for_every_kind(
        self, tmp_path, tiny_keys_naive, monkeypatch
    ):
        secret, cloud = tiny_keys_naive
        objs = {
            "secret.tfhe": secret,
            "cloud.tfhe": cloud,
            "ct.tfhe": encrypt_bit(secret, 0, rng=65),
            "batch.tfhe": encrypt_bit_batch(secret, [1, 0], rng=66),
            "radix.tfhe": TestRadixIntRoundTrip._value(secret),
        }
        monkeypatch.setattr(serialize, "FORMAT_VERSION", 2)
        for name, obj in objs.items():
            serialize.save(tmp_path / name, obj)
        monkeypatch.undo()
        for name in objs:
            with pytest.raises(SerializationError, match="version"):
                serialize.load(tmp_path / name)

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
        bad_container = blob[:4] + b"\x02" + blob[5:]
        long_header = blob[:5] + (len(blob)).to_bytes(4, "little") + blob[9:]
        for bad, match in (
            (bad_magic, "container"),
            (bad_container, "version 2"),
            (long_header, "header length"),
        ):
            with pytest.raises(SerializationError, match=match):
                from_bytes(bad)

    def test_header_must_be_a_json_object_with_a_directory(self, edit_artifact):
        blob = MICRO_BLOBS["lwe_sample"]
        prefix, payload = blob[:5], blob[-20:]
        for header in (b"[1,2]", b"{not json", b"\xff\xfe", b"{}", b"[" * 100_000):
            bad = prefix + len(header).to_bytes(4, "little") + header + payload
            with pytest.raises(SerializationError, match="header"):
                from_bytes(bad)
        with pytest.raises(SerializationError, match="header"):
            from_bytes(edit_artifact(blob, lambda m: m.pop("arrays")))

    def test_directory_lies_rejected_without_allocating(self, edit_artifact):
        blob = MICRO_BLOBS["lwe_batch"]
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
        tracemalloc.start()
        try:
            for lie in lies:
                with pytest.raises(SerializationError):
                    from_bytes(edit_artifact(blob, lie))
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


def _read(data):
    """What reading ``data`` gives: its re-encoding, or the refusal's text."""
    try:
        return "ok", to_bytes(from_bytes(data))
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

    def test_a_samples_shortcut_writes_what_the_general_walk_writes(self):
        """``to_bytes`` joins a sample's header and payload directly;
        ``to_pieces`` walks its arrays.  Either may fill the header cache
        the other then reads: the bytes are the same every way round."""
        sample = from_bytes(MICRO_BLOBS["lwe_sample"])

        def shortcut():
            return to_bytes(sample)

        def walked():
            return b"".join(serialize.to_pieces(sample))

        for first, second in ((shortcut, walked), (walked, shortcut)):
            _cold()
            assert first() == second() == MICRO_BLOBS["lwe_sample"]

    def test_corrupt_containers_read_the_same_cold_and_warm(self, edit_artifact):
        corpus = []
        for blob in MICRO_BLOBS.values():
            corpus.extend(blob[:cut] for cut in range(0, len(blob), 7))
            corpus.append(blob + b"\x00")
        edits = [
            lambda m: m["arrays"].pop(),
            lambda m: m["arrays"].__setitem__(1, ["b", [2]]),
            lambda m: m.__setitem__("version", 2),
            lambda m: m.__setitem__("artifact", "bogus"),
        ]
        corpus.extend(edit_artifact(MICRO_BLOBS["lwe_batch"], edit) for edit in edits)
        for bad in corpus:
            _cold()
            cold = _read(bad)
            for blob in MICRO_BLOBS.values():
                from_bytes(blob)
            assert _read(bad) == cold

    def test_a_header_one_byte_off_is_validated_in_full(self):
        for name in ("lwe_sample", "lwe_batch", "radix_int"):
            blob = MICRO_BLOBS[name]
            for position in range(9, _payload_start(blob)):
                for flip in (0x01, 0x20):
                    bad = bytearray(blob)
                    bad[position] ^= flip
                    _cold()
                    cold = _read(bytes(bad))
                    from_bytes(blob)  # the true header is cached ...
                    assert _read(bytes(bad)) == cold, (name, position, flip)

    def test_a_warm_ciphertext_is_its_own_copy(self):
        for name in ("lwe_sample", "lwe_batch"):
            buffer = bytearray(MICRO_BLOBS[name])
            backing = np.frombuffer(buffer, dtype=np.uint8)
            for _ in range(2):  # cold, then warm
                loaded = from_bytes(buffer)
                for array in (loaded.a, np.asarray(loaded.b)):
                    assert array.dtype == np.int32 and not np.shares_memory(array, backing)
                assert loaded.a.flags.writeable
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
    return 9 + int.from_bytes(blob[5:9], "little")


def _directory(blob):
    return json.loads(blob[9 : _payload_start(blob)])["arrays"]


class TestContainerBytes:
    """The byte layout itself: pinned, deterministic, copy semantics."""

    #: TEST_TINY-sized (n = 16) ciphertexts with fixed torus values.
    A = [(i * 0x10203040 + 7) % 2**32 - 2**31 for i in range(48)]
    B = [-2, 0x7FFFFFFF, -(2**31)]

    def test_golden_bytes_of_a_sample_and_a_batch(self):
        """Spelled out byte for byte, so the next format change is explicit
        (and the ledger's byte-identical wire totals keep meaning something)."""

        def golden(header, *int32s):
            return (
                b"rTFA\x01"
                + struct.pack("<I", len(header))
                + header
                + struct.pack(f"<{len(int32s)}i", *int32s)
            )

        sample = LweSample(a=np.array(self.A[:16], dtype=np.int32), b=np.int32(self.B[0]))
        header = (
            b'{"format":"repro-tfhe","version":3,"artifact":"lwe_sample",'
            b'"arrays":[["a",[16]],["b",[]]]}'
        )
        assert to_bytes(sample) == golden(header, *self.A[:16], self.B[0])
        assert len(to_bytes(sample)) == 9 + 90 + 4 * 17 <= 4 * 17 + 128

        batch = LweBatch(
            a=np.array(self.A, dtype=np.int32).reshape(3, 16),
            b=np.array(self.B, dtype=np.int32),
        )
        header = (
            b'{"format":"repro-tfhe","version":3,"artifact":"lwe_batch",'
            b'"arrays":[["a",[3,16]],["b",[3]]]}'
        )
        assert to_bytes(batch) == golden(header, *self.A, *self.B)

    def test_encoding_is_deterministic_and_layout_independent(self):
        artifacts = _micro_artifacts()  # regenerated from the same seeds
        for name, obj in artifacts.items():
            assert to_bytes(obj) == MICRO_BLOBS[name], name
        batch = artifacts["lwe_batch"]
        strided = LweBatch(a=np.asfortranarray(batch.a), b=batch.b[::1])
        assert to_bytes(strided) == MICRO_BLOBS["lwe_batch"]

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_decoded_arrays_are_owned_writable_int32(self, wrap):
        for name, blob in MICRO_BLOBS.items():
            buffer = bytearray(blob)
            backing = np.frombuffer(buffer, dtype=np.uint8)
            _, arrays = serialize._decode(wrap(buffer))
            assert arrays, name
            for key, array in arrays.items():
                assert array.dtype == np.int32, (name, key)
                assert array.flags.writeable and array.flags.owndata, (name, key)
                assert array.flags.c_contiguous and array.flags.aligned, (name, key)
                assert not np.shares_memory(array, backing), (name, key)
            assert to_bytes(from_bytes(wrap(buffer))) == blob, name

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

    def test_batch_row_counts_are_cross_checked(self, edit_artifact):
        blob = MICRO_BLOBS["lwe_batch"]  # 3 rows

        def two_b_entries(meta):
            meta["arrays"][1] = ["b", [2]]

        with pytest.raises(SerializationError, match="'b' has rank 1 and shape"):
            from_bytes(edit_artifact(blob, two_b_entries)[:-4])

    def test_cloud_key_shapes_are_checked_against_its_own_params(self, edit_artifact):
        n, big_n, k, l = MICRO.n, MICRO.N, MICRO.k, MICRO.l
        ks = MICRO.keyswitch
        assert _directory(MICRO_BLOBS["cloud_key"]) == [
            ["keyswitch", [k * big_n, ks.length, 2**ks.base_bits, n + 1]],
            ["bootstrapping_key", [n, (k + 1) * l, k + 1, big_n]],
        ]

        def reshape(index, shape):
            return lambda m: m["arrays"][index].__setitem__(1, shape)

        same_bytes = [
            # the ring degree disagrees with N=8 (was: fails in the first gate's kernel)
            ("cloud_key", reshape(1, [n, (k + 1) * l, 2 * (k + 1), big_n // 2])),
            ("cloud_key", reshape(1, [n * 2, (k + 1) * l, k + 1, big_n // 2])),
            ("cloud_key", reshape(0, [k * big_n * ks.length, 2**ks.base_bits, n + 1])),
            ("cloud_key", reshape(0, [k * big_n, ks.length * 2**ks.base_bits, 1, n + 1])),
            ("cloud_key_m2", reshape(1, [3, (k + 1) * l, k + 1, 2 * big_n])),
        ]
        for name, lie in same_bytes:
            with pytest.raises(SerializationError, match="has rank"):
                from_bytes(edit_artifact(MICRO_BLOBS[name], lie))
        # a 0-d keyswitch entry (was an IndexError)
        blob = MICRO_BLOBS["cloud_key"]
        start = _payload_start(blob)
        ks_bytes = 4 * k * big_n * ks.length * 2**ks.base_bits * (n + 1)
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

    def test_secret_key_shapes_are_checked(self, edit_artifact):
        blob = MICRO_BLOBS["secret_key"]
        with pytest.raises(SerializationError, match="'tlwe_key' has rank"):
            from_bytes(
                edit_artifact(blob, lambda m: m["arrays"][1].__setitem__(1, [MICRO.N]))
            )


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
    @given(st.binary(max_size=256))
    def test_arbitrary_header_behind_a_valid_prefix(self, header):
        blob = b"rTFA\x01" + len(header).to_bytes(4, "little") + header
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
        st.sampled_from(sorted(MICRO_BLOBS)),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=8), inner, max_size=3),
            max_leaves=6,
        ),
        st.data(),
    )
    def test_arbitrary_json_in_any_header_field(self, name, value, data):
        """A well-formed container whose header lies in one field, at any depth."""
        blob = MICRO_BLOBS[name]
        start = _payload_start(blob)
        meta = json.loads(blob[9:start])
        node = meta
        while True:
            key = data.draw(st.sampled_from(sorted(node)))
            if isinstance(node[key], dict) and node[key] and data.draw(st.booleans()):
                node = node[key]
                continue
            node[key] = value
            break
        header = json.dumps(meta).encode("utf-8")
        _loads_or_refuses(
            struct.pack("<4sBI", b"rTFA", 1, len(header)) + header + blob[start:]
        )


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

    def test_version_mismatch_rejected(self, tmp_path, tiny_keys_naive, monkeypatch):
        secret, _ = tiny_keys_naive
        path = tmp_path / "future.tfhe"
        monkeypatch.setattr(serialize, "FORMAT_VERSION", serialize.FORMAT_VERSION + 1)
        serialize.save_lwe_sample(path, encrypt_bit(secret, 1, rng=26))
        monkeypatch.undo()
        with pytest.raises(SerializationError, match="version"):
            serialize.load_lwe_sample(path)

    def test_unknown_format_rejected(self, tmp_path, tiny_keys_naive, monkeypatch):
        secret, _ = tiny_keys_naive
        path = tmp_path / "alien.tfhe"
        monkeypatch.setattr(serialize, "FORMAT", "someone-elses-format")
        serialize.save_lwe_sample(path, encrypt_bit(secret, 1, rng=27))
        monkeypatch.undo()
        with pytest.raises(SerializationError, match="format"):
            serialize.load(path)

    def test_wrong_artifact_kind_rejected(self, tmp_path, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        path = tmp_path / "ct.tfhe"
        serialize.save_lwe_sample(path, encrypt_bit(secret, 1, rng=28))
        with pytest.raises(SerializationError, match="expected"):
            serialize.load_secret_key(path)

    def test_not_an_archive_rejected(self, tmp_path):
        path = tmp_path / "noise.tfhe"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError):
            serialize.load(path)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot serialize"):
            serialize.save(tmp_path / "x.tfhe", object())


class TestKeygenCli:
    def test_generates_loadable_keypair(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                str(ROOT / "tools" / "keygen.py"),
                "--params",
                "test-tiny",
                "--engine",
                "naive",
                "--seed",
                "3",
                "--out-dir",
                str(tmp_path),
                "--prefix",
                "t",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        secret = serialize.load_secret_key(tmp_path / "t.secret.tfhe")
        cloud = serialize.load_cloud_key(tmp_path / "t.cloud.tfhe")
        # The pair matches: a fresh encryption survives a bootstrapped gate.
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        out = FheContext(cloud).evaluator().and_(ca, cb)
        assert decrypt_bit(secret, out) == 1


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
        serialize.save_circuit(path, circuit)
        restored = serialize.load_circuit(path)
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
        assert serialize.CIRCUIT_FORMAT != serialize.FORMAT
