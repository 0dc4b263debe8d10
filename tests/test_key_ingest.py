"""A cloud key exists once on each side of the wire.

The upload path end to end: the container's pieces go out unjoined
(``to_pieces`` → ``parts_pieces`` → ``frame_pieces``), a body larger than the
stream's buffer limit is received in place into one buffer whose end is
8-byte aligned, and the server's ``register_key`` adopts that buffer as the
key's arrays (``from_owned_buffer``) — with every check the copying path
makes, the same error texts, and bit-identical evaluation afterwards.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from circuit_oracle import circuit_oracle
from conftest import ciphertext_form, scrape

from test_allocation import _traced_peak
from test_serialize import (
    MICRO_BLOBS,
    _directory,
    _read,
    artifact_arrays,
    read_only_by_contract,
)

from repro.runtime import protocol
from repro.runtime.protocol import (
    ChecksumMismatch,
    FrameTooLarge,
    ServingClient,
    TruncatedFrame,
    encode_frame,
    frame_pieces,
    pack_parts,
    parts_pieces,
    read_frame,
    read_frame_async,
    unpack_parts,
)
from repro.runtime.protocol import _HEAD, _ID_WIDTHS, _tail_lengths, _tail_size
from repro.runtime.resilient import ResilientClient
from repro.runtime.workers import WorkerPool, _pack_client_segment
from repro.tfhe.gates import TFHEGateEvaluator, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch, lwe_round_mask
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import TEST_MEDIUM, TEST_TINY
from repro.tfhe.serialize import (
    SerializationError,
    from_bytes,
    from_owned_buffer,
    to_bytes,
    to_pieces,
)
from repro.tfhe.transform import DoubleFFTNegacyclicTransform

#: A stream limit small enough that even the micro artifacts land in place.
LIMIT = 16


def _keys(params, seed):
    return generate_keys(
        params, DoubleFFTNegacyclicTransform(params.N), rng=seed, eager=False
    )


@pytest.fixture(scope="module")
def tiny_wire_keys():
    return _keys(TEST_TINY, 71)


@pytest.fixture(scope="module")
def medium_wire_keys():
    return _keys(TEST_MEDIUM, 72)


def _receive(frame, limit=LIMIT, step=None, max_frame=protocol.DEFAULT_MAX_FRAME):
    """Drive ``read_frame_async`` from a stream fed ``step`` bytes at a time
    (the reader runs between writes), EOF after the last one."""

    async def go():
        reader = asyncio.StreamReader(limit=limit)

        async def feed():
            for offset in range(0, len(frame), step or max(len(frame), 1)):
                reader.feed_data(frame[offset : offset + (step or len(frame))])
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        try:
            return await read_frame_async(reader, max_frame)
        finally:
            await feeder

    return asyncio.run(go())


def _received(blob):
    """``blob`` as the single part of a body the receive routine took in place."""
    _, body = _receive(encode_frame({"op": "register_key", "id": 0}, pack_parts([blob])))
    assert isinstance(body, memoryview) and not body.readonly
    return unpack_parts(body, expected=1)[0]


def _landed(blob, skew=0):
    """``blob`` in a writable buffer that ends ``skew`` bytes past an 8-byte
    boundary (0: where the receive routine puts a body's last part)."""
    backing = np.empty(len(blob) + 16, dtype=np.uint8)
    start = -(backing.ctypes.data + len(blob)) % 8 + skew
    view = memoryview(backing)[start : start + len(blob)]
    view[:] = blob
    return view


def _message(decode, data):
    with pytest.raises(SerializationError) as caught:
        decode(data)
    return str(caught.value)


# --------------------------------------------------------------------------- #
# (a) adoption                                                                #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(MICRO_BLOBS))
def test_adopted_arrays_are_the_receive_buffer(name):
    """An array the loader keeps as its payload's words views the
    buffer; an expanded or unpacked mask and a radix integer's digit rows
    are arrays of their own either way."""
    blob = MICRO_BLOBS[name]
    part = _received(blob)
    backing = np.frombuffer(part.obj, dtype=np.uint8)
    owned = artifact_arrays(from_bytes(blob))
    loaded = from_owned_buffer(part)
    adopted = artifact_arrays(loaded)
    assert adopted.keys() == owned.keys() and adopted
    if name.startswith("lwe_"):
        entries = {ciphertext_form(blob), "b"}
    else:
        entries = {entry for entry, _ in _directory(blob)}
    for key, array in adopted.items():
        viewed = key.split("[")[0] in entries
        assert np.shares_memory(array, backing) == viewed, (name, key)
        assert array.dtype == np.int32 and array.dtype.isnative, (name, key)
        assert array.flags.aligned and array.flags.c_contiguous, (name, key)
        assert array.flags.writeable != read_only_by_contract(loaded, key), (name, key)
        assert np.array_equal(array, owned[key]), (name, key)
    assert to_bytes(loaded) == blob
    assert to_bytes(from_bytes(part)) == blob


def test_an_adopted_keyswitch_table_is_a_view_of_the_frame(tiny_wire_keys):
    """The key switch reads the received bytes: no row is appended to the
    table (that would copy the key), and the table is ``data`` reshaped."""
    _, cloud = tiny_wire_keys
    blob = to_bytes(cloud)
    part = _received(blob)
    ks = from_owned_buffer(part).keyswitch_key
    backing = np.frombuffer(part.obj, dtype=np.uint8)
    assert ks.data.shape[2] == TEST_TINY.keyswitch.base - 1
    assert np.shares_memory(ks.table, ks.data) and np.shares_memory(ks.table, backing)
    assert np.array_equal(ks.table, cloud.keyswitch_key.table)


@pytest.mark.parametrize("name", sorted(MICRO_BLOBS))
def test_unadoptable_buffers_fall_back_to_owning_copies(name):
    blob = MICRO_BLOBS[name]
    owned = artifact_arrays(from_bytes(blob))
    for data in (_landed(blob, skew=1), _landed(blob, skew=2), blob, memoryview(blob)):
        backing = np.frombuffer(data, dtype=np.uint8)
        loaded = from_owned_buffer(data)
        for key, array in artifact_arrays(loaded).items():
            assert not np.shares_memory(array, backing), (name, key)
            assert array.flags.writeable != read_only_by_contract(loaded, key), (name, key)
            assert array.flags.aligned and array.dtype == np.int32, (name, key)
            assert np.array_equal(array, owned[key]), (name, key)
        assert to_bytes(loaded) == blob


@pytest.mark.parametrize("decode", [from_bytes, from_owned_buffer])
def test_every_unreadable_buffer_is_a_serialization_error(decode):
    blob = MICRO_BLOBS["lwe_batch_a"]  # 80 bytes: castable to int32 words
    doubled = bytearray(2 * len(blob))
    doubled[::2] = blob
    strided = memoryview(doubled)[::2]
    assert bytes(strided) == blob and not strided.c_contiguous
    assert "strides (2,)" in _message(decode, strided)
    assert "str" in _message(decode, "not a buffer")
    # Read-only and multi-byte formats are fine as long as they are contiguous.
    assert to_bytes(decode(memoryview(blob))) == blob
    assert len(blob) % 4 == 0
    words = memoryview(bytearray(blob)).cast("i")
    assert words.format == "i" and words.itemsize == 4
    assert to_bytes(decode(words)) == blob
    grid = memoryview(np.zeros((4, 4), dtype=np.int32)[:, ::2])
    assert "strides (16, 8)" in _message(decode, grid)


# --------------------------------------------------------------------------- #
# (b) one validation body                                                     #
# --------------------------------------------------------------------------- #


def _directory_lies():
    return [
        lambda m: m.__setitem__("arrays", {"a": [3, 4]}),
        lambda m: m["arrays"].__setitem__(0, "a"),
        lambda m: m["arrays"].__setitem__(0, ["a", 12]),
        lambda m: m["arrays"].__setitem__(0, ["a", [-3, -4]]),
        lambda m: m["arrays"].__setitem__(0, ["a", [3.0, 4]]),
        lambda m: m["arrays"].__setitem__(0, ["a", [True, 12]]),
        lambda m: m["arrays"].__setitem__(0, ["a", [1] * 5]),  # rank > 4
        lambda m: m["arrays"].__setitem__(0, [7, [3, 4]]),
        lambda m: m["arrays"].__setitem__(1, ["a", [3]]),  # duplicate name
        lambda m: m["arrays"].__setitem__(0, ["a", [2**40, 4]]),
        lambda m: m["arrays"].__setitem__(0, ["a", [2**62, 2**62]]),
        lambda m: m["arrays"].append(["c", [2**31]]),
        lambda m: m.pop("arrays"),
    ]


def _head_lies():
    return [
        lambda m: m.__setitem__("form", 3),
        lambda m: m.__setitem__("n", 0),
        lambda m: m.__setitem__("n", 2**32 - 1),
        lambda m: m.__setitem__("rows", 2**32 - 1),
        lambda m: m.__setitem__("rows", 2),
        lambda m: m.pop("rows"),
        lambda m: m.__setitem__("pad", 0),
    ]


def test_malformed_containers_read_the_same_through_both_entries(edit_artifact):
    corpus = []
    for blob in MICRO_BLOBS.values():
        corpus.extend(blob[:cut] for cut in range(len(blob)))
        corpus.append(blob + b"\x00")
    corpus.extend(edit_artifact(MICRO_BLOBS["radix_int"], lie) for lie in _directory_lies())
    for batch in (MICRO_BLOBS["lwe_batch"], MICRO_BLOBS["lwe_batch_a"]):
        corpus.extend(edit_artifact(batch, lie) for lie in _head_lies())
        corpus.extend(edit_artifact(batch, version=version) for version in (1, 2, 4))
        corpus.extend(edit_artifact(batch, kind=kind) for kind in (0, 1, 0xEE))
    corpus.append(b"PK\x03\x04" + bytes(40))
    for bad in corpus:
        want = _message(from_bytes, bad)
        # Writable and aligned: adoption is what would happen if it passed.
        assert _message(from_owned_buffer, _landed(bad)) == want
        assert _message(from_owned_buffer, bad) == want
    # Every artifact under every kind byte: one reader per kind, either entry.
    for blob in MICRO_BLOBS.values():
        for kind in range(1, 6):
            data = edit_artifact(blob, kind=kind)
            assert _read(_landed(data), from_owned_buffer) == _read(data)


# --------------------------------------------------------------------------- #
# (c) receive in place                                                        #
# --------------------------------------------------------------------------- #


def _body(size, seed=5):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("step", [1, 4096, None], ids=["bytewise", "4KiB", "one-write"])
def test_a_frame_parses_the_same_however_it_arrives(step):
    header = {"op": "register_key", "id": 3, "engine": "double"}
    body = _body(5 * 4096 + 5)
    got_header, got_body = _receive(encode_frame(header, body), limit=4096, step=step)
    assert got_header == header
    assert isinstance(got_body, memoryview) and not got_body.readonly
    assert got_body == body
    end = np.frombuffer(got_body, dtype=np.uint8).ctypes.data + len(body)
    assert end % 8 == 0


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_the_only_size_rule_is_the_streams_own_limit(delta):
    limit = 4096
    body = _body(limit + delta, seed=6)
    _, got = _receive(encode_frame({"op": "gate", "id": 1}, body), limit=limit, step=1000)
    assert got == body
    assert isinstance(got, memoryview if delta > 0 else bytes)


@pytest.mark.parametrize("chunk", [0, 2, 4])
def test_a_flipped_byte_in_any_chunk_is_a_checksum_mismatch(chunk):
    body = _body(5 * 1000, seed=7)
    frame = bytearray(encode_frame({"op": "register_key", "id": 9}, body))
    start = len(frame) - len(body)
    claimed = int.from_bytes(frame[4:8], "little")
    frame[start + chunk * 1000 + 17] ^= 0x40
    actual = zlib.crc32(bytes(frame[8:]))
    with pytest.raises(ChecksumMismatch) as caught:
        _receive(bytes(frame), limit=256, step=1000)
    assert str(caught.value) == (
        f"frame payload fails its checksum (crc32 {actual:#010x}, frame "
        f"claims {claimed:#010x}) — corrupted in transit; safe to resend"
    )


def test_eof_mid_body_names_what_arrived():
    body = _body(9000, seed=8)
    frame = encode_frame({"op": "register_key", "id": 2}, body)
    cut = len(frame) - 2500
    with pytest.raises(TruncatedFrame) as caught:
        _receive(frame[:cut], limit=256, step=700)
    assert str(caught.value) == (
        "connection closed mid-frame (6500 of 9000 bytes received)"
    )


def test_a_declared_oversize_frame_is_refused_before_any_buffer_exists():
    # A register_key request (op 2) with id 1, no extras and a u32 body
    # length of ≈ 4 GiB: refused from the prefix; its CRC is never reached.
    head = protocol.MAGIC + bytes(4) + bytes((2, 0x02 | 3 << 5)) + b"\x01"
    tracemalloc.start()
    try:
        with pytest.raises(FrameTooLarge, match="exceeds"):
            _receive(head + (0xFFFFFFF0).to_bytes(4, "little") + bytes(64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --------------------------------------------------------------------------- #
# (d) pieces on the wire                                                      #
# --------------------------------------------------------------------------- #


class _Peer:
    """A listener that swallows request frames in small reads, answers each,
    and keeps the raw bytes of every frame it saw."""

    def __init__(self, keep=True):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.keep = keep
        self.frames = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn:
                while self._serve_one(conn):
                    pass

    def _serve_one(self, conn):
        scratch = bytearray(1 << 16)
        head = b""
        while len(head) < _HEAD.size:
            got = conn.recv(_HEAD.size - len(head))
            if not got:
                return False
            head += got
        layout = head[-1]
        tail = conn.recv(_tail_size(layout), socket.MSG_WAITALL)
        raw, remaining = [head, tail], sum(_tail_lengths(layout, tail))
        while remaining:
            got = conn.recv_into(scratch, min(remaining, len(scratch)))
            assert got, "client hung up mid-frame"
            if self.keep:
                raw.append(bytes(scratch[:got]))
            remaining -= got
        self.frames.append(b"".join(raw))
        request_id = int.from_bytes(tail[: _ID_WIDTHS[layout & 7]], "little")
        conn.sendall(encode_frame({"id": request_id, "params": "peer"}))
        return True

    def close(self):
        self.listener.close()
        self.thread.join(5.0)


@pytest.fixture
def peer():
    peer = _Peer()
    yield peer
    peer.close()


def _expected_frame(raw, cloud):
    """What the joined builders make of the header the client actually sent."""
    header, _ = _receive(raw)
    return header, encode_frame(header, pack_parts([to_bytes(cloud)]))


def test_both_clients_put_the_joined_frame_on_the_wire(peer, tiny_wire_keys):
    _, cloud = tiny_wire_keys
    with ServingClient(port=peer.port) as client:
        assert client.register_key(cloud)["params"] == "peer"
    with ResilientClient(port=peer.port, session="tok") as client:
        assert client.register_key(cloud)["params"] == "peer"
        client._drop_connection()
        client.hello()  # re-dials: the recovery re-registers the stored key
    uploads = [raw for raw in peer.frames if len(raw) > 1000]
    assert len(uploads) == 3 and len(peer.frames) == 4
    headers = []
    for raw in uploads:
        header, expected = _expected_frame(raw, cloud)
        assert raw == expected
        headers.append(header)
    assert [h["op"] for h in headers] == ["register_key"] * 3
    assert "engine" not in headers[0] and headers[1]["session"] == "tok"


def test_the_joins_are_the_joins_of_the_piece_builder(tiny_wire_keys):
    secret, cloud = tiny_wire_keys
    sample = encrypt_bit(secret, 1, rng=3)
    for obj in (cloud, sample):
        pieces = to_pieces(obj)
        assert b"".join(pieces) == to_bytes(obj)
        body = parts_pieces([pieces, to_bytes(sample)])
        assert b"".join(body) == pack_parts([to_bytes(obj), to_bytes(sample)])
        header = {"op": "register_key", "id": 1}
        assert b"".join(frame_pieces(header, body)) == encode_frame(header, b"".join(body))
    # The key's arrays go out as they are: no piece is a copy of one.
    arrays = [cloud.keyswitch_key.data] + [s.data for s in cloud.bootstrapping_key]
    big = [p for p in to_pieces(cloud) if isinstance(p, np.ndarray)]
    assert len(big) == len(arrays)
    assert all(np.shares_memory(p, a) for p, a in zip(big, arrays))


# --------------------------------------------------------------------------- #
# (e) memory                                                                  #
# --------------------------------------------------------------------------- #


def _raw_call(port, frame):
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        sock.sendall(frame)
        header, _ = read_frame(sock)
    return header


def test_server_peak_while_registering_is_the_key_itself(server_factory, medium_wire_keys):
    _, cloud = medium_wire_keys
    key_bytes = to_bytes(cloud)
    assert len(key_bytes) > 11 << 20
    body = pack_parts([key_bytes])
    first = encode_frame({"op": "register_key", "id": 0, "session": "mem"}, body)
    again = encode_frame({"op": "register_key", "id": 1, "session": "mem"}, body)
    server = server_factory()
    replies = []
    peak = _traced_peak(lambda: replies.append(_raw_call(server.port, first)))
    assert replies[0]["params"] == TEST_MEDIUM.name
    assert peak <= 1.25 * len(key_bytes)
    held = server.scheduler.client_context("sess-mem").cloud_key
    assert not held.keyswitch_key.data.flags.owndata
    # The same key again on a fresh connection: one transient key, compared
    # against the resident one and dropped.
    peak = _traced_peak(lambda: replies.append(_raw_call(server.port, again)))
    assert replies[1]["params"] == TEST_MEDIUM.name
    assert peak <= 1.25 * len(key_bytes)
    assert scrape(server)["fhe_resident_keys"] == 1


@pytest.mark.parametrize("make", [ServingClient, ResilientClient])
def test_client_peak_while_registering_is_a_fraction_of_the_key(make, medium_wire_keys):
    _, cloud = medium_wire_keys
    key_len = len(to_bytes(cloud))
    peer = _Peer(keep=False)
    try:
        with make(port=peer.port) as client:
            peak = _traced_peak(lambda: client.register_key(cloud))
    finally:
        peer.close()
    assert peak <= 0.25 * key_len


# --------------------------------------------------------------------------- #
# (f) the adopted key still decrypts                                          #
# --------------------------------------------------------------------------- #


def _same(got, want):
    """A reply equals the in-process result with its mask rounded."""
    want = lwe_round_mask(want)
    return np.array_equal(got.a, want.a) and int(got.b) == int(want.b)


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
def test_gates_a_lut_and_a_circuit_match_the_scalar_evaluator(
    server_factory, tiny_wire_keys, pooled
):
    secret, cloud = tiny_wire_keys
    scalar = TFHEGateEvaluator(cloud)
    with WorkerPool(2, task_timeout=60.0) if pooled else contextlib.nullcontext() as pool:
        server = server_factory(dispatcher=pool)
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            (resident,) = server.scheduler.residents
            held = resident.context.cloud_key
            for array in [held.keyswitch_key.data] + [s.data for s in held.bootstrapping_key]:
                assert not array.flags.owndata and array.flags.aligned
            assert not np.shares_memory(held.keyswitch_key.data, cloud.keyswitch_key.data)

            for index, name in enumerate(["nand", "xor", "andny", "or"]):
                ca = encrypt_bit(secret, index & 1, rng=100 + index)
                cb = encrypt_bit(secret, (index >> 1) & 1, rng=200 + index)
                assert _same(client.gate(name, ca, cb), scalar.gate(name, ca, cb)), name

            operands = [encrypt_bit(secret, bit, rng=300 + bit) for bit in (1, 0)]
            assert _same(client.lut(0b0110, operands), scalar.lut(0b0110, operands))

            width, circuit = 3, adder_netlist(3)
            a = [encrypt_bit(secret, (5 >> i) & 1, rng=400 + i) for i in range(width)]
            b = [encrypt_bit(secret, (6 >> i) & 1, rng=500 + i) for i in range(width)]
            got = client.run_circuit(circuit, LweBatch.from_samples(a + b)).to_samples()
            want = circuit_oracle(circuit, scalar, {"a": a, "b": b})["sum"]
            assert len(got) == len(want) == width + 1
            assert all(_same(g, w) for g, w in zip(got, want))
            assert scrape(client)["fhe_register_key_seconds_count"] == 1


# --------------------------------------------------------------------------- #
# pool publish                                                                #
# --------------------------------------------------------------------------- #


def test_the_published_segment_is_byte_for_byte_the_joined_layout(small_keys_double):
    """Pieces and tensors written one by one land exactly where the joined
    artifact and the stacked spectra used to be copied."""
    _, cloud = small_keys_double
    context = cloud.default_context()
    segment = _pack_client_segment(context)
    try:
        (header_len,) = struct.unpack_from("<Q", segment.buf)
        header = json.loads(bytes(segment.buf[8 : 8 + header_len]))
        key_bytes = to_bytes(cloud)
        spectra = np.stack([s.tensor for s in context.rotator.bootstrapping_key])
        assert header["key_len"] == len(key_bytes)
        assert header["spectrum"]["shape"] == list(spectra.shape)
        assert header["spectrum"]["dtype"] == spectra.dtype.str
        key_offset = 8 + header_len
        spectrum_offset = -(-(key_offset + len(key_bytes)) // 16) * 16
        assert bytes(segment.buf[key_offset : key_offset + len(key_bytes)]) == key_bytes
        end = spectrum_offset + spectra.nbytes
        assert bytes(segment.buf[spectrum_offset:end]) == spectra.tobytes()
        assert segment.size >= end
    finally:
        segment.close()
        segment.unlink()
