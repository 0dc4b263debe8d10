"""Wire-format unit and fuzz tests: framing must fail clean, never hang.

Every malformed input — truncated streams, oversized length prefixes, bad
magic, garbage headers, corrupted multi-part bodies, random byte blobs —
must raise a typed :class:`repro.runtime.protocol.ProtocolError` (or
:class:`EOFError` for a clean close between frames).  Nothing here may
allocate based on an unvalidated length prefix, and nothing may block
waiting for bytes a hostile peer will never send (the async reader is
driven from fully-fed in-memory streams, so a hang would deadlock the
test, not time out silently).
"""

from __future__ import annotations

import asyncio
import collections
import json
import random
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.runtime.protocol import (
    DEFAULT_MAX_FRAME,
    MAGIC,
    MAX_HEADER_LEN,
    BadHeader,
    BadMagic,
    ChecksumMismatch,
    FrameTooLarge,
    ProtocolError,
    ServingClient,
    TruncatedFrame,
    encode_frame,
    circuit_request,
    gate_request,
    lut_request,
    pack_parts,
    radix_add_request,
    read_frame,
    read_frame_async,
    register_key_request,
    unpack_parts,
)
from repro.runtime.protocol import _varint, _varint_at
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.integers import encrypt_radix
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch, gate_message, lwe_encrypt, lwe_key_generate, lwe_round_mask
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import PAPER_110BIT, TEST_SMALL, TEST_TINY, DigitEncoding
from repro.tfhe.serialize import to_bytes

#: Layout codes by field width: the id's (absent and -1 take none), a length's.
_ID_CODES = {1: 2, 2: 3, 4: 4, 8: 5}
_LEN_CODES = {0: 0, 1: 1, 2: 2, 4: 3}


def _width(value: int, widths) -> int:
    return next(width for width in widths if value < 1 << 8 * width)


def _narrow(extras_len: int, body_len: int, request_id=None):
    """The layout byte and tail of the narrowest fields for these values
    (``request_id`` None: no id; -1: the reserved id)."""
    id_code, tail = {None: 0, -1: 1}.get(request_id, 0), b""
    if request_id is not None and request_id >= 0:
        width = _width(request_id, _ID_CODES)
        id_code, tail = _ID_CODES[width], request_id.to_bytes(width, "little")
    extras_width, body_width = _width(extras_len, _LEN_CODES), _width(body_len, _LEN_CODES)
    layout = id_code | _LEN_CODES[extras_width] << 3 | _LEN_CODES[body_width] << 5
    tail += extras_len.to_bytes(extras_width, "little") + body_len.to_bytes(body_width, "little")
    return layout, tail


def _frame(op=0, layout=None, tail=b"", extras=b"", body=b""):
    """Hand-build a frame from its fields, the CRC computed over them;
    ``layout`` defaults to an id-less reply's whose lengths are the
    narrowest for ``extras`` and ``body``."""
    if layout is None:
        layout, tail = _narrow(len(extras), len(body))
    meta = bytes((op, layout)) + tail
    crc = zlib.crc32(body, zlib.crc32(extras, zlib.crc32(meta)))
    return MAGIC + struct.pack("<I", crc) + meta + extras + body


def _read_over_socketpair(data: bytes, max_frame: int = DEFAULT_MAX_FRAME):
    """Drive the blocking reader from a socket whose peer sent ``data`` and
    shut its side (``data`` fits the socket buffer)."""
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        right.settimeout(10.0)
        return read_frame(right, max_frame)
    finally:
        left.close()
        right.close()


def _read_from_bytes(data: bytes, max_frame: int = DEFAULT_MAX_FRAME):
    """Drive the async reader from a fully-fed, EOF-terminated stream."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_async(reader, max_frame)

    return asyncio.run(go())


# --------------------------------------------------------------------------- #
# well-formed round trips                                                     #
# --------------------------------------------------------------------------- #


def test_round_trip_async():
    header = {"op": "gate", "id": 7, "gate": "nand"}
    body = b"\x01\x02\x03" * 100
    got_header, got_body = _read_from_bytes(encode_frame(header, body))
    assert got_header == header
    assert got_body == body


def test_round_trip_empty_body():
    got_header, got_body = _read_from_bytes(encode_frame({"op": "hello", "id": 0}))
    assert got_header["op"] == "hello"
    assert got_body == b""


def test_round_trip_sync_socketpair():
    left, right = socket.socketpair()
    try:
        frame = encode_frame({"op": "metrics_prom", "id": 3}, b"xyz")
        # Write from a thread so a (buggy) blocking read cannot deadlock.
        writer = threading.Thread(target=left.sendall, args=(frame,))
        writer.start()
        header, body = read_frame(right)
        writer.join()
        assert header == {"op": "metrics_prom", "id": 3}
        assert body == b"xyz"
        left.close()
        with pytest.raises(EOFError):
            read_frame(right)
    finally:
        left.close()
        right.close()


def test_back_to_back_frames():
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"op": "hello", "id": 1}))
        reader.feed_data(encode_frame({"op": "gate", "id": 2}, b"zz"))
        reader.feed_eof()
        first = await read_frame_async(reader)
        second = await read_frame_async(reader)
        with pytest.raises(EOFError):
            await read_frame_async(reader)
        return first, second

    (h1, _), (h2, b2) = asyncio.run(go())
    assert (h1["op"], h2["op"], b2) == ("hello", "gate", b"zz")


# --------------------------------------------------------------------------- #
# corruption taxonomy                                                         #
# --------------------------------------------------------------------------- #


def test_truncated_prefix():
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(MAGIC + b"\x01")


def test_truncated_header():
    frame = encode_frame({"op": "hello", "id": 1})
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(frame[:-2])


def test_truncated_body():
    frame = encode_frame({"op": "hello", "id": 1}, b"0123456789")
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(frame[:-5])


def test_bad_magic():
    frame = bytearray(encode_frame({"op": "hello", "id": 1}))
    frame[0:4] = b"EVIL"
    with pytest.raises(BadMagic):
        _read_from_bytes(bytes(frame))


def test_oversized_body_prefix_refused_before_allocation():
    # Claims a 4 GiB body with no bytes behind it: must be rejected from
    # the prefix alone, not by trying to read (or allocate) it.
    layout, tail = _narrow(0, (1 << 32) - 1, request_id=1)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(_frame(2, layout, tail))


def test_oversized_header_prefix_refused():
    layout, tail = _narrow(MAX_HEADER_LEN + 1, 0, request_id=1)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(_frame(2, layout, tail))


def test_retired_protocol_magic_is_a_bad_magic_like_any_other():
    # No legacy reader: a protocol-1 peer (magic ``rTFS``, 16-byte prefix, no
    # checksum) is a foreign stream, refused exactly as random garbage is.
    prefix = struct.pack("<4sIQ", b"rTFS", 2, 0) + b"{}" + b"\x00" * 8
    with pytest.raises(BadMagic, match="bad frame magic b'rTFS'"):
        _read_from_bytes(prefix)


def test_a_frame_2_prefix_is_refused_by_name():
    # The JSON-header frame of protocols 2-5: magic, header_len u32,
    # body_len u64, crc32 u32, then ``{"op": ..., "id": ...}``.
    header = b'{"op":"hello","id":1}'
    frame = struct.pack("<4sIQI", b"rTF2", len(header), 0, zlib.crc32(header)) + header
    for read in (_read_from_bytes, _read_over_socketpair):
        with pytest.raises(BadMagic, match="frame 2 .*protocol 5"):
            read(frame)


def test_corrupted_body_fails_checksum():
    frame = bytearray(encode_frame({"op": "gate", "id": 9}, b"payload-bytes"))
    frame[-3] ^= 0x10  # flip one bit inside the body
    with pytest.raises(ChecksumMismatch):
        _read_from_bytes(bytes(frame))


def test_corrupted_header_fails_checksum():
    frame = bytearray(encode_frame({"op": "gate", "id": 9, "gate": "and"}, b"payload"))
    frame[13 + 2] ^= 0x01  # flip one bit inside the extras JSON
    with pytest.raises(ChecksumMismatch):
        _read_from_bytes(bytes(frame))


@pytest.mark.parametrize("bit", range(16))
def test_a_flipped_id_bit_is_a_checksum_mismatch(bit):
    """The CRC covers the prefix: a flipped id never reaches the reply path."""
    frame = bytearray(encode_frame({"op": "gate", "id": 300, "gate": "and"}, b"payload"))
    frame[10 + bit // 8] ^= 1 << bit % 8  # the id is the u16 after the 10-byte head
    for read in (_read_from_bytes, _read_over_socketpair):
        with pytest.raises(ChecksumMismatch):
            read(bytes(frame))


def test_checksum_mismatch_is_retryable():
    assert ChecksumMismatch.retryable is True
    assert TruncatedFrame.retryable is True
    assert BadMagic.retryable is False


def test_frame_over_reader_budget_refused():
    frame = encode_frame({"op": "hello", "id": 1}, b"A" * 1024)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(frame, max_frame=256)


def test_encode_rejects_oversized_header():
    with pytest.raises(FrameTooLarge):
        encode_frame({"op": "hello", "id": 1, "pad": "y" * (MAX_HEADER_LEN + 1)})


def test_header_not_json():
    # CRC-valid frame whose extras are not JSON: the checksum passes, the
    # parse fails typed.
    with pytest.raises(BadHeader):
        _read_from_bytes(_frame(extras=b"this is not json"))


def test_header_not_utf8():
    with pytest.raises(BadHeader):
        _read_from_bytes(_frame(extras=b"\xff\xfe\xfd\xfc"))


def test_header_not_an_object():
    with pytest.raises(BadHeader):
        _read_from_bytes(_frame(extras=json.dumps([1, 2, 3]).encode()))


@pytest.mark.parametrize(
    "extras",
    [b"{}", b'{"id":3}', b'{"op":"gate"}', b'{"table": 7}', b'{"a":1,"a":2}', b"[" * 100_000],
    ids=["empty", "id", "op", "spaced", "repeated-key", "deep"],
)
def test_extras_are_read_only_in_the_one_encoding_of_their_fields(extras):
    with pytest.raises(BadHeader):
        _read_from_bytes(_frame(extras=extras))


@pytest.mark.parametrize(
    "layout, tail",
    [
        (0x0A, b"\x05\x00"),
        (0x03, b"\x05\x00"),
        (0x02 | 0x20, b"\x05\x00"),
        (0x06, b""),
        (0x80, b""),
    ],
    ids=["empty-extras-field", "wide-id", "empty-body-field", "no-such-id-code", "bit-7"],
)
def test_only_the_narrowest_layout_is_read(layout, tail):
    with pytest.raises(BadHeader):
        _read_from_bytes(_frame(2, layout, tail))


def test_a_request_frame_carries_an_id():
    for request_id in (None, -1):
        layout, tail = _narrow(0, 0, request_id)
        with pytest.raises(BadHeader, match="carries no id"):
            _read_from_bytes(_frame(1, layout, tail))
        with pytest.raises(ValueError, match="cannot be framed"):
            encode_frame({"op": "hello"} if request_id is None else {"op": "hello", "id": -1})


def test_ops_by_code():
    """The eight ops and the reply have codes; an unknown code reads as itself,
    an op without a code is not framed."""
    ops = ["hello", "register_key", "gate", "lut", "circuit", "radix_add"]
    ops += ["metrics_prom", "trace_export"]
    for code, op in enumerate(ops, 1):
        frame = encode_frame({"op": op, "id": 4})
        assert frame[8] == code and _read_from_bytes(frame)[0] == {"op": op, "id": 4}
    assert encode_frame({"id": 4})[8] == 0
    unknown = _frame(200, *_narrow(0, 0, request_id=4))
    assert _read_from_bytes(unknown)[0] == {"op": 200, "id": 4}
    assert encode_frame({"op": 200, "id": 4}) == unknown
    for op in ("metrics", "", 3, 256, None, True):
        with pytest.raises(ValueError, match="no frame code"):
            encode_frame({"op": op, "id": 4})
    for request_id in (1 << 64, -2, "7", 2.0, True, None):
        with pytest.raises(ValueError, match="cannot be framed"):
            encode_frame({"op": "gate", "id": request_id})


# --------------------------------------------------------------------------- #
# multi-part bodies                                                           #
# --------------------------------------------------------------------------- #


def test_parts_round_trip():
    parts = [b"", b"a", b"b" * 1000]
    assert unpack_parts(pack_parts(parts)) == parts
    assert unpack_parts(pack_parts([]), expected=0) == []


def test_a_register_key_request_is_the_key_as_one_part():
    """The pieces the clients send join to ``pack_parts([to_bytes(key)])``."""
    _, cloud = generate_keys(TEST_TINY, rng=5, eager=False)
    op, body, fields = register_key_request(cloud)
    assert (op, fields) == ("register_key", {})
    assert b"".join(bytes(piece) for piece in body) == pack_parts([to_bytes(cloud)])


def test_parts_are_views_of_the_body():
    """Splitting a body copies nothing — a 108 MiB key part is the body's memory."""
    for body in (pack_parts([b"alpha", b"", b"gamma" * 9]), bytearray(pack_parts([b"key"]))):
        backing = np.frombuffer(body, dtype=np.uint8)
        parts = unpack_parts(body)
        assert parts == unpack_parts(bytes(body))  # same content either way
        for part in parts:
            assert isinstance(part, memoryview) and part.obj is body
            if len(part):  # an empty view has no byte to share
                assert np.shares_memory(np.frombuffer(part, dtype=np.uint8), backing)
    # truncated, over-long and trailing bodies are refused whatever holds them
    body = pack_parts([b"abc", b"def"])
    for wrap in (bytes, bytearray, memoryview):
        with pytest.raises(ProtocolError):
            unpack_parts(wrap(body[:-1]))
        with pytest.raises(ProtocolError, match="trailing"):
            unpack_parts(wrap(body + b"!"))
        with pytest.raises(ProtocolError, match="claims"):
            unpack_parts(wrap(body[:1] + _varint(1 << 40) + body[2:]))


def test_parts_count_mismatch():
    with pytest.raises(ProtocolError, match="expected 2"):
        unpack_parts(pack_parts([b"only"]), expected=2)


def test_parts_truncated_length_prefix():
    body = pack_parts([b"abc", b"d" * 200])  # part 1's length is two bytes
    assert body[5:7] == b"\xc8\x01"
    with pytest.raises(ProtocolError, match="cut off"):
        unpack_parts(body[:6])


def test_parts_overrunning_length():
    body = pack_parts([b"abc"])
    body = body[:1] + _varint(1 << 40) + body[2:]  # part 0 claims a terabyte
    with pytest.raises(ProtocolError, match="claims"):
        unpack_parts(body)


@pytest.mark.parametrize(
    "body, error",
    [
        (b"\x81\x00", "shortest form"),
        (b"\x01\x83\x00abc", "shortest form"),
        (b"\x01" + b"\xff" * 9 + b"\x02", "past 64 bits"),
        (b"\x01" + b"\xff" * 100_000, "past 64 bits"),
    ],
    ids=["count", "length", "65-bit", "long-run"],
)
def test_a_part_length_is_read_only_in_its_shortest_varint(body, error):
    with pytest.raises(ProtocolError, match=error):
        unpack_parts(body)


def test_part_lengths_are_varints():
    assert pack_parts([]) == b"\x00"
    two = pack_parts([b"x" * 127, b"y" * 128])
    assert two == b"\x02\x7f" + b"x" * 127 + b"\x80\x01" + b"y" * 128
    for value in (0, 1, 127, 128, 300, 1 << 32, (1 << 64) - 1):
        assert _varint_at(memoryview(_varint(value)), 0, "v") == (value, len(_varint(value)))


def test_parts_trailing_garbage():
    with pytest.raises(ProtocolError, match="trailing"):
        unpack_parts(pack_parts([b"abc"]) + b"!!")


def test_parts_empty_body():
    with pytest.raises(ProtocolError):
        unpack_parts(b"")


# --------------------------------------------------------------------------- #
# fuzz                                                                        #
# --------------------------------------------------------------------------- #


def test_fuzz_random_blobs_never_hang():
    """Random bytes either parse or raise cleanly — bounded, typed, fast."""
    rng = np.random.default_rng(20260808)
    for _ in range(300):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 200)), dtype=np.uint8).tobytes()
        try:
            _read_from_bytes(blob)
        except (ProtocolError, EOFError):
            pass  # the only acceptable failures


def test_fuzz_mutated_valid_frames():
    """Single-byte mutations of a valid frame ALWAYS fail typed.

    With the CRC-protected v2 frame this is a hard guarantee, not
    best-effort: CRC32 detects every single-byte error in the covered
    region, and mutations of the prefix itself hit the magic/length/CRC
    validation.  No mutation may parse as a (silently different) frame.
    """
    rng = np.random.default_rng(42)
    frame = encode_frame({"op": "gate", "id": 5, "gate": "xor"}, b"payload-bytes")
    for _ in range(300):
        mutated = bytearray(frame)
        position = int(rng.integers(0, len(mutated)))
        mutated[position] ^= int(rng.integers(1, 256))
        with pytest.raises((ProtocolError, EOFError)):
            _read_from_bytes(bytes(mutated))


def test_fuzz_truncations_of_valid_frame():
    """Every strict prefix of a valid frame raises, never returns garbage."""
    frame = encode_frame({"op": "gate", "id": 5}, b"xx")
    for cut in range(len(frame)):
        with pytest.raises((ProtocolError, EOFError)):
            _read_from_bytes(frame[:cut])


def test_fuzz_parts_mutations():
    rng = np.random.default_rng(7)
    body = pack_parts([b"alpha", b"beta", b"gamma" * 20])
    for _ in range(300):
        mutated = bytearray(body)
        position = int(rng.integers(0, len(mutated)))
        mutated[position] ^= int(rng.integers(1, 256))
        try:
            parts = unpack_parts(bytes(mutated))
            assert isinstance(parts, list)
        except ProtocolError:
            pass


@pytest.mark.parametrize(
    "params, request_bytes, reply_bytes",
    [(TEST_SMALL, 103, 98), (PAPER_110BIT, 103, 1296)],
    ids=lambda value: getattr(value, "name", None),
)
def test_the_wire_budget_of_one_gate(params, request_bytes, reply_bytes):
    """One NAND's two frames, built as the client and the server build them:
    the request over two fresh (seeded) operands, whatever ``n``, and the
    reply of one rounded sample; at ``test-small`` also a LUT request, a
    circuit's request and reply and an error frame.  A codec or framing
    change to any op shows here."""
    key = lwe_key_generate(params.lwe, rng=1)
    ca, cb = (lwe_encrypt(key, gate_message(bit), rng=2 + bit) for bit in (1, 0))
    op, body, fields = gate_request("nand", ca, cb)
    request = encode_frame({"op": op, "id": 1, **fields}, body)
    reply = encode_frame({"id": 1}, pack_parts([to_bytes(lwe_round_mask(ca.copy()))]))
    # head 10 + id, extras and body lengths 1 each + {"gate":"nand"} 15 +
    # part count 1 + a one-byte length per part + parts
    assert len(request) == 10 + 3 + 15 + 1 + 2 * (1 + 36) == request_bytes
    # no extras: head 10 + id 1 + the body length, then count 1, the part's
    # varint length and the rounded sample; both lengths take one byte at
    # test-small and two at paper-110bit
    rounded = 16 + 4 * -(-params.n // 2) + 4
    wide = 1 if params is TEST_SMALL else 2
    assert len(reply) == 10 + 1 + wide + 1 + wide + rounded == reply_bytes
    if params is not TEST_SMALL:
        return
    op, body, fields = lut_request(0x96, [ca, cb, ca])
    assert len(encode_frame({"op": op, "id": 1, **fields}, body)) == 10 + 3 + 13 + 1 + 3 * 37 == 138
    circuit = adder_netlist(2)
    op, body, fields = circuit_request(circuit, LweBatch.from_samples([ca, cb, cb, ca]))
    # the circuit JSON (561 B) takes a two-byte extras length; the body is
    # count 1 + length 1 + a 100 B batch of four rows
    request = encode_frame({"op": op, "id": 1, **fields}, body)
    assert len(request) == 10 + 1 + 2 + 1 + 561 + 1 + 1 + 100 == 677
    batch = lwe_round_mask(LweBatch.from_samples([ca, cb, ca]))  # the sum's three bits
    reply = encode_frame({"id": 1, "outputs": {"sum": 3}}, pack_parts([to_bytes(batch)]))
    # {"outputs":{"sum":3}} 21 B; count 1 + a two-byte length + 224 B
    assert len(reply) == 10 + 1 + 1 + 1 + 21 + 1 + 2 + 224 == 261
    error = {"kind": "protocol", "message": "bad frame magic b'EVIL' (expected b'rTF3')"}
    # the reserved id -1 takes no byte; {"error":{...}} is 84 B
    assert len(encode_frame({"id": -1, "error": error})) == 10 + 1 + 84 == 95


# --------------------------------------------------------------------------- #
# structure-aware frame fuzz                                                  #
# --------------------------------------------------------------------------- #


def _split(frame: bytes):
    """A valid frame's fields: op code, id (None: absent), extras, body."""
    op, layout = frame[8], frame[9]
    id_width = (0, 0, 1, 2, 4, 8)[layout & 7]
    extras_width, body_width = (0, 1, 2, 4)[layout >> 3 & 3], (0, 1, 2, 4)[layout >> 5]
    offset = 10 + id_width
    request_id = {0: None, 1: -1}.get(layout & 7, int.from_bytes(frame[10:offset], "little"))
    extras_len = int.from_bytes(frame[offset : offset + extras_width], "little")
    start = offset + extras_width + body_width
    return op, request_id, frame[start : start + extras_len], frame[start + extras_len :]


def _build(op, request_id, extras, body, extras_len=None, body_len=None):
    """A frame of these fields, the lengths as claimed (default: the true
    ones) in their narrowest widths, the CRC recomputed."""
    extras_len = len(extras) if extras_len is None else extras_len
    body_len = len(body) if body_len is None else body_len
    layout, tail = _narrow(extras_len, body_len, request_id)
    return _frame(op, layout, tail, extras, body)


def _parts_fields(body: bytes):
    """A parts body as its count and its parts, or None."""
    try:
        parts = unpack_parts(body)
    except ProtocolError:
        return None
    return len(parts), [bytes(part) for part in parts]


#: Request ids at the edges of each id width.
_FUZZ_IDS = (0, 1, 255, 256, 65535, 65536, (1 << 32) - 1, 1 << 32, (1 << 64) - 1)


def _fuzz_frames(secret, cloud):
    """Valid request, reply, event and error frames at test-tiny."""
    ca, cb = (encrypt_bit(secret, bit, rng=10 + bit) for bit in (1, 0))
    encoding = DigitEncoding(message_bits=2, carry_bits=2)
    x, y = (encrypt_radix(secret.lwe_key, v, 2, encoding, rng=20 + v) for v in (1, 2))
    requests = [
        ("hello", b"", {}),
        register_key_request(cloud),
        gate_request("nand", ca, cb),
        lut_request(0x96, [ca, cb, ca]),
        circuit_request(adder_netlist(1), LweBatch.from_samples([ca, cb])),
        radix_add_request(x, y),
        ("metrics_prom", b"", {}),
        ("trace_export", b"", {"trace": "c0-7", "format": "json"}),
    ]
    headers = [
        {"op": op, "id": request_id, **fields}
        for request_id, (op, _, fields) in zip(_FUZZ_IDS, requests)
    ]
    headers[2].update(session="tok", ack=[1, 2], deadline_ms=12.5)
    frames = [encode_frame(h, body) for h, (_, body, _) in zip(headers, requests)]
    rounded = pack_parts([to_bytes(lwe_round_mask(ca))])
    outputs = pack_parts([to_bytes(lwe_round_mask(LweBatch.from_samples([ca, cb])))])
    replies = [
        ({"id": 300}, rounded),
        ({"id": 0, "server": "repro-serve", "protocol": 6}, b""),
        ({"id": 4, "outputs": {"sum": 2}}, outputs),
        ({"id": 6, "content_type": "text/plain; version=0.0.4"}, b"fhe_up 1\n" * 40),
        ({"event": "draining"}, b""),
        ({"id": -1, "error": {"kind": "protocol", "message": "bad frame magic b'EVIL'"}}, b""),
        ({"id": 70000, "error": {"kind": "busy", "message": "queue full", "retryable": True}}, b""),
    ]
    return frames + [encode_frame(h, body) for h, body in replies]


class TestFrameFuzz:
    """Seeded mutations of valid frames of every op, each field at its edges
    and the CRC recomputed so the mutant reaches the decoders: every reader
    re-encodes what it read byte for byte or raises a ``ProtocolError``."""

    @pytest.fixture(scope="class")
    def keys(self):
        return generate_keys(TEST_TINY, rng=5, eager=False)

    @pytest.fixture(scope="class")
    def frames(self, keys):
        return _fuzz_frames(*keys)

    @staticmethod
    def _mutants(frames, seed, count):
        rng = random.Random(seed)
        mutants = []
        while len(mutants) < count:
            frame = rng.choice(frames)
            op, request_id, extras, body = _split(frame)
            kind = rng.randrange(9)
            if kind == 0:  # the op code: a request's, a reply's, one with no op
                op = rng.choice([0, 1, 3, 5, 8, 9, 200, 255, rng.randrange(256)])
            elif kind == 1:  # the id, at the edges of each width, -1 and absent
                request_id = rng.choice((None, -1) + _FUZZ_IDS)
            elif kind == 2:  # the extras length: 0, 1, off by one, the bound, past it
                claim = rng.choice(
                    [0, 1, len(extras) - 1, len(extras) + 1, 255, 256, MAX_HEADER_LEN, MAX_HEADER_LEN + 1]
                )
                mutants.append(_build(op, request_id, extras, body, extras_len=max(claim, 0)))
                continue
            elif kind == 3:  # the body length, up to the frame bound and past it
                # what a u32 body length leaves of the frame bound
                room = DEFAULT_MAX_FRAME - len(_build(op, request_id, extras, b"", body_len=1 << 24))
                claim = rng.choice([0, 1, len(body) - 1, len(body) + 1, room, room + 1])
                mutants.append(_build(op, request_id, extras, body, body_len=max(claim, 0)))
                continue
            elif kind == 4 and extras:  # one byte of the extras JSON
                extras = bytearray(extras)
                extras[rng.randrange(len(extras))] = rng.randrange(256)
                extras = bytes(extras)
            elif kind == 5 and _parts_fields(body):  # the part count or one part's length
                parts_count, parts = _parts_fields(body)
                lengths = [len(part) for part in parts]
                if not parts or rng.random() < 0.3:
                    parts_count = rng.choice(
                        [0, 1, parts_count - 1, parts_count + 1, (1 << 64) - 1, 1 << 64]
                    )
                else:
                    index = rng.randrange(len(parts))
                    lengths[index] = rng.choice(
                        [0, 1, lengths[index] - 1, lengths[index] + 1, 1 << 40]
                    )
                body = _varint(max(parts_count, 0)) + b"".join(
                    _varint(max(n, 0)) + part for n, part in zip(lengths, parts)
                )
            elif kind == 6:  # one raw byte of the layout or a length field, CRC recomputed
                raw = bytearray(frame)
                raw[rng.randrange(9, min(len(raw), 20))] = rng.randrange(256)
                checked = bytes(raw[8:])
                mutants.append(bytes(raw[:4]) + struct.pack("<I", zlib.crc32(checked)) + checked)
                continue
            elif kind == 7:  # truncated anywhere
                mutants.append(frame[: rng.randrange(len(frame))])
                continue
            elif kind == 8:  # bytes appended: garbage, or a whole second frame
                if rng.random() < 0.5:
                    mutants.append(frame + rng.choice(frames))
                else:
                    mutants.append(frame + rng.randbytes(rng.randrange(1, 24)))
                continue
            mutants.append(_build(op, request_id, extras, body))
        return mutants

    @staticmethod
    def _check(mutant, read, error):
        """``read`` — the frames a reader got before it stopped — re-encode to
        the whole mutant (clean EOF) or to a prefix of it (ProtocolError)."""
        again = b"".join(encode_frame(header, body) for header, body in read)
        if error is None:
            assert again == mutant
        else:
            assert isinstance(error, ProtocolError) and mutant.startswith(again)
        for _, body in read:
            try:
                parts = unpack_parts(body)
            except ProtocolError:
                continue
            assert pack_parts(parts) == bytes(body)

    @staticmethod
    def _read_all_sync(mutant):
        left, right = socket.socketpair()
        right.settimeout(10.0)

        def send():
            try:
                left.sendall(mutant)
                left.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the reader stopped early and hung up

        writer = threading.Thread(target=send)
        writer.start()
        read, error = [], None
        try:
            while True:
                read.append(read_frame(right))
        except EOFError:
            pass
        except ProtocolError as exc:
            error = exc
        finally:
            right.close()
            writer.join(10.0)
            left.close()
        assert not writer.is_alive()
        return read, error

    @staticmethod
    async def _read_all_async(mutant):
        reader = asyncio.StreamReader()
        reader.feed_data(mutant)
        reader.feed_eof()
        read, error = [], None
        try:
            while True:
                header, body = await read_frame_async(reader)
                read.append((header, bytes(body)))
        except EOFError:
            pass
        except ProtocolError as exc:
            error = exc
        return read, error

    def test_every_reader_re_encodes_or_refuses(self, frames):
        mutants = self._mutants(frames, seed=48, count=400)
        outcomes = [self._read_all_sync(mutant) for mutant in mutants]

        async def read_all():
            return [await self._read_all_async(mutant) for mutant in mutants]

        for mutant, (read, error), (read_async, error_async) in zip(
            mutants, outcomes, asyncio.run(read_all())
        ):
            self._check(mutant, read, error)
            self._check(mutant, read_async, error_async)
            assert read == read_async and type(error) is type(error_async)
        # the seed reaches every outcome: frames that read and each refusal
        assert {type(error) for _, error in outcomes} == {
            type(None), BadHeader, BadMagic, ChecksumMismatch, FrameTooLarge, TruncatedFrame
        }

    def test_a_live_server_serves_on_after_200_mutants(self, frames, keys, server_factory):
        secret, cloud = keys
        server = server_factory()
        loop = server._flusher.get_loop()

        async def count_tasks():
            return len(asyncio.all_tasks()) - 1

        tasks = asyncio.run_coroutine_threadsafe(count_tasks(), loop).result(10.0)
        answers = collections.Counter()
        for mutant in self._mutants(frames, seed=4848, count=200):
            with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
                try:
                    sock.sendall(mutant)
                    sock.shutdown(socket.SHUT_WR)
                    while True:
                        header, _ = read_frame(sock)
                        answers[header["error"]["kind"] if "error" in header else "ok"] += 1
                except (EOFError, ProtocolError, OSError):
                    pass
        # answered: frames that ran, a reply frame sent back, unknown op
        # codes, bad bodies, requests before a key, desynchronised streams
        assert set(answers) == {"ok", "protocol", "unsupported", "bad_request", "no_key"}
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            out = client.gate("nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2))
            assert decrypt_bit(secret, out) == 0
        deadline = time.monotonic() + 10.0
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._connections
        assert asyncio.run_coroutine_threadsafe(count_tasks(), loop).result(10.0) == tasks
