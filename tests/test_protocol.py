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
import json
import socket
import struct
import threading

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
    TruncatedFrame,
    encode_frame,
    gate_request,
    pack_parts,
    read_frame,
    read_frame_async,
    register_key_request,
    unpack_parts,
)
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import gate_message, lwe_encrypt, lwe_key_generate, lwe_round_mask
from repro.tfhe.params import PAPER_110BIT, TEST_SMALL, TEST_TINY
from repro.tfhe.serialize import to_bytes

_PREFIX = struct.Struct("<4sIQI")


def _raw_frame(header_bytes: bytes, body: bytes = b"", crc: int = None) -> bytes:
    """Hand-build a v2 frame (valid CRC unless one is forced)."""
    import zlib

    if crc is None:
        crc = zlib.crc32(body, zlib.crc32(header_bytes)) & 0xFFFFFFFF
    return _PREFIX.pack(MAGIC, len(header_bytes), len(body), crc) + header_bytes + body


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
        frame = encode_frame({"op": "metrics", "id": 3}, b"xyz")
        # Write from a thread so a (buggy) blocking read cannot deadlock.
        writer = threading.Thread(target=left.sendall, args=(frame,))
        writer.start()
        header, body = read_frame(right)
        writer.join()
        assert header == {"op": "metrics", "id": 3}
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
        reader.feed_data(encode_frame({"op": "a", "id": 1}))
        reader.feed_data(encode_frame({"op": "b", "id": 2}, b"zz"))
        reader.feed_eof()
        first = await read_frame_async(reader)
        second = await read_frame_async(reader)
        with pytest.raises(EOFError):
            await read_frame_async(reader)
        return first, second

    (h1, _), (h2, b2) = asyncio.run(go())
    assert (h1["op"], h2["op"], b2) == ("a", "b", b"zz")


# --------------------------------------------------------------------------- #
# corruption taxonomy                                                         #
# --------------------------------------------------------------------------- #


def test_truncated_prefix():
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(MAGIC + b"\x01")


def test_truncated_header():
    frame = encode_frame({"op": "x", "id": 1})
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(frame[:-2])


def test_truncated_body():
    frame = encode_frame({"op": "x", "id": 1}, b"0123456789")
    with pytest.raises(TruncatedFrame):
        _read_from_bytes(frame[:-5])


def test_bad_magic():
    frame = bytearray(encode_frame({"op": "x", "id": 1}))
    frame[0:4] = b"EVIL"
    with pytest.raises(BadMagic):
        _read_from_bytes(bytes(frame))


def test_oversized_body_prefix_refused_before_allocation():
    # Claims an 8 EiB body with no bytes behind it: must be rejected from
    # the 20-byte prefix alone, not by trying to read (or allocate) it.
    prefix = _PREFIX.pack(MAGIC, 2, 1 << 62, 0)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(prefix + b"{}")


def test_oversized_header_prefix_refused():
    prefix = _PREFIX.pack(MAGIC, MAX_HEADER_LEN + 1, 0, 0)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(prefix)


def test_retired_protocol_magic_is_a_bad_magic_like_any_other():
    # No legacy reader: a protocol-1 peer (magic ``rTFS``, 16-byte prefix, no
    # checksum) is a foreign stream, refused exactly as random garbage is.
    prefix = struct.pack("<4sIQ", b"rTFS", 2, 0) + b"{}" + b"\x00" * 8
    with pytest.raises(BadMagic, match="bad frame magic b'rTFS'"):
        _read_from_bytes(prefix)


def test_corrupted_body_fails_checksum():
    frame = bytearray(encode_frame({"op": "gate", "id": 9}, b"payload-bytes"))
    frame[-3] ^= 0x10  # flip one bit inside the body
    with pytest.raises(ChecksumMismatch):
        _read_from_bytes(bytes(frame))


def test_corrupted_header_fails_checksum():
    frame = bytearray(encode_frame({"op": "gate", "id": 9}, b"payload"))
    frame[_PREFIX.size + 2] ^= 0x01  # flip one bit inside the JSON header
    with pytest.raises(ChecksumMismatch):
        _read_from_bytes(bytes(frame))


def test_checksum_mismatch_is_retryable():
    assert ChecksumMismatch.retryable is True
    assert TruncatedFrame.retryable is True
    assert BadMagic.retryable is False


def test_frame_over_reader_budget_refused():
    frame = encode_frame({"op": "x", "id": 1}, b"A" * 1024)
    with pytest.raises(FrameTooLarge):
        _read_from_bytes(frame, max_frame=256)


def test_encode_rejects_oversized_header():
    with pytest.raises(FrameTooLarge):
        encode_frame({"op": "x", "id": 1, "pad": "y" * (MAX_HEADER_LEN + 1)})


def test_header_not_json():
    # CRC-valid frame whose header bytes are not JSON: the checksum passes,
    # the parse fails typed.
    with pytest.raises(BadHeader):
        _read_from_bytes(_raw_frame(b"this is not json"))


def test_header_not_utf8():
    with pytest.raises(BadHeader):
        _read_from_bytes(_raw_frame(b"\xff\xfe\xfd\xfc"))


def test_header_not_an_object():
    with pytest.raises(BadHeader):
        _read_from_bytes(_raw_frame(json.dumps([1, 2, 3]).encode()))


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
            unpack_parts(wrap(body[:4] + struct.pack("<Q", 1 << 40) + body[12:]))


def test_parts_count_mismatch():
    with pytest.raises(ProtocolError, match="expected 2"):
        unpack_parts(pack_parts([b"only"]), expected=2)


def test_parts_truncated_length_prefix():
    body = pack_parts([b"abc", b"def"])
    with pytest.raises(ProtocolError):
        unpack_parts(body[:6])


def test_parts_overrunning_length():
    body = bytearray(pack_parts([b"abc"]))
    body[4:12] = struct.pack("<Q", 1 << 40)  # part 0 claims a terabyte
    with pytest.raises(ProtocolError, match="claims"):
        unpack_parts(bytes(body))


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
    [(TEST_SMALL, 146, 124), (PAPER_110BIT, 146, 1320)],
    ids=lambda value: getattr(value, "name", None),
)
def test_the_wire_budget_of_one_gate(params, request_bytes, reply_bytes):
    """One NAND's two frames, built as the client and the server build them:
    the request over two fresh (seeded) operands, whatever ``n``, and the
    reply of one rounded sample.  A codec or framing change shows here."""
    key = lwe_key_generate(params.lwe, rng=1)
    ca, cb = (lwe_encrypt(key, gate_message(bit), rng=2 + bit) for bit in (1, 0))
    op, body, fields = gate_request("nand", ca, cb)
    request = encode_frame({"op": op, "id": 1, **fields}, body)
    reply = encode_frame({"id": 1}, pack_parts([to_bytes(lwe_round_mask(ca.copy()))]))
    # frame prefix 20 + header JSON + part count 4 + 8 per part + parts
    assert len(request) == 20 + 34 + 4 + 2 * (8 + 36) == request_bytes
    assert len(reply) == 20 + 8 + 4 + 8 + 16 + 4 * -(-params.n // 2) + 4 == reply_bytes
