"""Wire protocol of the serving front: CRC-protected frames over a socket.

One frame (frame 3) is::

    magic "rTF3" (4) | crc32 u32 | op u8 | layout u8 | id | extras_len | body_len | extras JSON | body

little-endian throughout (matching the shared-memory segment layout in
:mod:`repro.runtime.workers`).  The 10-byte head is fixed; the **layout**
byte says how wide the three fields after it are, each the narrowest that
holds its value:

* bits 0-2, the id: 0 — no id (an unsolicited event, ``{"event": ...}``);
  1 — id ``-1``, the reserved id of an error frame answering a frame whose
  id was never read (the server's reply to a :class:`ProtocolError`); 2-5 —
  a ``u8`` / ``u16`` / ``u32`` / ``u64`` id ``>= 0``.  A request always
  carries one of those;
* bits 3-4, ``extras_len``, and bits 5-6, ``body_len``: 0 — the part is
  empty and the field absent; 1-3 — a ``u8`` / ``u16`` / ``u32`` length;
* bit 7 is zero.

The **op** byte is 0 for a reply (and an event) and 1-8 for the request
ops ``hello``, ``register_key``, ``gate``, ``lut``, ``circuit``,
``radix_add``, ``metrics_prom``, ``trace_export`` in that order; a code
this side has no name for reads as the bare ``int`` (the server answers it
``unsupported``), and an op name without a code is a :class:`ValueError`
at encode time.  The **extras** are a UTF-8 JSON object of every header
field but ``op`` and ``id`` — a gate's ``gate``, a LUT's ``table``, the
circuit JSON, ``session``, ``ack``, ``trace``, a reply's ``error`` — and
absent when there are none, as for a gate's reply.  The dict API is the
same either way: :func:`encode_frame` takes ``{"op": ..., "id": ...,
**extras}`` and :func:`read_frame` gives it back.  A NAND request with a
one-byte id is 103 B on the wire at any ``n`` and its reply 98 B at
``test-small`` (1296 B at ``paper-110bit``).

The **body** carries binary payloads: the :mod:`repro.tfhe.serialize`
artifacts (cloud keys, ciphertexts, radix integers) travel verbatim, so
the wire format is exactly the on-disk format.  A body holds one or more
artifacts — a gate's two operands, a LUT's operand list — as
:func:`pack_parts` parts (``count | (len | bytes)*``, the count and each
length an unsigned LEB128 varint); :func:`unpack_parts` checks the count
and every length and hands out zero-copy views of the body.  A frame is
*built* as a list of buffers — :func:`frame_pieces` over
:func:`parts_pieces` over :func:`repro.tfhe.serialize.to_pieces`, the
checksum chained over the pieces — of which :func:`encode_frame`,
:func:`pack_parts` and ``to_bytes`` are the joins; a cloud key is sent as
those pieces and never joined.  The async reader takes a body its stream's
buffer limit covers whole and receives a larger one in place, into one
buffer whose end is 8-byte aligned, so the server's ``register_key`` can
adopt it as the key's arrays
(:func:`repro.tfhe.serialize.from_owned_buffer`).  The ``crc32`` field
covers every byte after it — op, layout, id, lengths, extras and body —
so a bit-flipped frame is caught *before* any artifact is decoded or any
reply is matched to its id — CRC32 detects every single-bit and
burst-under-32-bit corruption, which the artifact reader's structural
checks cannot (a flipped payload bit is still a valid ciphertext).

Robustness contract (exercised by the protocol fuzz suite):

* a reader makes two fixed-size reads — the head, then the tail the
  layout byte announces — and bounds both lengths *before* any allocation:
  ``extras_len`` by :data:`MAX_HEADER_LEN`, the whole frame by the
  reader's ``max_frame`` (default :data:`DEFAULT_MAX_FRAME`) — so an
  adversarial prefix cannot balloon server memory;
* a connection that ends mid-frame raises :class:`TruncatedFrame`, a bad
  magic :class:`BadMagic` (a frame-2 peer's by name), a frame that fails
  its checksum :class:`ChecksumMismatch`, a layout byte that is not the
  narrowest for its fields, a request without an id or extras that are
  not the one JSON encoding of a non-empty object without ``op`` and
  ``id`` :class:`BadHeader` — all subclasses of :class:`ProtocolError`,
  which the server maps to one clean error frame (or a connection close
  for desynchronised streams), never a hang.  So a frame that reads
  re-encodes to its own bytes;
* responses echo the request ``id``, so a pipelined client can have many
  requests in flight and match replies out of order.

Retry semantics: exceptions carry a ``retryable`` class attribute.  A
retryable failure (:class:`ServerBusy`, :class:`ServerDraining`,
:class:`JobAbortedError`, a torn connection) means the request may be safely
resent — with a session token (``ServingClient(session=...)``) the server
deduplicates by request id, so a retry is **exactly-once**.  Non-retryable
failures (bad request, unsupported op, :class:`JobShed`) report a decision,
not an accident; resending the same request would fail the same way.

:class:`ServingClient` is the synchronous reference client used by the
examples, benchmarks and tests; :class:`repro.runtime.resilient.ResilientClient`
wraps it with reconnect/backoff/resubmission; both encode each op's request
with its ``*_request`` function and read its reply with :func:`reply_artifact`.
The server side reads frames with the ``*_async`` helpers on :mod:`asyncio`
streams.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tfhe.lwe import LweBatch, LweSample
from repro.tfhe.netlist import Circuit
from repro.tfhe.serialize import (
    circuit_to_json,
    from_bytes,
    to_bytes,
    to_pieces,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "MAX_HEADER_LEN",
    "ProtocolError",
    "BadMagic",
    "BadHeader",
    "TruncatedFrame",
    "FrameTooLarge",
    "ChecksumMismatch",
    "ServerError",
    "ServerBusy",
    "ServerDraining",
    "JobShed",
    "JobAbortedError",
    "error_class_for_kind",
    "raise_for_reply",
    "frame_pieces",
    "encode_frame",
    "parts_pieces",
    "pack_parts",
    "unpack_parts",
    "register_key_request",
    "gate_request",
    "lut_request",
    "circuit_request",
    "radix_add_request",
    "reply_artifact",
    "read_frame",
    "read_frame_async",
    "ServingClient",
]

#: Frame magic of frame 3 (protocol 6 onwards).
MAGIC = b"rTF3"
#: Bumped on incompatible wire changes; ``hello`` reports it.  Version 3:
#: same frames, bodies carry flat-container artifacts (not npz); version 4:
#: container 2 (version and artifact kind in the prefix, not the JSON);
#: version 5: container 3 (a ciphertext's header is a binary head); version
#: 6: frame 3 (op, id and lengths in a binary prefix, varint part lengths).
PROTOCOL_VERSION = 6
#: Earlier frame magics, refused by name.
_RETIRED = {b"rTF2": "frame 2 (the JSON-header frame of protocol 5 and earlier)"}
#: Hard ceiling on the extras JSON (headers are small JSON objects; circuit
#: JSON rides here too, hence megabyte-scale rather than kilobyte-scale).
MAX_HEADER_LEN = 8 * 1024 * 1024
#: Default ceiling on a whole frame (prefix + extras + body).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: The fixed head of every frame: magic, crc32, op code, layout byte; the
#: CRC covers the head's last two bytes and everything after them.
_HEAD = struct.Struct("<4sIBB")
#: The request ops by code, from 1; code 0 is a reply (or an event).
_OPS = (
    "hello",
    "register_key",
    "gate",
    "lut",
    "circuit",
    "radix_add",
    "metrics_prom",
    "trace_export",
)
_OP_CODES = {name: code for code, name in enumerate(_OPS, 1)}
#: Byte width of the id by its layout code: absent, -1, then u8 … u64.
_ID_WIDTHS = (0, 0, 1, 2, 4, 8)
#: Byte width of a length by its layout code: 0 (no field), u8, u16, u32.
_LEN_WIDTHS = (0, 1, 2, 4)
#: The narrowest layout code of an id >= 0 / a length, by its bit length.
_ID_CODES = [2] * 9 + [3] * 8 + [4] * 16 + [5] * 32
_LEN_CODES = [0] + [1] * 8 + [2] * 8 + [3] * 16
#: The one JSON encoding of the extras, and their decoder.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))
_JSON_DECODER = json.JSONDecoder()

#: Anything with the buffer protocol; a *body* is one, or a list of them.
Buffer = Any
#: Pieces below this size are joined into sends of about this size; larger
#: ones are handed to the socket as they are, never copied.
_SEND_JOIN_BELOW = 1 << 16


class ProtocolError(ValueError):
    """Base of every wire-format violation.

    ``retryable`` marks violations where the *request content* is fine and
    only its transport was damaged (checksum mismatch, torn stream): a
    client may reconnect and resend.  Structural violations (bad magic,
    unparsable header) are not retryable — resending the same bytes would
    fail identically.
    """

    retryable = False


class BadMagic(ProtocolError):
    """The stream does not start with :data:`MAGIC` — desynchronised peer."""


class BadHeader(ProtocolError):
    """The prefix fields or the extras JSON are not the one encoding of a header."""


class TruncatedFrame(ProtocolError):
    """The peer closed the connection in the middle of a frame."""

    retryable = True


class FrameTooLarge(ProtocolError):
    """A length prefix exceeds the configured bound (refused pre-allocation)."""


class ChecksumMismatch(ProtocolError):
    """The frame payload fails its CRC32 — corrupted in transit.

    Retryable: the sender's frame was well-formed, the transport damaged
    it; a resend of the same request is safe (and, with a session token,
    exactly-once).
    """

    retryable = True


class ServerError(RuntimeError):
    """An error frame from the server, carrying its ``kind`` and message.

    ``retryable`` mirrors the server's judgement: ``True`` means the request
    itself was acceptable and may be resent once the transient condition
    (full queue, drain, aborted flush) clears.  The server also sends an
    explicit ``retryable`` flag in the error payload, which overrides the
    class default when present (so newer servers can introduce kinds older
    clients still handle correctly).
    """

    retryable = False

    def __init__(self, kind: str, message: str, retryable: Optional[bool] = None) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        if retryable is not None:
            self.retryable = bool(retryable)


class ServerBusy(ServerError):
    """The server rejected work because its queue is full (backpressure)."""

    retryable = True


class ServerDraining(ServerError):
    """The server is draining for shutdown and admits no new work.

    Retryable — against the restarted server (or another replica), after a
    backoff long enough for the drain to finish.
    """

    retryable = True


class JobShed(ServerError):
    """The server shed the job: its deadline budget cannot be met.

    **Not** retryable as-is — the server judged the remaining ``deadline_ms``
    smaller than its estimated time-to-result, and an immediate identical
    retry would be judged the same way.  Callers should retry with a larger
    budget or against a less loaded server.
    """


class JobAbortedError(ServerError):
    """The job was aborted before producing a result (e.g. its client was
    force-deregistered mid-flush).  The job did **not** execute to completion,
    so resubmission is safe."""

    retryable = True


#: Error-frame ``kind`` → the exception class :meth:`ServingClient.result`
#: raises for it.  Unknown kinds fall back to plain :class:`ServerError`
#: (with the frame's ``retryable`` flag, when present).
_ERROR_KINDS: Dict[str, type] = {
    "busy": ServerBusy,
    "draining": ServerDraining,
    "shed": JobShed,
    "aborted": JobAbortedError,
}


def error_class_for_kind(kind: str) -> type:
    """The :class:`ServerError` subclass raised for an error-frame kind."""
    return _ERROR_KINDS.get(kind, ServerError)


def raise_for_reply(header: Dict[str, Any]) -> None:
    """Raise the typed :class:`ServerError` for an error reply header (no-op
    for success replies)."""
    error = header.get("error")
    if error is None:
        return
    kind = str(error.get("kind", "internal"))
    message = str(error.get("message", "unknown server error"))
    retryable = error.get("retryable")
    raise error_class_for_kind(kind)(
        kind, message, retryable if isinstance(retryable, bool) else None
    )


# --------------------------------------------------------------------------- #
# framing                                                                     #
# --------------------------------------------------------------------------- #


def _op_code(op: Any) -> int:
    """The frame code of a request's ``op``; :class:`ValueError` if it has none."""
    if isinstance(op, str):
        code = _OP_CODES.get(op)
    else:  # a bare code, as a frame whose op this side has no name for reads
        code = op if type(op) is int and len(_OPS) < op < 256 else None
    if code is None:
        raise ValueError(f"op {op!r} has no frame code (the ops: {', '.join(_OPS)})")
    return code


def _id_code(header: Dict[str, Any], op_code: int) -> int:
    request_id = header.get("id")
    if type(request_id) is int and 0 <= request_id < 1 << 64:
        return _ID_CODES[request_id.bit_length()]
    if not op_code and "id" not in header:
        return 0
    if not op_code and type(request_id) is int and request_id == -1:
        return 1
    raise ValueError(
        f"id {request_id!r} cannot be framed: a request's id is an int in "
        f"[0, 2**64); a reply's may also be -1 or absent"
    )


def frame_pieces(
    header: Dict[str, Any], body: Union[Buffer, Sequence[Buffer]] = b""
) -> List[Buffer]:
    """One frame as the buffers that make it up: the prefix and the extras
    JSON, then the body's own — ``body`` is one buffer or a list of them (see
    :func:`parts_pieces`), checksummed piece by piece and never joined here.
    An ``op`` or ``id`` the prefix cannot carry raises :class:`ValueError`;
    sizes are validated before anything is built."""
    op_code = _op_code(header["op"]) if "op" in header else 0
    id_code = _id_code(header, op_code)
    extras = {key: value for key, value in header.items() if key != "op" and key != "id"}
    extras_bytes = _JSON_ENCODER.encode(extras).encode("utf-8") if extras else b""
    if len(extras_bytes) > MAX_HEADER_LEN:
        raise FrameTooLarge(f"header is {len(extras_bytes)} bytes (max {MAX_HEADER_LEN})")
    pieces = list(body) if isinstance(body, (list, tuple)) else [body]
    body_len = sum(memoryview(piece).nbytes for piece in pieces)
    if body_len >> 32:
        raise FrameTooLarge(f"body is {body_len} bytes (max {(1 << 32) - 1})")
    extras_code = _LEN_CODES[len(extras_bytes).bit_length()]
    body_code = _LEN_CODES[body_len.bit_length()]
    layout = id_code | extras_code << 3 | body_code << 5
    tail = b"".join((
        (header["id"] if id_code > 1 else 0).to_bytes(_ID_WIDTHS[id_code], "little"),
        len(extras_bytes).to_bytes(_LEN_WIDTHS[extras_code], "little"),
        body_len.to_bytes(_LEN_WIDTHS[body_code], "little"),
    ))
    crc = zlib.crc32(extras_bytes, zlib.crc32(tail, zlib.crc32(bytes((op_code, layout)))))
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    return [_HEAD.pack(MAGIC, crc, op_code, layout) + tail + extras_bytes, *pieces]


def encode_frame(header: Dict[str, Any], body: bytes = b"") -> bytes:
    """Serialize one frame: the join of its :func:`frame_pieces`."""
    return b"".join(frame_pieces(header, body))


def _tail_size(layout: int) -> int:
    """Bytes of the id and the two lengths a layout byte announces."""
    return _ID_WIDTHS[layout & 7] + _LEN_WIDTHS[layout >> 3 & 3] + _LEN_WIDTHS[layout >> 5 & 3]


def _tail_lengths(layout: int, tail: bytes) -> Tuple[int, int]:
    """``(extras_len, body_len)`` of a frame's tail, unchecked."""
    id_end = _ID_WIDTHS[layout & 7]
    extras_end = id_end + _LEN_WIDTHS[layout >> 3 & 3]
    return (
        int.from_bytes(tail[id_end:extras_end], "little"),
        int.from_bytes(tail[extras_end:], "little"),
    )


def _parse_head(head: bytes) -> Tuple[int, int]:
    """A frame's fixed head → ``(crc, size of the tail it announces)``."""
    magic, crc, _op, layout = _HEAD.unpack(head)
    if magic != MAGIC:
        retired = _RETIRED.get(magic)
        raise BadMagic(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
            + (f" — {retired}, which this build no longer reads" if retired else "")
        )
    if layout & 7 >= len(_ID_WIDTHS) or layout >> 7:
        raise BadHeader(f"frame layout byte {layout:#04x} names no layout")
    return crc, _tail_size(layout)


def _parse_tail(head: bytes, tail: bytes, max_frame: int) -> Tuple[int, int, int]:
    """The id and the two lengths a frame's tail holds, the lengths bounded
    before anything is read into them."""
    layout = head[-1]
    extras_len, body_len = _tail_lengths(layout, tail)
    if extras_len > MAX_HEADER_LEN:
        raise FrameTooLarge(f"header length {extras_len} exceeds {MAX_HEADER_LEN}")
    total = len(head) + len(tail) + extras_len + body_len
    if total > max_frame:
        raise FrameTooLarge(f"frame of {total} bytes exceeds {max_frame}")
    return int.from_bytes(tail[: _ID_WIDTHS[layout & 7]], "little"), extras_len, body_len


def _check_crc(actual: int, expected: int) -> None:
    if actual != expected:
        raise ChecksumMismatch(
            f"frame payload fails its checksum (crc32 {actual:#010x}, frame "
            f"claims {expected:#010x}) — corrupted in transit; safe to resend"
        )


def _header(head: bytes, request_id: int, extras: bytes, body_len: int) -> Dict[str, Any]:
    """The header dict of a checksummed frame: op and id from the prefix,
    the extras from their JSON.  Only the one encoding of a header is read."""
    op_code, layout = head[-2], head[-1]
    id_code = layout & 7
    narrowest = (
        (id_code if id_code < 2 else _ID_CODES[request_id.bit_length()])
        | _LEN_CODES[len(extras).bit_length()] << 3
        | _LEN_CODES[body_len.bit_length()] << 5
    )
    if narrowest != layout:
        raise BadHeader(
            f"frame layout byte {layout:#04x} is not the narrowest for its "
            f"fields ({narrowest:#04x})"
        )
    if op_code and id_code < 2:
        raise BadHeader(f"a request frame (op code {op_code}) carries no id")
    header: Dict[str, Any] = {}
    if op_code:
        header["op"] = _OPS[op_code - 1] if op_code <= len(_OPS) else op_code
    if id_code:
        header["id"] = request_id if id_code > 1 else -1
    if extras:
        try:
            text = extras.decode("utf-8")
            fields, _ = _JSON_DECODER.raw_decode(text)
            # Trailing bytes, spacing, escapes and repeated keys all fail this.
            canonical = _JSON_ENCODER.encode(fields) == text
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise BadHeader(f"header is not valid JSON: {exc}") from None
        if not isinstance(fields, dict):
            raise BadHeader("header must be a JSON object")
        if not (canonical and fields) or "op" in fields or "id" in fields:
            raise BadHeader("header JSON is not the encoding of its fields")
        header.update(fields)
    return header


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise TruncatedFrame(
                f"connection closed {remaining} bytes into a {count}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_pieces(sock: socket.socket, pieces: Sequence[Buffer]) -> None:
    """``sendall`` a frame's pieces: small ones joined into sends of about
    :data:`_SEND_JOIN_BELOW` bytes (a gate's frame leaves whole), a large one
    — a cloud key's array — handed to the socket as it is, never copied."""
    small: List[Buffer] = []
    held = 0
    for piece in pieces:
        size = memoryview(piece).nbytes
        large = size >= _SEND_JOIN_BELOW
        if not large:
            small.append(piece)
            held += size
        if small and (large or held >= _SEND_JOIN_BELOW):
            sock.sendall(b"".join(small))
            small, held = [], 0
        if large:
            sock.sendall(piece)
    if small:
        sock.sendall(b"".join(small))


def read_frame(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Tuple[Dict[str, Any], bytes]:
    """Blocking read of one frame from a socket → ``(header, body)``.

    Raises :class:`EOFError` on a clean close *between* frames and the
    :class:`ProtocolError` taxonomy on malformed ones.
    """
    head = sock.recv(_HEAD.size)
    if not head:
        raise EOFError("connection closed")
    head += _recv_exactly(sock, _HEAD.size - len(head))
    expected, tail_size = _parse_head(head)
    tail = _recv_exactly(sock, tail_size)
    request_id, extras_len, body_len = _parse_tail(head, tail, max_frame)
    rest = _recv_exactly(sock, extras_len + body_len)
    _check_crc(zlib.crc32(rest, zlib.crc32(tail, zlib.crc32(head[-2:]))), expected)
    return _header(head, request_id, rest[:extras_len], body_len), rest[extras_len:]


async def _receive_in_place(
    reader: asyncio.StreamReader, count: int, crc: int
) -> Tuple[memoryview, int]:
    """Receive ``count`` body bytes into a buffer of their own; the CRC rides along.

    One NumPy-owned buffer whose *end* sits on an 8-byte boundary: artifacts
    put their int32 payloads last and a body's last part ends the body, so a
    single-artifact body's arrays are aligned where they land and its decoder
    may adopt them.  ``reader.read`` hands over what the stream has buffered,
    so other connections run between chunks.
    """
    backing = np.empty(count + 7, dtype=np.uint8)
    start = -(backing.ctypes.data + count) % 8
    body = memoryview(backing)[start : start + count]
    received = 0
    while received < count:
        chunk = await reader.read(count - received)
        if not chunk:
            raise TruncatedFrame(
                f"connection closed mid-frame ({received} of {count} bytes received)"
            )
        body[received : received + len(chunk)] = chunk
        crc = zlib.crc32(chunk, crc)
        received += len(chunk)
    return body, crc


async def read_frame_async(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
) -> Tuple[Dict[str, Any], bytes]:
    """Async read of one frame from an asyncio stream → ``(header, body)``.

    Same contract as :func:`read_frame`: :class:`EOFError` on clean close
    between frames, :class:`ProtocolError` subclasses on malformed input.  A
    body the stream's own buffer limit covers comes back as ``bytes``; a
    larger one is received in place and comes back as a writable
    ``memoryview`` of the one buffer that ever holds it.
    """
    try:
        head = await reader.readexactly(_HEAD.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from None
        raise TruncatedFrame(
            f"connection closed {len(exc.partial)} bytes into the frame prefix"
        ) from None
    expected, tail_size = _parse_head(head)
    try:
        tail = await reader.readexactly(tail_size)
        request_id, extras_len, body_len = _parse_tail(head, tail, max_frame)
        crc = zlib.crc32(tail, zlib.crc32(head[-2:]))
        if body_len <= reader._limit:
            rest = await reader.readexactly(extras_len + body_len)
            extras, body = rest[:extras_len], rest[extras_len:]
            crc = zlib.crc32(rest, crc)
        else:
            extras = await reader.readexactly(extras_len)
            body, crc = await _receive_in_place(reader, body_len, zlib.crc32(extras, crc))
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{exc.expected} bytes received)"
        ) from None
    _check_crc(crc, expected)
    return _header(head, request_id, extras, body_len), body


# --------------------------------------------------------------------------- #
# multi-part bodies                                                           #
# --------------------------------------------------------------------------- #

def _varint(value: int) -> bytes:
    """``value`` as an unsigned LEB128 varint: seven bits a byte, low first."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _varint_at(view: memoryview, offset: int, what: str) -> Tuple[int, int]:
    """The varint at ``offset`` and the offset after it; only the shortest
    encoding of a value below ``2**64`` is read."""
    if offset < len(view) and view[offset] < 0x80:  # one byte, the common case
        return view[offset], offset + 1
    value = shift = 0
    while True:
        if offset == len(view):
            raise ProtocolError(f"{what} is cut off by the end of the body")
        byte = view[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
        shift += 7
        if shift >= 64:
            raise ProtocolError(f"{what} runs past 64 bits")
    if value >> 64:
        raise ProtocolError(f"{what} runs past 64 bits")
    if byte == 0 and shift:
        raise ProtocolError(f"{what} is not in its shortest form")
    return value, offset


def parts_pieces(parts: Sequence[Union[Buffer, Sequence[Buffer]]]) -> List[Buffer]:
    """A delimited body as a list of buffers: the count, then each part's
    length before the part's own buffer(s), both as varints — a part may
    itself be a list of pieces (:func:`repro.tfhe.serialize.to_pieces`),
    which stay unjoined."""
    pieces: List[Buffer] = [_varint(len(parts))]
    for part in parts:
        if isinstance(part, (list, tuple)):
            pieces.append(_varint(sum(memoryview(b).nbytes for b in part)))
            pieces.extend(part)
        else:
            pieces.append(_varint(memoryview(part).nbytes))
            pieces.append(part)
    return pieces


def pack_parts(parts: Sequence[bytes]) -> bytes:
    """Concatenate binary artifacts into one delimited body: the join of
    their :func:`parts_pieces`."""
    return b"".join(parts_pieces(parts))


def unpack_parts(body: bytes, expected: Optional[int] = None) -> List[memoryview]:
    """Split a :func:`pack_parts` body into zero-copy views of it; strict
    about counts and lengths."""
    view = memoryview(body)
    count, offset = _varint_at(view, 0, "the body's part count")
    if expected is not None and count != expected:
        raise ProtocolError(f"expected {expected} body parts, frame has {count}")
    parts: List[memoryview] = []
    for index in range(count):
        length, offset = _varint_at(view, offset, f"body part {index}'s length")
        if offset + length > len(view):
            raise ProtocolError(
                f"body part {index} claims {length} bytes but only "
                f"{len(view) - offset} remain"
            )
        parts.append(view[offset : offset + length])
        offset += length
    if offset != len(view):
        raise ProtocolError(f"{len(view) - offset} trailing bytes after body parts")
    return parts


# --------------------------------------------------------------------------- #
# op requests and replies                                                     #
# --------------------------------------------------------------------------- #

#: One op's request as every client sends it: ``(op, body, header fields)``;
#: the body is bytes or a list of buffers sent back to back.
Request = Tuple[str, Union[Buffer, Sequence[Buffer]], Dict[str, Any]]


def register_key_request(cloud_key) -> Request:
    """A cloud key upload: its serialized artifact as the one body part, as
    pieces, so the key's arrays are sent without being joined first."""
    return "register_key", parts_pieces([to_pieces(cloud_key)]), {}


def gate_request(name: str, ca: LweSample, cb: LweSample) -> Request:
    """A two-input gate: both operands as body parts, the gate's name as a field."""
    return "gate", pack_parts([to_bytes(ca), to_bytes(cb)]), {"gate": name}


def lut_request(table: int, operands: Sequence[LweSample]) -> Request:
    """A programmable-bootstrap LUT: the operands as body parts, the truth
    table as a field."""
    return "lut", pack_parts([to_bytes(op) for op in operands]), {"table": int(table)}


def circuit_request(circuit: Circuit, inputs: LweBatch) -> Request:
    """A compiled netlist (circuit JSON, a field) over one batch of its input
    bits in declaration order; the reply batch holds its output bits so."""
    fields = {"circuit": json.loads(circuit_to_json(circuit))}
    return "circuit", pack_parts([to_bytes(inputs)]), fields


def radix_add_request(x, y) -> Request:
    """A homomorphic addition of two radix integers, each a body part."""
    return "radix_add", pack_parts([to_bytes(x), to_bytes(y)]), {}


def reply_artifact(body) -> Any:
    """The one artifact a ``gate``, ``lut``, ``circuit`` or ``radix_add``
    reply body carries."""
    return from_bytes(unpack_parts(body, expected=1)[0])


# --------------------------------------------------------------------------- #
# synchronous client                                                          #
# --------------------------------------------------------------------------- #


class ServingClient:
    """Synchronous, pipelining client of the serving front.

    Every request gets a fresh ``id``; :meth:`submit` sends without waiting
    and :meth:`result` reads frames (buffering out-of-order replies) until
    that id's response arrives — so a client can keep many gates in flight
    and let the server coalesce them into one flush.  The convenience
    methods (:meth:`gate`, :meth:`lut`, :meth:`run_circuit`, ...) are
    submit-then-result round trips.

    Error frames raise the typed :class:`ServerError` taxonomy
    (:class:`ServerBusy`, :class:`ServerDraining`, :class:`JobShed`,
    :class:`JobAbortedError`, ... — see :func:`error_class_for_kind`), so
    callers can branch on ``retryable``.

    ``session`` opts this client into the server's **session recovery**: the
    token is attached to every request, the server namespaces key state and
    keeps a bounded result cache under it, and a request id resent on a later
    connection with the same token returns the cached result instead of
    re-executing (exactly-once retries).  The
    :class:`repro.runtime.resilient.ResilientClient` drives this; plain
    clients may also pass their own token.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8470,
        timeout: Optional[float] = 60.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        session: Optional[str] = None,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.max_frame = max_frame
        self.session = session
        self._next_id = 0
        self._replies: Dict[int, Tuple[Dict[str, Any], bytes]] = {}
        #: Unsolicited server event headers (e.g. ``{"event": "draining"}``),
        #: collected by :meth:`result` as they arrive.
        self.events: List[Dict[str, Any]] = []

    # -- plumbing ----------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def submit(
        self,
        op: str,
        body: Union[Buffer, Sequence[Buffer]] = b"",
        request_id: Optional[int] = None,
        **fields: Any,
    ) -> int:
        """Send one request frame; returns its id (see :meth:`result`).

        ``body`` is one buffer or a list of pieces (:func:`parts_pieces`),
        which go out unjoined — see :func:`frame_pieces`.

        ``request_id`` defaults to the next value of this client's monotonic
        counter; a resubmitting caller (the resilient client, after a
        reconnect) passes the *original* id explicitly so the server's
        session cache can deduplicate the retry.
        """
        if request_id is None:
            request_id = self._next_id
        self._next_id = max(self._next_id, request_id) + 1
        header = {"op": op, "id": request_id, **fields}
        if self.session is not None:
            header.setdefault("session", self.session)
        _send_pieces(self._sock, frame_pieces(header, body))
        return request_id

    def result(self, request_id: int) -> Tuple[Dict[str, Any], bytes]:
        """Wait for the response to ``request_id``; raises server errors,
        including the id -1 error frame of a frame the server could not read
        (its ``retryable`` says whether a resend may succeed)."""
        while request_id not in self._replies:
            header, body = read_frame(self._sock, self.max_frame)
            reply_id = header.get("id")
            if not isinstance(reply_id, int) or reply_id == -1:
                # An id -1 error frame: the server could not read a frame of ours.
                raise_for_reply(header)
                if "event" in header:
                    self.events.append(header)  # unsolicited notice, not a reply
                    continue
                raise BadHeader(f"response frame without a request id: {header}")
            self._replies[reply_id] = (header, body)
        header, body = self._replies.pop(request_id)
        raise_for_reply(header)
        return header, body

    def call(
        self, op: str, body: bytes = b"", **fields: Any
    ) -> Tuple[Dict[str, Any], bytes]:
        """One submit + result round trip."""
        return self.result(self.submit(op, body, **fields))

    # -- protocol ops ------------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        """Handshake: returns server identity and protocol version."""
        header, _ = self.call("hello")
        return header

    def register_key(self, cloud_key) -> Dict[str, Any]:
        """Upload this connection's cloud key (its serialized artifact).

        The server evaluates the key on the engine its ``transform_spec``
        records; the reply header reports it (``engine_kind``).  A kind the
        server has not registered raises a :class:`ServerError` of kind
        ``unsupported_engine`` whose message lists the registered kinds.
        """
        op, body, fields = register_key_request(cloud_key)
        header, _ = self.call(op, body, **fields)
        return header

    def submit_gate(self, name: str, ca: LweSample, cb: LweSample) -> int:
        op, body, fields = gate_request(name, ca, cb)
        return self.submit(op, body, **fields)

    def gate_result(self, request_id: int) -> LweSample:
        """The reply of a submitted ``gate``, ``lut`` or ``circuit``."""
        _, body = self.result(request_id)
        return reply_artifact(body)

    def gate(self, name: str, ca: LweSample, cb: LweSample) -> LweSample:
        """One homomorphic gate round trip."""
        return self.gate_result(self.submit_gate(name, ca, cb))

    def submit_lut(self, table: int, operands: Sequence[LweSample]) -> int:
        op, body, fields = lut_request(table, operands)
        return self.submit(op, body, **fields)

    def lut(self, table: int, operands: Sequence[LweSample]) -> LweSample:
        """One programmable-bootstrap LUT round trip."""
        return self.gate_result(self.submit_lut(table, operands))

    def submit_circuit(self, circuit: Circuit, inputs: LweBatch) -> int:
        """Run a compiled netlist over one batch of input bits
        (see :func:`circuit_request`)."""
        op, body, fields = circuit_request(circuit, inputs)
        return self.submit(op, body, **fields)

    def run_circuit(self, circuit: Circuit, inputs: LweBatch) -> LweBatch:
        return self.gate_result(self.submit_circuit(circuit, inputs))

    def radix_add(self, x, y):
        """Homomorphic addition of two wire-borne radix integers."""
        op, body, fields = radix_add_request(x, y)
        return self.gate_result(self.submit(op, body, **fields))
