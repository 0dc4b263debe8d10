"""Wire protocol of the serving front: CRC-protected frames over a socket.

One frame is::

    magic (4) | header_len u32 | body_len u64 | crc32 u32 | header JSON | body

with little-endian fixed-width prefixes (matching the shared-memory segment
layout in :mod:`repro.runtime.workers`).  The **header** is a UTF-8 JSON
object — ``{"op": ..., "id": ...}`` plus op-specific fields — and the
**body** carries binary payloads: the :mod:`repro.tfhe.serialize` artifacts
(cloud keys, ciphertexts, radix integers) travel verbatim, so the wire format
is exactly the on-disk format, and circuit JSON rides in the header.  A body
holds one or more artifacts — a gate's two operands, a LUT's operand list —
as :func:`pack_parts` parts (``u32 count | (u64 len | bytes)*``);
:func:`unpack_parts` checks the count and every length and hands out
zero-copy views of the body.  A frame is *built* as a list of buffers —
:func:`frame_pieces` over :func:`parts_pieces` over
:func:`repro.tfhe.serialize.to_pieces`, the checksum chained over the pieces
— of which :func:`encode_frame`, :func:`pack_parts` and ``to_bytes`` are the
joins; a cloud key is sent as those pieces and never joined.  The async
reader takes a body its stream's buffer limit covers whole and receives a
larger one in place, into one buffer whose end is 8-byte aligned, so the
server's ``register_key`` can adopt it as the key's arrays
(:func:`repro.tfhe.serialize.from_owned_buffer`).  The ``crc32`` field covers
``header JSON + body``, so a bit-flipped frame is caught *before* any
artifact is decoded — CRC32 detects every single-bit and burst-under-32-bit
corruption, which the artifact reader's structural checks cannot (a flipped
payload bit is still a valid ciphertext).

Robustness contract (exercised by the protocol fuzz suite):

* both length prefixes are bounded *before* any allocation —
  ``header_len`` by :data:`MAX_HEADER_LEN`, the whole frame by the
  reader's ``max_frame`` (default :data:`DEFAULT_MAX_FRAME`) — so an
  adversarial prefix cannot balloon server memory;
* a connection that ends mid-frame raises :class:`TruncatedFrame`, a bad
  magic :class:`BadMagic`, a payload that fails its checksum
  :class:`ChecksumMismatch`, an unparsable header :class:`BadHeader` — all
  subclasses of :class:`ProtocolError`, which the server maps to one clean
  error frame (or a connection close for desynchronised streams), never a
  hang;
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

#: Frame magic of the CRC-protected frame layout (protocol 2 onwards).
MAGIC = b"rTF2"
#: Bumped on incompatible wire changes; ``hello`` reports it.  Version 3:
#: same frames, bodies carry flat-container artifacts (not npz); version 4:
#: container 2 (version and artifact kind in the prefix, not the JSON);
#: version 5: container 3 (a ciphertext's header is a binary head).
PROTOCOL_VERSION = 5
#: Hard ceiling on ``header_len`` (headers are small JSON objects; circuit
#: JSON rides here too, hence megabyte-scale rather than kilobyte-scale).
MAX_HEADER_LEN = 8 * 1024 * 1024
#: Default ceiling on a whole frame (prefixes + header + body).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_PREFIX = struct.Struct("<4sIQI")

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
    """The header bytes are not a JSON object with the required fields."""


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


def frame_pieces(
    header: Dict[str, Any], body: Union[Buffer, Sequence[Buffer]] = b""
) -> List[Buffer]:
    """One frame as the buffers that make it up: ``prefix + header JSON``,
    then the body's own — ``body`` is one buffer or a list of them (see
    :func:`parts_pieces`), checksummed piece by piece and never joined here.
    Sizes are validated before anything is built."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_LEN:
        raise FrameTooLarge(
            f"header is {len(header_bytes)} bytes (max {MAX_HEADER_LEN})"
        )
    pieces = list(body) if isinstance(body, (list, tuple)) else [body]
    crc, body_len = zlib.crc32(header_bytes), 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        body_len += memoryview(piece).nbytes
    return [_PREFIX.pack(MAGIC, len(header_bytes), body_len, crc) + header_bytes, *pieces]


def encode_frame(header: Dict[str, Any], body: bytes = b"") -> bytes:
    """Serialize one frame: the join of its :func:`frame_pieces`."""
    return b"".join(frame_pieces(header, body))


def _parse_prefix(prefix: bytes, max_frame: int) -> Tuple[int, int, int]:
    magic, header_len, body_len, crc = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise BadMagic(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if header_len > MAX_HEADER_LEN:
        raise FrameTooLarge(
            f"header length {header_len} exceeds {MAX_HEADER_LEN}"
        )
    total = _PREFIX.size + header_len + body_len
    if total > max_frame:
        raise FrameTooLarge(f"frame of {total} bytes exceeds {max_frame}")
    return header_len, body_len, crc


def _check_crc(actual: int, expected: int) -> None:
    if actual != expected:
        raise ChecksumMismatch(
            f"frame payload fails its checksum (crc32 {actual:#010x}, frame "
            f"claims {expected:#010x}) — corrupted in transit; safe to resend"
        )


def _parse_header(header_bytes: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadHeader(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise BadHeader("header must be a JSON object")
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
    first = sock.recv(1)
    if not first:
        raise EOFError("connection closed")
    prefix = first + _recv_exactly(sock, _PREFIX.size - 1)
    header_len, body_len, crc = _parse_prefix(prefix, max_frame)
    header_bytes = _recv_exactly(sock, header_len)
    body = _recv_exactly(sock, body_len) if body_len else b""
    _check_crc(zlib.crc32(body, zlib.crc32(header_bytes)), crc)
    return _parse_header(header_bytes), body


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
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from None
        raise TruncatedFrame(
            f"connection closed {len(exc.partial)} bytes into the frame prefix"
        ) from None
    header_len, body_len, expected = _parse_prefix(prefix, max_frame)
    try:
        header_bytes = await reader.readexactly(header_len)
        crc = zlib.crc32(header_bytes)
        if body_len <= reader._limit:
            body = await reader.readexactly(body_len) if body_len else b""
            crc = zlib.crc32(body, crc)
        else:
            body, crc = await _receive_in_place(reader, body_len, crc)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{exc.expected} bytes received)"
        ) from None
    _check_crc(crc, expected)
    return _parse_header(header_bytes), body


# --------------------------------------------------------------------------- #
# multi-part bodies                                                           #
# --------------------------------------------------------------------------- #


def parts_pieces(parts: Sequence[Union[Buffer, Sequence[Buffer]]]) -> List[Buffer]:
    """A delimited body as a list of buffers: the count, then each part's
    length before the part's own buffer(s) — a part may itself be a list of
    pieces (:func:`repro.tfhe.serialize.to_pieces`), which stay unjoined."""
    pieces: List[Buffer] = [struct.pack("<I", len(parts))]
    for part in parts:
        if isinstance(part, (list, tuple)):
            pieces.append(struct.pack("<Q", sum(memoryview(b).nbytes for b in part)))
            pieces.extend(part)
        else:
            pieces.append(struct.pack("<Q", memoryview(part).nbytes))
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
    if len(view) < 4:
        raise ProtocolError("multi-part body shorter than its count prefix")
    (count,) = struct.unpack_from("<I", view, 0)
    if expected is not None and count != expected:
        raise ProtocolError(f"expected {expected} body parts, frame has {count}")
    offset = 4
    parts: List[memoryview] = []
    for index in range(count):
        if offset + 8 > len(view):
            raise ProtocolError(f"body part {index} is missing its length prefix")
        (length,) = struct.unpack_from("<Q", view, offset)
        offset += 8
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
        """Wait for the response to ``request_id``; raises server errors."""
        while request_id not in self._replies:
            header, body = read_frame(self._sock, self.max_frame)
            reply_id = header.get("id")
            if not isinstance(reply_id, int):
                if "event" in header:
                    self.events.append(header)  # unsolicited notice, not a reply
                    continue
                raise BadHeader(f"response frame without an integer id: {header}")
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
