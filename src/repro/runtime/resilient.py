"""A retrying serving client: at-least-once delivery, exactly-once results.

:class:`ResilientClient` wraps the synchronous
:class:`repro.runtime.protocol.ServingClient` with the failure handling a
real deployment needs and the chaos suite exercises:

* **Sessions.**  Every request carries a session token, so the server keeps
  the client's key registration and a bounded cache of success replies
  across reconnects (see ``FheServer`` session recovery).  Retries resend
  the *original* request id — a job that already ran is answered from the
  server's cache, never executed twice.
* **Reconnect + recovery.**  A dropped/broken/corrupted connection is torn
  down and re-dialled with capped exponential backoff and deterministic
  jitter; after the socket is back, the stored cloud key is re-registered
  (idempotent server-side) and every unacknowledged request is resubmitted
  in id order.
* **Typed retry policy.**  Errors with ``retryable = True``
  (:class:`ServerBusy`, :class:`ServerDraining`,
  :class:`ChecksumMismatch`, :class:`JobAbortedError`, transport faults)
  are retried up to ``max_attempts``; non-retryable errors
  (:class:`JobShed`, bad requests) raise immediately.
* **Deadlines.**  A per-request deadline budget bounds the total time spent
  retrying (:class:`DeadlineExceeded` once it runs out) and is forwarded to
  the server as ``deadline_ms`` so hopeless jobs are shed up front instead
  of computed into the void.

Determinism: backoff jitter comes from a seeded :class:`random.Random` and
the sleep function is injectable, so the retry schedule is reproducible in
tests (no wall-clock in the decision path).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple
import uuid

from repro.runtime.protocol import (
    DEFAULT_MAX_FRAME,
    ProtocolError,
    Request,
    ServerError,
    ServingClient,
    circuit_request,
    gate_request,
    lut_request,
    radix_add_request,
    register_key_request,
    reply_artifact,
)
from repro.runtime.protocol import _op_code
from repro.tfhe.lwe import LweBatch, LweSample
from repro.tfhe.netlist import Circuit

__all__ = ["DeadlineExceeded", "ResilientClient", "RetryStats"]

#: Ops whose frames carry a client-minted ``trace`` id.  The id lives in the
#: pending-request record, so a resubmit after a reconnect resends the *same*
#: id — server-side, the original attempt and the retry land in one trace.
_TRACED_OPS = frozenset({"gate", "lut", "circuit", "radix_add"})


class DeadlineExceeded(RuntimeError):
    """The per-request deadline budget ran out before a result arrived."""

    retryable = False


@dataclass
class RetryStats:
    """Counters of everything the resilient client did to stay correct."""

    connects: int = 0
    reconnects: int = 0
    resubmitted: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    #: Requests abandoned with :class:`DeadlineExceeded`.
    deadlines_exceeded: int = 0


@dataclass
class _Pending:
    """One unacknowledged request: everything needed to resend it."""

    op: str
    #: One buffer, or a list of pieces (a cloud key's own arrays, unjoined).
    body: Any
    fields: Dict[str, Any] = field(default_factory=dict)
    deadline_at: Optional[float] = None


class ResilientClient:
    """Retrying, reconnecting front over :class:`ServingClient`.

    Parameters
    ----------
    host, port:
        The serving endpoint.
    session:
        Session token; defaults to a fresh random one.  Two clients sharing
        a token share server-side key state and reply cache — don't.
    max_attempts:
        Bound on retryable failures for one :meth:`result` wait before the
        last error is re-raised.
    base_delay, max_delay:
        Capped exponential backoff: attempt ``k`` sleeps
        ``min(max_delay, base_delay * 2**(k-1))`` scaled by jitter in
        ``[0.5, 1.5)`` from the seeded ``rng``.
    default_deadline:
        Per-request deadline budget in seconds (``None`` = unbounded);
        individual submits may override it.
    timeout:
        Socket timeout for each underlying connection.
    rng, sleep:
        Injectable jitter source and sleep function (determinism in tests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8470,
        session: Optional[str] = None,
        max_attempts: int = 8,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        default_deadline: Optional[float] = None,
        timeout: Optional[float] = 60.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.host = host
        self.port = port
        self.session = session if session is not None else uuid.uuid4().hex
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.default_deadline = default_deadline
        self.timeout = timeout
        self.max_frame = max_frame
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._client: Optional[ServingClient] = None
        self._next_id = 0
        self._pending: Dict[int, _Pending] = {}
        #: Replies read off a connection before it died, keyed by request
        #: id — re-injected into the next connection's reply buffer.
        self._salvage: Dict[int, Tuple[Dict[str, Any], bytes]] = {}
        self._key: Optional[Any] = None  # the registered cloud key, replayed by _recover
        self._register_header: Optional[Dict[str, Any]] = None
        self.stats = RetryStats()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- connection management --------------------------------------------
    def _drop_connection(self) -> None:
        """Tear down the socket; salvage replies already buffered on it."""
        if self._client is not None:
            self._salvage.update(self._client._replies)
            self._client.close()
            self._client = None

    def _ensure_connected(self) -> ServingClient:
        """Dial (or re-dial) and replay session state onto the connection."""
        if self._client is not None:
            return self._client
        client = ServingClient(
            self.host,
            self.port,
            timeout=self.timeout,
            max_frame=self.max_frame,
            session=self.session,
        )
        if self.stats.connects:
            self.stats.reconnects += 1
        self.stats.connects += 1
        self._client = client
        try:
            self._recover(client)
        except BaseException:
            self._drop_connection()
            raise
        return client

    def _recover(self, client: ServingClient) -> None:
        """Re-register the key and resubmit every unacknowledged request."""
        client._next_id = self._next_id
        if self._key is not None and self._register_header is not None:
            # Idempotent on the server: same session + same key fingerprint
            # returns the cached registration reply.
            op, body, fields = register_key_request(self._key)
            client.call(op, body, **fields)
            self._next_id = client._next_id
        # Replies salvaged off the dead connection answer their requests
        # without a round trip.
        client._replies.update(self._salvage)
        self._salvage = {}
        for request_id in sorted(self._pending):
            if request_id in client._replies:
                continue
            self._send(client, request_id)
            if self.stats.reconnects:
                self.stats.resubmitted += 1

    def _send(self, client: ServingClient, request_id: int) -> None:
        pending = self._pending[request_id]
        fields = dict(pending.fields)
        # Ack: every id below the oldest unacknowledged one is consumed, so
        # the server may prune those cache entries.
        fields["ack"] = min(self._pending)
        if pending.deadline_at is not None:
            remaining_ms = max(0.0, (pending.deadline_at - time.monotonic()) * 1000.0)
            fields["deadline_ms"] = remaining_ms
        try:
            client.submit(pending.op, pending.body, request_id=request_id, **fields)
        except ValueError:
            # ServingClient.submit builds the whole frame before it sends a
            # byte (a ProtocolError is a ValueError): a request whose frame
            # cannot be built never left, and a resend would fail the same way.
            del self._pending[request_id]
            raise

    def _backoff(self, attempt: int) -> None:
        delay = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5, 1.5)
        self.stats.backoff_seconds += delay
        self._sleep(delay)

    # -- core request machinery -------------------------------------------
    def submit(
        self,
        op: str,
        body: bytes = b"",
        deadline: Optional[float] = None,
        **fields: Any,
    ) -> int:
        """Record one request as pending and (best-effort) send it.

        A send failure here is absorbed: the request stays pending and
        :meth:`result` drives reconnection and resubmission.  A request whose
        frame cannot be built (an oversized header, say) raises its
        ``ProtocolError`` or ``ValueError`` here and is not kept.
        """
        _op_code(op)  # an op no frame can carry fails here, before it is pending
        request_id = self._next_id
        self._next_id += 1
        budget = self.default_deadline if deadline is None else deadline
        already_connected = self._client is not None
        fields = dict(fields)
        if op in _TRACED_OPS:
            # Minted once and stored with the pending record: every resend of
            # this request carries the same trace id, so the server stitches
            # all delivery attempts into a single trace.
            fields.setdefault("trace", uuid.uuid4().hex)
        self._pending[request_id] = _Pending(
            op=op,
            body=body,
            fields=fields,
            deadline_at=None if budget is None else time.monotonic() + budget,
        )
        try:
            client = self._ensure_connected()
            # A freshly-dialled connection already sent this request: it was
            # pending when _recover() replayed the backlog.
            if already_connected:
                self._send(client, request_id)
        except (ConnectionError, OSError, ProtocolError, EOFError):
            if request_id not in self._pending:
                raise  # _send could not build its frame: nothing was sent
            self._drop_connection()  # result() will retry it
        return request_id

    def result(self, request_id: int) -> Tuple[Dict[str, Any], bytes]:
        """Wait for ``request_id``; retries, reconnects, never duplicates."""
        pending = self._pending.get(request_id)
        if pending is None:
            raise KeyError(f"request {request_id} is not pending on this client")
        attempts = 0
        last_error: Optional[BaseException] = None
        while True:
            if (
                pending.deadline_at is not None
                and time.monotonic() > pending.deadline_at
            ):
                self._pending.pop(request_id, None)
                self.stats.deadlines_exceeded += 1
                raise DeadlineExceeded(
                    f"request {request_id} ({pending.op}) exceeded its deadline "
                    f"after {attempts} retryable failure(s)"
                ) from last_error
            if attempts >= self.max_attempts:
                self._pending.pop(request_id, None)
                assert last_error is not None
                raise last_error
            if attempts:
                self.stats.retries += 1
                self._backoff(attempts)
            try:
                client = self._ensure_connected()
                header, body = client.result(request_id)
            except ServerError as exc:
                if not getattr(exc, "retryable", False):
                    self._pending.pop(request_id, None)
                    raise
                # The server rejected this request (busy/draining/aborted):
                # it was NOT executed, so resend it after the backoff.  A
                # draining server is also about to close the listener —
                # drop the connection so the retry re-dials.
                attempts += 1
                last_error = exc
                self._drop_connection()
                self._salvage.pop(request_id, None)  # the error frame answered it
            except (ConnectionError, OSError, EOFError, ProtocolError) as exc:
                if request_id not in self._pending:
                    raise  # _send could not build its frame: nothing was sent
                # Transport fault: reconnect and resubmit everything that
                # has no buffered reply yet.
                attempts += 1
                last_error = exc
                self._drop_connection()
            else:
                self._pending.pop(request_id, None)
                return header, body

    def call(
        self,
        op: str,
        body: bytes = b"",
        deadline: Optional[float] = None,
        **fields: Any,
    ) -> Tuple[Dict[str, Any], bytes]:
        """One resilient submit + result round trip."""
        return self.result(self.submit(op, body, deadline=deadline, **fields))

    # -- protocol ops (mirror ServingClient) -------------------------------
    def hello(self) -> Dict[str, Any]:
        header, _ = self.call("hello")
        return header

    def register_key(self, cloud_key) -> Dict[str, Any]:
        """Upload the cloud key; re-registered automatically after reconnects."""
        self._key = cloud_key
        op, body, fields = register_key_request(cloud_key)
        header, _ = self.call(op, body, **fields)
        self._register_header = dict(header)
        return header

    def _round_trip(self, request: Request, deadline: Optional[float]) -> Any:
        op, body, fields = request
        _, reply = self.call(op, body, deadline=deadline, **fields)
        return reply_artifact(reply)

    def gate(
        self,
        name: str,
        ca: LweSample,
        cb: LweSample,
        deadline: Optional[float] = None,
    ) -> LweSample:
        return self._round_trip(gate_request(name, ca, cb), deadline)

    def lut(
        self,
        table: int,
        operands: Sequence[LweSample],
        deadline: Optional[float] = None,
    ) -> LweSample:
        return self._round_trip(lut_request(table, operands), deadline)

    def run_circuit(
        self, circuit: Circuit, inputs: LweBatch, deadline: Optional[float] = None
    ) -> LweBatch:
        return self._round_trip(circuit_request(circuit, inputs), deadline)

    def radix_add(self, x, y, deadline: Optional[float] = None):
        return self._round_trip(radix_add_request(x, y), deadline)
