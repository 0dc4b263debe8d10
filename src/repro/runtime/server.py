"""The asyncio serving front: sockets in, coalesced batched bootstraps out.

Topology (see ``docs/architecture.md``)::

    clients ──frames──▶ FheServer (asyncio) ──jobs──▶ BatchScheduler ──rows──▶ dispatcher
                                                                     (inline | WorkerPool)

The event loop owns all connection state and the scheduler's queues; the
**flusher task** is the only place bootstrapping happens.  It waits for
submitted work, holds a coalescing window open so concurrent clients' jobs
land in the same flush — until the queue holds every job request the server
has seen in flight, or ``flush_interval`` at the latest — then runs
``scheduler.flush()`` in the default thread-pool executor while holding the
scheduler lock — the event loop stays responsive (handshakes, metrics,
frame parsing) but nothing touches the queues while they are being drained.

A ``gate``, ``lut`` or ``circuit`` request is a *record*, not a task: the
connection's reader validates and decodes it and submits its job in the
same turn it reads the frame (a request read while the lock is held is
parked and submitted the moment the lock is released), and the flusher
answers the record when its flush resolves the job — every frame one flush
answers for one connection leaves in one write.  The other ops (``hello``,
``metrics``, ``metrics_prom``, ``trace_export``, ``register_key``,
``radix_add``) run as one task each.  Replies go out in any order; the
protocol's request ids keep pipelined clients matched up.

Isolation and backpressure:

* **One record per client.**  Every request runs under its connection's
  :class:`_SessionState` — private to the connection, or a ``session``
  token's durable record — which registers *its own* cloud key under its
  client id; operands are validated against that key's dimension and job
  handles cannot cross client ids (enforced by the scheduler).  One client
  can never read, or compute under, another's key material — the
  cross-client-leakage property the fuzz suite checks.  Clients that upload
  the *identical* key (one tenant, many sockets) share one resident context
  and one batched call per round; identity is an exact array comparison,
  never a digest, so sharing cannot be forged.
* **Bounded queue, reject semantics.**  The scheduler is built with
  ``max_pending_jobs``; a submission beyond it fails fast with a ``busy``
  error frame the client can retry after its in-flight work drains.
* **Bounded reads, await semantics.**  A connection may have at most
  ``max_inflight`` requests read and not yet answered; past that — or while
  its unread replies fill the transport's buffer — the server simply stops
  reading its socket (TCP backpressure), so a slow or flooding client stalls
  itself, never the server's memory.
* A malformed frame (bad magic, oversized prefix, truncated stream) gets
  one best-effort error frame and the connection is closed — after a
  framing error the byte stream is not trustworthy.  Application-level
  errors (unknown gate, wrong artifact, busy) are per-request error frames
  on a healthy connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from collections import OrderedDict
from functools import partial
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.context import FheContext, same_cloud_key
from repro.runtime.scheduler import (
    BatchScheduler,
    JobAborted,
    JobHandle,
    RowDispatcher,
    SchedulerBusy,
)
from repro.runtime.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    pack_parts,
    read_frame_async,
    unpack_parts,
)
from repro.tfhe.integers import RadixEvaluator, RadixInt
from repro.tfhe.keys import TFHECloudKey
from repro.tfhe.lwe import LweBatch, LweSample
from repro.tfhe.netlist import Circuit
from repro.telemetry import DEFAULT_LATENCY_BUCKETS, Telemetry
from repro.tfhe.serialize import (
    SerializationError,
    circuit_from_json,
    from_bytes,
    from_owned_buffer,
    to_bytes,
)
from repro.tfhe.transform import UnsupportedEngine, quarantined_engines

__all__ = ["FheServer", "serve"]

#: Ops that represent homomorphic work (traced, per-session accounted).
_JOB_OPS = frozenset({"gate", "lut", "circuit", "radix_add"})
#: Job ops the reader submits as records and the flusher answers.
_RECORD_OPS = frozenset({"gate", "lut", "circuit"})
#: Ops that stay answerable during a drain.
_INTROSPECTION_OPS = frozenset({"hello", "metrics", "metrics_prom", "trace_export"})
#: Ops that run as a task of their own.
_TASK_OPS = _INTROSPECTION_OPS | {"register_key", "radix_add"}

#: ``fhe_coalesce_wait_seconds`` bounds: an early-closed window is tens of
#: microseconds, a full default one 2 ms.
_COALESCE_WAIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.25, 1.0
)
#: ``fhe_register_key_seconds`` bounds: a key already resident is compared
#: in milliseconds, a first ``paper-110bit`` key under a worker pool packs
#: its segment for seconds.
_REGISTER_KEY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
#: Entries each latency ring (flush, coalescing wait, ``register_key``)
#: keeps for the ``metrics`` percentiles and deadline shedding.
_LATENCY_WINDOW = 512

#: A request's outcome: ``("ok", reply header, reply body)`` or
#: ``("err", kind, message)``.
_Outcome = Tuple[str, Any, Any]
#: A reply's header and body.
_Reply = Tuple[Dict[str, Any], bytes]
#: A job request decoded: the call that submits its job, and the encoder
#: of the reply from the job's result.
_Job = Tuple[Callable[[], JobHandle], Callable[[Any], _Reply]]


def _percentile(values: List[float], q: float, default: float = 0.0) -> float:
    """Nearest-rank percentile of a latency ring (``default`` when empty)."""
    if not values:
        return default
    return sorted(values)[int(q * (len(values) - 1) + 0.5)]


class _RequestError(Exception):
    """Internal: maps an op failure to one ``{kind, message}`` error frame."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


def _failure(exc: Exception) -> _Outcome:
    """The error outcome a request that raised ``exc`` is answered with."""
    if isinstance(exc, _RequestError):
        return ("err", exc.kind, exc.message)
    if isinstance(exc, JobAborted):
        return ("err", "aborted", str(exc))
    if isinstance(exc, (ProtocolError, SerializationError)):
        return ("err", "bad_request", str(exc))
    return ("err", "internal", f"{type(exc).__name__}: {exc}")


def _job_failure(exc: Exception) -> _Outcome:
    """The error outcome of a job whose result raised ``exc``: a ValueError
    there is the request's (an unknown gate, an infeasible table)."""
    if isinstance(exc, ValueError):
        return ("err", "bad_request", str(exc))
    return _failure(exc)


def _sample_reply(result: LweSample) -> _Reply:
    return {}, pack_parts([to_bytes(result)])


def _circuit_reply(circuit: Circuit, outputs: Dict[str, List[LweSample]]) -> _Reply:
    ordered: List[LweSample] = []
    for name in circuit.output_wires:
        ordered.extend(outputs[name])
    return {
        "outputs": {n: len(w) for n, w in circuit.output_wires.items()}
    }, pack_parts([to_bytes(LweBatch.from_samples(ordered))])


class _SessionState:
    """Server-side state for one client — the server's only per-client record.

    A connection starts under a *private* record — no token, no reply
    cache, its connection id as scheduler client id — released (key and
    all) when the connection closes.  The first request that carries a
    ``session`` token swaps it for that token's *durable* record (refused
    once the private record has registered a key), which survives
    reconnects until it has been disconnected for ``session_ttl``: its key
    registration and a bounded cache of success replies keyed by request id
    (so retried requests are answered from the cache — exactly-once results
    under at-least-once delivery).  Both kinds keep an inflight map
    deduplicating *concurrent* duplicates of the same request.
    """

    def __init__(
        self, client_id: str, token: Optional[str] = None, cache_size: int = 0
    ) -> None:
        self.token = token
        #: Scheduler client id — a durable record's is session-scoped, so a
        #: reconnect reuses the same registered context.
        self.client_id = client_id
        self.cache_size = cache_size
        #: Set when a first ``register_key`` is read — in the reader's turn,
        #: so no session token read after it can swap the record out from
        #: under it — and cleared again if that registration fails.
        self.registered = False
        self.register_reply: Optional[Tuple[Dict[str, Any], bytes]] = None
        #: request id → (reply header, reply body); success replies only —
        #: errors are never cached, so a retry re-executes them.
        self.results: "OrderedDict[int, Tuple[Dict[str, Any], bytes]]" = OrderedDict()
        #: request id → the :class:`_Record` answering it; a concurrent
        #: duplicate joins it instead of re-executing.
        self.inflight: Dict[int, "_Record"] = {}
        #: Live connections under this record (it is built for the first).
        self.refs = 1
        self.last_seen = time.monotonic()
        #: Job-op requests served (the ``top_sessions`` view).
        self.jobs = 0

    def remember(self, request_id: int, header: Dict[str, Any], body: bytes) -> None:
        self.results[request_id] = (header, body)
        while len(self.results) > self.cache_size:
            self.results.popitem(last=False)

    def prune_acked(self, ack: Any) -> None:
        """Drop cached replies the client acknowledged (ids below ``ack``)."""
        if not isinstance(ack, int):
            return
        for request_id in [rid for rid in self.results if rid < ack]:
            del self.results[request_id]


class _Record:
    """One request being answered, and every delivery waiting for its reply.

    A job record (``gate``, ``lut``, ``circuit``) carries the call that
    submits its job, the scheduler's handle once it is submitted, and the
    encoder that turns the handle's result into the reply; the flusher
    answers it.  Any other op's record is answered by the task that runs it.
    A concurrent duplicate of the request is one more ``(connection, trace
    id)`` delivery on the original's record, never a second execution.
    """

    __slots__ = ("session", "request_id", "op", "deliveries", "submit", "handle", "encode")

    def __init__(
        self,
        session: _SessionState,
        request_id: int,
        op: str,
        conn: "_Connection",
        trace: Optional[str],
    ) -> None:
        self.session = session
        self.request_id = request_id
        self.op = op
        self.deliveries: List[Tuple[_Connection, Optional[str]]] = [(conn, trace)]
        self.submit: Optional[Callable[[], JobHandle]] = None
        self.handle: Optional[JobHandle] = None
        self.encode: Optional[Callable[[Any], _Reply]] = None


class _Connection:
    """Per-connection state: its writer, inflight bound, client record and
    the tasks of its non-job requests."""

    def __init__(self, conn_id: str, writer: asyncio.StreamWriter, max_inflight: int) -> None:
        self.conn_id = conn_id
        self.writer = writer
        #: One slot per request read and not yet answered: the reader stops
        #: when none is free, and a departure takes every slot back before
        #: its teardown runs.
        self.inflight = asyncio.Semaphore(max_inflight)
        self.max_inflight = max_inflight
        #: The record every request of this connection runs under: private
        #: until a ``session`` token swaps in that token's durable record.
        self.session = _SessionState(conn_id)
        self.tasks: set = set()


class FheServer:
    """Serves the batched-bootstrapping runtime over TCP.

    Parameters
    ----------
    dispatcher:
        Row dispatcher for the underlying :class:`BatchScheduler` — pass a
        :class:`repro.runtime.workers.WorkerPool` to shard flushes across
        processes, or ``None`` for single-process inline execution.
    host, port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    max_pending_jobs:
        Bound on the scheduler queue; submissions past it are rejected
        with a ``busy`` error frame.
    max_inflight:
        Bound on requests read and not yet answered per connection; past it
        the server stops reading that socket until replies go out.
    flush_interval:
        Ceiling, in seconds, of the coalescing window between the first
        queued job and the flush that runs it (more concurrent clients per
        batched call).  The window closes early once the queue holds as
        many jobs as the server counted in flight at the end of the
        previous flush (or at the last departure of a client holding a
        key) — nobody is left to wait for; that count is forgotten after
        the queue has sat empty for ``flush_interval``, so a cold or idle
        server waits the whole window.
    max_rows_per_call:
        Forwarded to the scheduler: chunk bound for one batched bootstrap.
    max_frame:
        Frame size ceiling for this server's connections.
    session_cache_size:
        Per-session bound on cached success replies (the idempotent-retry
        window).  Clients advance it faster via the ``ack`` header field.
    session_ttl:
        Seconds a disconnected session's state (key registration, reply
        cache) is retained; the next departure of any client after that
        reaps it.
    """

    def __init__(
        self,
        dispatcher: Optional[RowDispatcher] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_jobs: Optional[int] = 1024,
        max_inflight: int = 64,
        flush_interval: float = 0.002,
        max_rows_per_call: Optional[int] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        session_cache_size: int = 256,
        session_ttl: float = 300.0,
    ) -> None:
        #: Unified metrics + tracing sink, always on.
        self.telemetry = Telemetry()
        self.scheduler = BatchScheduler(
            max_rows_per_call=max_rows_per_call,
            dispatcher=dispatcher,
            max_pending_jobs=max_pending_jobs,
            telemetry=self.telemetry,
        )
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.flush_interval = flush_interval
        self.max_frame = max_frame
        self._server: Optional[asyncio.base_events.Server] = None
        self._flusher: Optional[asyncio.Task] = None
        #: Held by whoever touches the scheduler off the loop (a flush, a key
        #: registration, a radix add) or deregisters a client; see
        #: :meth:`_exclusive`.
        self._lock = asyncio.Lock()
        self._work_ready = asyncio.Event()
        #: Set when the open coalescing window has nothing left to wait for:
        #: when a queued job completes the population, by the departure of
        #: a client it was waiting for, by the window's timer
        #: (``flush_interval`` passed) or by ``drain``.
        self._window_closed = asyncio.Event()
        #: Monotonic time the first job of the open window queued, or None.
        self._window_opened: Optional[float] = None
        #: Job records accepted (submitted or parked) and not yet answered.
        self._jobs_inflight = 0
        #: ``_jobs_inflight`` at the end of the last flush — the jobs it ran
        #: plus those parked meanwhile, i.e. every job that can arrive in the
        #: next window — or at the last departure of a client holding a key.
        #: None while unknown.
        self._population: Optional[int] = None
        #: Monotonic time the last flush ended; the population expires once
        #: the queue has sat empty for ``flush_interval`` past it.
        self._queue_emptied = 0.0
        #: Job records submitted to the scheduler, awaiting their flush.
        self._waiters: List[_Record] = []
        #: Job records read while the lock was held, submitted on release.
        self._parked: List[_Record] = []
        self._connections: Dict[str, _Connection] = {}
        self._conn_counter = 0
        self._flush_seconds: List[float] = []
        #: Waited coalescing windows, one per flush (same ring bound).
        self._window_seconds: List[float] = []
        #: Estimated time to result for deadline shedding — the median
        #: window plus the median flush, recomputed when a flush ends (the
        #: only time the rings change); the whole window before the first.
        self._eta = flush_interval
        #: ``register_key`` requests, header parsed to reply queued.
        self._register_seconds: List[float] = []
        self._busy_seconds = 0.0
        self._started_at: Optional[float] = None
        self.session_cache_size = session_cache_size
        self.session_ttl = session_ttl
        self._sessions: Dict[str, _SessionState] = {}
        self._draining = False
        self._drain_seconds: Optional[float] = None
        self._jobs_deduped = 0
        self._jobs_shed = 0
        self._bind_metrics(self.telemetry)

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener and start the flusher task."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._flusher = asyncio.create_task(self._flush_loop())

    async def stop(self) -> None:
        """Close the listener and all connections, and fail every job record."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        for conn in list(self._connections.values()):
            conn.writer.close()
        records, self._waiters, self._parked = self._waiters + self._parked, [], []
        self._fail(records, RuntimeError("server stopped"))

    async def drain(self, timeout: Optional[float] = 30.0) -> float:
        """Graceful drain: stop admitting work, finish everything accepted.

        Closes the listener, pushes a ``draining`` event frame to every
        connected client (so retrying clients fail over instead of queueing
        on a dying server), rejects new job submissions with a retryable
        ``draining`` error, and waits until the scheduler queue, the job
        records (submitted or parked) and every request task have resolved
        — every job accepted before the drain started gets its reply.
        Returns the drain duration in seconds (also surfaced in
        :meth:`metrics`).
        """
        begin = time.monotonic()
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        event = encode_frame({"event": "draining"})
        self._write({conn: [(event, None)] for conn in self._connections.values()})
        deadline = None if timeout is None else begin + timeout
        while True:
            idle = not (self.scheduler.pending_jobs or self._waiters or self._parked)
            if idle and all(not c.tasks for c in self._connections.values()):
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            # Poke the flusher and close its window: no new work will arrive.
            self._work_ready.set()
            self._window_closed.set()
            await asyncio.sleep(0.005)
        self._drain_seconds = time.monotonic() - begin
        return self._drain_seconds

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "FheServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # the flusher: the only place bootstrapping happens                  #
    # ------------------------------------------------------------------ #

    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._work_ready.wait()
            # Coalescing window: let concurrently-arriving jobs join this
            # flush instead of paying one flush each.  One event ends it —
            # set once everyone known to be around has queued, by this
            # timer at the flush_interval ceiling, or by drain().
            if self.flush_interval:
                timer = loop.call_later(self.flush_interval, self._window_closed.set)
                try:
                    await self._window_closed.wait()
                finally:
                    timer.cancel()
            async with self._exclusive():
                await self._flush_queued()

    @contextlib.asynccontextmanager
    async def _exclusive(self):
        """Hold the scheduler lock; job records read meanwhile are parked
        and submitted, in arrival order, the moment it is released."""
        try:
            async with self._lock:
                yield
        finally:
            self._admit_parked()

    async def _flush_queued(self) -> None:
        """One flush of everything queued (lock held, flusher only).

        Consumes the open window, runs the scheduler off-loop, re-measures
        who is around for the next window and answers the settled records.
        """
        self._work_ready.clear()
        self._window_closed.clear()
        opened, self._window_opened = self._window_opened, None
        if not self.scheduler.pending_jobs:
            self._answer_waiters()
            return
        begin = time.monotonic()
        waited = begin - opened if opened is not None else 0.0
        try:
            await asyncio.get_running_loop().run_in_executor(None, self.scheduler.flush)
        except Exception as exc:  # noqa: BLE001 - surfaced per-request
            records, self._waiters = self._waiters, []
            self._fail(records, exc)
            return
        self._queue_emptied = time.monotonic()
        # The records this flush answers are still counted (they are
        # answered below), and so is every one parked meanwhile: the
        # population of the next window.
        self._population = self._jobs_inflight
        elapsed = self._queue_emptied - begin
        self._busy_seconds += elapsed
        self._flush_seconds.append(elapsed)
        del self._flush_seconds[:-_LATENCY_WINDOW]
        self._window_seconds.append(waited)
        del self._window_seconds[:-_LATENCY_WINDOW]
        self._eta = _percentile(self._window_seconds, 0.50) + _percentile(
            self._flush_seconds, 0.50
        )
        self.telemetry.observe(
            "fhe_flush_seconds",
            elapsed,
            "Wall time of one scheduler flush.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.telemetry.observe(
            "fhe_coalesce_wait_seconds",
            waited,
            "First queued job to the start of the flush that ran it.",
            buckets=_COALESCE_WAIT_BUCKETS,
        )
        self._answer_waiters()

    def _answer_waiters(self) -> None:
        """Answer every submitted record whose job has settled."""
        replies: Dict[_Connection, List] = {}
        unresolved = []
        for record in self._waiters:
            if not record.handle.done:
                unresolved.append(record)
                continue
            self._jobs_inflight -= 1
            try:
                result = record.handle.result()
            except Exception as exc:  # aborted / failed job
                outcome: _Outcome = _job_failure(exc)
            else:
                try:
                    outcome = ("ok", *record.encode(result))
                except Exception as exc:  # noqa: BLE001 - unencodable result
                    outcome = _failure(exc)
            self._settle(record, outcome, replies)
        self._waiters = unresolved
        self._write(replies)

    def _fail(self, records: List[_Record], exc: Exception) -> None:
        replies: Dict[_Connection, List] = {}
        for record in records:
            self._jobs_inflight -= 1
            self._settle(record, _job_failure(exc), replies)
        self._write(replies)

    def _submit_record(self, record: _Record) -> None:
        """Submit a job record now, or park it while the lock is held."""
        if self._lock.locked():
            self._parked.append(record)
        else:
            self._enqueue(record)
        self._jobs_inflight += 1

    def _admit_parked(self) -> None:
        if self._lock.locked():  # its holder admits them on release
            return
        parked, self._parked = self._parked, []
        for record in parked:
            try:
                self._enqueue(record)
            except Exception as exc:  # noqa: BLE001 - one request, one error frame
                self._jobs_inflight -= 1
                self._settle(record, _failure(exc))

    def _enqueue(self, record: _Record) -> None:
        """Submit a record's job to the scheduler (lock free, on the loop)."""
        try:
            record.handle = record.submit()
        except SchedulerBusy as exc:
            raise _RequestError("busy", str(exc)) from None
        except ValueError as exc:  # unknown gate name, infeasible table / arity
            raise _RequestError("bad_request", str(exc)) from None
        self._waiters.append(record)
        self._note_queued()

    def _note_queued(self) -> None:
        """A job was queued (lock free): open the window, or close it."""
        if self._window_opened is None:
            self._window_opened = time.monotonic()
            if self._window_opened - self._queue_emptied > self.flush_interval:
                # Idle for longer than a window: who is around is no longer
                # known, so a burst after idle coalesces as on a cold server.
                self._population = None
        self._work_ready.set()
        if (
            self._population is not None
            and self.scheduler.pending_jobs >= self._population
        ):
            self._window_closed.set()

    # ------------------------------------------------------------------ #
    # metrics                                                            #
    # ------------------------------------------------------------------ #

    def metrics(self) -> Dict[str, Any]:
        """Live snapshot: throughput, queue depth, latency, worker health."""
        stats = self.scheduler.stats
        uptime = self._uptime()
        residents = self.scheduler.residents
        busy = self._busy_seconds
        # Live records only: durable sessions and open connections' own.
        records = list(self._sessions.values()) + [
            c.session for c in self._connections.values() if c.session.token is None
        ]
        snapshot: Dict[str, Any] = {
            "uptime_seconds": uptime,
            "busy_fraction": busy / uptime if uptime else 0.0,
            "connections": len(self._connections),
            "clients": sum(len(r.queues) for r in residents),
            "resident_keys": len(residents),
            "resident_key_bytes": sum(r.context.resident_bytes for r in residents),
            "queue_depth": self.scheduler.pending_jobs,
            "awaiting_results": self._awaiting_results(),
            "flushes": stats.flushes,
            "rows_bootstrapped": stats.rows_bootstrapped,
            "jobs_completed": stats.jobs_completed,
            "mean_rows_per_call": stats.mean_rows_per_call,
            "bootstraps_per_sec": (
                stats.rows_bootstrapped / busy if busy else 0.0
            ),
            "flush_latency_p50": _percentile(self._flush_seconds, 0.50),
            "flush_latency_p99": _percentile(self._flush_seconds, 0.99),
            "coalesce_wait_p50": _percentile(self._window_seconds, 0.50),
            "register_key_p50": _percentile(self._register_seconds, 0.50),
            "sessions": len(self._sessions),
            "jobs_deduped": self._jobs_deduped,
            "jobs_shed": self._jobs_shed,
            "jobs_aborted": stats.jobs_aborted,
            "engine_failovers": stats.engine_failovers,
            "inline_fallbacks": stats.inline_fallbacks,
            "draining": self._draining,
            "drain_seconds": self._drain_seconds or 0.0,
            "top_sessions": [
                {"client": record.client_id, "jobs": record.jobs}
                for record in sorted(records, key=lambda r: -r.jobs)[:5]
                if record.jobs
            ],
        }
        snapshot["engines_quarantined"] = quarantined_engines()
        dispatcher = self.scheduler.dispatcher
        pool_stats = getattr(dispatcher, "stats", None)
        health = getattr(dispatcher, "health", None)
        if health is not None and pool_stats is not None:
            snapshot["pool"] = {
                "num_workers": getattr(dispatcher, "num_workers", None),
                "tasks_dispatched": pool_stats.tasks_dispatched,
                "tasks_completed": pool_stats.tasks_completed,
                "tasks_retried": pool_stats.tasks_retried,
                "workers_restarted": pool_stats.workers_restarted,
                "results_rejected": pool_stats.results_rejected,
                "breaker_trips": pool_stats.breaker_trips,
                "inline_fallbacks": pool_stats.inline_fallbacks,
                "breaker_open": bool(getattr(dispatcher, "breaker_open", False)),
                "workers": [
                    {
                        "spawn_index": w.spawn_index,
                        "pid": w.pid,
                        "alive": w.alive,
                        "tasks_completed": w.tasks_completed,
                        "faults": w.faults,
                    }
                    for w in health
                ],
            }
        return snapshot

    def _awaiting_results(self) -> int:
        return len(self._waiters) + len(self._parked)

    def _uptime(self) -> float:
        return time.monotonic() - self._started_at if self._started_at else 0.0

    def _bind_metrics(self, tel: Telemetry) -> None:
        """Expose the server's own counters and point-in-time state as
        registry families read at scrape; nothing here is stored twice."""
        counter, gauge = tel.registry.bind_counter, tel.registry.bind_gauge
        scheduler = self.scheduler
        counter(
            "fhe_server_busy_seconds_total",
            "Monotonic seconds the flusher spent bootstrapping.",
            lambda: self._busy_seconds,
        )
        counter(
            "fhe_jobs_deduped_total",
            "Requests answered without re-executing.",
            lambda: self._jobs_deduped,
        )
        counter(
            "fhe_jobs_shed_total",
            "Jobs rejected up front by deadline shedding.",
            lambda: self._jobs_shed,
        )
        counter(
            "fhe_trace_spans_dropped_total",
            "Spans the bounded trace ring dropped to make room.",
            lambda: tel.tracer.dropped,
        )
        gauge("fhe_server_uptime_seconds", "Seconds since start()", self._uptime)
        gauge(
            "fhe_server_draining",
            "1 while a graceful drain is running.",
            lambda: self._draining,
        )
        gauge("fhe_connections", "Live client connections.", lambda: len(self._connections))
        gauge("fhe_sessions_active", "Durable sessions held.", lambda: len(self._sessions))
        gauge("fhe_queue_depth", "Scheduler jobs pending flush.", lambda: scheduler.pending_jobs)
        gauge(
            "fhe_awaiting_results",
            "Requests awaiting a flushed reply.",
            self._awaiting_results,
        )
        gauge(
            "fhe_resident_keys",
            "Distinct cloud keys held resident.",
            lambda: len(scheduler.residents),
        )
        gauge(
            "fhe_resident_key_bytes",
            "Bytes of resident cloud keys and their spectrum caches (by shape); "
            "an upload lands in the buffer its arrays view, so RSS grows by this.",
            lambda: sum(r.context.resident_bytes for r in scheduler.residents),
        )
        pool = scheduler.dispatcher
        if getattr(pool, "health", None) is not None:
            gauge(
                "fhe_pool_workers_alive",
                "Pool workers currently alive.",
                lambda: sum(1 for w in pool.health if w.alive),
            )
            gauge(
                "fhe_pool_breaker_open",
                "1 while the refork breaker is open.",
                lambda: pool.breaker_open,
            )

    def render_prometheus(self) -> str:
        """The ``metrics_prom`` payload: the registry rendered, bound
        families read now."""
        return self.telemetry.render_prometheus()

    # ------------------------------------------------------------------ #
    # connections                                                        #
    # ------------------------------------------------------------------ #

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_counter += 1
        conn = _Connection(
            f"conn{self._conn_counter}", writer, self.max_inflight
        )
        self._connections[conn.conn_id] = conn
        try:
            while True:
                # Await semantics: stop *reading* once max_inflight requests
                # are unanswered, or while the peer leaves its replies unread
                # — the kernel socket buffer, then the client, absorb the
                # backpressure.
                await conn.inflight.acquire()
                try:
                    await writer.drain()
                    header, body = await read_frame_async(reader, self.max_frame)
                except ProtocolError as exc:
                    self._deliver(conn, -1, None, None, ("err", "protocol", str(exc)))
                    break  # the stream is desynchronised: drop the peer
                except (EOFError, ConnectionError):
                    conn.inflight.release()
                    break
                except asyncio.CancelledError:
                    conn.inflight.release()
                    raise
                self._accept(conn, header, body)
                # A task's request owns its body now: a key upload that turns
                # out to be a duplicate is freed with it, not at the next frame.
                del header, body
            # Every request holds a slot until its reply is written: holding
            # them all, every request of this connection has been answered.
            for _ in range(conn.max_inflight):
                await conn.inflight.acquire()
        except asyncio.CancelledError:
            # Server stopping with this connection live — stop() has failed
            # every job record and the loop is cancelling every task — so
            # tear down without waiting for replies, and quietly (asyncio's
            # stream callback would log the cancellation as an error).
            pass
        finally:
            await self._cleanup_connection(conn)

    async def _cleanup_connection(self, conn: _Connection) -> None:
        """Every departure's teardown; every request of ``conn`` has been
        answered (or failed by :meth:`stop`), so none of its jobs is queued."""
        self._connections.pop(conn.conn_id, None)
        record = conn.session
        record.refs -= 1
        record.last_seen = time.monotonic()
        async with self._exclusive():
            if record.token is None:
                self._release(record)
            self._reap_sessions()
            if record.registered:
                # One client fewer to wait for: re-measure who is around, as
                # after a flush, and stop holding the open window for it.
                self._population = self._jobs_inflight
                if (
                    self._window_opened is not None
                    and self.scheduler.pending_jobs >= self._population
                ):
                    self._window_closed.set()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    def _reap_sessions(self) -> None:
        """Drop sessions with no live connection past their TTL (lock held)."""
        now = time.monotonic()
        for token in [
            t
            for t, sess in self._sessions.items()
            if sess.refs <= 0 and now - sess.last_seen > self.session_ttl
        ]:
            self._release(self._sessions.pop(token))

    def _release(self, record: _SessionState) -> None:
        """Deregister a departed record's key, if it holds one (lock held)."""
        if record.registered:
            try:
                self.scheduler.deregister_client(record.client_id, force=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    # ------------------------------------------------------------------ #
    # replies                                                            #
    # ------------------------------------------------------------------ #

    def _settle(
        self,
        record: _Record,
        outcome: _Outcome,
        replies: Optional[Dict[_Connection, List]] = None,
    ) -> None:
        """Answer every delivery of ``record`` — written now, or gathered
        into ``replies`` for one write per connection."""
        sess = record.session
        if sess.inflight.get(record.request_id) is record:
            del sess.inflight[record.request_id]
        if outcome[0] == "ok":
            # Cache BEFORE sending: if the peer vanished mid-reply, the
            # computed result still answers the retry.
            sess.remember(record.request_id, outcome[1], outcome[2])
        for conn, trace in record.deliveries:
            self._deliver(conn, record.request_id, record.op, trace, outcome, replies)

    def _deliver(
        self,
        conn: _Connection,
        request_id: int,
        op: Optional[str],
        trace: Optional[str],
        outcome: _Outcome,
        replies: Optional[Dict[_Connection, List]] = None,
    ) -> None:
        """One reply frame for one request of ``conn``, which frees its slot.

        A traced delivery records one ``reply`` span when its frame is
        written, so a retried request answered from the reply cache shows
        one trace with two ``reply`` spans — the signature the chaos suite
        asserts on.
        """
        if outcome[0] == "ok":
            reply_header = dict(outcome[1])
            reply_header["id"] = request_id
            frame = encode_frame(reply_header, outcome[2])
        else:
            error = {"kind": outcome[1], "message": outcome[2]}
            frame = encode_frame({"id": request_id, "error": error})
        span = None
        if trace is not None:
            span = (trace, {"op": op, "status": outcome[0], "request": request_id})
        conn.inflight.release()
        if replies is None:
            self._write({conn: [(frame, span)]})
        else:
            replies.setdefault(conn, []).append((frame, span))

    def _write(self, replies: Dict[_Connection, List]) -> None:
        """Each connection's frames in one write, then their ``reply`` spans."""
        tracer = self.telemetry.tracer
        for conn, frames in replies.items():
            start_wall = time.time()
            start_perf = time.perf_counter()
            if not conn.writer.is_closing():  # a departed peer reads nothing
                data = frames[0][0] if len(frames) == 1 else b"".join(f for f, _ in frames)
                conn.writer.write(data)
            duration = time.perf_counter() - start_perf
            for _frame, span in frames:
                if span is not None:
                    tracer.record(
                        "reply", span[0], start=start_wall, duration=duration, attrs=span[1]
                    )

    # ------------------------------------------------------------------ #
    # request dispatch                                                   #
    # ------------------------------------------------------------------ #

    def _accept(self, conn: _Connection, header: Dict[str, Any], body: bytes) -> None:
        """Take one request in the reader's turn: answer it from the reply
        cache, join it to its in-flight original, submit it as a job record,
        or start the task that runs it."""
        request_id = header.get("id")
        op = header.get("op")
        trace = None
        if op in _JOB_OPS:
            trace = header.get("trace")
            if not (isinstance(trace, str) and trace):
                # Mint one server-side so the whole enqueue → flush → reply
                # path still joins one trace.
                trace = header["trace"] = self.telemetry.tracer.new_trace_id()
        if not isinstance(request_id, int):
            outcome = ("err", "protocol", "request header lacks an integer 'id'")
            self._deliver(conn, -1, op, trace, outcome)
            return
        try:
            sess = self._bind_session(conn, header)
            # Idempotent path: a retried request id is answered from the
            # record's reply cache (or joins its in-flight original)
            # instead of executing twice.  A private record caches nothing.
            sess.prune_acked(header.get("ack"))
            cached = sess.results.get(request_id)
            if cached is not None:
                self._jobs_deduped += 1
                self._deliver(conn, request_id, op, trace, ("ok", *cached))
                return
            original = sess.inflight.get(request_id)
            if original is not None:
                self._jobs_deduped += 1
                original.deliveries.append((conn, trace))
                return
            record = _Record(sess, request_id, self._admit(conn, header), conn, trace)
            if op in _RECORD_OPS:
                record.submit, record.encode = self._job(conn, header, body)
                self._submit_record(record)
            else:
                if op == "register_key":
                    # Claimed in the reader's turn, so a session token read
                    # after it is refused as if the key were registered.
                    work = self._op_register_key(sess, header, body, not sess.registered)
                    sess.registered = True
                else:
                    work = self._dispatch(conn, op, header, body)
                task = asyncio.create_task(self._run_task(record, work))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
            sess.inflight[request_id] = record
        except Exception as exc:  # noqa: BLE001 - one request, one error frame
            self._deliver(conn, request_id, op, trace, _failure(exc))

    def _admit(self, conn: _Connection, header: Dict[str, Any]) -> str:
        """The checks a new request passes before it runs; returns its op."""
        op = header.get("op")
        if not isinstance(op, str):
            raise _RequestError("protocol", "request header lacks a string 'op' field")
        self.telemetry.count("fhe_requests_total", "Requests dispatched by op.", op=op)
        if op in _INTROSPECTION_OPS:
            return op
        if self._draining:
            # Introspection stays up during a drain; work admission stops.
            raise _RequestError(
                "draining", "server is draining and no longer accepts new work"
            )
        if op in _JOB_OPS:
            self._check_deadline(header)
            conn.session.jobs += 1
        if op not in _RECORD_OPS and op not in _TASK_OPS:
            raise _RequestError("unsupported", f"unknown op {op!r}")
        return op

    async def _run_task(self, record: _Record, work: Awaitable) -> None:
        outcome: _Outcome = ("err", "aborted", "request cancelled before completion")
        try:
            outcome = ("ok", *await work)
        except Exception as exc:  # noqa: BLE001 - one request, one error frame
            outcome = _failure(exc)
        finally:
            self._settle(record, outcome)

    async def _dispatch(
        self, conn: _Connection, op: str, header: Dict[str, Any], body: bytes
    ) -> _Reply:
        """Run an op that keeps a task of its own (``register_key`` aside)."""
        if op == "hello":
            return {"server": "repro-serve", "protocol": PROTOCOL_VERSION}, b""
        if op == "metrics":
            return {"metrics": self.metrics()}, b""
        if op == "metrics_prom":
            # Prometheus text exposition; like "metrics", introspection stays
            # available during a drain.
            return (
                {"content_type": "text/plain; version=0.0.4"},
                self.render_prometheus().encode("utf-8"),
            )
        if op == "trace_export":
            return self._op_trace_export(header)
        return await self._op_radix_add(conn, body)

    def _job(self, conn: _Connection, header: Dict[str, Any], body: bytes) -> _Job:
        """A job op's request, validated and decoded: the call that submits
        its job and the encoder of its reply."""
        op = header["op"]
        if op == "gate":
            return self._op_gate(conn, header, body)
        if op == "lut":
            return self._op_lut(conn, header, body)
        return self._op_circuit(conn, header, body)

    def _bind_session(self, conn: _Connection, header: Dict[str, Any]) -> _SessionState:
        """The record this request runs under: the connection's, or — on the
        first ``session`` token — that token's durable record swapped in."""
        token = header.get("session")
        if token is None:
            return conn.session
        if not isinstance(token, str) or not token:
            raise _RequestError("protocol", "'session' must be a non-empty string")
        if token == conn.session.token:
            return conn.session
        if conn.session.token is not None:
            raise _RequestError(
                "protocol", "connection is already bound to a different session"
            )
        if conn.session.registered:
            raise _RequestError(
                "protocol",
                "a 'session' token must come before register_key: "
                "this connection already registered a key without one",
            )
        sess = self._sessions.get(token)
        if sess is None:
            sess = _SessionState(f"sess-{token}", token, self.session_cache_size)
            self._sessions[token] = sess
        else:
            sess.refs += 1
        conn.session = sess
        return sess

    def _note_register_key(self, elapsed: float) -> None:
        """What one accepted ``register_key`` cost, header parsed to reply queued."""
        self._register_seconds.append(elapsed)
        del self._register_seconds[:-_LATENCY_WINDOW]
        self.telemetry.observe(
            "fhe_register_key_seconds",
            elapsed,
            "One register_key request, header parsed to reply queued.",
            buckets=_REGISTER_KEY_BUCKETS,
        )

    def _op_trace_export(self, header: Dict[str, Any]) -> _Reply:
        """Export the trace ring: Chrome trace-event (default) or span JSON.

        ``trace`` narrows the export to one trace id; ``format`` selects
        ``"chrome"`` (trace-event JSON for chrome://tracing / Perfetto) or
        ``"json"`` (plain span dicts).
        """
        tel = self.telemetry
        trace_id = header.get("trace")
        if trace_id is not None and not isinstance(trace_id, str):
            raise _RequestError("bad_request", "'trace' must be a string trace id")
        fmt = header.get("format", "chrome")
        if fmt == "chrome":
            payload = tel.tracer.export_chrome(trace_id)
        elif fmt == "json":
            payload = tel.tracer.export_json(trace_id)
        else:
            raise _RequestError(
                "bad_request", f"unknown trace format {fmt!r} (chrome|json)"
            )
        return (
            {"format": fmt, "spans": len(tel.tracer.spans(trace_id))},
            payload.encode("utf-8"),
        )

    def _check_deadline(self, header: Dict[str, Any]) -> None:
        """Deadline-aware load shedding: reject work that cannot make it.

        A client may send ``deadline_ms`` (its remaining per-request
        budget); when the estimated time-to-result — the median coalescing
        window recent flushes waited (``flush_interval`` before the first
        flush) plus the median flush latency, kept in ``_eta`` — already
        exceeds it, the job is shed up front with a typed non-retryable
        error instead of burning a bootstrap whose reply the client will
        have abandoned.
        """
        deadline_ms = header.get("deadline_ms")
        if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool):
            return
        if deadline_ms / 1000.0 < self._eta:
            self._jobs_shed += 1
            raise _RequestError(
                "shed",
                f"deadline of {deadline_ms:.0f}ms cannot be met "
                f"(estimated time to result {self._eta * 1000.0:.1f}ms)",
            )

    def _context(self, conn: _Connection) -> FheContext:
        try:
            return self.scheduler.client_context(conn.session.client_id)
        except KeyError:
            raise _RequestError(
                "no_key", "register_key must precede homomorphic operations"
            ) from None

    def _artifact(self, data: bytes, expected_type, what: str, decode=from_bytes):
        try:
            artifact = decode(data)
        except SerializationError as exc:
            raise _RequestError("bad_request", f"{what}: {exc}") from None
        if not isinstance(artifact, expected_type):
            raise _RequestError(
                "bad_request",
                f"{what}: expected {expected_type.__name__}, "
                f"got {type(artifact).__name__}",
            )
        return artifact

    def _check_sample(self, conn: _Connection, sample: LweSample, what: str) -> LweSample:
        n = self._context(conn).params.n
        if np.asarray(sample.a).shape[-1] != n:
            raise _RequestError(
                "bad_request",
                f"{what}: ciphertext dimension {np.asarray(sample.a).shape[-1]} "
                f"does not match this connection's key (n={n})",
            )
        return sample

    # -- ops ------------------------------------------------------------

    async def _op_register_key(
        self, sess: _SessionState, header: Dict[str, Any], body: bytes, claimed: bool
    ) -> _Reply:
        """Register ``sess``'s key — or, on a durable record that holds one,
        answer a reconnect's re-registration.

        ``claimed``: the record was unregistered when this request was read,
        and :meth:`_accept` marked it registered then; the claim is given
        back if the registration fails.
        """
        begin = time.monotonic()
        try:
            if "engine" in header:
                raise _RequestError(
                    "bad_request",
                    "register_key takes no 'engine' field: a key runs on the "
                    "engine its own transform spec records (choose it at keygen)",
                )
            # The key's arrays *are* the request body where the frame was
            # received in place: nothing else holds that buffer, so both
            # branches adopt it (a same-key duplicate is one transient key,
            # compared and dropped).
            (key_bytes,) = unpack_parts(body, expected=1)
            if not claimed and sess.token is None:
                raise _RequestError("bad_request", "this connection already registered a key")
            cloud = self._artifact(key_bytes, TFHECloudKey, "cloud key", from_owned_buffer)
            if claimed:
                async with self._exclusive():
                    # Off-loop: a first-time key builds its context (and, for
                    # a worker pool, packs the shared segment); a key already
                    # resident is compared array by array and attached.
                    context = await asyncio.get_running_loop().run_in_executor(
                        None, self.scheduler.register_client, sess.client_id, cloud
                    )
                reply = {
                    "params": context.params.name,
                    "unroll_factor": context.unroll_factor,
                    "engine": type(context.engine).__name__,
                    "engine_kind": context.engine.engine_kind,
                }
                sess.register_reply = (dict(reply), b"")
            else:
                # Idempotent re-registration after a reconnect: the same key
                # gets the cached reply; a different key is a hard error (the
                # session's queued results were computed under the old key).
                # "Same" is the scheduler's exact identity, never a checksum.
                if sess.register_reply is None:
                    raise _RequestError("busy", "this session's key is still registering")
                held = self.scheduler.client_context(sess.client_id).cloud_key
                if not same_cloud_key(held, cloud):
                    raise _RequestError(
                        "bad_request", "session already registered a different key"
                    )
                self._jobs_deduped += 1
                reply = dict(sess.register_reply[0])
        except Exception as exc:
            if claimed:
                sess.registered = False
            if isinstance(exc, UnsupportedEngine):
                raise _RequestError("unsupported_engine", str(exc)) from None
            raise
        self._note_register_key(time.monotonic() - begin)
        return reply, b""

    def _op_gate(self, conn: _Connection, header: Dict[str, Any], body: bytes) -> _Job:
        name = header.get("gate")
        if not isinstance(name, str):
            raise _RequestError("bad_request", "gate op needs a string 'gate' field")
        part_a, part_b = unpack_parts(body, expected=2)
        ca = self._check_sample(conn, self._artifact(part_a, LweSample, "operand a"), "operand a")
        cb = self._check_sample(conn, self._artifact(part_b, LweSample, "operand b"), "operand b")
        session = self.scheduler.session(conn.session.client_id)
        trace_id = header["trace"]
        return lambda: session.submit_gate(name, ca, cb, trace_id=trace_id), _sample_reply

    def _op_lut(self, conn: _Connection, header: Dict[str, Any], body: bytes) -> _Job:
        table = header.get("table")
        if not isinstance(table, int):
            raise _RequestError("bad_request", "lut op needs an integer 'table' field")
        parts = unpack_parts(body)
        if not parts:
            raise _RequestError("bad_request", "lut op needs at least one operand")
        operands = [
            self._check_sample(
                conn,
                self._artifact(part, LweSample, f"operand {i}"),
                f"operand {i}",
            )
            for i, part in enumerate(parts)
        ]
        session = self.scheduler.session(conn.session.client_id)
        trace_id = header["trace"]
        return lambda: session.submit_lut(table, operands, trace_id=trace_id), _sample_reply

    def _op_circuit(self, conn: _Connection, header: Dict[str, Any], body: bytes) -> _Job:
        circuit_obj = header.get("circuit")
        if not isinstance(circuit_obj, dict):
            raise _RequestError("bad_request", "circuit op needs a JSON 'circuit' field")
        try:
            circuit = circuit_from_json(json.dumps(circuit_obj))
        except SerializationError as exc:
            raise _RequestError("bad_request", f"circuit: {exc}") from None
        (batch_bytes,) = unpack_parts(body, expected=1)
        batch = self._artifact(batch_bytes, LweBatch, "input batch")
        bits = [
            self._check_sample(conn, bit, f"input bit {i}")
            for i, bit in enumerate(batch.to_samples())
        ]
        widths = {name: len(w) for name, w in circuit.input_wires.items()}
        total = sum(widths.values())
        if len(bits) != total:
            raise _RequestError(
                "bad_request",
                f"circuit declares {total} input bits "
                f"({widths}), batch carries {len(bits)}",
            )
        inputs: Dict[str, List[LweSample]] = {}
        cursor = 0
        for name, wires in circuit.input_wires.items():
            inputs[name] = bits[cursor : cursor + len(wires)]
            cursor += len(wires)
        session = self.scheduler.session(conn.session.client_id)
        trace_id = header["trace"]
        return (
            lambda: session.submit_circuit(circuit, inputs, trace_id=trace_id),
            partial(_circuit_reply, circuit),
        )

    async def _op_radix_add(
        self, conn: _Connection, body: bytes
    ) -> _Reply:
        part_x, part_y = unpack_parts(body, expected=2)
        x = self._artifact(part_x, RadixInt, "operand x")
        y = self._artifact(part_y, RadixInt, "operand y")
        if x.encoding != y.encoding:
            raise _RequestError("bad_request", "radix operands use different encodings")
        for name, operand in (("x", x), ("y", y)):
            for i, digit in enumerate(operand.digits):
                self._check_sample(conn, digit, f"operand {name} digit {i}")
        context = self._context(conn)
        loop = asyncio.get_running_loop()
        async with self._exclusive():
            # Runs on the connection's own context; carry propagation (if
            # the bounds demand it) bootstraps in-process, so serialize it
            # with flushes via the same lock.
            def _add() -> RadixInt:
                evaluator = RadixEvaluator(context, x.encoding)
                return evaluator.add(x, y)

            try:
                result = await loop.run_in_executor(None, _add)
            except ValueError as exc:
                raise _RequestError("bad_request", str(exc)) from None
        return {}, pack_parts([to_bytes(result)])


async def serve(
    dispatcher: Optional[RowDispatcher] = None,
    host: str = "127.0.0.1",
    port: int = 8470,
    drain_timeout: Optional[float] = 30.0,
    **kwargs: Any,
) -> None:
    """Run an :class:`FheServer` until signalled (used by ``tools/serve.py``).

    SIGINT/SIGTERM are handled *inside* the event loop (where supported) so
    shutdown is an orderly **graceful drain** — admission stops, connected
    clients are notified, every accepted job still gets its reply — before
    the server (and the caller's worker pool / shared memory, via its
    ``finally``) is torn down.  A second signal skips the rest of the drain
    and stops immediately.
    """
    server = FheServer(dispatcher=dispatcher, host=host, port=port, **kwargs)
    await server.start()
    print(f"repro-serve listening on {server.host}:{server.port}", flush=True)
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    force_stop = asyncio.Event()
    handled = []

    def _on_signal() -> None:
        if stopping.is_set():
            force_stop.set()
        else:
            stopping.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _on_signal)
            handled.append(signum)
        except (NotImplementedError, RuntimeError):  # non-Unix / nested loop
            pass
    try:
        if handled:
            await stopping.wait()
            print("repro-serve draining...", flush=True)
            drain_task = asyncio.create_task(server.drain(timeout=drain_timeout))
            force_task = asyncio.create_task(force_stop.wait())
            done, pending = await asyncio.wait(
                {drain_task, force_task}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            if drain_task in done:
                print(
                    f"repro-serve drained in {drain_task.result():.2f}s", flush=True
                )
            else:
                print("repro-serve drain interrupted, stopping now", flush=True)
        else:
            await server.serve_forever()
    finally:
        for signum in handled:
            loop.remove_signal_handler(signum)
        await server.stop()
