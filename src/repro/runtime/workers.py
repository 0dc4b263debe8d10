"""Multi-process execution back-end: a fault-tolerant bootstrap worker pool.

The :class:`repro.runtime.scheduler.BatchScheduler` front-end coalesces many
sessions' jobs into one row list per flush round; the rows of that list are
embarrassingly parallel (each is an independent bootstrapping — the batch
path is row-wise bit-identical to the sequential path).
:class:`WorkerPool` is the :class:`repro.runtime.scheduler.RowDispatcher`
that shards those rows across ``num_workers`` OS processes, so the runtime
stops being capped by one Python interpreter:

* **Shared read-only cloud-key state.**  Per registered id — under a
  ``BatchScheduler`` one per *resident key*, however many clients share
  it — the parent writes one
  :class:`multiprocessing.shared_memory.SharedMemory` segment holding the serialized cloud key (the :mod:`repro.tfhe.serialize`
  artifact, byte for byte what travels on the wire) and — under a
  plain-ndarray engine — the *packed spectral tensors* of the parent's
  spectrum cache, one per TGSW sample of the flat bootstrapping key, for
  either rotator.  Workers map the segment and build their
  :class:`repro.runtime.context.FheContext` around zero-copy read-only
  views into those shared pages
  (:meth:`repro.runtime.context.FheContext.install_spectra`), so ``k``
  workers share one physical copy of the bootstrapping-key spectra instead
  of forward-transforming ``k`` private ones.  The approximate integer
  engine (whose spectra carry per-row fixed-point scales) falls back to
  rebuilding the cache from the shared key bytes — correctness is engine
  independent, only the sharing depth varies.
* **Crash → requeue, not corruption.**  Each worker owns a duplex pipe and
  at most one outstanding task.  A worker that dies mid-task (EOF/broken
  pipe), exceeds the task timeout, or returns a result that fails
  validation (wrong task id, wrong row count, malformed ciphertexts) is
  killed and respawned, and its task is requeued to a healthy worker — up
  to ``max_retries`` times per task, after which
  :class:`repro.runtime.scheduler.WorkerPoolError` propagates rather than
  returning silently wrong results.  A worker whose engine raised
  :class:`EngineFault` is replaced too, and the fault is raised at once:
  rebuilding the engine is the scheduler's business.  A lost worker
  therefore degrades throughput, never correctness.
* **One account.**  Every task runs
  :func:`repro.runtime.scheduler.measure_rows` and ships back its
  :class:`repro.runtime.scheduler.RoundAccount` (call widths, transformed
  polynomials, spans); once the round has succeeded the parent records each
  account into the scheduler's stats and registry, as the inline path does.
* **Health tracking.**  :attr:`WorkerPool.health` exposes per-worker
  liveness/task/fault counters and :attr:`WorkerPool.stats` the pool-wide
  dispatch/retry/restart totals; the serving front surfaces both through
  its metrics endpoint.

Fault injection (tests only): ``fault_plans`` maps a worker's spawn index to
a plan dict (``crash_on_task``, ``hang_on_task``/``hang_seconds``,
``poison_on_task``/``poison_mode``, ``error_on_task``) interpreted against
the worker-local task counter, so the fault-injection suite can kill, stall
or poison a specific task deterministically.  Respawned workers get fresh
spawn indices and therefore no plan, which is exactly the recovery path the
suite asserts on.
"""

from __future__ import annotations

import json
import os
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import multiprocessing.connection
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.runtime.context import FheContext
from repro.runtime.scheduler import (
    RoundAccount,
    RowDispatcher,
    Row,
    SchedulerStats,
    WorkerPoolError,
    _round_scope,
    measure_rows,
)
from repro.telemetry import Telemetry
from repro.tfhe.lwe import LweSample
from repro.tfhe.serialize import from_bytes, to_pieces
from repro.tfhe.tgsw import TransformedTgswSample
from repro.tfhe.transform import EngineFault, TransformSpec

__all__ = [
    "WorkerHealth",
    "WorkerPool",
    "PoolStats",
]

#: Alignment of the spectral tensor inside a shared segment (numpy wants the
#: buffer offset aligned to the itemsize; 16 covers complex128).
_ALIGN = 16


@dataclass
class PoolStats:
    """Pool-wide dispatch and fault counters (their only store: a scheduler
    with telemetry binds registry families that read them at scrape)."""

    tasks_dispatched: int = 0
    tasks_completed: int = 0
    tasks_retried: int = 0
    workers_restarted: int = 0
    rows_executed: int = 0
    #: Times the circuit breaker opened after a restart storm.
    breaker_trips: int = 0


@dataclass
class WorkerHealth:
    """Liveness and work counters of one pool slot (visible via metrics)."""

    spawn_index: int
    pid: Optional[int]
    alive: bool
    tasks_completed: int
    faults: int


# --------------------------------------------------------------------------- #
# shared cloud-key segments                                                   #
# --------------------------------------------------------------------------- #


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_client_segment(context: FheContext) -> shared_memory.SharedMemory:
    """Write one client's shareable key state into a fresh shared segment.

    Layout: ``u64 header_len | header JSON | cloud-key artifact bytes |
    (aligned) packed spectral tensor bytes``.  The spectrum section is
    present only when the parent's cache is a stack of plain ndarrays of one
    dtype/shape (naive/double engines, either rotator); otherwise workers
    rebuild their cache from the key bytes.
    """
    key_pieces = [memoryview(p).cast("B") for p in to_pieces(context.cloud_key)]
    key_len = sum(len(piece) for piece in key_pieces)
    spectrum_meta: Optional[Dict[str, Any]] = None
    key = context.rotator.bootstrapping_key  # builds the parent cache once
    tensors = [sample.tensor for sample in key]
    if all(isinstance(t, np.ndarray) for t in tensors) and (
        len({(t.shape, t.dtype.str) for t in tensors}) == 1
    ):
        spectrum_meta = {
            "dtype": tensors[0].dtype.str,
            "shape": [len(tensors), *tensors[0].shape],
            "rows": key[0].rows,
            "mask_count": key[0].mask_count,
            "degree": key[0].degree,
        }
    # Record the parent context's engine spec so workers rebuild the SAME
    # engine even when it is not the one the key records (a context built on
    # an engine instance in process, e.g. ``approx`` over a ``double`` key).
    # Ad-hoc engines have no spec; workers then fall back to the key's.
    engine_spec = context.engine.spec()
    header = json.dumps(
        {
            "key_len": key_len,
            "spectrum": spectrum_meta,
            "engine": engine_spec.to_json() if engine_spec is not None else None,
        }
    ).encode("utf-8")
    key_offset = 8 + len(header)
    spectrum_offset = _align(key_offset + key_len)
    total = spectrum_offset + (
        sum(t.nbytes for t in tensors) if spectrum_meta is not None else 0
    )
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    segment.buf[0:8] = struct.pack("<Q", len(header))
    segment.buf[8:key_offset] = header
    # The container's pieces and the tensors go into the segment one by one:
    # neither the joined artifact nor the stacked spectra ever exist here.
    offset = key_offset
    for piece in key_pieces:
        segment.buf[offset : offset + len(piece)] = piece
        offset += len(piece)
    if spectrum_meta is not None:
        shared = np.ndarray(
            spectrum_meta["shape"],
            dtype=tensors[0].dtype,
            buffer=segment.buf,
            offset=spectrum_offset,
        )
        for row, tensor in zip(shared, tensors):
            row[...] = tensor
    return segment


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifetime.

    The parent's ``unlink()`` is the single authority over a segment's
    lifetime; workers only ever ``close()`` their mapping.  CPython < 3.13
    re-registers a segment with the resource tracker on *attach*, which
    would let a crashed worker's tracker reap a segment the parent still
    serves, so :func:`_worker_main` disables tracker registration before
    the first attach.
    """
    return shared_memory.SharedMemory(name=name)


def _context_from_segment(segment: shared_memory.SharedMemory) -> FheContext:
    """Rebuild a worker-side context around a shared segment.

    The cloud key is decoded straight from the shared pages (its arrays are
    the worker's own copies, the artifact bytes are never duplicated); when
    the segment carries packed spectra, the blind rotator is assembled from
    **read-only views into the shared pages** — no per-worker copy of the
    spectrum cache exists.  The returned context keeps the segment's buffer
    alive through those views; the caller must keep ``segment`` open for the
    context's lifetime.
    """
    (header_len,) = struct.unpack_from("<Q", segment.buf)
    header = json.loads(bytes(segment.buf[8 : 8 + header_len]).decode("utf-8"))
    key_offset = 8 + header_len
    key_len = int(header["key_len"])
    cloud = from_bytes(segment.buf[key_offset : key_offset + key_len])
    engine_payload = header.get("engine")
    engine = (
        TransformSpec.from_json(engine_payload).create(cloud.params.N)
        if engine_payload is not None
        else None
    )
    context = FheContext(cloud, engine=engine)
    meta = header.get("spectrum")
    if meta is not None:
        shape = tuple(int(x) for x in meta["shape"])
        tensor = np.ndarray(
            shape,
            dtype=np.dtype(meta["dtype"]),
            buffer=segment.buf,
            offset=_align(key_offset + key_len),
        )
        tensor.setflags(write=False)
        context.install_spectra(
            [
                TransformedTgswSample(
                    tensor=tensor[i],
                    params=cloud.params.tgsw,
                    mask_count=int(meta["mask_count"]),
                    degree=int(meta["degree"]),
                    rows=int(meta["rows"]),
                )
                for i in range(shape[0])
            ]
        )
    return context


# --------------------------------------------------------------------------- #
# worker process                                                              #
# --------------------------------------------------------------------------- #


def _apply_fault(plan: Dict[str, Any], task_index: int, result_msg: Tuple):
    """Mutate/trigger the planned fault for this worker-local task index.

    Returns the (possibly poisoned) result message, or never returns for a
    crash.  Test-only: production pools pass no plans.
    """
    if plan.get("crash_on_task") == task_index:
        os._exit(17)  # simulate a hard worker crash mid-flush
    if plan.get("hang_on_task") == task_index:
        time.sleep(float(plan.get("hang_seconds", 3600.0)))
    if plan.get("error_on_task") == task_index:
        raise RuntimeError("injected worker fault")
    if plan.get("engine_fault_on_task") == task_index or plan.get("engine_fault_always"):
        raise EngineFault("injected engine fault")
    if plan.get("poison_on_task") == task_index:
        mode = plan.get("poison_mode", "short")
        kind, task_id, outputs, account = result_msg
        if mode == "short":  # drop a row: row-count mismatch
            return (kind, task_id, outputs[:-1], account)
        if mode == "wrong_task":  # answer a task that was never asked
            return (kind, task_id + 10_000, outputs, account)
        if mode == "garbage":  # structurally broken ciphertexts
            return (kind, task_id, [object()] * len(outputs), account)
        raise ValueError(f"unknown poison mode {mode!r}")
    return result_msg


def _worker_main(
    spawn_index: int,
    conn,
    registry: Dict[str, str],
    fault_plan: Optional[Dict[str, Any]],
) -> None:
    """Body of one pool worker: attach shared keys, loop over row tasks."""
    # Workers never own shared-memory lifetimes: neutralise attach-time
    # tracker registration (CPython < 3.13 has no SharedMemory(track=False))
    # so a worker forked before the parent's tracker existed cannot spawn a
    # private tracker that later "cleans up" segments the parent still owns.
    resource_tracker.register = lambda name, rtype: None  # this process only
    plan = fault_plan or {}
    # The worker's span ring: what a traced task records leaves with its
    # account; the parent's registry is the one metrics sink.
    telemetry = Telemetry(ring_size=256)
    segments: Dict[str, shared_memory.SharedMemory] = {}
    contexts: Dict[str, FheContext] = {}
    names: Dict[str, str] = dict(registry)
    task_index = 0
    parent_pid = os.getppid()
    try:
        while True:
            # Heartbeat instead of a bare blocking recv(): forked siblings
            # inherit this pipe's parent end, so if the parent dies without
            # running close() the fd stays open and recv() would never see
            # EOF — an orphaned worker must notice the reparenting and exit.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "register":
                _, client_id, segment_name = message
                names[client_id] = segment_name
                contexts.pop(client_id, None)
            elif kind == "deregister":
                _, client_id = message
                names.pop(client_id, None)
                contexts.pop(client_id, None)
                segment = segments.pop(client_id, None)
                if segment is not None:
                    segment.close()
            elif kind == "rows":
                _, task_id, client_id, rows, max_rows_per_call, trace_ctx = message
                try:
                    context = contexts.get(client_id)
                    if context is None:
                        segment = _attach_segment(names[client_id])
                        segments[client_id] = segment
                        context = _context_from_segment(segment)
                        context.telemetry = telemetry
                        contexts[client_id] = context
                    telemetry.tracer.clear()  # no span of a failed task rides along
                    with _round_scope(context, trace_ctx):
                        outputs, account = measure_rows(context, rows, max_rows_per_call)
                    account.spans = telemetry.drain_span_tuples()
                    result = _apply_fault(plan, task_index, ("ok", task_id, outputs, account))
                except EngineFault:
                    # Not a task fault: the parent raises it at once, and the
                    # scheduler rebuilds the engine.
                    result = ("engine_fault", task_id, traceback.format_exc())
                except Exception:  # noqa: BLE001 - report, let parent decide
                    result = ("err", task_id, traceback.format_exc())
                task_index += 1
                conn.send(result)
            else:  # unknown control message: report and keep serving
                conn.send(("err", -1, f"unknown message kind {kind!r}"))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        for segment in segments.values():
            segment.close()
        conn.close()


# --------------------------------------------------------------------------- #
# parent-side pool                                                            #
# --------------------------------------------------------------------------- #


@dataclass
class _Task:
    """One contiguous row slice of a run, retried as a unit."""

    task_id: int
    client_id: str
    rows: List[Row]
    retries: int = 0
    #: Last worker-side traceback, surfaced by :class:`WorkerPoolError`.
    error: str = ""
    #: The round's tracing context ``(trace ids, flush span id)``, shipped
    #: to the worker inside the task tuple (``None`` untraced).
    trace_ctx: Optional[Tuple] = None
    #: Wall/perf clocks at the moment the task was last sent to a worker
    #: (parent-side ``worker_dispatch`` span bounds).
    sent_wall: float = 0.0
    sent_perf: float = 0.0


class _Worker:
    """Parent-side handle of one pool slot."""

    __slots__ = ("spawn_index", "process", "conn", "task", "deadline", "done", "faults")

    def __init__(self, spawn_index: int, process, conn) -> None:
        self.spawn_index = spawn_index
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None
        self.done = 0
        self.faults = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool(RowDispatcher):
    """Shards flush rows across worker processes; crash-safe by requeueing.

    Parameters
    ----------
    num_workers:
        Pool size.  Rows of one :meth:`run_rows` call are split into (at
        most) this many contiguous chunks, scattered, and gathered back in
        input order.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (workers inherit the imported stack instantly) and
        ``spawn`` elsewhere.  Pools embedded in threaded programs (e.g. the
        asyncio server) must be created *before* those threads start when
        using ``fork``.
    task_timeout:
        Seconds one task may stay outstanding on a worker before the worker
        is presumed hung, killed and replaced (``None`` disables).
    max_retries:
        How many times one task may be requeued after worker faults before
        :class:`WorkerPoolError` is raised.
    breaker_threshold, breaker_window, breaker_cooldown:
        The refork **circuit breaker**: when ``breaker_threshold`` worker
        restarts happen within ``breaker_window`` seconds, the breaker
        opens for ``breaker_cooldown`` seconds — while open, ``run_rows``
        raises :class:`WorkerPoolError` without touching the pool (the
        scheduler runs the round in-process), bounding a refork storm
        instead of burning CPU respawning workers that keep dying.  After
        the cooldown the breaker closes with a cleared restart history
        (half-open: the next run probes the pool; a fresh storm re-trips).
        ``breaker_threshold=None`` disables.
    clock:
        Monotonic time source for the breaker (injectable for deterministic
        tests); defaults to :func:`time.monotonic`.
    fault_plans:
        Test-only mapping of spawn index → fault plan (see module docs).
    """

    def __init__(
        self,
        num_workers: int,
        start_method: Optional[str] = None,
        task_timeout: Optional[float] = 60.0,
        max_retries: int = 3,
        breaker_threshold: Optional[int] = 8,
        breaker_window: float = 30.0,
        breaker_cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        fault_plans: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if breaker_threshold is not None and breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive (or None)")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.num_workers = num_workers
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.breaker_threshold = breaker_threshold
        self.breaker_window = breaker_window
        self.breaker_cooldown = breaker_cooldown
        self._clock = clock
        self._restart_times: deque = deque()
        self._breaker_open_until: Optional[float] = None
        self._fault_plans = dict(fault_plans or {})
        self._mp = multiprocessing.get_context(start_method)
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._workers: List[_Worker] = []
        self._spawned = 0
        self._next_task_id = 0
        self._closed = False
        self.stats = PoolStats()
        # Start the parent's resource tracker before forking so every worker
        # inherits it (a child forked without one would lazily spawn its own,
        # with its own idea of which segments need cleaning up).
        resource_tracker.ensure_running()
        for _ in range(num_workers):
            self._workers.append(self._spawn())

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self) -> _Worker:
        spawn_index = self._spawned
        self._spawned += 1
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            args=(
                spawn_index,
                child_conn,
                {cid: seg.name for cid, seg in self._segments.items()},
                self._fault_plans.get(spawn_index),
            ),
            daemon=True,
            name=f"repro-bootstrap-worker-{spawn_index}",
        )
        process.start()
        child_conn.close()  # the parent keeps only its end
        return _Worker(spawn_index, process, parent_conn)

    def _replace(self, worker: _Worker) -> _Worker:
        """Kill a faulted worker and mount a fresh one in its slot."""
        try:
            worker.process.kill()
        except Exception:
            pass
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except Exception:
            pass
        self.stats.workers_restarted += 1
        self._record_restart()
        replacement = self._spawn()
        self._workers[self._workers.index(worker)] = replacement
        return replacement

    def _record_restart(self) -> None:
        if self.breaker_threshold is None:
            return
        now = self._clock()
        self._restart_times.append(now)
        while self._restart_times and self._restart_times[0] < now - self.breaker_window:
            self._restart_times.popleft()
        if (
            self._breaker_open_until is None
            and len(self._restart_times) >= self.breaker_threshold
        ):
            self._breaker_open_until = now + self.breaker_cooldown
            self.stats.breaker_trips += 1

    @property
    def breaker_open(self) -> bool:
        """Whether the refork circuit breaker is open now.

        Reading it changes nothing — a scrape reads it on the event loop
        while a flush may be recording a restart; only :meth:`run_rows`
        closes a breaker whose cooldown has passed.
        """
        until = self._breaker_open_until
        return until is not None and self._clock() < until

    def close(self) -> None:
        """Stop all workers and release every shared segment."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []
        for segment in self._segments.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = {}

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- client registry ------------------------------------------------------
    def register_client(self, client_id: str, context: FheContext) -> None:
        """Publish a client's key state to the pool via shared memory."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if client_id in self._segments:
            raise ValueError(f"client {client_id!r} is already registered")
        segment = _pack_client_segment(context)
        self._segments[client_id] = segment
        self._broadcast(("register", client_id, segment.name))

    def deregister_client(self, client_id: str) -> None:
        """Drop a client's shared key state from the pool and all workers."""
        segment = self._segments.pop(client_id, None)
        if segment is None:
            return
        self._broadcast(("deregister", client_id))
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def _broadcast(self, message: Tuple) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                # The worker is dying; it will be replaced (with the full,
                # updated registry) the next time a task finds it dead.
                worker.faults += 1

    # -- health / introspection ----------------------------------------------
    @property
    def health(self) -> List[WorkerHealth]:
        """Per-slot liveness and work counters."""
        return [
            WorkerHealth(
                spawn_index=worker.spawn_index,
                pid=worker.process.pid,
                alive=worker.alive,
                tasks_completed=worker.done,
                faults=worker.faults,
            )
            for worker in self._workers
        ]

    # -- dispatch --------------------------------------------------------------
    def run_rows(
        self,
        client_id: str,
        context: FheContext,
        rows: Sequence[Row],
        stats: SchedulerStats,
        max_rows_per_call: Optional[int] = None,
        round_ctx: Optional[Tuple] = None,
    ) -> List[LweSample]:
        """Scatter one round's rows across the pool, gather in input order.

        Bit-identical to :func:`repro.runtime.scheduler.execute_rows` on the
        same row list: sharding only changes *where* each row's bootstrap
        runs.  Worker faults (crash, hang, poisoned result) requeue the
        affected chunk; :class:`WorkerPoolError` is raised once a chunk
        exhausts ``max_retries`` or while the breaker is open, and
        :class:`EngineFault` as soon as a worker's engine faults.  Every
        worker that faulted has been replaced when this returns or raises.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        rows = list(rows)
        if not rows:
            return []
        if self.breaker_open:
            # A refork storm tripped the breaker: don't feed work to a pool
            # whose workers keep dying.
            raise WorkerPoolError("the refork circuit breaker is open")
        if self._breaker_open_until is not None:
            # Past the cooldown the breaker half-opens: it closes with a
            # cleared restart history, so only a fresh storm re-trips it.
            self._breaker_open_until = None
            self._restart_times.clear()
        if client_id not in self._segments:
            # Standalone use (no scheduler register hook ran): publish now.
            self.register_client(client_id, context)
        tasks = self._make_tasks(client_id, rows, round_ctx)
        results: Dict[int, Tuple[List[LweSample], RoundAccount]] = {}
        pending: List[_Task] = list(tasks)
        outstanding = 0
        try:
            while pending or outstanding:
                outstanding += self._assign(pending, max_rows_per_call)
                if not outstanding:
                    if pending:  # no live worker accepted work: all just died
                        continue
                    break
                outstanding -= self._collect(results, pending)
        except (WorkerPoolError, EngineFault):
            self._reset_busy_workers()
            raise
        ordered: List[LweSample] = []
        for task in tasks:
            outputs, account = results[task.task_id]
            ordered.extend(outputs)
            account.record(stats, self.telemetry)
        self.stats.rows_executed += len(rows)
        return ordered

    def _make_tasks(
        self, client_id: str, rows: List[Row], round_ctx: Optional[Tuple] = None
    ) -> List[_Task]:
        """Split rows into ≤ ``num_workers`` contiguous, near-even chunks."""
        count = min(self.num_workers, len(rows))
        base, extra = divmod(len(rows), count)
        tasks: List[_Task] = []
        start = 0
        for i in range(count):
            size = base + (1 if i < extra else 0)
            chunk = rows[start : start + size]
            tasks.append(_Task(self._next_task_id, client_id, chunk, trace_ctx=round_ctx))
            self._next_task_id += 1
            start += size
        return tasks

    def _assign(self, pending: List[_Task], max_rows_per_call: Optional[int]) -> int:
        """Hand queued tasks to idle workers; returns how many were sent."""
        sent = 0
        for worker in list(self._workers):
            if not pending:
                break
            if worker.task is not None:
                continue
            if not worker.alive:
                worker = self._replace(worker)
            task = worker.task = pending.pop(0)
            task.sent_wall = time.time()
            task.sent_perf = time.perf_counter()
            try:
                worker.conn.send(
                    (
                        "rows",
                        task.task_id,
                        task.client_id,
                        task.rows,
                        max_rows_per_call,
                        task.trace_ctx,
                    )
                )
            except (OSError, ValueError, BrokenPipeError):
                self._requeue(
                    self._retire(worker), pending, f"worker {worker.spawn_index} pipe broke"
                )
                continue
            worker.deadline = (
                time.monotonic() + self.task_timeout
                if self.task_timeout is not None
                else None
            )
            self.stats.tasks_dispatched += 1
            sent += 1
        return sent

    def _collect(
        self, results: Dict[int, Tuple[List[LweSample], RoundAccount]], pending: List[_Task]
    ) -> int:
        """Wait for one wave of results/faults; returns tasks taken off workers."""
        busy = [w for w in self._workers if w.task is not None]
        if not busy:
            return 0
        timeout = 0.25
        if self.task_timeout is not None:
            now = time.monotonic()
            timeout = max(0.0, min(w.deadline - now for w in busy))
            timeout = min(timeout + 0.01, 0.25)
        ready = multiprocessing.connection.wait(
            [w.conn for w in busy], timeout=timeout
        )
        settled = 0
        for conn in ready:
            worker = next(w for w in busy if w.conn is conn)
            settled += 1
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._requeue(self._retire(worker), pending, f"worker {worker.spawn_index} died")
                continue
            if isinstance(message, tuple) and message[:1] == ("engine_fault",):
                self._retire(worker)
                raise EngineFault(f"worker {worker.spawn_index}: {message[-1]}")
            if self._accept(worker, message, results):
                worker.task = None
                worker.deadline = None
                worker.done += 1
                self.stats.tasks_completed += 1
            else:
                self._requeue(
                    self._retire(worker),
                    pending,
                    f"worker {worker.spawn_index} returned a bad result",
                )
        # Deadline sweep: hung workers are indistinguishable from slow ones
        # except by the clock, so expiry is treated as a crash.
        if self.task_timeout is not None:
            now = time.monotonic()
            for worker in busy:
                if worker.task is not None and now > worker.deadline:
                    settled += 1
                    self._requeue(
                        self._retire(worker), pending, f"worker {worker.spawn_index} timed out"
                    )
        return settled

    def _accept(
        self,
        worker: _Worker,
        message,
        results: Dict[int, Tuple[List[LweSample], RoundAccount]],
    ) -> bool:
        """Validate one worker reply; False means 'treat as a fault'."""
        task = worker.task
        if not isinstance(message, tuple) or len(message) < 3:
            return False
        if message[0] == "err":
            # A worker-side exception is a task fault: requeue (a transient
            # fault clears on retry; a deterministic one exhausts retries and
            # surfaces the traceback through WorkerPoolError).
            task.error = message[2]
            return False
        if message[0] != "ok" or len(message) != 4:
            return False
        _, task_id, outputs, account = message
        if task_id != task.task_id or not isinstance(account, RoundAccount):
            return False
        if not isinstance(outputs, list) or len(outputs) != len(task.rows):
            return False
        dimension = None
        for output in outputs:
            if not isinstance(output, LweSample):
                return False
            a = np.asarray(output.a)
            if a.ndim != 1 or a.dtype != np.int32:
                return False
            if dimension is None:
                dimension = a.shape[0]
            elif a.shape[0] != dimension:
                return False
        results[task.task_id] = (outputs, account)
        tel = self.telemetry
        if tel is not None and task.trace_ctx is not None:
            trace_ids, flush_span_id = task.trace_ctx
            attrs = {"worker": worker.spawn_index, "rows": len(task.rows)}
            if len(trace_ids) > 1:
                attrs["traces"] = list(trace_ids)
            tel.tracer.record(
                "worker_dispatch",
                trace_ids[0],
                start=task.sent_wall,
                duration=time.perf_counter() - task.sent_perf,
                parent_id=flush_span_id,
                attrs=attrs,
            )
        return True

    def _retire(self, worker: _Worker) -> _Task:
        """Replace a worker that died, hung or answered with a fault; returns
        the task it held.  Runs before anything can raise, so a faulted
        worker never looks idle to the next round."""
        task = worker.task
        worker.task = None
        worker.faults += 1
        self._replace(worker)
        return task

    def _requeue(self, task: _Task, pending: List[_Task], reason: str) -> None:
        task.retries += 1
        self.stats.tasks_retried += 1
        if task.retries > self.max_retries:
            raise WorkerPoolError(
                f"task {task.task_id} ({len(task.rows)} rows for client "
                f"{task.client_id!r}) failed {task.retries} times; last "
                f"fault: {reason}" + (f"\n{task.error}" if task.error else "")
            )
        pending.append(task)

    def _reset_busy_workers(self) -> None:
        """After a fatal error, replace every busy worker so stale results
        from abandoned tasks can never be mistaken for a later task's."""
        for worker in list(self._workers):
            if worker.task is not None:
                worker.task = None
                self._replace(worker)
