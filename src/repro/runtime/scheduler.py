"""Cross-session batch scheduling of gate, lut and circuit jobs.

The batch axis is a **multi-tenant throughput mechanism**, the way the
paper's accelerator keeps the bootstrapping key resident and streams
independent ciphertexts past it.  A :class:`BatchScheduler` accepts jobs from
many independent :class:`EvaluationSession` objects and coalesces every row
that shares a cloud key into one batched bootstrapping, so sixteen clients
submitting one NAND each cost one blind rotation sweep instead of sixteen.

Model
-----

* ``register_client(client_id, cloud_key)`` installs a client's key.  The
  unit the scheduler owns is the **resident key** (:class:`ResidentKey`):
  one :class:`repro.runtime.context.FheContext` — one spectrum cache — per
  *distinct* cloud key, on the engine that key's spec records.  A client that
  registers a key some resident already holds (the identical key, array for
  array) attaches to that resident instead of building a second copy; the
  last client to leave takes the resident, and its memory, with it.
* ``session(client_id)`` opens an :class:`EvaluationSession`; any number of
  sessions may share a client id.  Only jobs under the **same** key can
  share a bootstrap — ciphertexts of different keys are algebraically
  incompatible — so the scheduler groups work per resident key: every
  client of one key rides in the same batched call.  Queues, handles and
  aborts stay per client, and a handle never crosses client ids.
* ``submit_gate``/``submit_lut``/``submit_circuit``/``submit_radix_add``
  enqueue work and return handles (futures); linear operations
  (NOT/constant/copy) resolve immediately, they never cost a bootstrap.  Operands may be *handles* of
  earlier jobs of the same client, so chains of gates schedule like circuit
  levels.  A job whose operand handle failed fails with the same typed
  exception and leaves the queue; nobody else's flush is affected.
* ``flush()`` drains the queue in rounds: each round gathers, per resident
  key, every row every ready job of every sharing client wants bootstrapped
  next — a gate or lut job is one row, a multi-round job (a circuit's
  :func:`repro.tfhe.executor.walk_levels`, a radix add's
  :meth:`repro.tfhe.integers.RadixEvaluator.add_steps`) the rows its
  generator yields next — and hands them to the dispatcher as one list of
  ``("gate", …)`` / ``("lut", …)`` / ``("digit", …)`` tuples.  Jobs whose
  operands resolved in an earlier round become ready in the next, so chained work schedules level-by-level across
  all sessions in lockstep.
* :func:`measure_rows` is what finally runs a row list, in whichever process
  the dispatcher picked: per chunk of at most ``max_rows_per_call`` rows, one
  stack of operands and one :meth:`repro.tfhe.gates.BatchGateEvaluator.rows`
  call (row → spec → affine pass → ``bootstrap_rows``).  Gate, lut and
  digit rows differ only in the spec each row resolves to.  It returns a
  :class:`RoundAccount` (call widths, transformed polynomials, spans) that
  :func:`execute_rows` records in-process and a worker ships home, so every
  round is counted once, by the same helper, wherever it ran.

The front-end owns the job graph (handles, readiness, rounds), the per-key
coalescing and the admission control; *where* rows run is the
:class:`RowDispatcher`'s business:

* :class:`InlineDispatcher` (the default) calls :func:`execute_rows`
  in-process;
* :class:`repro.runtime.workers.WorkerPool` shards the rows of one round
  across a pool of worker processes (rows of one batched bootstrapping are
  embarrassingly parallel), requeueing rows lost to worker crashes.

A dispatcher reports faults; the scheduler's one ladder
(``_run_rows_resilient``) is the only code that replays a round, fails an
engine over or runs a round in-process.

Admission control: a scheduler built with ``max_pending_jobs`` bounds its
queue — submissions beyond the bound raise :class:`SchedulerBusy` instead of
growing the queue without limit.  The asyncio serving front
(:mod:`repro.runtime.server`) maps this onto await-or-reject semantics per
connection.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Generator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.runtime.context import FheContext, same_cloud_key
from repro.telemetry.metrics import ROWS_PER_CALL_BUCKETS
from repro.tfhe.transform import EngineFault
from repro.tfhe.executor import LevelSchedule, schedule_circuit, walk_levels
from repro.tfhe.gates import Row, row_spec, split_rows
from repro.tfhe.integers import RadixEvaluator, RadixInt
from repro.tfhe.keys import TFHECloudKey
from repro.tfhe.lwe import (
    LweBatch,
    LweSample,
    gate_message,
    lwe_encrypt_trivial,
    lwe_negate,
)
from repro.tfhe.netlist import Circuit


class JobAborted(RuntimeError):
    """A queued job was aborted before producing a result.

    Raised by :meth:`JobHandle.result` when the job's client was
    force-deregistered (connection torn down, drain timeout) while the job
    was still pending.  The job did **not** run to completion — no partial
    result exists — so resubmitting it is safe; ``retryable`` marks that.
    """

    retryable = True


class JobHandle:
    """Future for one scheduled job; resolved by :meth:`BatchScheduler.flush`.

    A handle remembers which client key its job runs under, so a handle of
    one client can never be fed as an operand to another client's job —
    ciphertexts of different keys are algebraically incompatible and would
    silently decrypt to garbage.

    A handle settles exactly once: either with a result (:meth:`_resolve`)
    or with a typed exception (:meth:`_fail`, e.g. :class:`JobAborted`);
    later settle attempts are ignored, so a flush delivering into a handle
    that a concurrent deregistration already failed cannot resurrect it.
    """

    __slots__ = ("_result", "_done", "_exception", "client_id", "trace_id")

    def __init__(self, client_id: Optional[str] = None) -> None:
        self._result = None
        self._done = False
        self._exception: Optional[BaseException] = None
        self.client_id = client_id
        #: Trace id of the job behind this handle (``None`` without tracing).
        self.trace_id: Optional[str] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        """Whether the handle settled with an exception instead of a result."""
        return self._done and self._exception is not None

    def result(self):
        """The job's output; raises if the scheduler has not flushed it yet,
        or the typed failure if the job was aborted."""
        if not self._done:
            raise RuntimeError(
                "job has not been executed yet; call BatchScheduler.flush()"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def _resolve(self, value) -> None:
        if self._done:
            return
        self._result = value
        self._done = True

    def _fail(self, exc: BaseException) -> None:
        if self._done:
            return
        self._exception = exc
        self._done = True


Operand = Union[LweSample, JobHandle]


def _resolve_operand(operand: Operand) -> Optional[LweSample]:
    """The ciphertext behind an operand, or ``None`` if still pending."""
    if isinstance(operand, JobHandle):
        return operand.result() if operand.done else None
    return operand


def _resolve_operands(
    operands: Sequence[Operand], handle: JobHandle
) -> Optional[List[LweSample]]:
    """The ciphertexts behind a job's operands, or ``None`` if not all are ready.

    An operand handle that *failed* can never become ready: the dependent
    job's own ``handle`` is failed with the same typed exception (and
    ``None`` returned), so the job settles instead of raising out of the
    flush that happens to look at it.
    """
    for operand in operands:
        if isinstance(operand, JobHandle) and operand.failed:
            handle._fail(operand._exception)
            return None
    resolved = [_resolve_operand(operand) for operand in operands]
    return None if any(value is None for value in resolved) else resolved


class SchedulerBusy(RuntimeError):
    """Raised when a bounded scheduler queue rejects a new submission.

    The job was **not** enqueued; the caller may retry after a flush drains
    the queue (the serving front turns this into await-or-reject semantics).
    """


def execute_rows(
    context: FheContext,
    rows: Sequence[Row],
    stats: Optional["SchedulerStats"] = None,
    max_rows_per_call: Optional[int] = None,
) -> List[LweSample]:
    """Bootstrap one round's rows against ``context`` and return the outputs.

    The in-process path: :func:`measure_rows` runs the rows, and the
    :class:`RoundAccount` it returns is recorded into ``stats`` and the
    context's telemetry.  A pool worker runs the same :func:`measure_rows`
    and ships the account home, where the parent records it the same way.
    An empty row list returns ``[]`` without touching the engine or any
    counter.
    """
    rows = list(rows)
    if not rows:
        return []
    outputs, account = measure_rows(context, rows, max_rows_per_call)
    account.record(stats, getattr(context, "telemetry", None))
    return outputs


def measure_rows(
    context: FheContext, rows: List[Row], max_rows_per_call: Optional[int] = None
) -> Tuple[List[LweSample], "RoundAccount"]:
    """Run a non-empty row list and report what it cost.

    Each chunk of at most ``max_rows_per_call`` rows is one stack of
    operands and one :meth:`repro.tfhe.gates.BatchGateEvaluator.rows` call,
    whatever mix of gate and lut rows it holds.  Output row ``i``
    corresponds to input row ``i`` regardless of chunking, and the results
    are bit-identical however the row list is split (every batched row
    equals the scalar evaluator's).  Nothing is counted here: the returned
    account is, by whoever holds the counters.
    """
    evaluator = context.batch_evaluator(1)  # the row path takes any row count
    engine = context.engine
    before = engine.stats.snapshot()
    outputs: List[LweSample] = []
    widths: List[int] = []
    chunk = max_rows_per_call or len(rows)
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        outputs.extend(evaluator.rows(*split_rows(part, LweBatch.from_samples)).to_samples())
        widths.append(len(part))
    after = engine.stats.snapshot()
    account = RoundAccount(
        widths,
        getattr(engine, "engine_kind", None) or "unknown",
        after.forward_polys - before.forward_polys,
        after.backward_polys - before.backward_polys,
    )
    return outputs, account


@dataclass
class RoundAccount:
    """What one execution of a row list measured, wherever it ran."""

    #: Rows per batched bootstrapping call, in call order.
    widths: List[int]
    #: ``engine_kind`` of the engine that ran the calls.
    engine: str
    #: Polynomials the engine forward- / backward-transformed.
    forward_polys: int
    backward_polys: int
    #: Spans recorded in another process (:meth:`Span.to_tuple` records);
    #: in-process spans are in the ring already.
    spans: List[Tuple] = field(default_factory=list)

    def record(self, stats: Optional["SchedulerStats"], tel) -> None:
        """Fold the account into ``stats`` and the ``tel`` registry and ring
        (either may be ``None``)."""
        if stats is not None:
            stats.batched_calls += len(self.widths)
            stats.max_rows_per_call = max(stats.max_rows_per_call, *self.widths)
        if tel is None:
            return
        for width in self.widths:
            tel.observe(
                "fhe_rows_per_call",
                width,
                "Coalesced batch width per bootstrapping call.",
                buckets=ROWS_PER_CALL_BUCKETS,
            )
        for direction, polys in (
            ("forward", self.forward_polys),
            ("backward", self.backward_polys),
        ):
            if polys > 0:
                tel.count(
                    "fhe_engine_transform_calls_total",
                    "Polynomials the negacyclic transforms converted, by direction.",
                    amount=polys,
                    engine=self.engine,
                    direction=direction,
                )
        for span in self.spans:
            tel.tracer.ingest(span)


class WorkerPoolError(RuntimeError):
    """A dispatcher refused a round or could not finish it (an open breaker,
    a spent retry budget); the scheduler then runs the round in-process."""


class RowDispatcher:
    """Strategy interface executing one round's rows for one resident key.

    The scheduler registers each resident key once, under its label — that
    label is the ``client_id`` every method here receives.

    ``run_rows`` must return one output per input row, in input order, and
    must be bit-identical to :func:`execute_rows` — the dispatcher decides
    *where* rows run (inline, worker processes), never *what* they compute.
    Implementations record the :class:`RoundAccount` of every execution
    into ``stats`` and :attr:`telemetry` once the round has succeeded.  A
    dispatcher reports faults and recovers from none: it raises
    :class:`WorkerPoolError` when it cannot run the round and
    :class:`repro.tfhe.transform.EngineFault` when an engine faulted, and
    the scheduler alone replays, fails over or runs the round in-process.

    ``round_ctx`` is the scheduler's tracing context for the round —
    ``(trace ids, flush span id)`` or ``None`` — so the execution side can
    attribute its ``engine_contract``/``keyswitch`` spans to the jobs the
    round serves (the worker pool ships it across the process boundary).
    """

    #: Optional :class:`repro.telemetry.Telemetry` sink; mirrored here by
    #: the owning scheduler so accounts measured out of process land in the
    #: same registry and trace ring.
    telemetry = None

    def run_rows(
        self,
        client_id: str,
        context: FheContext,
        rows: Sequence[Row],
        stats: "SchedulerStats",
        max_rows_per_call: Optional[int] = None,
        round_ctx: Optional[Tuple[Tuple[str, ...], Optional[str]]] = None,
    ) -> List[LweSample]:
        raise NotImplementedError

    def register_client(self, client_id: str, context: FheContext) -> None:
        """Hook invoked when a key becomes resident (optional)."""

    def deregister_client(self, client_id: str) -> None:
        """Hook invoked when a resident key is dropped (optional)."""


def _round_scope(context: FheContext, round_ctx):
    """A ``stage_round`` scope for in-process execution (no-op untraced)."""
    tel = getattr(context, "telemetry", None)
    if tel is None or round_ctx is None:
        return nullcontext()
    trace_ids, parent_span_id = round_ctx
    return tel.stage_round(trace_ids, parent_span_id)


class InlineDispatcher(RowDispatcher):
    """The default dispatcher: execute every row in the calling process."""

    def run_rows(
        self,
        client_id: str,
        context: FheContext,
        rows: Sequence[Row],
        stats: "SchedulerStats",
        max_rows_per_call: Optional[int] = None,
        round_ctx: Optional[Tuple[Tuple[str, ...], Optional[str]]] = None,
    ) -> List[LweSample]:
        with _round_scope(context, round_ctx):
            return execute_rows(context, rows, stats, max_rows_per_call)


class _RowJob:
    """One bootstrapped row — a gate or a lut; contributes it once its operands are ready."""

    def __init__(
        self,
        make_row: Callable[..., Row],
        operands: Sequence[Operand],
        handle: JobHandle,
    ) -> None:
        self.make_row = make_row
        self.operands = list(operands)
        self.handle = handle

    @property
    def done(self) -> bool:
        return self.handle.done

    def pending_rows(self) -> List[Row]:
        resolved = _resolve_operands(self.operands, self.handle)
        if resolved is None:
            return []  # blocked on an earlier job (retry next round), or failed with it
        return [self.make_row(*resolved)]

    def deliver(self, outputs: Sequence[LweSample]) -> None:
        self.handle._resolve(outputs[0])


class _StepsJob:
    """One multi-round job: a generator that yields each round's rows, is
    sent their outputs, and returns the job's result."""

    def __init__(self, steps: Generator, handle: JobHandle) -> None:
        self.steps = steps
        self.handle = handle
        self._send(None)  # an error here is the submission's

    @property
    def done(self) -> bool:
        return self.handle.done

    def pending_rows(self) -> List[Row]:
        return [] if self.done else self.rows

    def deliver(self, outputs: Sequence[LweSample]) -> None:
        try:
            self._send(outputs)
        except Exception as exc:  # noqa: BLE001 - the job's own, not the flush's
            self.handle._fail(exc)

    def _send(self, outputs: Optional[Sequence[LweSample]]) -> None:
        try:
            self.rows = self.steps.send(outputs)
        except StopIteration as stop:
            self.handle._resolve(stop.value)


@dataclass
class SchedulerStats:
    """Aggregate throughput counters of one :class:`BatchScheduler`: their
    only store, read at scrape by the families in ``_STATS_FAMILIES``."""

    flushes: int = 0
    #: Batched bootstrapping calls issued (one per chunk of a round's rows).
    batched_calls: int = 0
    #: Total ciphertext rows bootstrapped across all calls.
    rows_bootstrapped: int = 0
    #: Widest single batched call seen so far.
    max_rows_per_call: int = 0
    #: Jobs (one row, or every round of a multi-round job) fully completed.
    jobs_completed: int = 0
    #: Jobs failed with a typed error (force-deregistration aborts, jobs
    #: whose operand handle had failed, multi-round jobs that raised).
    jobs_aborted: int = 0
    #: Times a faulting engine was rebuilt from its own spec mid-flush and
    #: the round replayed on it.
    engine_failovers: int = 0
    #: Rounds the scheduler finished in-process after the dispatcher refused
    #: or failed them (every such round once).
    inline_fallbacks: int = 0

    @property
    def mean_rows_per_call(self) -> float:
        """Average coalesced batch width — the cross-session fill factor."""
        if not self.batched_calls:
            return 0.0
        return self.rows_bootstrapped / self.batched_calls


#: ``(family, field, help)``: the counters a scheduler with telemetry reads
#: from its :class:`SchedulerStats` and, under a worker pool, from the
#: pool's :class:`repro.runtime.workers.PoolStats`.
_STATS_FAMILIES = (
    ("fhe_flushes_total", "flushes", "Scheduler flush invocations."),
    ("fhe_rows_bootstrapped_total", "rows_bootstrapped", "Ciphertext rows bootstrapped."),
    ("fhe_batched_calls_total", "batched_calls", "Mixed-gate batched bootstrapping calls issued."),
    ("fhe_jobs_completed_total", "jobs_completed", "Jobs fully resolved."),
    ("fhe_jobs_aborted_total", "jobs_aborted", "Jobs failed with a typed error."),
    ("fhe_engine_failovers_total", "engine_failovers", "Engine rebuilds mid-flush."),
    ("fhe_inline_fallbacks_total", "inline_fallbacks", "Rounds degraded to in-process."),
)
_POOL_STATS_FAMILIES = (
    ("fhe_pool_worker_restarts_total", "workers_restarted", "Pool workers killed and respawned."),
    ("fhe_pool_breaker_trips_total", "breaker_trips", "Refork circuit-breaker openings."),
    ("fhe_pool_tasks_retried_total", "tasks_retried", "Pool tasks requeued after faults."),
)


class EvaluationSession:
    """One client connection submitting work to a shared :class:`BatchScheduler`."""

    def __init__(self, scheduler: "BatchScheduler", client_id: str) -> None:
        self.scheduler = scheduler
        self.client_id = client_id

    @property
    def context(self) -> FheContext:
        return self.scheduler.client_context(self.client_id)

    # -- linear operations (resolved immediately, no bootstrap) -------------
    def constant(self, bit: int) -> LweSample:
        """A trivial encryption of a public bit (no bootstrap, no queue)."""
        return lwe_encrypt_trivial(self.context.params.n, gate_message(bit))

    def not_(self, ca: Operand) -> Operand:
        """Homomorphic NOT; immediate on a ciphertext, queued after a handle."""
        resolved = _resolve_operand(ca)
        if resolved is not None:
            return lwe_negate(resolved)
        # Pending operand: express NOT(x) as the bootstrapped NAND(x, x) so it
        # schedules with everything else.  (Costs a bootstrap — callers that
        # care chain the NOT after a flush instead.)
        return self.submit_gate("nand", ca, ca)

    def copy(self, ca: LweSample) -> LweSample:
        """Identity on a ciphertext (a fresh copy; no bootstrap, no queue)."""
        return ca.copy()

    def _check_operand(self, operand: Operand) -> Operand:
        if isinstance(operand, JobHandle) and operand.client_id != self.client_id:
            raise ValueError(
                f"operand handle belongs to client {operand.client_id!r}; "
                f"ciphertexts of different clients' keys cannot be mixed "
                f"(this session serves {self.client_id!r})"
            )
        return operand

    # -- queued bootstrapped work -------------------------------------------
    def _submit_row(
        self,
        kind: str,
        op,
        make_row: Callable[..., Row],
        operands: Sequence[Operand],
        trace_id: Optional[str],
    ) -> JobHandle:
        # Fail fast, at submit rather than at flush: unknown gate, infeasible
        # table, or a parameter set not rated for the ±1/8 encoding.
        row_spec(self.context.params, op)
        handle = JobHandle(self.client_id)
        job = _RowJob(make_row, [self._check_operand(o) for o in operands], handle)
        self.scheduler._enqueue(self.client_id, job, op=kind, trace_id=trace_id)
        return handle

    def submit_gate(
        self, name: str, ca: Operand, cb: Operand, trace_id: Optional[str] = None
    ) -> JobHandle:
        """Queue one two-input gate; operands may be earlier jobs' handles
        of the **same** client."""
        return self._submit_row(
            "gate", name, lambda a, b: ("gate", name, a, b), (ca, cb), trace_id
        )

    def submit_lut(
        self,
        table: int,
        operands: Sequence[Operand],
        trace_id: Optional[str] = None,
    ) -> JobHandle:
        """Queue one k-input boolean lookup (truth table ``table``).

        The table must have a single-bootstrap realisation
        (:func:`repro.tfhe.lut.boolean_lut_spec`) — checked here, at submit
        time, so infeasible tables fail fast rather than at flush.  The row
        coalesces with gate and circuit rows of the same client into one
        batched bootstrapping.
        """
        operands = list(operands)
        return self._submit_row(
            "lut",
            (table, len(operands)),
            lambda *resolved: ("lut", table, resolved),
            operands,
            trace_id,
        )

    def submit_circuit(
        self,
        circuit: Circuit,
        inputs: Mapping[str, Sequence[Operand]],
        outputs: Optional[Sequence[str]] = None,
        schedule: Optional[LevelSchedule] = None,
        trace_id: Optional[str] = None,
    ) -> JobHandle:
        """Queue a whole netlist (single word, scalar bits per input).

        The job advances one dependency level per flush round, so its levels
        coalesce with every other same-key job in flight.  The handle
        resolves to ``{output name: list of bit ciphertexts}``.  Inputs must
        be ciphertexts or *settled* handles; a failed input handle fails the
        returned handle with the same exception.
        """
        if schedule is None:
            schedule = schedule_circuit(circuit, outputs)
        handle = JobHandle(self.client_id)
        resolved: Dict[str, List[LweSample]] = {}
        for name, bits in inputs.items():
            word = _resolve_operands([self._check_operand(bit) for bit in bits], handle)
            if handle.failed:
                self.scheduler.stats.jobs_aborted += 1
                return handle
            if word is None:
                raise ValueError(
                    "circuit inputs must be resolved ciphertexts, not "
                    "pending job handles"
                )
            resolved[name] = word
        job = _StepsJob(walk_levels(schedule, resolved, self), handle)
        self.scheduler._enqueue(self.client_id, job, op="circuit", trace_id=trace_id)
        return handle

    def submit_radix_add(
        self, x: RadixInt, y: RadixInt, trace_id: Optional[str] = None
    ) -> JobHandle:
        """Queue ``x + y``: each carry round its bounds force is one round of
        digit rows.  Bad operands raise ``ValueError`` here, or fail the
        handle when only a later round finds them."""
        handle = JobHandle(self.client_id)
        job = _StepsJob(RadixEvaluator(self.context, x.encoding).add_steps(x, y), handle)
        self.scheduler._enqueue(self.client_id, job, op="radix_add", trace_id=trace_id)
        return handle


class ResidentKey:
    """One distinct cloud key held resident, and the clients sharing it.

    ``label`` names the key towards the dispatcher (one registration, one
    worker-pool segment per key) and outlives whichever client registered
    first.
    """

    __slots__ = ("label", "context", "queues")

    def __init__(self, label: str, context: FheContext) -> None:
        self.label = label
        self.context = context
        #: client id → that client's queued jobs, in submission order.
        self.queues: Dict[str, List[object]] = {}

    def holds(self, key: Union[TFHECloudKey, FheContext]) -> bool:
        """Whether registering ``key`` means *this* key: the identical cloud
        key, array for array — or, for a prebuilt context, the same object."""
        if isinstance(key, FheContext):
            return self.context is key
        return same_cloud_key(self.context.cloud_key, key)


class BatchScheduler:
    """Coalesces same-key jobs from many sessions into batched bootstrappings."""

    def __init__(
        self,
        max_rows_per_call: Optional[int] = None,
        dispatcher: Optional[RowDispatcher] = None,
        max_pending_jobs: Optional[int] = None,
        telemetry=None,
    ) -> None:
        if max_rows_per_call is not None and max_rows_per_call <= 0:
            raise ValueError("max_rows_per_call must be positive")
        if max_pending_jobs is not None and max_pending_jobs <= 0:
            raise ValueError("max_pending_jobs must be positive")
        self.max_rows_per_call = max_rows_per_call
        self.max_pending_jobs = max_pending_jobs
        self.dispatcher: RowDispatcher = dispatcher or InlineDispatcher()
        #: The one registry: client id → the resident key it computes under.
        self._clients: Dict[str, ResidentKey] = {}
        self._labels = 0
        self._pending = 0
        self.stats = SchedulerStats()
        #: Optional :class:`repro.telemetry.Telemetry` bundle; ``None`` keeps
        #: every instrumentation site behind one ``is None`` check.
        self.telemetry = telemetry
        if telemetry is not None:
            self.dispatcher.telemetry = telemetry
            bound = [(self.stats, _STATS_FAMILIES)]
            pool_stats = getattr(self.dispatcher, "stats", None)  # a worker pool's
            if pool_stats is not None:
                bound.append((pool_stats, _POOL_STATS_FAMILIES))
            for stats, families in bound:
                for name, attr, help_text in families:
                    telemetry.registry.bind_counter(
                        name, help_text, partial(getattr, stats, attr)
                    )

    # -- client management ---------------------------------------------------
    @property
    def residents(self) -> List[ResidentKey]:
        """The distinct resident keys, oldest first."""
        return list(dict.fromkeys(self._clients.values()))

    def register_client(
        self, client_id: str, key: Union[TFHECloudKey, FheContext]
    ) -> FheContext:
        """Install a client's cloud key (or prebuilt context) under an id.

        A key some resident already holds — the identical key, array for
        array; for a prebuilt context, the same object — is not installed
        twice: the client attaches to that resident and shares its context,
        spectrum cache and batched calls.  A new key is built on the engine
        its own ``transform_spec`` records.
        """
        if client_id in self._clients:
            raise ValueError(f"client {client_id!r} is already registered")
        resident = next((r for r in self.residents if r.holds(key)), None)
        if resident is None:
            context = key if isinstance(key, FheContext) else FheContext(key)
            if self.telemetry is not None:
                context.telemetry = self.telemetry
            self._labels += 1
            resident = ResidentKey(f"key{self._labels}", context)
            self.dispatcher.register_client(resident.label, context)
        resident.queues[client_id] = []
        self._clients[client_id] = resident
        return resident.context

    def deregister_client(self, client_id: str, force: bool = False) -> None:
        """Drop a client and its queue (e.g. its connection closed).

        Refuses while the client still has unresolved jobs — silently
        discarding them would leak handles that can never resolve.  With
        ``force=True`` the pending handles are instead **failed** with the
        typed :class:`JobAborted`, so a deregistration racing an in-flight
        flush leaves no handle unresolved: waiters see a retryable error,
        never a hang, and a flush round delivering into an already-failed
        handle is a no-op (handles settle exactly once).  Other clients of
        the same key are untouched.

        The key leaves with its last client: the resident is dropped from
        the dispatcher and its context released, so the spectrum cache is
        freed here, not at some later cyclic GC pass.
        """
        resident = self._resident(client_id)
        queue = resident.queues[client_id]
        pending = [job for job in queue if not job.done]
        if pending:
            if not force:
                raise RuntimeError(
                    f"client {client_id!r} still has pending jobs; "
                    f"flush before deregistering (or deregister with force=True "
                    f"to fail them with JobAborted)"
                )
            for job in pending:
                job.handle._fail(
                    JobAborted(
                        f"client {client_id!r} was deregistered with "
                        f"{len(pending)} unresolved jobs; resubmit after "
                        f"re-registering"
                    )
                )
            self.stats.jobs_aborted += len(pending)
        self._pending -= len(queue)
        del resident.queues[client_id]
        del self._clients[client_id]
        if not resident.queues:
            resident.context.release()
            self.dispatcher.deregister_client(resident.label)

    def _resident(self, client_id: str) -> ResidentKey:
        try:
            return self._clients[client_id]
        except KeyError:
            raise KeyError(f"unknown client {client_id!r}; register_client first") from None

    def client_context(self, client_id: str) -> FheContext:
        return self._resident(client_id).context

    def session(self, client_id: str) -> EvaluationSession:
        """Open a new session for a registered client."""
        self._resident(client_id)  # validate
        return EvaluationSession(self, client_id)

    # -- queue ----------------------------------------------------------------
    def _enqueue(
        self,
        client_id: str,
        job,
        op: str = "job",
        trace_id: Optional[str] = None,
    ) -> None:
        tel = self.telemetry
        if tel is not None:
            tid = trace_id or tel.tracer.new_trace_id()
            job.trace_id = tid
            job.handle.trace_id = tid
            job.submit_wall = time.time()
            job.submit_perf = time.perf_counter()
            # Start of the job's current coalescing window (reset per round).
            job.wait_from = job.submit_perf
        if (
            not job.done
            and self.max_pending_jobs is not None
            and self.pending_jobs >= self.max_pending_jobs
        ):
            raise SchedulerBusy(
                f"scheduler queue is full ({self.max_pending_jobs} pending "
                f"jobs); flush before submitting more"
            )
        if tel is not None:
            tel.count("fhe_jobs_submitted_total", "Jobs accepted by the scheduler.", op=op)
            tel.tracer.record(
                "enqueue",
                job.trace_id,
                start=job.submit_wall,
                duration=0.0,
                attrs={"op": op, "client": client_id},
            )
        # A job can resolve at submit time without costing any bootstraps —
        # e.g. an optimized circuit whose live outputs are constant wires or
        # COPY/NOT chains only (zero bootstrapped levels).  Count it here,
        # since flush() will simply drop it from the queue.
        if job.done:
            self.stats.jobs_completed += 1
            if tel is not None:
                tel.tracer.record("job", job.trace_id, start=job.submit_wall, duration=0.0)
            return
        self._clients[client_id].queues[client_id].append(job)
        self._pending += 1

    @property
    def pending_jobs(self) -> int:
        """Jobs enqueued and not yet fully resolved.

        A count, not a walk: ``_enqueue`` adds one, and the two places a job
        leaves its queue — the prune that ends every flush round and
        ``deregister_client`` — subtract what they remove.
        """
        return self._pending

    # -- execution -------------------------------------------------------------
    def _republish(self, resident: ResidentKey) -> None:
        """Re-register a resident key with the dispatcher after its context's
        engine was rebuilt (a worker pool republishes the shared key segment
        so workers rebuild their contexts on fresh engines too)."""
        try:
            self.dispatcher.deregister_client(resident.label)
        except Exception:  # noqa: BLE001 - the old registration may be gone
            pass
        self.dispatcher.register_client(resident.label, resident.context)

    def _run_rows_resilient(
        self, resident: ResidentKey, rows: List[Row], round_ctx=None
    ) -> List[LweSample]:
        """Run one round's rows down the one fault ladder.

        The round runs on the dispatcher.  An
        :class:`repro.tfhe.transform.EngineFault` rebuilds the resident's
        engine from its own spec (:meth:`FheContext.failover`), republishes
        the key to the dispatcher and replays the round where it faulted —
        at most one rebuild per round, for every client sharing the key.  A
        :class:`WorkerPoolError`, or an ``EngineFault`` after the rebuild,
        moves the round in-process, counted once in ``inline_fallbacks``;
        an ``EngineFault`` after the rebuild *in-process* fails the round.
        No partial results of a faulted attempt are used, so every replay
        is bit-identical.
        """
        context = resident.context
        in_process = rebuilt = False
        while True:
            try:
                if in_process:
                    with _round_scope(context, round_ctx):
                        return execute_rows(
                            context, rows, self.stats, self.max_rows_per_call
                        )
                return self.dispatcher.run_rows(
                    resident.label,
                    context,
                    rows,
                    self.stats,
                    self.max_rows_per_call,
                    round_ctx=round_ctx,
                )
            except (EngineFault, WorkerPoolError) as exc:
                if isinstance(exc, EngineFault) and not rebuilt:
                    rebuilt = True
                    context.failover(str(exc))
                    self.stats.engine_failovers += 1
                    self._republish(resident)
                elif in_process:
                    raise
                else:
                    in_process = True
                    self.stats.inline_fallbacks += 1

    def flush(self) -> int:
        """Run every pending job to completion; returns the rows bootstrapped.

        Each round issues, per resident key, **one** batched bootstrapping
        over every row every ready job of every sharing client wants next
        (chunked by ``max_rows_per_call`` when set).  Rounds repeat until no
        job makes progress, i.e. chained handles resolve level-by-level.

        Robust against concurrent deregistration: each resident's turn reads
        the queues it holds *then*, so a client deregistered since is simply
        absent, and ``deregister_client(force=True)`` racing the dispatch
        fails that client's handles with :class:`JobAborted` (handled by the
        exactly-once settle semantics) instead of corrupting the round.
        """
        self.stats.flushes += 1
        tel = self.telemetry
        traced = tel is not None
        total_rows = 0
        while True:
            progressed = False
            residents = self.residents
            for resident in residents:
                jobs = [
                    job
                    for queue in list(resident.queues.values())
                    for job in queue
                    if not job.done
                ]
                contributions: List[Tuple[object, int]] = []
                rows: List[Row] = []
                for job in jobs:
                    job_rows = job.pending_rows()
                    if job_rows:
                        contributions.append((job, len(job_rows)))
                        rows.extend(job_rows)
                    elif job.handle.failed:  # settled by a failed operand
                        self.stats.jobs_aborted += 1
                if not rows:
                    continue
                round_ctx = None
                if traced:
                    round_ctx = self._record_coalesce(contributions)
                flush_wall = time.time()
                flush_perf = time.perf_counter()
                outputs = self._run_rows_resilient(resident, rows, round_ctx)
                if round_ctx is not None:
                    trace_ids, flush_span_id = round_ctx
                    attrs = {"key": resident.label, "rows": len(rows)}
                    if len(trace_ids) > 1:
                        attrs["traces"] = list(trace_ids)
                    tel.tracer.record(
                        "flush",
                        trace_ids[0],
                        start=flush_wall,
                        duration=time.perf_counter() - flush_perf,
                        span_id=flush_span_id,
                        attrs=attrs,
                    )
                cursor = 0
                for job, count in contributions:
                    was_done = job.done  # failed mid-dispatch by a forced deregister
                    job.deliver(outputs[cursor : cursor + count])
                    cursor += count
                    if traced:
                        # Next coalescing window (multi-level jobs) starts now.
                        job.wait_from = time.perf_counter()
                    if job.done and not was_done:
                        if job.handle.failed:  # its generator raised
                            self.stats.jobs_aborted += 1
                            continue
                        self.stats.jobs_completed += 1
                        if traced and getattr(job, "trace_id", None) is not None:
                            tel.tracer.record(
                                "job",
                                job.trace_id,
                                start=job.submit_wall,
                                duration=time.perf_counter() - job.submit_perf,
                            )
                total_rows += len(rows)
                progressed = True
            # Drop settled jobs from the queues (in place: a client
            # deregistered meanwhile took its queue, and its count, with it).
            for resident in residents:
                for queue in list(resident.queues.values()):
                    live = [job for job in queue if not job.done]
                    self._pending -= len(queue) - len(live)
                    queue[:] = live
            if not progressed:
                break
        if self.pending_jobs:
            raise RuntimeError(
                "scheduler deadlock: pending jobs depend on handles that "
                "no queued job produces"
            )
        self.stats.rows_bootstrapped += total_rows
        return total_rows

    def _record_coalesce(self, contributions: List[Tuple[object, int]]):
        """Record each job's ``coalesce_wait`` span and mint the round ctx.

        Returns ``(trace ids, flush span id)`` for the round, or ``None``
        when no contributing job carries a trace (telemetry was attached
        after they were submitted).
        """
        tel = self.telemetry
        now_wall = time.time()
        now_perf = time.perf_counter()
        trace_ids: List[str] = []
        for job, _count in contributions:
            tid = getattr(job, "trace_id", None)
            if tid is None:
                continue
            trace_ids.append(tid)
            waited = now_perf - getattr(job, "wait_from", now_perf)
            tel.tracer.record(
                "coalesce_wait",
                tid,
                start=now_wall - waited,
                duration=waited,
            )
        if not trace_ids:
            return None
        return tuple(trace_ids), tel.tracer.new_span_id()
