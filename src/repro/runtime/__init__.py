"""The serving runtime: evaluation contexts and cross-session batch scheduling.

This layer turns the TFHE substrate into something a server can run:

* :class:`repro.runtime.context.FheContext` — owns the parameter set, the
  transform engine (resolved from the engine registry), the key-switching key
  and the **cloud-key spectrum cache**: every bootstrapping-key row is
  forward-transformed into the Lagrange domain exactly once per context, then
  kept resident — the software analogue of the paper's accelerator keeping
  the bootstrapping key next to the datapath.
* :class:`repro.runtime.scheduler.BatchScheduler` /
  :class:`repro.runtime.scheduler.EvaluationSession` — aggregate gate and
  circuit jobs from many independent sessions and coalesce same-key work
  into single mixed-gate batched bootstrappings, turning the batch axis into
  a multi-tenant throughput mechanism.

* :class:`repro.runtime.workers.WorkerPool` — a fault-tolerant
  ``multiprocessing`` row dispatcher: flush rows shard across worker
  processes that map the cloud-key spectrum cache from shared memory;
  crashes, hangs and poisoned results requeue instead of corrupting, and
  what the pool cannot finish it reports to the scheduler's fault ladder.
* :class:`repro.runtime.server.FheServer` /
  :class:`repro.runtime.protocol.ServingClient` — the network front: an
  asyncio socket server speaking CRC-protected length-prefixed frames that
  carry the flat-container artifacts and circuit JSON of
  :mod:`repro.tfhe.serialize`, with
  per-connection key namespaces, durable client sessions (idempotent
  retries answered from a bounded reply cache), bounded-queue backpressure,
  deadline-aware load shedding, graceful drain, and a live metrics
  endpoint.
* :class:`repro.runtime.resilient.ResilientClient` — the retrying client:
  reconnect with capped exponential backoff, key re-registration and
  resubmission of unacknowledged requests under the session token, typed
  retryable-error policy, per-request deadlines.
* :mod:`repro.runtime.chaos` — deterministic fault injection
  (:class:`ChaosProxy`, :class:`FlakyEngine`, :class:`SlowDispatcher`) for
  the resilience integration suite and operational drills (see
  ``docs/operations.md``).

Keys and ciphertexts move between clients and a scheduler-running server via
:mod:`repro.tfhe.serialize`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".chaos": ("ChaosProxy", "FlakyEngine", "SlowDispatcher"),
        ".context": ("FheContext",),
        ".protocol": (
            "ChecksumMismatch",
            "JobAbortedError",
            "JobShed",
            "ProtocolError",
            "ServerBusy",
            "ServerDraining",
            "ServerError",
            "ServingClient",
            "error_class_for_kind",
        ),
        ".resilient": ("DeadlineExceeded", "ResilientClient", "RetryStats"),
        ".scheduler": (
            "BatchScheduler",
            "EvaluationSession",
            "InlineDispatcher",
            "JobAborted",
            "JobHandle",
            "RowDispatcher",
            "SchedulerBusy",
            "SchedulerStats",
            "WorkerPoolError",
            "execute_rows",
        ),
        ".server": ("FheServer",),
        ".workers": ("PoolStats", "WorkerHealth", "WorkerPool"),
    },
)
