"""Fault injection against the bootstrap worker pool.

The contract under test: a lost, hung or lying worker degrades *throughput*,
never *correctness*.  Every scenario runs the same workload through a
faulted pool and asserts the results are bit-identical to the inline
single-process path, that the scheduler's ``jobs_completed`` accounting
balances, and that the pool replaced exactly the workers it should have.

Fault plans are keyed by worker *spawn index* and interpreted against the
worker-local task counter (see :mod:`repro.runtime.workers`), so each
scenario is deterministic: worker 0's first task crashes, hangs, errors or
returns a poisoned result; its replacement (a fresh spawn index, no plan)
picks the requeued task up.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest
from conftest import scrape

from repro.runtime import BatchScheduler, WorkerPool, WorkerPoolError
from repro.runtime import scheduler as scheduler_module
from repro.runtime.scheduler import RowDispatcher, SchedulerStats, execute_rows
from repro.runtime.server import FheServer
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.transform import EngineFault

pytestmark = pytest.mark.filterwarnings("error::UserWarning")

BITS_A = [1, 0, 1, 1, 0, 0, 1, 0]
BITS_B = [1, 1, 0, 1, 0, 1, 0, 0]


def _same_sample(x, y) -> bool:
    return np.array_equal(x.a, y.a) and int(x.b) == int(y.b)


@pytest.fixture(scope="module")
def workload(tiny_keys_naive):
    """Eight mixed gate/LUT rows plus their inline reference outputs."""
    secret, cloud = tiny_keys_naive
    context = cloud.default_context()
    cas = [encrypt_bit(secret, b, rng=310 + i) for i, b in enumerate(BITS_A)]
    cbs = [encrypt_bit(secret, b, rng=340 + i) for i, b in enumerate(BITS_B)]
    rows = []
    for i, (ca, cb) in enumerate(zip(cas, cbs)):
        if i % 4 == 3:  # every fourth row is a programmable LUT row
            rows.append(("lut", 0b0110, (ca, cb)))  # XOR as a lookup
        else:
            rows.append(("gate", "nand", ca, cb))
    reference = execute_rows(context, rows, stats=SchedulerStats())
    return context, cas, cbs, rows, reference


def _run_with_pool(workload, pool, scheduler=None) -> tuple:
    """One scheduler flush of the workload's jobs through ``pool``."""
    context, cas, cbs, _rows, _reference = workload
    if scheduler is None:
        scheduler = BatchScheduler(dispatcher=pool)
        scheduler.register_client("tenant", context)
    session = scheduler.session("tenant")
    handles = []
    for i, (ca, cb) in enumerate(zip(cas, cbs)):
        if i % 4 == 3:
            handles.append(session.submit_lut(0b0110, [ca, cb]))
        else:
            handles.append(session.submit_gate("nand", ca, cb))
    scheduler.flush()
    return scheduler, [handle.result() for handle in handles]


FAULT_PLANS = {
    "crash": {0: {"crash_on_task": 0}},
    "hang": {0: {"hang_on_task": 0, "hang_seconds": 3600.0}},
    "error": {1: {"error_on_task": 0}},
    "poison-short": {0: {"poison_on_task": 0, "poison_mode": "short"}},
    "poison-wrong-task": {1: {"poison_on_task": 0, "poison_mode": "wrong_task"}},
    "poison-garbage": {0: {"poison_on_task": 0, "poison_mode": "garbage"}},
}


@pytest.mark.parametrize("fault", sorted(FAULT_PLANS))
def test_fault_recovers_bit_identical(workload, fault):
    """Each injected fault requeues; the flush output never changes."""
    reference = workload[4]
    with WorkerPool(
        2, task_timeout=2.0, max_retries=3, fault_plans=FAULT_PLANS[fault]
    ) as pool:
        scheduler, results = _run_with_pool(workload, pool)
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        # Accounting balances: every submitted job completed exactly once.
        assert scheduler.stats.jobs_completed == len(BITS_A)
        # The faulted worker was replaced, its chunk retried, nothing lost.
        assert pool.stats.workers_restarted == 1
        assert pool.stats.tasks_retried == 1
        assert pool.stats.tasks_dispatched == pool.stats.tasks_completed + 1
        assert pool.stats.rows_executed == len(BITS_A)
        # The pool healed: every slot alive again.
        assert all(worker.alive for worker in pool.health)


def test_kill_worker_mid_flush(workload):
    """A worker SIGKILLed from outside (no plan, no warning) is survived."""
    reference = workload[4]
    with WorkerPool(2, task_timeout=30.0) as pool:
        victim_pid = pool._workers[0].process.pid

        def _kill() -> None:
            try:
                os.kill(victim_pid, signal.SIGKILL)
            except ProcessLookupError:  # already gone: equivalent outcome
                pass

        # Kill the worker while the flush is in progress: TEST_TINY rows are
        # fast, so fire from a timer racing the flush.
        killer = threading.Timer(0.01, _kill)
        killer.start()
        try:
            scheduler, results = _run_with_pool(workload, pool)
        finally:
            killer.cancel()
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        assert scheduler.stats.jobs_completed == len(BITS_A)
        # Depending on timing the kill lands mid-task (requeue) or between
        # flushes (replaced at next assign) — either way nothing is lost and
        # at most one restart happened.
        assert pool.stats.workers_restarted <= 1
        assert all(worker.alive for worker in pool.health)


def test_timeout_is_bounded(workload):
    """A hung worker delays one flush by ~task_timeout, not forever."""
    reference = workload[4]
    with WorkerPool(
        2,
        task_timeout=1.5,
        fault_plans={0: {"hang_on_task": 0, "hang_seconds": 3600.0}},
    ) as pool:
        begin = time.monotonic()
        _, results = _run_with_pool(workload, pool)
        elapsed = time.monotonic() - begin
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        assert elapsed < 30.0  # far below the injected hang
        assert pool.stats.workers_restarted == 1


def test_retry_budget_exhaustion_raises(workload):
    """Deterministic faults surface as WorkerPoolError, not wrong results."""
    context, _cas, _cbs, rows, _reference = workload
    # Every spawn (initial worker + each replacement) errors on its first
    # task, so the task can never succeed inside max_retries.
    plans = {i: {"error_on_task": 0} for i in range(8)}
    with WorkerPool(1, task_timeout=5.0, max_retries=2, fault_plans=plans) as pool:
        with pytest.raises(WorkerPoolError, match="injected worker fault"):
            pool.run_rows("tenant", context, rows, SchedulerStats())
        # Retry accounting balances on exhaustion: the task was requeued
        # max_retries + 1 times (each attempt failed), every attempt was a
        # fresh dispatch, and NO row was ever counted as executed — a
        # failed flush contributes nothing, so rows can't double-execute.
        assert pool.stats.tasks_retried == 3
        assert pool.stats.tasks_dispatched == 3
        assert pool.stats.tasks_completed == 0
        assert pool.stats.rows_executed == 0


def test_pool_usable_after_exhaustion(workload):
    """A fatal task failure does not poison later flushes."""
    context, _cas, _cbs, rows, reference = workload
    plans = {0: {"crash_on_task": 0}, 1: {"crash_on_task": 0}}
    with WorkerPool(1, task_timeout=5.0, max_retries=1, fault_plans=plans) as pool:
        with pytest.raises(WorkerPoolError):
            pool.run_rows("tenant", context, rows, SchedulerStats())
        # Spawn index 2 carries no plan: the next flush must succeed and be
        # bit-identical (no stale results from the abandoned attempts).
        outputs = pool.run_rows("tenant", context, rows, SchedulerStats())
        assert all(_same_sample(got, want) for got, want in zip(outputs, reference))


def test_requeued_rows_never_double_execute(workload):
    """One fault, one requeue: rows execute exactly once, bit-identically."""
    reference = workload[4]
    with WorkerPool(
        2, task_timeout=2.0, max_retries=3, fault_plans={0: {"crash_on_task": 0}}
    ) as pool:
        scheduler, results = _run_with_pool(workload, pool)
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        # The requeued chunk ran once on its replacement worker — the pool's
        # row counter matches the workload exactly (no double execution),
        # and the per-worker completion counters account every task once.
        assert pool.stats.rows_executed == len(BITS_A)
        assert sum(w.tasks_completed for w in pool.health) == pool.stats.tasks_completed


def test_breaker_trips_on_restart_storm_and_degrades_inline(workload):
    """A refork storm opens the breaker; flushes degrade to inline, then heal."""
    context, _cas, _cbs, rows, reference = workload
    clock = [0.0]
    # Spawns 0-2 crash their first task; spawn 3 is healthy.  With a
    # threshold of 3 inside a 10 s window the third restart trips the
    # breaker mid-run (the run itself still completes on spawn 3).
    plans = {i: {"crash_on_task": 0} for i in range(3)}
    with WorkerPool(
        1,
        task_timeout=5.0,
        max_retries=5,
        breaker_threshold=3,
        breaker_window=10.0,
        breaker_cooldown=5.0,
        clock=lambda: clock[0],
        fault_plans=plans,
    ) as pool:
        outputs = pool.run_rows("tenant", context, rows, SchedulerStats())
        assert all(_same_sample(got, want) for got, want in zip(outputs, reference))
        assert pool.stats.workers_restarted == 3
        assert pool.stats.breaker_trips == 1
        assert pool.breaker_open
        # While open, run_rows refuses the round and touches no worker; the
        # scheduler runs it in-process — bit-identically — and counts it.
        done_before = sum(w.tasks_completed for w in pool.health)
        with pytest.raises(WorkerPoolError, match="breaker is open"):
            pool.run_rows("tenant", context, rows, SchedulerStats())
        scheduler, results = _run_with_pool(workload, pool)
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        assert scheduler.stats.inline_fallbacks == 1
        assert sum(w.tasks_completed for w in pool.health) == done_before
        # Past the cooldown the breaker half-opens (restart history cleared)
        # and the pool serves again.
        clock[0] += 6.0
        assert not pool.breaker_open
        outputs = pool.run_rows("tenant", context, rows, SchedulerStats())
        assert all(_same_sample(got, want) for got, want in zip(outputs, reference))
        assert pool.stats.breaker_trips == 1  # no re-trip without a new storm


def test_a_scrape_leaves_the_breaker_as_it_found_it(workload):
    """The breaker gauge is read on the event loop while a flush may be
    recording a restart: a scrape past the cooldown reads 0 and changes
    nothing — the next round is what half-opens the breaker."""
    context, _cas, _cbs, rows, reference = workload
    clock = [0.0]
    with WorkerPool(
        1,
        task_timeout=5.0,
        max_retries=2,
        breaker_threshold=1,
        breaker_window=10.0,
        breaker_cooldown=5.0,
        clock=lambda: clock[0],
        fault_plans={0: {"crash_on_task": 0}},
    ) as pool:
        pool.run_rows("tenant", context, rows, SchedulerStats())
        assert pool.stats.breaker_trips == 1
        server = FheServer(dispatcher=pool)
        assert scrape(server)["fhe_pool_breaker_open"] == 1
        clock[0] += 6.0  # past the cooldown
        open_until, history = pool._breaker_open_until, list(pool._restart_times)
        for _ in range(2):
            assert scrape(server)["fhe_pool_breaker_open"] == 0
        assert pool._breaker_open_until == open_until is not None
        assert list(pool._restart_times) == history != []
        completed = pool.stats.tasks_completed
        outputs = pool.run_rows("tenant", context, rows, SchedulerStats())
        assert all(_same_sample(got, want) for got, want in zip(outputs, reference))
        assert pool._breaker_open_until is None and not pool._restart_times
        assert pool.stats.tasks_completed == completed + 1  # the half-open round ran on the pool


def test_scheduler_falls_back_inline_when_pool_exhausts(workload):
    """Pool exhaustion fails the *pool*, not the clients' jobs."""
    reference = workload[4]
    plans = {i: {"error_on_task": 0} for i in range(8)}
    with WorkerPool(1, task_timeout=5.0, max_retries=1, fault_plans=plans) as pool:
        scheduler, results = _run_with_pool(workload, pool)
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        assert scheduler.stats.inline_fallbacks == 1
        assert scheduler.stats.jobs_completed == len(BITS_A)


def test_worker_engine_fault_triggers_failover():
    """A worker-side EngineFault rebuilds the engine.

    The pool does not retry it: the fault reaches the scheduler at once,
    which rebuilds the context's ``double`` engine from its spec,
    republishes the client to the pool and replays the round there —
    bit-identically.
    """
    from repro.runtime.context import FheContext
    from repro.tfhe.keys import generate_keys
    from repro.tfhe.params import TEST_TINY
    from repro.tfhe.transform import DoubleFFTNegacyclicTransform

    secret, cloud = generate_keys(
        TEST_TINY,
        DoubleFFTNegacyclicTransform(TEST_TINY.N),
        unroll_factor=1,
        rng=77,
        eager=False,
    )
    cas = [encrypt_bit(secret, b, rng=510 + i) for i, b in enumerate(BITS_A)]
    cbs = [encrypt_bit(secret, b, rng=540 + i) for i, b in enumerate(BITS_B)]
    reference_rows = [("gate", "nand", ca, cb) for ca, cb in zip(cas, cbs)]
    reference = execute_rows(FheContext(cloud), reference_rows, stats=SchedulerStats())
    # Spawn 0 faults on every task; its replacement, which serves the
    # post-failover replay, carries no plan — the fault "lives in" the
    # faulted engine instance, as a transient one would.
    plans = {0: {"engine_fault_always": True}}
    with WorkerPool(1, task_timeout=5.0, max_retries=1, fault_plans=plans) as pool:
        scheduler = BatchScheduler(dispatcher=pool)
        context = scheduler.register_client("tenant", cloud)
        engine, faulted_workspace = context.engine, context.workspace
        session = scheduler.session("tenant")
        handles = [session.submit_gate("nand", ca, cb) for ca, cb in zip(cas, cbs)]
        scheduler.flush()
        results = [handle.result() for handle in handles]
        assert all(_same_sample(got, want) for got, want in zip(results, reference))
        assert scheduler.stats.engine_failovers == 1
        assert context.engine is not engine and context.engine.engine_kind == "double"
        assert context.workspace is not faulted_workspace
        assert scheduler.stats.jobs_completed == len(BITS_A)
        assert scheduler.stats.inline_fallbacks == 0  # replayed on the pool
        assert pool.stats.tasks_retried == 0  # an engine fault is not retried
        assert pool.stats.workers_restarted == 1


def test_fault_storm_many_flushes(workload):
    """Back-to-back faulted flushes keep balancing their accounting."""
    reference = workload[4]
    plans = {
        0: {"crash_on_task": 0},
        # The first replacement poisons its first task too: two generations
        # of faults inside one pool lifetime.
        2: {"poison_on_task": 0, "poison_mode": "short"},
    }
    with WorkerPool(2, task_timeout=5.0, fault_plans=plans) as pool:
        scheduler = BatchScheduler(dispatcher=pool)
        scheduler.register_client("tenant", workload[0])
        for _ in range(3):
            _, results = _run_with_pool(workload, pool, scheduler)
            assert all(
                _same_sample(got, want) for got, want in zip(results, reference)
            )
        assert scheduler.stats.jobs_completed == 3 * len(BITS_A)
        assert pool.stats.rows_executed == 3 * len(BITS_A)
        assert pool.stats.workers_restarted == 2
        assert all(worker.alive for worker in pool.health)


LAST_ATTEMPT_FAULTS = {
    "hang": ({"hang_on_task": 0}, "timed out"),
    "error": ({"error_on_task": 0}, "injected worker fault"),
    "poison": ({"poison_on_task": 0, "poison_mode": "short"}, "bad result"),
    "crash": ({"crash_on_task": 0}, "died"),
}


@pytest.mark.parametrize("fault", sorted(LAST_ATTEMPT_FAULTS))
def test_a_worker_that_faults_on_the_last_attempt_is_replaced(workload, fault):
    """The round that spends the retry budget still replaces the worker that
    faulted, so the next round never lands on a hung or lying worker."""
    context, _cas, _cbs, rows, reference = workload
    plan, reason = LAST_ATTEMPT_FAULTS[fault]
    with WorkerPool(1, task_timeout=1.0, max_retries=0, fault_plans={0: plan}) as pool:
        with pytest.raises(WorkerPoolError, match=reason):
            pool.run_rows("tenant", context, rows, SchedulerStats())
        assert pool.stats.workers_restarted == 1
        assert [worker.spawn_index for worker in pool.health] == [1]
        outputs = pool.run_rows("tenant", context, rows, SchedulerStats())
        assert all(_same_sample(got, want) for got, want in zip(outputs, reference))
        assert pool.stats.workers_restarted == 1
        assert pool.stats.tasks_completed == 1


class _ScriptedDispatcher(RowDispatcher):
    """Runs each attempt as the shared script says: ``ok``, or raise."""

    def __init__(self, script, attempts) -> None:
        self.script = script
        self.attempts = attempts
        self.registrations = 0

    def register_client(self, client_id, context) -> None:
        self.registrations += 1

    def run_rows(self, client_id, context, rows, stats, max_rows_per_call=None, round_ctx=None):
        return _attempt("dispatcher", self.script, self.attempts, context, rows, stats)


def _attempt(where, script, attempts, context, rows, stats):
    outcome = script.pop(0)
    attempts.append((where, outcome))
    if outcome == "EF":
        raise EngineFault(f"scripted fault: {where}")
    if outcome == "WPE":
        raise WorkerPoolError("scripted pool failure")
    return execute_rows(context, rows, stats)


#: Each path down the scheduler's fault ladder: the outcome of every attempt
#: in order (``d`` on the dispatcher, ``p`` in-process), then the engine
#: rebuilds and in-process rounds it must count, and whether the round fails.
LADDER = {
    "ok": ([("d", "ok")], 0, 0, False),
    "EF-replay-ok": ([("d", "EF"), ("d", "ok")], 1, 0, False),
    "EF-replay-EF-in-process": ([("d", "EF"), ("d", "EF"), ("p", "ok")], 1, 1, False),
    "WPE-in-process": ([("d", "WPE"), ("p", "ok")], 0, 1, False),
    "WPE-in-process-EF-rebuild-in-process": (
        [("d", "WPE"), ("p", "EF"), ("p", "ok")], 1, 1, False
    ),
    "deterministic-EF-fails-the-round": (
        [("d", "EF"), ("d", "EF"), ("p", "EF")], 1, 1, True
    ),
}


@pytest.mark.parametrize("path", sorted(LADDER))
def test_the_fault_ladder(tiny_keys_naive, monkeypatch, path):
    """One round's every attempt, rebuild and in-process fallback, in order:
    at most one rebuild (each republishes the key), the in-process step
    counted once, and an engine fault after the rebuild in-process fails the
    round."""
    secret, cloud = tiny_keys_naive
    steps, rebuilds, in_process, fails = LADDER[path]
    script = [outcome for _where, outcome in steps]
    attempts = []
    monkeypatch.setattr(
        scheduler_module,
        "execute_rows",
        lambda context, rows, stats=None, max_rows_per_call=None: _attempt(
            "in-process", script, attempts, context, rows, stats
        ),
    )
    dispatcher = _ScriptedDispatcher(script, attempts)
    scheduler = BatchScheduler(dispatcher=dispatcher)
    context = scheduler.register_client("tenant", cloud)
    handle = scheduler.session("tenant").submit_gate(
        "nand", encrypt_bit(secret, 1, rng=610), encrypt_bit(secret, 1, rng=611)
    )
    if fails:
        with pytest.raises(EngineFault, match="in-process"):
            scheduler.flush()
    else:
        scheduler.flush()
        assert decrypt_bit(secret, handle.result()) == 0
    where = {"d": "dispatcher", "p": "in-process"}
    assert attempts == [(where[w], outcome) for w, outcome in steps]
    assert script == []
    assert scheduler.stats.engine_failovers == rebuilds
    assert dispatcher.registrations == 1 + rebuilds
    assert scheduler.stats.inline_fallbacks == in_process
    assert scheduler.stats.jobs_completed == (0 if fails else 1)
