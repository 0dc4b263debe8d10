"""Worker-pool sharding: bit-identity, shared-memory cache, accounting.

The load-bearing property: dispatching a flush's rows through a
multi-process :class:`WorkerPool` is **bit-identical** to the inline
single-process path — across all three transform engines, both rotators,
and mixed gate/LUT rows.  Sharding may only change *where* a row's
bootstrap runs, never its bits (rows are independent by the PR 1 batch
property, and workers rebuild — or map — exactly the parent's key state).

Also covered here: the shared-segment format (spectra are shared zero-copy
for either rotator under plain-ndarray engines, rebuilt from key bytes for
the approximate integer engine), registry lifecycle, and the pool's
stats/health accounting in the fault-free path.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest
from conftest import scrape

from repro.runtime import BatchScheduler, WorkerPool
from repro.runtime.context import FheContext
from repro.runtime.scheduler import InlineDispatcher, SchedulerStats, execute_rows
from repro.telemetry import Telemetry
from repro.runtime.workers import (
    _attach_segment,
    _context_from_segment,
    _pack_client_segment,
)
from repro.tfhe.gates import TFHEGateEvaluator, decrypt_bit, encrypt_bit
from repro.tfhe.serialize import from_bytes, to_bytes

pytestmark = pytest.mark.filterwarnings("error::UserWarning")

KEY_FIXTURES = [
    "tiny_keys_naive",       # naive engine, classical rotator
    "tiny_keys_naive_m2",    # naive engine, BKU m=2
    "small_keys_double",     # double FFT engine, classical rotator
    "small_keys_approx_m2",  # approximate integer engine, BKU m=2
]


def _mixed_rows(secret, count: int = 10):
    """Gate rows with every third row a LUT row (XOR via table 0b0110)."""
    rows = []
    plain = []
    for i in range(count):
        a, b = i & 1, (i >> 1) & 1
        ca = encrypt_bit(secret, a, rng=800 + 2 * i)
        cb = encrypt_bit(secret, b, rng=801 + 2 * i)
        if i % 3 == 2:
            rows.append(("lut", 0b0110, (ca, cb)))
            plain.append(a ^ b)
        else:
            rows.append(("gate", "nand", ca, cb))
            plain.append(1 - (a & b))
    return rows, plain


def _segment_header(segment) -> dict:
    (header_len,) = struct.unpack("<Q", bytes(segment.buf[0:8]))
    return json.loads(bytes(segment.buf[8 : 8 + header_len]).decode("utf-8"))


@pytest.mark.parametrize("fixture", KEY_FIXTURES)
def test_sharded_flush_bit_identical(request, fixture):
    """Pool output == inline output, bit for bit, on mixed gate/LUT rows."""
    secret, cloud = request.getfixturevalue(fixture)
    context = cloud.default_context()
    rows, plain = _mixed_rows(secret)
    reference = execute_rows(context, rows, stats=SchedulerStats())
    with WorkerPool(3, task_timeout=60.0) as pool:
        sharded = pool.run_rows("tenant", context, rows, SchedulerStats())
    assert len(sharded) == len(reference)
    for got, want, bit in zip(sharded, reference, plain):
        assert np.array_equal(got.a, want.a)
        assert int(got.b) == int(want.b)
        assert decrypt_bit(secret, got) == bit


@pytest.mark.parametrize("fixture", KEY_FIXTURES)
def test_scheduler_flush_through_pool(request, fixture):
    """End-to-end scheduler path: coalesced jobs, pool dispatch, handles."""
    secret, cloud = request.getfixturevalue(fixture)
    context = FheContext(cloud)
    inline = BatchScheduler()
    inline.register_client("c", FheContext(cloud))
    with WorkerPool(2, task_timeout=60.0) as pool:
        pooled = BatchScheduler(dispatcher=pool)
        pooled.register_client("c", context)
        handles = {}
        for scheduler in (inline, pooled):
            session = scheduler.session("c")
            chained = session.submit_gate(
                "xor",
                encrypt_bit(secret, 1, rng=901),
                encrypt_bit(secret, 0, rng=902),
            )
            # A handle-chained gate exercises multi-round flushes.
            final = session.submit_gate(
                "and", chained, encrypt_bit(secret, 1, rng=903)
            )
            lut = session.submit_lut(
                0b0111, [encrypt_bit(secret, 0, rng=904), encrypt_bit(secret, 1, rng=905)]
            )
            scheduler.flush()
            handles[scheduler is pooled] = (final.result(), lut.result())
    for got, want in zip(handles[True], handles[False]):
        assert np.array_equal(got.a, want.a)
        assert int(got.b) == int(want.b)
    assert inline.stats.jobs_completed == pooled.stats.jobs_completed == 3


@pytest.mark.parametrize(
    "fixture", ["tiny_keys_naive", "tiny_keys_naive_m2", "small_keys_double"]
)
def test_spectrum_is_shared_for_plain_engines(request, fixture):
    """Plain-ndarray engine → spectra ride the segment, for either rotator."""
    _, cloud = request.getfixturevalue(fixture)
    context = cloud.default_context()
    segment = _pack_client_segment(context)
    try:
        header = _segment_header(segment)
        assert header["spectrum"] is not None
        assert header["spectrum"]["shape"][0] == context.cached_tgsw_samples
        assert context.cached_tgsw_samples == len(cloud.bootstrapping_key)
    finally:
        segment.close()
        segment.unlink()


def test_spectrum_falls_back_for_approx(small_keys_approx_m2):
    """IntegerSpectrum tensors rebuild from key bytes instead."""
    _, cloud = small_keys_approx_m2
    context = cloud.default_context()
    segment = _pack_client_segment(context)
    try:
        assert _segment_header(segment)["spectrum"] is None
    finally:
        segment.close()
        segment.unlink()


@pytest.mark.parametrize("fixture", ["tiny_keys_naive", "tiny_keys_naive_m2"])
def test_context_from_segment_matches_parent(request, fixture):
    """A worker-side rebuilt context bootstraps bit-identically in-parent."""
    secret, cloud = request.getfixturevalue(fixture)
    parent = cloud.default_context()
    segment = _pack_client_segment(parent)
    try:
        attached = _attach_segment(segment.name)
        try:
            rebuilt = _context_from_segment(attached)
            # The shared-spectrum path installed the rotator without a
            # single forward transform of bootstrapping-key material.
            assert rebuilt.spectra_cached
            assert type(rebuilt.rotator) is type(parent.rotator)
            assert rebuilt.cached_tgsw_samples == parent.cached_tgsw_samples
            sample = encrypt_bit(secret, 1, rng=777)
            want = TFHEGateEvaluator(parent).nand(sample, sample)
            got = TFHEGateEvaluator(rebuilt).nand(sample, sample)
            assert np.array_equal(got.a, want.a) and int(got.b) == int(want.b)
            # The mapped spectra are read-only views into shared pages.
            for key in rebuilt.rotator.bootstrapping_key:
                assert not key.tensor.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                rebuilt.rotator.bootstrapping_key[0].tensor[...] = 0
        finally:
            attached.close()
    finally:
        segment.close()
        segment.unlink()


def test_install_spectra_refuses_after_cache_build(tiny_keys_naive):
    _, cloud = tiny_keys_naive
    context = FheContext(cloud)
    rotator = context.rotator  # builds the cache
    with pytest.raises(RuntimeError, match="already built"):
        context.install_spectra(rotator.bootstrapping_key)


def test_pool_stats_and_chunking(tiny_keys_naive):
    """Fault-free accounting: chunk split, batched-call stats, health."""
    secret, cloud = tiny_keys_naive
    context = cloud.default_context()
    rows, _ = _mixed_rows(secret, count=9)
    stats = SchedulerStats()
    with WorkerPool(3, task_timeout=60.0) as pool:
        pool.run_rows("tenant", context, rows, stats, max_rows_per_call=2)
        assert pool.stats.tasks_dispatched == 3  # 9 rows → 3 chunks of 3
        assert pool.stats.tasks_completed == 3
        assert pool.stats.tasks_retried == 0
        assert pool.stats.workers_restarted == 0
        assert pool.stats.rows_executed == 9
        # Each 3-row chunk honours max_rows_per_call=2 → 2 calls per chunk.
        assert stats.batched_calls == 6
        assert stats.max_rows_per_call == 2
        health = pool.health
        assert len(health) == 3
        assert all(worker.alive for worker in health)
        assert sum(worker.tasks_completed for worker in health) == 3


def test_single_worker_single_row(tiny_keys_naive):
    """Degenerate sizes: 1 worker, 1 row."""
    secret, cloud = tiny_keys_naive
    context = cloud.default_context()
    ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
    reference = execute_rows(context, [("gate", "nand", ca, cb)], stats=SchedulerStats())
    with WorkerPool(1, task_timeout=60.0) as pool:
        out = pool.run_rows("t", context, [("gate", "nand", ca, cb)], SchedulerStats())
    assert np.array_equal(out[0].a, reference[0].a)
    assert int(out[0].b) == int(reference[0].b)
    with WorkerPool(1, task_timeout=60.0) as pool:
        assert pool.run_rows("t", context, [], SchedulerStats()) == []


def test_multi_client_isolation_through_one_pool(tiny_keys_naive):
    """Two tenants' keys share the pool but never a bootstrap."""
    secret_a, cloud_a = tiny_keys_naive
    from repro.tfhe.keys import generate_keys
    from repro.tfhe.params import TEST_TINY
    from repro.tfhe.transform import NaiveNegacyclicTransform

    secret_b, cloud_b = generate_keys(
        TEST_TINY, NaiveNegacyclicTransform(TEST_TINY.N), unroll_factor=1, rng=51
    )
    with WorkerPool(2, task_timeout=60.0) as pool:
        scheduler = BatchScheduler(dispatcher=pool)
        scheduler.register_client("a", FheContext(cloud_a))
        scheduler.register_client("b", FheContext(cloud_b))
        ha = scheduler.session("a").submit_gate(
            "nand", encrypt_bit(secret_a, 1, rng=3), encrypt_bit(secret_a, 1, rng=4)
        )
        hb = scheduler.session("b").submit_gate(
            "nand", encrypt_bit(secret_b, 1, rng=5), encrypt_bit(secret_b, 1, rng=6)
        )
        scheduler.flush()
        assert decrypt_bit(secret_a, ha.result()) == 0
        assert decrypt_bit(secret_b, hb.result()) == 0
        assert len(pool._segments) == 2


def test_sharers_of_one_key_hold_one_segment_until_the_last_leaves(tiny_keys_naive):
    """The pool is keyed by the resident's label, not by a client id: two
    sharers publish one segment, it survives the *first* registrant leaving,
    and the last one unlinks it."""
    secret, cloud = tiny_keys_naive
    with WorkerPool(2, task_timeout=60.0) as pool:
        scheduler = BatchScheduler(dispatcher=pool)
        scheduler.register_client("first", cloud)
        scheduler.register_client("second", from_bytes(to_bytes(cloud)))
        (segment,) = pool._segments.values()
        handles = [
            scheduler.session(cid).submit_gate(
                "nand", encrypt_bit(secret, 1, rng=11), encrypt_bit(secret, 1, rng=12)
            )
            for cid in ("first", "second")
        ]
        assert scheduler.flush() == 2
        assert pool.stats.tasks_dispatched == 2  # one 2-row call, split over 2 workers
        assert all(decrypt_bit(secret, handle.result()) == 0 for handle in handles)

        scheduler.deregister_client("first")
        assert list(pool._segments.values()) == [segment]
        late = scheduler.session("second").submit_gate(
            "nand", encrypt_bit(secret, 0, rng=13), encrypt_bit(secret, 1, rng=14)
        )
        scheduler.flush()
        assert decrypt_bit(secret, late.result()) == 1

        scheduler.deregister_client("second")
        assert not pool._segments
        with pytest.raises(FileNotFoundError):
            _attach_segment(segment.name)
        assert not os.path.exists(f"/dev/shm/{segment.name.lstrip('/')}")


def test_register_deregister_lifecycle(tiny_keys_naive):
    secret, cloud = tiny_keys_naive
    context = cloud.default_context()
    pool = WorkerPool(1, task_timeout=60.0)
    try:
        pool.register_client("c", context)
        with pytest.raises(ValueError, match="already registered"):
            pool.register_client("c", context)
        name = pool._segments["c"].name
        pool.deregister_client("c")
        assert "c" not in pool._segments
        # The segment is gone from the system, not just the dict.
        with pytest.raises(FileNotFoundError):
            _attach_segment(name)
        pool.deregister_client("c")  # idempotent
        # run_rows on an unknown client auto-registers.
        rows = [("gate", "and", encrypt_bit(secret, 1, rng=7), encrypt_bit(secret, 1, rng=8))]
        out = pool.run_rows("fresh", context, rows, SchedulerStats())
        assert decrypt_bit(secret, out[0]) == 1
        assert "fresh" in pool._segments
    finally:
        pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run_rows("c", context, [("gate", "and", None, None)], SchedulerStats())
    with pytest.raises(RuntimeError, match="closed"):
        pool.register_client("d", context)
    pool.close()  # idempotent


def test_scheduler_deregister_refuses_pending(tiny_keys_naive):
    secret, cloud = tiny_keys_naive
    scheduler = BatchScheduler()
    scheduler.register_client("c", FheContext(cloud))
    session = scheduler.session("c")
    session.submit_gate("nand", encrypt_bit(secret, 1, rng=9), encrypt_bit(secret, 0, rng=10))
    with pytest.raises(RuntimeError, match="pending jobs"):
        scheduler.deregister_client("c")
    scheduler.flush()
    scheduler.deregister_client("c")
    with pytest.raises(KeyError):
        scheduler.client_context("c")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
def test_one_account_per_round(tiny_keys_naive, pooled, traced):
    """A round's calls, widths and transform calls reach the scrape once,
    as ``execute_rows`` records them for each slice the dispatcher ran —
    in the parent or in a worker, traced or not."""
    secret, cloud = tiny_keys_naive
    rows, _ = _mixed_rows(secret, 8)
    chunk = 3
    slices = [rows[:4], rows[4:]] if pooled else [rows]
    want = Telemetry()
    want_stats = SchedulerStats()
    reference = FheContext(cloud)
    reference.rotator  # the spectrum cache is built before the round, as a registration does
    reference.telemetry = want
    for part in slices:
        execute_rows(reference, part, want_stats, chunk)

    tel = Telemetry()
    dispatcher = WorkerPool(2, task_timeout=60.0) if pooled else InlineDispatcher()
    try:
        scheduler = BatchScheduler(max_rows_per_call=chunk, dispatcher=dispatcher, telemetry=tel)
        context = scheduler.register_client("c", cloud)
        context.rotator
        (resident,) = scheduler.residents
        round_ctx = (("trace-0",), "span-0") if traced else None
        dispatcher.run_rows(
            resident.label, context, rows, scheduler.stats, chunk, round_ctx=round_ctx
        )
    finally:
        getattr(dispatcher, "close", lambda: None)()

    got = scrape(tel)
    assert got["fhe_batched_calls_total"] == want_stats.batched_calls == (4 if pooled else 3)
    got_snap, want_snap = tel.registry.snapshot(), want.registry.snapshot()
    for family in ("fhe_rows_per_call", "fhe_engine_transform_calls_total"):
        assert got_snap[family]["series"] == want_snap[family]["series"], family
    assert got["fhe_engine_transform_calls_total"] > 0
    assert scheduler.stats.max_rows_per_call == want_stats.max_rows_per_call == chunk
