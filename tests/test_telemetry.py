"""The unified telemetry subsystem: registry, tracing, exposition, end-to-end.

Unit layers first (metric families, bound families, histogram bucket-edge
semantics, the Prometheus render→parse round trip, the tracer ring), then
the integration properties:

* a traced job submitted through an **inline** scheduler leaves the full
  span taxonomy in the ring, correctly parented;
* spans recorded inside **forked worker processes** cross the result pipe
  and land in the parent's ring, stitched under the round's flush span;
* a circuit submitted over the wire with a client trace id exports a valid
  Chrome trace-event document covering every serving stage;
* a :class:`ResilientClient` disconnect mid-request resubmits under the
  *same* trace id, so the server records one trace with two reply attempts;
* ``FheServer.metrics()`` keeps its legacy dict shape (the ops-tooling
  contract);
* every counter has one store: a family with a field twin reads the field
  at scrape, and nothing in ``src/`` writes such a family.
"""

from __future__ import annotations

import ast
import inspect
import json
import math
import os
import re
import socket
import struct
import time
import warnings
from pathlib import Path

import pytest

from repro.runtime import BatchScheduler, WorkerPool
from repro.runtime.protocol import ServingClient, pack_parts, unpack_parts
from repro.runtime.resilient import DeadlineExceeded, ResilientClient
from repro.runtime.scheduler import InlineDispatcher, RowDispatcher, execute_rows
from repro.runtime.server import FheServer
from repro.runtime.workers import PoolStats
from repro.telemetry import (
    MetricError,
    MetricsRegistry,
    PrometheusParseError,
    Telemetry,
    Tracer,
    parse_prometheus_text,
    render_prometheus,
)
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import TEST_TINY
from repro.tfhe.serialize import circuit_to_json, from_bytes, to_bytes
from repro.tfhe.transform import DoubleFFTNegacyclicTransform

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


@pytest.fixture(scope="module")
def wire_keys():
    """One TEST_TINY double-engine keypair shared by the telemetry tests."""
    return generate_keys(
        TEST_TINY,
        DoubleFFTNegacyclicTransform(TEST_TINY.N),
        unroll_factor=1,
        rng=61,
        eager=False,
    )


# --------------------------------------------------------------------------- #
# metrics registry                                                            #
# --------------------------------------------------------------------------- #


def test_counter_gauge_basics():
    reg = MetricsRegistry()
    jobs = reg.counter("fhe_jobs_total", "jobs", labelnames=("op",))
    jobs.labels(op="gate").inc()
    jobs.labels(op="gate").inc(2)
    jobs.labels(op="lut").inc()
    depth = reg.gauge("fhe_queue_depth", "queue")
    depth.set(7)
    depth.dec(3)

    snap = reg.snapshot()
    gate = next(
        s for s in snap["fhe_jobs_total"]["series"] if s["labels"] == {"op": "gate"}
    )
    assert gate["value"] == 3
    assert snap["fhe_queue_depth"]["series"][0]["value"] == 4

    # Re-declaration is get-or-create; a shape mismatch is an error, not a
    # silent second family.
    assert reg.counter("fhe_jobs_total", labelnames=("op",)) is jobs
    with pytest.raises(MetricError):
        reg.counter("fhe_jobs_total", labelnames=("kind",))
    with pytest.raises(MetricError):
        reg.gauge("fhe_jobs_total")
    with pytest.raises(MetricError):
        reg.counter("0-bad-name")

    reg.reset()
    assert all(
        s["value"] == 0 for s in reg.snapshot()["fhe_jobs_total"]["series"]
    )


def test_histogram_bucket_edges():
    """An observation equal to a bound lands in that bound's bucket
    (Prometheus inclusive ``le``); past the last bound only +Inf grows."""
    reg = MetricsRegistry()
    hist = reg.histogram("fhe_lat_seconds", "lat", buckets=(0.1, 1.0, 5.0))

    hist.observe(0.1)  # == first bound → first bucket
    hist.observe(1.0)  # == second bound → second bucket
    hist.observe(0.5)  # interior → second bucket
    hist.observe(99.0)  # overflow → +Inf only

    (series,) = reg.snapshot()["fhe_lat_seconds"]["series"]
    buckets = {le: n for le, n in series["buckets"]}
    assert buckets[0.1] == 1
    assert buckets[1.0] == 3  # cumulative: the 0.1 obs plus both le-1.0 obs
    assert buckets[5.0] == 3  # overflow did NOT land here
    assert buckets[math.inf] == 4 == series["count"]
    assert series["sum"] == pytest.approx(100.6)
    assert hist.quantile(0.5) == 1.0

    with pytest.raises(MetricError):
        reg.histogram("fhe_bad", buckets=(1.0, 1.0))
    with pytest.raises(MetricError):
        reg.histogram("fhe_lat_seconds", buckets=(0.25, 2.0))  # shape mismatch


def test_prometheus_render_parse_roundtrip():
    reg = MetricsRegistry()
    reg.counter("fhe_jobs_total", "submitted jobs", labelnames=("op",)).labels(
        op='we"ird\\op'
    ).inc(5)
    reg.gauge("fhe_uptime_seconds", "uptime").set(12.5)
    hist = reg.histogram("fhe_flush_seconds", "flush", buckets=(0.01, 0.1))
    hist.observe(0.05)
    hist.observe(3.0)

    text = render_prometheus(reg.snapshot())
    families = parse_prometheus_text(text)

    assert families["fhe_jobs_total"]["type"] == "counter"
    ((name, labels, value),) = families["fhe_jobs_total"]["samples"]
    assert labels == {"op": 'we"ird\\op'} and value == 5

    assert families["fhe_uptime_seconds"]["samples"][0][2] == 12.5

    flush = families["fhe_flush_seconds"]
    assert flush["type"] == "histogram"
    by_name = {}
    for name, labels, value in flush["samples"]:
        by_name.setdefault(name, []).append((labels, value))
    assert [v for _, v in by_name["fhe_flush_seconds_bucket"]] == [0, 1, 2]
    assert by_name["fhe_flush_seconds_count"][0][1] == 2
    assert by_name["fhe_flush_seconds_sum"][0][1] == pytest.approx(3.05)

    # The parser is a validator too: a non-monotone bucket series is refused.
    broken = text.replace(
        'fhe_flush_seconds_bucket{le="+Inf"} 2',
        'fhe_flush_seconds_bucket{le="+Inf"} 1',
    )
    with pytest.raises(PrometheusParseError):
        parse_prometheus_text(broken)


def test_telemetry_hot_path_helpers():
    """`count`/`observe` cache the bound series and honour the kill switch."""
    tel = Telemetry()
    tel.count("fhe_x_total")
    tel.count("fhe_x_total", amount=2)
    tel.count("fhe_y_total", op="gate")
    tel.observe("fhe_z_seconds", 0.2, buckets=(0.1, 1.0))

    snap = tel.registry.snapshot()
    assert snap["fhe_x_total"]["series"][0]["value"] == 3
    assert snap["fhe_y_total"]["series"][0]["labels"] == {"op": "gate"}
    assert snap["fhe_z_seconds"]["series"][0]["count"] == 1

    # Cached handles survive a reset (children are zeroed in place).
    tel.registry.reset()
    tel.count("fhe_x_total")
    assert tel.registry.snapshot()["fhe_x_total"]["series"][0]["value"] == 1

    off = Telemetry(metrics=False)
    off.count("fhe_x_total")
    off.observe("fhe_z_seconds", 1.0)
    assert off.registry.snapshot() == {}


def test_bound_family_reads_its_owner_and_refuses_updates():
    """A bound family is its owner's field read at snapshot: present at zero
    before its first event, refusing inc/set, untouched by reset, bound once."""
    state = {"events": 0, "depth": 3}
    tel = Telemetry()
    reg = tel.registry
    events = reg.bind_counter("fhe_events_total", "events", lambda: state["events"])
    depth = reg.bind_gauge("fhe_depth", "depth", lambda: state["depth"])

    text = tel.render_prometheus()
    assert "fhe_events_total 0\n" in text and "fhe_depth 3\n" in text
    state["events"] = 5
    assert reg.snapshot()["fhe_events_total"]["series"][0]["value"] == 5

    for update in (events.inc, depth.set, depth.inc, depth.dec):
        with pytest.raises(MetricError):
            update(1)
    with pytest.raises(MetricError):
        tel.count("fhe_events_total")  # the hot-path helper cannot write it either
    reg.reset()
    assert reg.snapshot()["fhe_events_total"]["series"][0]["value"] == 5

    with pytest.raises(MetricError):
        reg.bind_counter("fhe_events_total", "again", lambda: 0)
    reg.counter("fhe_stored_total").inc()
    with pytest.raises(MetricError):
        reg.bind_gauge("fhe_stored_total", "a stored name", lambda: 0)


# --------------------------------------------------------------------------- #
# tracer                                                                      #
# --------------------------------------------------------------------------- #


def test_tracer_ring_is_bounded_and_filterable():
    tracer = Tracer(ring_size=4)
    for i in range(7):
        tracer.record(f"s{i}", trace_id=f"t{i % 2}", start=float(i), duration=0.1)
    spans = tracer.spans()
    assert [s.name for s in spans] == ["s3", "s4", "s5", "s6"]  # oldest dropped
    assert tracer.dropped == 3  # ...and counted
    assert [s.name for s in tracer.spans("t0")] == ["s4", "s6"]
    assert tracer.trace_ids() == ["t1", "t0"]

    # Batch spans list their participants; membership resolves either way.
    tracer.record(
        "flush", trace_id="t0", start=8.0, duration=0.2, attrs={"traces": ["t0", "t1"]}
    )
    assert "flush" in [s.name for s in tracer.spans("t1")]


def test_tracer_exports_and_pipe_tuples():
    tracer = Tracer()
    root = tracer.record("job", trace_id="t", start=1.0, duration=0.5)
    tracer.record(
        "keyswitch", trace_id="t", start=1.1, duration=0.1, parent_id=root
    )

    doc = json.loads(tracer.export_json())
    assert [d["name"] for d in doc] == ["job", "keyswitch"]
    assert doc[1]["parent_id"] == root

    chrome = json.loads(tracer.export_chrome())
    assert chrome["displayTimeUnit"] == "ms"
    for event in chrome["traceEvents"]:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], float) and isinstance(event["dur"], float)
    assert chrome["traceEvents"][0]["ts"] == pytest.approx(1.0e6)

    # Worker-side spans travel as tuples and are re-ingested verbatim.
    other = Tracer()
    for record in [s.to_tuple() for s in tracer.spans()]:
        other.ingest(record)
    assert [s.name for s in other.spans("t")] == ["job", "keyswitch"]
    with pytest.raises(ValueError):
        other.ingest((1, 2, 3, 4, 5, 6, 7))

    # An ingested span that overflows the ring is counted like a recorded one.
    small = Tracer(ring_size=1)
    for record in [s.to_tuple() for s in tracer.spans()]:
        small.ingest(record)
    assert [s.name for s in small.spans()] == ["keyswitch"] and small.dropped == 1


def test_trace_ids_are_unique_and_never_a_clients():
    ids = {Tracer().new_trace_id() for _ in range(100_000)}
    assert len(ids) == 100_000
    # Clients mint uuid4().hex: 32 hex digits, never a dot.
    assert all("." in trace_id and len(trace_id) < 32 for trace_id in ids)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_mints_trace_ids_of_its_own():
    Tracer.new_trace_id()  # the counter has moved before the fork
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: mint, report, leave without pytest's teardown
        try:
            os.write(write_end, json.dumps([Tracer.new_trace_id() for _ in range(100)]).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    parent = {Tracer.new_trace_id() for _ in range(100)}
    with os.fdopen(read_end, "rb") as pipe:
        child = set(json.loads(pipe.read()))
    os.waitpid(pid, 0)
    assert len(child) == 100 and not child & parent


# --------------------------------------------------------------------------- #
# scheduler integration                                                       #
# --------------------------------------------------------------------------- #


def _span_index(spans):
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    return by_name


def test_inline_scheduler_records_full_taxonomy(wire_keys):
    secret, cloud = wire_keys
    tel = Telemetry()
    scheduler = BatchScheduler(telemetry=tel)
    scheduler.register_client("tenant", cloud)
    session = scheduler.session("tenant")

    handles = [
        session.submit_gate(
            "nand",
            encrypt_bit(secret, i & 1, rng=300 + 2 * i),
            encrypt_bit(secret, (i >> 1) & 1, rng=301 + 2 * i),
            trace_id=f"trace-{i}",
        )
        for i in range(4)
    ]
    scheduler.flush()
    assert decrypt_bit(secret, handles[3].result()) == 0  # NAND(1, 1)

    spans = tel.tracer.spans("trace-3")
    by_name = _span_index(spans)
    for must in ("enqueue", "coalesce_wait", "flush", "engine_contract",
                 "keyswitch", "job"):
        assert must in by_name, f"missing {must!r} in {sorted(by_name)}"

    # Parenting: batch stages hang off the round's flush span; the per-job
    # wait and root spans carry the job's own trace.
    (flush_span,) = by_name["flush"]
    assert by_name["engine_contract"][0].parent_id == flush_span.span_id
    assert by_name["keyswitch"][0].parent_id == flush_span.span_id
    assert by_name["coalesce_wait"][0].trace_id == "trace-3"
    (job_span,) = by_name["job"]
    assert job_span.parent_id is None
    assert job_span.duration >= by_name["coalesce_wait"][0].duration >= 0.0

    # All four traces share the one batched flush round.
    assert set(flush_span.attrs["traces"]) == {f"trace-{i}" for i in range(4)}

    # Metrics moved in lockstep.
    snap = tel.registry.snapshot()
    submitted = snap["fhe_jobs_submitted_total"]["series"]
    assert sum(s["value"] for s in submitted) == 4
    assert snap["fhe_flushes_total"]["series"][0]["value"] >= 1
    assert snap["fhe_rows_bootstrapped_total"]["series"][0]["value"] >= 4
    assert snap["fhe_rows_per_call"]["series"][0]["count"] >= 1


#: Each counter family a scheduler binds → the ``SchedulerStats`` field it reads.
SCHEDULER_TWINS = {
    "fhe_flushes_total": "flushes",
    "fhe_rows_bootstrapped_total": "rows_bootstrapped",
    "fhe_batched_calls_total": "batched_calls",
    "fhe_jobs_completed_total": "jobs_completed",
    "fhe_engine_failovers_total": "engine_failovers",
    "fhe_inline_fallbacks_total": "inline_fallbacks",
}


def test_scheduler_registry_reads_its_stats_fields(wire_keys):
    """Library use: the registry a scheduler reports into shows its stats,
    field for field, before and after work (one store, read twice)."""
    secret, cloud = wire_keys
    tel = Telemetry()
    scheduler = BatchScheduler(telemetry=tel, max_rows_per_call=2)

    def assert_twins():
        snap = tel.registry.snapshot()
        for family, field in SCHEDULER_TWINS.items():
            (series,) = snap[family]["series"]
            assert series["value"] == getattr(scheduler.stats, field), family

    assert_twins()  # present at zero before the first event
    scheduler.register_client("tenant", cloud)
    session = scheduler.session("tenant")
    first = session.submit_gate(
        "and", encrypt_bit(secret, 1, rng=560), encrypt_bit(secret, 1, rng=561)
    )
    for i in range(3):
        session.submit_gate(
            "or", encrypt_bit(secret, i & 1, rng=562 + i), encrypt_bit(secret, 0, rng=570 + i)
        )
    chained = session.submit_gate("xor", first, first)
    scheduler.flush()
    assert decrypt_bit(secret, chained.result()) == 0
    assert scheduler.stats.batched_calls > scheduler.stats.flushes > 0
    assert_twins()


def test_untraced_scheduler_records_nothing(wire_keys):
    """telemetry=None keeps the ring and registry out of the picture entirely
    (the zero-overhead contract's observable half)."""
    secret, cloud = wire_keys
    scheduler = BatchScheduler()
    scheduler.register_client("tenant", cloud)
    session = scheduler.session("tenant")
    handle = session.submit_gate(
        "nand", encrypt_bit(secret, 1, rng=310), encrypt_bit(secret, 1, rng=311)
    )
    scheduler.flush()
    assert decrypt_bit(secret, handle.result()) == 0
    assert scheduler.telemetry is None


def test_trace_crosses_worker_pool_process_boundary(wire_keys):
    """Spans recorded inside forked workers come back over the result pipe
    into the parent ring, parented under the round's flush span."""
    secret, cloud = wire_keys
    tel = Telemetry()
    with WorkerPool(2, task_timeout=60.0) as pool:
        scheduler = BatchScheduler(dispatcher=pool, telemetry=tel)
        scheduler.register_client("tenant", cloud)
        session = scheduler.session("tenant")
        handles = [
            session.submit_gate(
                "xor",
                encrypt_bit(secret, i & 1, rng=400 + 2 * i),
                encrypt_bit(secret, (i >> 1) & 1, rng=401 + 2 * i),
                trace_id=f"pooled-{i}",
            )
            for i in range(6)
        ]
        scheduler.flush()
        for i, handle in enumerate(handles):
            assert decrypt_bit(secret, handle.result()) == (i & 1) ^ ((i >> 1) & 1)

    by_name = _span_index(tel.tracer.spans("pooled-0"))
    (flush_span,) = by_name["flush"]
    assert "worker_dispatch" in by_name
    for dispatch in by_name["worker_dispatch"]:
        assert dispatch.parent_id == flush_span.span_id

    # The engine stages ran inside the forked workers: their span ids carry
    # the *worker's* pid prefix, proving they crossed the pipe rather than
    # being re-recorded by the parent.
    parent_prefix = tel.tracer._id_prefix
    contracts = by_name["engine_contract"]
    assert contracts and all(
        not span.span_id.startswith(parent_prefix) for span in contracts
    )
    assert "keyswitch" in by_name

    # Worker accounting (batch calls, engine transform deltas measured
    # inside the forked processes) reached the parent registry.
    snap = tel.registry.snapshot()
    assert snap["fhe_batched_calls_total"]["series"][0]["value"] >= 1
    assert snap["fhe_rows_per_call"]["series"][0]["count"] >= 1
    transform = snap["fhe_engine_transform_calls_total"]["series"]
    assert sum(s["value"] for s in transform) > 0


# --------------------------------------------------------------------------- #
# server end to end                                                           #
# --------------------------------------------------------------------------- #


def test_server_end_to_end_trace_and_prometheus(server_factory, wire_keys):
    """The PR's acceptance path: a circuit submitted over the wire with a
    client-chosen trace id, served by a 2-worker pool, exports a valid
    Chrome trace-event document spanning every serving stage; the metrics
    endpoint renders parseable Prometheus text."""
    secret, cloud = wire_keys
    with WorkerPool(2, task_timeout=120.0) as pool:
        server = server_factory(dispatcher=pool, flush_interval=0.02)
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            a_val, b_val = 3, 1
            bits = [encrypt_bit(secret, (a_val >> i) & 1, rng=500 + i) for i in range(2)]
            bits += [encrypt_bit(secret, (b_val >> i) & 1, rng=510 + i) for i in range(2)]
            request_id = client.submit(
                "circuit",
                pack_parts([to_bytes(LweBatch.from_samples(bits))]),
                circuit=json.loads(circuit_to_json(adder_netlist(2))),
                trace="acceptance-trace",
            )
            _, body = client.result(request_id)
            out = from_bytes(unpack_parts(body, expected=1)[0])
            total = sum(
                decrypt_bit(secret, s) << i for i, s in enumerate(out.to_samples())
            )
            assert total == a_val + b_val

            # Chrome trace-event export, filtered to our trace.
            _, trace_body = client.call("trace_export", trace="acceptance-trace")
            doc = json.loads(trace_body.decode("utf-8"))
            names = {event["name"] for event in doc["traceEvents"]}
            for must in ("enqueue", "coalesce_wait", "flush", "worker_dispatch",
                         "engine_contract", "keyswitch", "job", "reply"):
                assert must in names, f"missing {must!r} in {sorted(names)}"
            for event in doc["traceEvents"]:
                assert event["ph"] == "X"
                for key in ("name", "ts", "dur", "pid", "tid", "args"):
                    assert key in event
                assert event["args"]["trace_id"]

            # Prometheus exposition parses and carries the serving families.
            _, prom_body = client.call("metrics_prom")
            families = parse_prometheus_text(prom_body.decode("utf-8"))
            for must in ("fhe_jobs_submitted_total", "fhe_flushes_total",
                         "fhe_requests_total", "fhe_server_uptime_seconds",
                         "fhe_server_busy_seconds_total", "fhe_flush_seconds",
                         "fhe_pool_workers_alive"):
                assert must in families, f"missing {must!r}"
            alive = families["fhe_pool_workers_alive"]["samples"][0][2]
            assert alive == 2


def test_server_metrics_keeps_legacy_shape(server_factory, wire_keys):
    """`metrics()` is an ops contract: every pre-telemetry key survives,
    and the registry-backed additions sit beside them."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.02)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        out = client.gate(
            "nand", encrypt_bit(secret, 1, rng=520), encrypt_bit(secret, 1, rng=521)
        )
        assert decrypt_bit(secret, out) == 0

        metrics = client.metrics()
        for legacy in ("flushes", "jobs_completed", "queue_depth",
                       "rows_bootstrapped", "bootstraps_per_sec", "connections",
                       "draining", "awaiting_results", "sessions",
                       "flush_latency_p50", "flush_latency_p99"):
            assert legacy in metrics, f"legacy key {legacy!r} dropped"
        assert metrics["uptime_seconds"] > 0
        assert 0.0 <= metrics["busy_fraction"] <= 1.0
        assert isinstance(metrics["top_sessions"], list)


def test_resilient_retry_keeps_one_trace_two_reply_attempts(
    server_factory, wire_keys
):
    """A disconnect after the server replied (but before the client read it)
    forces a resubmit.  The client minted the trace id once at submit time,
    so both delivery attempts — the lost original and the cache-replayed
    retry — land in ONE server-side trace with TWO reply spans."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.02)
    with ResilientClient(port=server.port, base_delay=0.001) as client:
        client.register_key(cloud)
        ca = encrypt_bit(secret, 1, rng=540)
        cb = encrypt_bit(secret, 1, rng=541)
        request_id = client.submit(
            "gate", pack_parts([to_bytes(ca), to_bytes(cb)]), gate="nand"
        )
        trace_id = client._pending[request_id].fields["trace"]

        # Wait until the server has *sent* the first reply (span recorded),
        # then hard-close the socket with an RST so the buffered reply is
        # discarded unread — the first delivery attempt is genuinely lost.
        tracer = server.telemetry.tracer
        deadline = time.monotonic() + 30.0
        while not any(s.name == "reply" for s in tracer.spans(trace_id)):
            assert time.monotonic() < deadline, "first reply never recorded"
            time.sleep(0.01)
        sock = client._client._sock
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()

        _, body = client.result(request_id)
        out = from_bytes(unpack_parts(body, expected=1)[0])
        assert decrypt_bit(secret, out) == 0
        assert client.stats.resubmitted >= 1

        # The reply span is recorded just after the frame is flushed, so the
        # client can observe the retried reply a beat before the server's
        # coroutine records it — poll briefly rather than racing it.
        deadline = time.monotonic() + 30.0
        while True:
            spans = tracer.spans(trace_id)
            replies = [s for s in spans if s.name == "reply"]
            if len(replies) >= 2:
                break
            assert time.monotonic() < deadline, (
                "retry did not produce a second reply span"
            )
            time.sleep(0.01)
        jobs = [s for s in spans if s.name == "job"]
        assert len(jobs) == 1, "the job must have executed exactly once"
        assert {s.trace_id for s in replies} == {trace_id}
        assert client.stats.reconnects >= 1


def test_resilient_client_stats_keep_the_retry_bookkeeping(server_factory, wire_keys):
    """``client.stats`` is where the retry machinery counts: dials,
    re-dials, replays and abandoned deadlines."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.02)
    with ResilientClient(port=server.port, base_delay=0.001) as client:
        client.register_key(cloud)
        out = client.gate(
            "and", encrypt_bit(secret, 1, rng=550), encrypt_bit(secret, 1, rng=551)
        )
        assert decrypt_bit(secret, out) == 1
        client._client._sock.shutdown(socket.SHUT_RDWR)
        out = client.gate(
            "xor", encrypt_bit(secret, 1, rng=552), encrypt_bit(secret, 0, rng=553)
        )
        assert decrypt_bit(secret, out) == 1
        with pytest.raises(DeadlineExceeded):
            client.call("hello", deadline=1e-9)

    assert client.stats.connects >= 2
    assert client.stats.reconnects >= 1
    assert client.stats.resubmitted >= 1
    assert client.stats.deadlines_exceeded == 1


# --------------------------------------------------------------------------- #
# one store per counter                                                       #
# --------------------------------------------------------------------------- #

#: Every family read from a field at scrape: the scheduler's, a worker
#: pool's, the server's own counters and gauges, and the trace ring's drops.
BOUND_FAMILIES = frozenset(SCHEDULER_TWINS) | {
    "fhe_pool_worker_restarts_total",
    "fhe_pool_breaker_trips_total",
    "fhe_pool_tasks_retried_total",
    "fhe_pool_inline_fallbacks_total",
    "fhe_server_busy_seconds_total",
    "fhe_jobs_deduped_total",
    "fhe_jobs_shed_total",
    "fhe_trace_spans_dropped_total",
    "fhe_server_uptime_seconds",
    "fhe_server_draining",
    "fhe_connections",
    "fhe_sessions_active",
    "fhe_queue_depth",
    "fhe_awaiting_results",
    "fhe_resident_keys",
    "fhe_resident_key_bytes",
    "fhe_pool_workers_alive",
    "fhe_pool_breaker_open",
}

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class _PoolShaped(RowDispatcher):
    """What the scheduler and server look for on a worker pool, no processes."""

    def __init__(self) -> None:
        self.stats = PoolStats()
        self.health = []
        self.breaker_open = False


def test_every_bound_family_is_written_in_one_place():
    """A fresh server's registry holds exactly the bound families (stored
    ones appear at their first event); each name occurs once in ``src/`` —
    at its binding — and no ``count``/``inc``/``set`` call names one."""
    server = FheServer(dispatcher=_PoolShaped())
    registry = server.telemetry.registry
    assert {family.name for family in registry.families()} == BOUND_FAMILIES
    for family in registry.families():
        with pytest.raises(MetricError):
            family.inc(1)

    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    everywhere = "\n".join(sources.values())
    for name in BOUND_FAMILIES:
        assert len(re.findall(rf"\b{name}\b", everywhere)) == 1, name

    writers = []
    for path, text in sources.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # escapes in docstrings are not at issue
            tree = ast.parse(text)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("count", "inc", "set")
            ):
                continue
            receiver = node.func.value
            args = node.args[:1] + (receiver.args[:1] if isinstance(receiver, ast.Call) else [])
            named = {a.value for a in args if isinstance(a, ast.Constant)}
            if named & BOUND_FAMILIES:
                writers.append(f"{path.name}:{node.lineno}")
    assert writers == []


def _parameters(function):
    return list(inspect.signature(function).parameters)


def test_signatures_the_benchmark_and_callers_rely_on():
    run_rows = ["self", "client_id", "context", "rows", "stats", "max_rows_per_call", "round_ctx"]
    for dispatcher in (RowDispatcher, InlineDispatcher, WorkerPool):
        assert _parameters(dispatcher.run_rows) == run_rows, dispatcher
    assert _parameters(execute_rows) == ["context", "rows", "stats", "max_rows_per_call"]
    assert "telemetry" not in _parameters(ResilientClient.__init__)
    assert "latency_window" not in _parameters(FheServer.__init__)


def test_observability_has_no_off_switch():
    """The server always observes and a tracer always records; a worker's
    metrics-less bundle is the one half-state left."""
    assert _parameters(FheServer.__init__) == [
        "self",
        "dispatcher",
        "host",
        "port",
        "max_pending_jobs",
        "max_inflight",
        "flush_interval",
        "max_rows_per_call",
        "max_frame",
        "session_cache_size",
        "session_ttl",
    ]
    assert _parameters(Telemetry.__init__) == ["self", "metrics", "ring_size"]
    assert _parameters(Tracer.__init__) == ["self", "ring_size"]
