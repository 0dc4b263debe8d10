"""The asyncio serving front: round trips, isolation, errors, backpressure.

The server runs in-process on a background event loop (``server_factory``
fixture) and real TCP clients talk to it, so these tests cover the whole
wire: framing, per-connection key namespaces, error mapping, and — the
regression this PR hardens — that no client behaviour can grow the
front-end queue unboundedly:

* **reject semantics** — a bounded scheduler queue turns overflow into
  ``busy`` error frames while everything already accepted completes;
* **await semantics** — past ``max_inflight`` requests per connection the
  server stops *reading* that socket, so a flooding client stalls on TCP
  while the queue's high-water mark stays at
  ``connections × max_inflight`` — demonstrated at 110 concurrent
  sessions.
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
import zlib

import numpy as np
import pytest

from repro.runtime import ResilientClient, WorkerPool
from repro.runtime import server as server_module
from repro.runtime.chaos import FlakyEngine
from repro.runtime.protocol import (
    DEFAULT_MAX_FRAME,
    JobShed,
    ServerBusy,
    ServerError,
    ServingClient,
    encode_frame,
    pack_parts,
    read_frame,
    read_frame_async,
    unpack_parts,
)
from repro.runtime.server import FheServer, _Connection, _SessionState
from repro.telemetry import parse_prometheus_text
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.integers import RadixInt, decrypt_radix, encrypt_radix
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch, LweSample
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.serialize import circuit_to_json, from_bytes, to_bytes
from repro.tfhe.transform import DoubleFFTNegacyclicTransform, clear_engine_quarantine

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


@pytest.fixture(scope="module")
def wire_keys():
    """One TEST_TINY double-engine keypair shared by the server tests."""
    secret, cloud = generate_keys(
        TEST_TINY,
        DoubleFFTNegacyclicTransform(TEST_TINY.N),
        unroll_factor=1,
        rng=61,
        eager=False,
    )
    return secret, cloud


# --------------------------------------------------------------------------- #
# round trips                                                                 #
# --------------------------------------------------------------------------- #


def test_hello_register_gate_lut_circuit(server_factory, wire_keys):
    secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        hello = client.hello()
        assert hello["server"] == "repro-serve"
        info = client.register_key(cloud)
        assert info["params"] == TEST_TINY.name

        out = client.gate(
            "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        )
        assert decrypt_bit(secret, out) == 0

        out = client.lut(
            0b0110, [encrypt_bit(secret, 1, rng=3), encrypt_bit(secret, 0, rng=4)]
        )
        assert decrypt_bit(secret, out) == 1

        width = 4
        a_val, b_val = 11, 6
        bits = [encrypt_bit(secret, (a_val >> i) & 1, rng=10 + i) for i in range(width)]
        bits += [encrypt_bit(secret, (b_val >> i) & 1, rng=20 + i) for i in range(width)]
        out_batch = client.run_circuit(adder_netlist(width), LweBatch.from_samples(bits))
        total = sum(
            decrypt_bit(secret, s) << i
            for i, s in enumerate(out_batch.to_samples()[:width])
        )
        assert total == (a_val + b_val) % (1 << width)

        metrics = client.metrics()
        assert metrics["jobs_completed"] >= 3
        assert metrics["queue_depth"] == 0
        assert metrics["rows_bootstrapped"] > 0
        assert metrics["bootstraps_per_sec"] > 0
        assert metrics["connections"] == 1


def test_pipelined_requests_match_out_of_order(server_factory, wire_keys):
    """Many in-flight ids; replies land by id, not arrival order."""
    secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        cases = [(i & 1, (i >> 1) & 1) for i in range(12)]
        ids = [
            client.submit_gate(
                "xor",
                encrypt_bit(secret, a, rng=100 + 2 * i),
                encrypt_bit(secret, b, rng=101 + 2 * i),
            )
            for i, (a, b) in enumerate(cases)
        ]
        # Collect in reverse: exercises the reply-buffering path.
        for (a, b), request_id in reversed(list(zip(cases, ids))):
            assert decrypt_bit(secret, client.gate_result(request_id)) == a ^ b


def test_radix_add_over_the_wire(server_factory):
    encoding = DigitEncoding(message_bits=2, carry_bits=2)
    secret, cloud = generate_keys(TEST_PBS, unroll_factor=1, rng=71, eager=False)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        x = encrypt_radix(secret.lwe_key, 57, 4, encoding, rng=1)
        y = encrypt_radix(secret.lwe_key, 123, 4, encoding, rng=2)
        total = client.radix_add(x, y)
        assert decrypt_radix(secret.lwe_key, total) == (57 + 123) % encoding.base**4


# --------------------------------------------------------------------------- #
# isolation                                                                   #
# --------------------------------------------------------------------------- #


def test_interleaved_clients_no_cross_client_leakage(server_factory, wire_keys):
    """Two tenants, interleaved submissions: replies stay per-connection."""
    secret_a, cloud_a = wire_keys
    secret_b, cloud_b = generate_keys(
        TEST_TINY,
        DoubleFFTNegacyclicTransform(TEST_TINY.N),
        unroll_factor=1,
        rng=62,
        eager=False,
    )
    server = server_factory()
    with ServingClient(port=server.port) as ca, ServingClient(port=server.port) as cb:
        ca.register_key(cloud_a)
        cb.register_key(cloud_b)
        # Interleave submissions, then collect cross-ordered.
        ids_a = [
            ca.submit_gate(
                "nand",
                encrypt_bit(secret_a, 1, rng=200 + i),
                encrypt_bit(secret_a, 1, rng=210 + i),
            )
            for i in range(4)
        ]
        ids_b = [
            cb.submit_gate(
                "or",
                encrypt_bit(secret_b, 0, rng=220 + i),
                encrypt_bit(secret_b, 1, rng=230 + i),
            )
            for i in range(4)
        ]
        results_b = [decrypt_bit(secret_b, cb.gate_result(i)) for i in ids_b]
        results_a = [decrypt_bit(secret_a, ca.gate_result(i)) for i in ids_a]
        assert results_a == [0] * 4  # NAND(1,1) under A's key
        assert results_b == [1] * 4  # OR(0,1) under B's key


def test_gate_before_register_key(server_factory, wire_keys):
    secret, _cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.gate(
                "and", encrypt_bit(secret, 1, rng=5), encrypt_bit(secret, 1, rng=6)
            )
        assert excinfo.value.kind == "no_key"


def test_double_register_rejected(server_factory, wire_keys):
    _secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        with pytest.raises(ServerError) as excinfo:
            client.register_key(cloud)
        assert excinfo.value.kind == "bad_request"


# --------------------------------------------------------------------------- #
# corruption over the wire                                                    #
# --------------------------------------------------------------------------- #


def _bad_request(client, op, parts, **fields):
    """Send hand-built body parts; the reply must be a typed ``bad_request``."""
    request = client.submit(op, pack_parts(parts), **fields)
    with pytest.raises(ServerError) as excinfo:
        client.result(request)
    assert excinfo.value.kind == "bad_request", str(excinfo.value)
    # The connection survived the bad artifact.
    assert client.hello()["server"] == "repro-serve"
    return str(excinfo.value)


def test_bad_artifact_version_is_a_clean_error(server_factory, wire_keys, edit_artifact):
    _secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        bad = edit_artifact(to_bytes(cloud), lambda m: m.__setitem__("version", 99))
        assert "version" in _bad_request(client, "register_key", [bad])


def test_old_npz_key_is_a_clean_error(server_factory, wire_keys):
    """A format-2 (npz) client gets a refusal that names the container."""
    _secret, cloud = wire_keys
    out = io.BytesIO()
    np.savez(out, keyswitch=cloud.keyswitch_key.data)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        assert "npz" in _bad_request(client, "register_key", [out.getvalue()])


def test_malformed_key_header_is_a_bad_request_not_internal(
    server_factory, wire_keys, edit_artifact
):
    """Header damage used to escape ``from_bytes`` as KeyError/TypeError and
    be answered ``internal``; it is the client's fault and is reported so."""
    _secret, cloud = wire_keys
    blob = to_bytes(cloud)
    damage = [
        lambda m: m.pop("params"),
        lambda m: m.__setitem__("params", None),
        lambda m: m.pop("unroll_factor"),
        lambda m: m.pop("transform"),
        lambda m: m.__setitem__("transform", {"kind": 7}),
    ]
    server = server_factory()
    with ServingClient(port=server.port) as client:
        for mutate in damage:
            _bad_request(client, "register_key", [edit_artifact(blob, mutate)])
        assert client.register_key(cloud)["params"] == TEST_TINY.name


def test_inconsistent_shapes_are_refused_at_load(server_factory, wire_keys, edit_artifact):
    """A key whose arrays contradict its own params is refused by
    ``register_key`` (it used to be accepted and fail inside the first gate),
    and a batch with more ``a`` rows than ``b`` entries by ``circuit``."""
    secret, cloud = wire_keys
    n, big_n, k, l = TEST_TINY.n, TEST_TINY.N, TEST_TINY.k, TEST_TINY.l

    def half_degree(meta):
        assert meta["arrays"][1] == ["bootstrapping_key", [n, (k + 1) * l, k + 1, big_n]]
        meta["arrays"][1][1] = [n, (k + 1) * l, 2 * (k + 1), big_n // 2]

    server = server_factory()
    with ServingClient(port=server.port) as client:
        message = _bad_request(
            client, "register_key", [edit_artifact(to_bytes(cloud), half_degree)]
        )
        assert "bootstrapping_key" in message
        client.register_key(cloud)
        circuit = adder_netlist(1)
        bits = LweBatch.from_samples([encrypt_bit(secret, 1, rng=i) for i in range(3)])
        lopsided = edit_artifact(
            to_bytes(bits), lambda m: m["arrays"].__setitem__(1, ["b", [2]])
        )[:-4]
        message = _bad_request(
            client, "circuit", [lopsided], circuit=json.loads(circuit_to_json(circuit))
        )
        assert "'b'" in message


def test_radix_operand_of_the_wrong_dimension_is_refused_before_any_bootstrap(
    server_factory, wire_keys
):
    """Every digit of both operands is checked against the key: a mismatched
    operand is a ``bad_request`` naming the dimension — not NumPy's broadcast
    error from the digit-wise add, after ``x`` was already carry-propagated."""
    secret, cloud = wire_keys
    encoding = DigitEncoding(message_bits=2, carry_bits=1)
    x = encrypt_radix(secret.lwe_key, 27, 3, encoding, rng=1)
    x = RadixInt(x.digits, bounds=(4, 4, 4), encoding=encoding)  # add() must propagate
    wide = LweSample(a=np.zeros(TEST_TINY.n + 3, dtype=np.int32), b=np.int32(0))
    y = RadixInt([wide] * 3, bounds=(3, 3, 3), encoding=encoding)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        for parts, operand in (([x, y], "y"), ([y, x], "x")):
            message = _bad_request(client, "radix_add", [to_bytes(part) for part in parts])
            assert f"operand {operand} digit 0" in message
            assert f"dimension {TEST_TINY.n + 3}" in message and f"n={TEST_TINY.n}" in message
        (resident,) = server.scheduler.residents
        assert resident.context.batch_evaluator(1).counters.bootstraps == 0


def test_wrong_artifact_type_rejected(server_factory, wire_keys):
    secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        # A ciphertext is not a cloud key ...
        request = client.submit(
            "register_key", pack_parts([to_bytes(encrypt_bit(secret, 1, rng=7))])
        )
        with pytest.raises(ServerError) as excinfo:
            client.result(request)
        assert excinfo.value.kind == "bad_request"
        # ... and a cloud key is not a ciphertext.
        client.register_key(cloud)
        request = client.submit(
            "gate",
            pack_parts([to_bytes(cloud), to_bytes(encrypt_bit(secret, 1, rng=8))]),
            gate="and",
        )
        with pytest.raises(ServerError) as excinfo:
            client.result(request)
        assert excinfo.value.kind == "bad_request"


def test_unknown_op_and_missing_fields(server_factory, wire_keys):
    _secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.call("frobnicate")
        assert excinfo.value.kind == "unsupported"
        client.register_key(cloud)
        with pytest.raises(ServerError) as excinfo:
            client.call("gate", pack_parts([b"", b""]))  # no 'gate' field
        assert excinfo.value.kind == "bad_request"


def test_a_server_side_value_error_is_internal_not_bad_request(
    server_factory, wire_keys, monkeypatch
):
    """A ValueError the request caused (an unknown gate name, refused at
    submit) is ``bad_request``; one raised by the server's own machinery is
    ``internal`` — the client's request was well formed."""
    secret, cloud = wire_keys
    server = server_factory()
    body, _ = _nand_body(secret, 0)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        with pytest.raises(ServerError) as excinfo:
            client.call("gate", body, gate="frobnicate")
        assert excinfo.value.kind == "bad_request"

    def broken_register(*_args):
        raise ValueError("scheduler fault")

    monkeypatch.setattr(server.scheduler, "register_client", broken_register)
    with ServingClient(port=server.port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.register_key(cloud)
        assert excinfo.value.kind == "internal"
        assert "scheduler fault" in str(excinfo.value)


def _raw_exchange(port: int, payload: bytes) -> tuple:
    """Send raw bytes; return (error header or None, connection closed?)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        try:
            header, _ = read_frame(sock)
        except EOFError:
            return None, True
        trailing = sock.recv(1)
        return header, trailing == b""


@pytest.mark.parametrize(
    "payload",
    [
        b"GARBAGE-NOT-A-FRAME-AT-ALL",           # bad magic
        struct.pack("<4sIQ", b"rTF2", 10, 0),    # truncated prefix
        struct.pack("<4sIQI", b"rTF2", 4, 1 << 60, 0) + b"null",  # oversized body
        struct.pack("<4sIQI", b"rTFS", 2, 0, 0) + b"{}",  # retired protocol 1
    ],
    ids=["bad-magic", "truncated", "oversized-prefix", "retired-magic"],
)
def test_malformed_stream_gets_error_then_close(server_factory, payload):
    server = server_factory()
    header, closed = _raw_exchange(server.port, payload)
    assert closed  # a desynchronised stream is always dropped ...
    if header is not None:  # ... after a best-effort protocol error frame
        assert header["error"]["kind"] == "protocol"
        if payload.startswith(b"rTFS"):  # no legacy reader: a foreign magic
            assert "bad frame magic" in header["error"]["message"]
    # The server is still healthy for the next connection.
    with ServingClient(port=server.port) as client:
        assert client.hello()["server"] == "repro-serve"


# --------------------------------------------------------------------------- #
# backpressure                                                                #
# --------------------------------------------------------------------------- #


def test_bounded_queue_rejects_with_busy(server_factory, wire_keys):
    """Overflowing the scheduler queue yields ServerBusy, not growth."""
    secret, cloud = wire_keys
    server = server_factory(
        max_pending_jobs=4,
        max_inflight=64,
        flush_interval=120.0,  # flusher effectively parked: queue can't drain
    )
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        ids = [
            client.submit_gate(
                "and",
                encrypt_bit(secret, 1, rng=300 + i),
                encrypt_bit(secret, 0, rng=320 + i),
            )
            for i in range(10)
        ]
        busy = 0
        accepted = []
        # The over-bound submissions answer immediately with busy errors;
        # nothing blocks even though no flush ever runs.
        for request_id in ids[4:]:
            with pytest.raises(ServerBusy):
                client.result(request_id)
            busy += 1
        assert busy == 6
        assert server.scheduler.pending_jobs == 4  # bounded, not 10
        del accepted


def test_slow_client_cannot_grow_queue_110_sessions(server_factory, wire_keys):
    """110 concurrent sessions × pipelined gates: queue stays bounded.

    Every connection pipelines ``burst`` gates without reading a single
    reply (the 'slow client'), yet the scheduler queue's high-water mark
    never exceeds ``connections × max_inflight`` — the server simply stops
    reading flooded sockets.  Afterwards every reply decrypts correctly,
    so backpressure cost latency, not answers.
    """
    secret, cloud = wire_keys
    sessions = 110
    burst = 3
    max_inflight = 2
    server = server_factory(
        max_inflight=max_inflight,
        max_pending_jobs=None,  # the *inflight* bound must do the limiting
        flush_interval=0.001,
    )

    # Record the queue's high-water mark from inside the event loop.
    high_water = [0]
    original_enqueue = server.scheduler._enqueue

    def recording_enqueue(client_id, job, **kwargs):
        original_enqueue(client_id, job, **kwargs)
        high_water[0] = max(high_water[0], server.scheduler.pending_jobs)

    server.scheduler._enqueue = recording_enqueue

    clients = []
    try:
        for _ in range(sessions):
            client = ServingClient(port=server.port, timeout=120.0)
            client.register_key(cloud)
            clients.append(client)
        expected = {}
        for index, client in enumerate(clients):
            for g in range(burst):
                a, b = (index + g) & 1, (index >> 1) & 1
                request = client.submit_gate(
                    "nand",
                    encrypt_bit(secret, a, rng=1000 + 10 * index + g),
                    encrypt_bit(secret, b, rng=5000 + 10 * index + g),
                )
                expected[(index, request)] = 1 - (a & b)
        # Only now does anyone read: all 330 results must come back right.
        for (index, request), want in expected.items():
            got = decrypt_bit(secret, clients[index].gate_result(request))
            assert got == want
    finally:
        for client in clients:
            client.close()

    assert len(expected) == sessions * burst
    assert high_water[0] <= sessions * max_inflight
    assert server.scheduler.pending_jobs == 0


def test_disconnect_with_pending_jobs_keeps_server_clean(server_factory, wire_keys):
    """A client that vanishes mid-burst leaves no orphaned queue state."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.2)
    client = ServingClient(port=server.port)
    client.register_key(cloud)
    for i in range(4):
        client.submit_gate(
            "and", encrypt_bit(secret, 1, rng=600 + i), encrypt_bit(secret, 0, rng=610 + i)
        )
    client.close()  # gone before any reply
    # The server drains the orphans and deregisters the namespace.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if not server._connections and server.scheduler.pending_jobs == 0:
            break
        time.sleep(0.05)
    assert server.scheduler.pending_jobs == 0
    assert not server._connections
    # And keeps serving.
    with ServingClient(port=server.port) as fresh:
        fresh.register_key(cloud)
        out = fresh.gate(
            "or", encrypt_bit(secret, 1, rng=620), encrypt_bit(secret, 0, rng=621)
        )
        assert decrypt_bit(secret, out) == 1


# --------------------------------------------------------------------------- #
# one resident context per distinct cloud key                                 #
# --------------------------------------------------------------------------- #


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def _scrape(client) -> dict:
    _, text = client.call("metrics_prom")
    families = parse_prometheus_text(text.decode("utf-8"))
    return {
        name: sum(value for _sample, _labels, value in family["samples"])
        for name, family in families.items()
        if family["type"] != "histogram"
    }


#: ``metrics()`` keys → the Prometheus family counting the same events.
METRICS_TWINS = {
    "flushes": "fhe_flushes_total",
    "rows_bootstrapped": "fhe_rows_bootstrapped_total",
    "jobs_completed": "fhe_jobs_completed_total",
    "jobs_deduped": "fhe_jobs_deduped_total",
    "jobs_shed": "fhe_jobs_shed_total",
    "engine_failovers": "fhe_engine_failovers_total",
    "inline_fallbacks": "fhe_inline_fallbacks_total",
}
POOL_TWINS = {
    "tasks_retried": "fhe_pool_tasks_retried_total",
    "workers_restarted": "fhe_pool_worker_restarts_total",
    "breaker_trips": "fhe_pool_breaker_trips_total",
    "inline_fallbacks": "fhe_pool_inline_fallbacks_total",
}


def test_metrics_and_the_scrape_count_every_event_once(server_factory, wire_keys):
    """A reconnect that re-registers its session's key, a pool task retry
    (whose restart trips the breaker), an engine failover on the breaker's
    inline path and a deadline-shed job: afterwards every ``metrics()`` count
    equals its Prometheus twin."""
    secret, cloud = wire_keys
    ca, cb = encrypt_bit(secret, 1, rng=800), encrypt_bit(secret, 1, rng=801)
    # Spawn 0 dies on its first task: one retry, one restart — and with a
    # threshold of one restart the breaker opens, so later rounds run inline.
    pool = WorkerPool(
        2,
        task_timeout=60.0,
        breaker_threshold=1,
        breaker_cooldown=3600.0,
        fault_plans={0: {"crash_on_task": 0}},
    )
    try:
        server = server_factory(dispatcher=pool, flush_interval=0.02)
        with ResilientClient(port=server.port, base_delay=0.001) as client:
            client.register_key(cloud)
            assert decrypt_bit(secret, client.gate("nand", ca, cb)) == 0
            assert pool.breaker_open

            # The next inline round faults on its first transform call: the
            # scheduler quarantines the kind, fails over and replays it.
            (resident,) = server.scheduler.residents
            context = resident.context
            context.engine = FlakyEngine(context.engine, masquerade_kind="compiled")
            context.release()  # rebuild the spectrum cache on the flaky engine

            client._client._sock.shutdown(socket.SHUT_RDWR)
            assert decrypt_bit(secret, client.gate("and", ca, cb)) == 1
            assert client.stats.reconnects == 1

        with ServingClient(port=server.port) as observer:
            with pytest.raises(ServerError) as excinfo:
                observer.call("gate", b"", gate="nand", deadline_ms=0)
            assert excinfo.value.kind == "shed"
            metrics = server.metrics()
            scraped = _scrape(observer)
    finally:
        pool.close()
        clear_engine_quarantine()

    # Each event happened once, so the parity below is not between zeros.
    assert [metrics[key] for key in ("jobs_deduped", "jobs_shed", "engine_failovers")] == [1] * 3
    assert [metrics["pool"][key] for key in ("tasks_retried", "breaker_trips")] == [1] * 2
    for key, family in METRICS_TWINS.items():
        assert metrics[key] == scraped.get(family), key
    for key, family in POOL_TWINS.items():
        assert metrics["pool"][key] == scraped.get(family), key
    busy = metrics["busy_fraction"] * metrics["uptime_seconds"]
    assert busy == pytest.approx(scraped["fhe_server_busy_seconds_total"], rel=1e-9)


def test_connections_uploading_one_key_share_a_resident_and_its_calls(
    server_factory, wire_keys
):
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.05)
    burst = 6
    with ServingClient(port=server.port) as first, ServingClient(port=server.port) as second:
        first.register_key(cloud)
        second.register_key(cloud)
        residents = server.scheduler.residents
        assert len(residents) == 1 and len(residents[0].queues) == 2
        requests = [
            (client, client.submit_gate(
                "nand", encrypt_bit(secret, 1, rng=700 + i), encrypt_bit(secret, i & 1, rng=720 + i)
            ), 1 - (i & 1))
            for i in range(burst)
            for client in (first, second)
        ]
        for client, request, want in requests:
            assert decrypt_bit(secret, client.gate_result(request)) == want

        scraped = _scrape(first)
        assert scraped["fhe_resident_keys"] == 1
        assert scraped["fhe_resident_key_bytes"] == residents[0].context.resident_bytes
        assert scraped["fhe_rows_bootstrapped_total"] == 2 * burst
        assert scraped["fhe_batched_calls_total"] < 2 * burst  # rows of both rode together
        metrics = first.metrics()
        assert (metrics["clients"], metrics["resident_keys"]) == (2, 1)
        assert metrics["resident_key_bytes"] == scraped["fhe_resident_key_bytes"]

    assert _wait_until(lambda: not server._connections)
    assert server.scheduler.residents == []
    with ServingClient(port=server.port) as observer:
        assert _scrape(observer)["fhe_resident_keys"] == 0
        assert observer.metrics()["resident_key_bytes"] == 0


def test_disconnect_releases_the_key_without_a_gc_pass(server_factory, wire_keys):
    """connect, register_key, one gate, disconnect: the context (and the
    decoded key under it) is freed by the deregistration itself."""
    secret, cloud = wire_keys
    server = server_factory()
    gc.collect()
    gc.disable()
    try:
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            out = client.gate("nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2))
            assert decrypt_bit(secret, out) == 0
            (resident,) = server.scheduler.residents
            context_ref = weakref.ref(resident.context)
            key_ref = weakref.ref(resident.context.cloud_key)
            assert context_ref().spectra_cached
            del resident
        assert _wait_until(lambda: not server._connections)
        assert server.scheduler.residents == []
        assert _wait_until(lambda: context_ref() is None, timeout=2.0)
        assert key_ref() is None
    finally:
        gc.enable()


def test_session_reregistration_compares_keys_not_checksums(
    server_factory, wire_keys, monkeypatch
):
    """A different key whose CRC collides with the registered one's (forced
    here; trivially forgeable in general) must not be answered as "same key"."""
    _secret, cloud = wire_keys
    _, other = generate_keys(
        TEST_TINY, DoubleFFTNegacyclicTransform(TEST_TINY.N), rng=62, eager=False
    )
    monkeypatch.setattr(zlib, "crc32", lambda data, value=0: 0)
    server = server_factory()
    with ServingClient(port=server.port, session="tok-crc") as client:
        info = client.register_key(cloud)
    # The reconnect uses fresh request ids: a *resent* id is answered from the
    # session's reply cache before the op is looked at.
    with ServingClient(port=server.port, session="tok-crc") as client:
        forged = client.submit("register_key", pack_parts([to_bytes(other)]), request_id=100)
        with pytest.raises(ServerError) as excinfo:
            client.result(forged)
        assert excinfo.value.kind == "bad_request"
        assert "different key" in str(excinfo.value)
        honest = client.submit("register_key", pack_parts([to_bytes(cloud)]), request_id=101)
        header, _ = client.result(honest)
        assert header["params"] == info["params"]  # the same key still reconnects
    assert len(server.scheduler.residents) == 1


# --------------------------------------------------------------------------- #
# one record per client                                                       #
# --------------------------------------------------------------------------- #


def test_a_connection_runs_under_one_record():
    conn = _Connection("conn7", writer=None, max_inflight=1)
    assert isinstance(conn.session, _SessionState)
    record = conn.session
    assert (record.client_id, record.token, record.cache_size) == ("conn7", None, 0)
    assert not hasattr(conn, "registered") and not hasattr(conn, "client_id")


def test_token_after_register_key_is_refused_and_the_key_still_leaves(
    server_factory, wire_keys
):
    """A plain connection's key lives under its private record: a ``session``
    token arriving after ``register_key`` is a typed protocol error, the
    connection keeps computing, and its key leaves when it closes."""
    secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        with pytest.raises(ServerError) as excinfo:
            client.call("hello", session="late")
        assert excinfo.value.kind == "protocol"
        out = client.gate("nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2))
        assert decrypt_bit(secret, out) == 0
    assert _wait_until(lambda: not server._connections)
    with ServingClient(port=server.port) as observer:
        assert _scrape(observer)["fhe_resident_keys"] == 0
        assert observer.metrics()["sessions"] == 0


def test_an_expired_session_is_reaped_at_any_departure(server_factory, wire_keys):
    _secret, cloud = wire_keys
    server = server_factory(session_ttl=0.05)
    with ServingClient(port=server.port, session="gone") as client:
        client.register_key(cloud)
    assert _wait_until(lambda: not server._connections)
    time.sleep(0.1)  # past the TTL; only plain clients come and go from here
    with ServingClient(port=server.port) as passerby:
        passerby.hello()
    assert _wait_until(lambda: not server._connections)
    with ServingClient(port=server.port) as observer:
        assert _scrape(observer)["fhe_resident_keys"] == 0
        assert observer.metrics()["sessions"] == 0


def test_closed_plain_connections_leave_no_state(server_factory, wire_keys):
    secret, cloud = wire_keys
    server = server_factory()
    for i in range(20):
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            out = client.gate(
                "or", encrypt_bit(secret, 0, rng=900 + i), encrypt_bit(secret, 1, rng=950 + i)
            )
            assert decrypt_bit(secret, out) == 1
    assert _wait_until(lambda: not server._connections)
    assert server.scheduler.residents == [] and server._sessions == {}
    with ServingClient(port=server.port) as observer:
        metrics = observer.metrics()
    assert metrics["top_sessions"] == []
    assert (metrics["clients"], metrics["sessions"]) == (0, 0)


# --------------------------------------------------------------------------- #
# job requests are records                                                    #
# --------------------------------------------------------------------------- #


def _on_loop(server, call):
    """Run ``call()`` on the server's event loop and wait until it has run."""
    done = threading.Event()

    def run():
        try:
            call()
        finally:
            done.set()

    server._flusher.get_loop().call_soon_threadsafe(run)
    assert done.wait(10.0)


def _nand_body(secret, index):
    a, b = index & 1, (index >> 1) & 1
    operands = [encrypt_bit(secret, a, rng=3000 + 2 * index), encrypt_bit(secret, b, rng=3001 + 2 * index)]
    return pack_parts([to_bytes(c) for c in operands]), 1 - (a & b)


def test_a_gate_burst_creates_no_task(server_factory, wire_keys):
    """64 pipelined gates on one connection: the reader submits each as a
    record and the flusher answers it — no asyncio Task per request."""
    secret, cloud = wire_keys
    server = server_factory()
    loop = server._flusher.get_loop()
    created = []

    def counting_factory(task_loop, coro, **kwargs):
        created.append(getattr(coro, "__qualname__", repr(coro)))
        return asyncio.Task(coro, loop=task_loop, **kwargs)

    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        _on_loop(server, lambda: loop.set_task_factory(counting_factory))
        try:
            requests = []
            for index in range(64):
                body, want = _nand_body(secret, index)
                requests.append((client.submit("gate", body, gate="nand"), want))
            for request, want in requests:
                assert decrypt_bit(secret, client.gate_result(request)) == want
        finally:
            _on_loop(server, lambda: loop.set_task_factory(None))
    assert created == []


def test_the_replies_of_one_flush_leave_in_one_write(server_factory, wire_keys):
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.3)  # cold: the window runs to its ceiling
    burst = 8
    writes = []
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        (conn,) = server._connections.values()
        transport = conn.writer.transport
        write = transport.write

        def counting_write(data):
            writes.append(bytes(data))
            write(data)

        _on_loop(server, lambda: setattr(transport, "write", counting_write))
        flushes = server.scheduler.stats.flushes
        requests = []
        for index in range(burst):
            body, want = _nand_body(secret, index)
            requests.append((client.submit("gate", body, gate="nand"), want))
        for request, want in requests:
            assert decrypt_bit(secret, client.gate_result(request)) == want
        assert server.scheduler.stats.flushes == flushes + 1
    (data,) = writes
    assert data.count(b"rTF2") == burst


def test_a_session_duplicate_in_flight_is_answered_from_the_original(
    server_factory, wire_keys
):
    """The same request id under the same session token, sent from a second
    connection while the first is still in flight: one execution, two
    replies carrying the original's result, one ``reply`` span each."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.3)
    body, want = _nand_body(secret, 3)
    with ServingClient(port=server.port, session="dup") as first, ServingClient(
        port=server.port, session="dup"
    ) as second:
        first.register_key(cloud)
        stats = server.scheduler.stats
        completed, rows = stats.jobs_completed, stats.rows_bootstrapped
        first.submit("gate", body, request_id=50, gate="nand", trace="dup-trace")
        assert _wait_until(lambda: server.metrics()["awaiting_results"] == 1)
        second.submit("gate", body, request_id=50, gate="nand", trace="dup-trace")
        replies = [client.result(50)[1] for client in (first, second)]
        assert replies[0] == replies[1]
        assert decrypt_bit(secret, from_bytes(unpack_parts(replies[0])[0])) == want
        assert (stats.jobs_completed, stats.rows_bootstrapped) == (completed + 1, rows + 1)
        assert server.metrics()["jobs_deduped"] == 1
    def count(name):
        return [s.name for s in server.telemetry.tracer.spans("dup-trace")].count(name)

    # A reply span is recorded just after its frame is written: poll for it.
    assert _wait_until(lambda: count("reply") == 2)
    assert count("job") == 1


def test_a_departure_with_gates_outstanding_leaves_nothing(server_factory, wire_keys):
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.2)
    client = ServingClient(port=server.port)
    client.register_key(cloud)
    for index in range(16):
        body, _ = _nand_body(secret, index)
        client.submit("gate", body, gate="nand")
    client.close()  # gone with every gate outstanding
    assert _wait_until(lambda: not server._connections)
    with ServingClient(port=server.port) as observer:
        scraped = _scrape(observer)
        metrics = observer.metrics()
    assert (scraped["fhe_resident_keys"], scraped["fhe_awaiting_results"]) == (0, 0)
    assert (metrics["resident_keys"], metrics["awaiting_results"]) == (0, 0)


def test_a_reader_cancelled_at_shutdown_still_tears_down(wire_keys):
    """``asyncio.run(serve(...))`` stops the server, then cancels every
    reader still parked in a read: the reader gives back the slot it holds
    and its connection's teardown runs, instead of waiting for that slot."""
    secret, cloud = wire_keys
    server = FheServer(port=0, flush_interval=5.0)  # cold: the gate stays queued
    torn_down = []
    cleanup = server._cleanup_connection

    async def counted_cleanup(conn):
        await cleanup(conn)
        torn_down.append(conn.conn_id)

    server._cleanup_connection = counted_cleanup

    async def main():
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(
            encode_frame({"op": "register_key", "id": 1}, pack_parts([to_bytes(cloud)]))
        )
        assert "error" not in (await read_frame_async(reader))[0]
        body, _ = _nand_body(secret, 0)
        writer.write(encode_frame({"op": "gate", "id": 2, "gate": "nand"}, body))
        while server.metrics()["awaiting_results"] != 1:
            await asyncio.sleep(0.01)
        await server.stop()
        # Returns with the client still connected: asyncio.run cancels the
        # server's reader, parked in its next read.

    runner = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    runner.start()
    runner.join(20.0)
    assert not runner.is_alive(), "the cancelled reader never tore its connection down"
    assert torn_down == ["conn1"] and not server._connections
    assert server.metrics()["resident_keys"] == 0


def test_deadline_shedding_reads_one_estimate_between_flushes(
    server_factory, wire_keys, monkeypatch
):
    """The latency rings change only when a flush ends, so the estimate is
    computed there: requests carrying ``deadline_ms`` between two flushes
    never sort a ring."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.5)
    sorts = []
    percentile = server_module._percentile
    monkeypatch.setattr(
        server_module, "_percentile", lambda *args, **kw: sorts.append(args) or percentile(*args, **kw)
    )
    body, _ = _nand_body(secret, 0)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        requests = [client.submit("gate", body, gate="nand", deadline_ms=1) for _ in range(20)]
        for request in requests:
            with pytest.raises(JobShed):
                client.result(request)
        assert len(sorts) <= 1
        assert server.metrics()["jobs_shed"] == 20


# --------------------------------------------------------------------------- #
# tools/serve.py --max-frame                                                  #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("raised", [False, True])
def test_serve_cli_max_frame_admits_frames_above_the_default(raised):
    """A frame above ``DEFAULT_MAX_FRAME`` (a paper-110bit ``register_key``
    is ~108 MiB) is refused by default and read once ``--max-frame`` allows it."""
    serve = pathlib.Path(__file__).resolve().parent.parent / "tools" / "serve.py"
    flags = ["--max-frame", str(2 * DEFAULT_MAX_FRAME)] if raised else []
    process = subprocess.Popen(
        [sys.executable, str(serve), "--port", "0", *flags],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
            # The reader checks the declared size on the prefix, so the body
            # need only follow when the frame is going to be admitted.
            frame = encode_frame({"op": "hello", "id": 7}, bytes(DEFAULT_MAX_FRAME))
            sock.sendall(frame if raised else frame[:64])
            header, _ = read_frame(sock)
        if raised:
            assert header["id"] == 7 and header["server"] == "repro-serve"
        else:
            assert header["error"]["kind"] == "protocol"
            assert str(DEFAULT_MAX_FRAME) in header["error"]["message"]
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30.0)
        process.stdout.close()
