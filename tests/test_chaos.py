"""Deterministic chaos suite: the serving stack under scripted faults.

Every test drives real clients through a :class:`ChaosProxy` (or injects a
:class:`FlakyEngine` / :class:`SlowDispatcher`) against a live
:class:`FheServer`, and asserts the resilience contract from the runtime
docs: **every job completes bit-identically or fails with a typed
retryable error — never silently wrong, never hung.**  All faults are
scripted by connection/frame index, so failures replay exactly.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np
import pytest
from conftest import scrape

from repro.runtime.chaos import ChaosProxy, FlakyEngine, SlowDispatcher
from repro.runtime.context import FheContext
from repro.runtime.protocol import (
    ServerError,
    ServingClient,
    pack_parts,
    unpack_parts,
)
from repro.runtime.resilient import ResilientClient
from repro.runtime.scheduler import BatchScheduler
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch
from repro.tfhe.params import TEST_TINY
from repro.tfhe.serialize import from_bytes, to_bytes
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    TransformSpec,
    make_transform,
)

BITS = [(True, True), (True, False), (False, True), (False, False)]


@pytest.fixture(scope="module")
def wire_keys():
    transform = DoubleFFTNegacyclicTransform(TEST_TINY.N)
    return generate_keys(TEST_TINY, transform, unroll_factor=1, rng=61, eager=False)


def _encrypt_pairs(secret, seed=100):
    pairs = []
    for index, (a, b) in enumerate(BITS):
        ca = encrypt_bit(secret, a, rng=seed + 2 * index)
        cb = encrypt_bit(secret, b, rng=seed + 2 * index + 1)
        pairs.append((ca, cb))
    return pairs


def _run_gates(client, secret, pairs, gate="nand"):
    """Submit all, then await all (exercises pipelining across faults)."""
    ids = [
        client.submit(
            "gate", pack_parts([to_bytes(ca), to_bytes(cb)]), gate=gate
        )
        for ca, cb in pairs
    ]
    outs = []
    for request_id in ids:
        _, body = client.result(request_id)
        outs.append(from_bytes(unpack_parts(body, expected=1)[0]))
    return [bool(decrypt_bit(secret, out)) for out in outs]


def _expected(gate):
    table = {
        "nand": lambda a, b: not (a and b),
        "and": lambda a, b: a and b,
        "xor": lambda a, b: a != b,
    }[gate]
    return [table(a, b) for a, b in BITS]


# --------------------------------------------------------------------------- #
# transport chaos through the proxy                                           #
# --------------------------------------------------------------------------- #


def test_proxy_passthrough_is_transparent(server_factory, wire_keys):
    server = server_factory()
    secret, cloud = wire_keys
    with ChaosProxy("127.0.0.1", server.port) as proxy:
        with ResilientClient(port=proxy.port, base_delay=0.001) as client:
            client.register_key(cloud)
            assert _run_gates(client, secret, _encrypt_pairs(secret)) == _expected(
                "nand"
            )
            assert client.stats.reconnects == 0
    assert proxy.connections == 1


def test_corrupt_and_dropped_frames_recovered(server_factory, wire_keys):
    """A bit-flipped reply (the v2 CRC catches it) then a dropped request
    frame on the retry connection: the client reconnects twice; every gate
    still lands bit-identically and no job runs twice."""
    server = server_factory()
    secret, cloud = wire_keys
    plans = {
        # conn 0: corrupt the server's reply to the 3rd frame (a gate result)
        0: {"s2c": {3: {"action": "corrupt", "offset": -1}}},
        # conn 1 (first reconnect): drop the connection on the 3rd request
        1: {"c2s": {2: {"action": "drop"}}},
    }
    with ChaosProxy("127.0.0.1", server.port, plans) as proxy:
        with ResilientClient(port=proxy.port, base_delay=0.001) as client:
            client.register_key(cloud)
            got = _run_gates(client, secret, _encrypt_pairs(secret))
            assert got == _expected("nand")
            assert client.stats.reconnects == 2
            assert client.stats.resubmitted >= 1
            scraped = scrape(client)
        assert proxy.connections == 3
    # Exactly-once: 4 gates were executed as 4 jobs despite the resends.
    assert scraped["fhe_jobs_completed_total"] == 4
    assert scraped["fhe_jobs_deduped_total"] >= 1


def test_corrupted_request_is_resent_exactly_once(server_factory, wire_keys):
    """A bit-flipped *request*: the server cannot read it, answers with a
    retryable id -1 ``protocol`` error and drops the stream; the client
    re-dials and resends what is unanswered, and every gate runs once."""
    server = server_factory()
    secret, cloud = wire_keys
    # conn 0: frame 0 registers the key, frame 2 is the second gate
    plans = {0: {"c2s": {2: {"action": "corrupt", "offset": -1}}}}
    with ChaosProxy("127.0.0.1", server.port, plans) as proxy:
        with ResilientClient(port=proxy.port, base_delay=0.001) as client:
            client.register_key(cloud)
            got = _run_gates(client, secret, _encrypt_pairs(secret), gate="and")
            assert got == _expected("and")
            assert client.stats.reconnects == 1
            assert client.stats.resubmitted >= 1
            scraped = scrape(client)
        assert proxy.connections == 2
    assert scraped["fhe_jobs_completed_total"] == 4


def test_truncated_frame_recovered(server_factory, wire_keys):
    server = server_factory()
    secret, cloud = wire_keys
    plans = {0: {"s2c": {2: {"action": "truncate", "bytes": 25}}}}
    with ChaosProxy("127.0.0.1", server.port, plans) as proxy:
        with ResilientClient(port=proxy.port, base_delay=0.001) as client:
            client.register_key(cloud)
            got = _run_gates(client, secret, _encrypt_pairs(secret), gate="xor")
            assert got == _expected("xor")
            assert client.stats.reconnects >= 1


def test_delayed_frames_are_just_slow(server_factory, wire_keys):
    server = server_factory()
    secret, cloud = wire_keys
    plans = {0: {"s2c": {1: {"action": "delay", "seconds": 0.05}}}}
    with ChaosProxy("127.0.0.1", server.port, plans) as proxy:
        with ResilientClient(port=proxy.port, base_delay=0.001) as client:
            client.register_key(cloud)
            got = _run_gates(client, secret, _encrypt_pairs(secret), gate="and")
            assert got == _expected("and")
            assert client.stats.reconnects == 0
            assert client.stats.retries == 0


def test_multi_client_disconnects_zero_loss(server_factory, wire_keys):
    """Two sessions, one injected disconnect each (in opposite directions):
    zero lost jobs, zero duplicated jobs, every result bit-correct — the
    acceptance workload, shrunk to the tiny parameter set."""
    server = server_factory()
    secret, cloud = wire_keys
    plans = {
        0: {"c2s": {3: {"action": "drop"}}},
        1: {"s2c": {2: {"action": "drop"}}},
        # conns 2+3 are the reconnects — clean.
    }
    with ChaosProxy("127.0.0.1", server.port, plans) as proxy:
        results = {}
        errors = []

        def work(name, gate, seed):
            try:
                with ResilientClient(
                    port=proxy.port, base_delay=0.001, session=f"sess-{name}"
                ) as client:
                    client.register_key(cloud)
                    results[name] = _run_gates(
                        client, secret, _encrypt_pairs(secret, seed=seed), gate=gate
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=work, args=("alpha", "nand", 300)),
            threading.Thread(target=work, args=("beta", "xor", 400)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive(), "chaos workload hung"

    assert errors == []
    assert results["alpha"] == _expected("nand")
    assert results["beta"] == _expected("xor")
    scraped = scrape(server)
    assert scraped["fhe_jobs_completed_total"] == 8  # 4 per client, each exactly once
    assert scraped["fhe_sessions_active"] == 2


# --------------------------------------------------------------------------- #
# engine chaos                                                                #
# --------------------------------------------------------------------------- #


def test_flaky_engine_failover_bitidentical(wire_keys):
    """An engine that faults mid-batch is rebuilt from its own spec and the
    scheduler replays the round on it — the results match a clean run
    exactly."""
    secret, cloud = wire_keys
    pairs = _encrypt_pairs(secret, seed=500)
    # Clean reference on an untouched scheduler/engine.
    reference = BatchScheduler()
    reference.register_client("ref", cloud)
    session = reference.session("ref")
    handles = [session.submit_gate("nand", ca, cb) for ca, cb in pairs]
    reference.flush()
    want = [handle.result() for handle in handles]

    chaotic = BatchScheduler()
    chaotic.register_client("chaos", cloud)
    session = chaotic.session("chaos")
    context = chaotic.client_context("chaos")
    flaky = FlakyEngine(context.engine, fail_on_call=3)
    context.engine = flaky
    faulted_workspace = context.workspace
    handles = [session.submit_gate("nand", ca, cb) for ca, cb in pairs]
    chaotic.flush()
    got = [handle.result() for handle in handles]

    assert all(
        np.array_equal(g.a, w.a) and int(g.b) == int(w.b) for g, w in zip(got, want)
    )
    assert flaky.faults_raised == 1
    assert chaotic.stats.engine_failovers == 1
    assert context.engine is not flaky and context.engine.engine_kind == "double"
    assert context.workspace is not faulted_workspace
    assert faulted_workspace.nbytes == 0


def test_flaky_engine_that_never_faults_is_bit_identical_to_the_bare_engine(wire_keys):
    """The proxy forwards every ``contract_accumulate`` argument (the CMux
    addend, the workspace): a wrapped ``double`` engine that never reaches its
    fault computes exactly the bare engine's gate outputs."""
    secret, cloud = wire_keys
    pairs = _encrypt_pairs(secret, seed=510)
    ca = LweBatch.from_samples([a for a, _ in pairs])
    cb = LweBatch.from_samples([b for _, b in pairs])
    bare = FheContext(cloud, DoubleFFTNegacyclicTransform(TEST_TINY.N))
    flaky_engine = FlakyEngine(DoubleFFTNegacyclicTransform(TEST_TINY.N), fail_on_call=10**9)
    flaky = FheContext(cloud, flaky_engine)
    for width, names in ((1, ["nand"]), (len(pairs), ["nand", "xor", "or", "andny"])):
        want = bare.batch_evaluator(width).gate_rows(names, ca.rows(0, width), cb.rows(0, width))
        got = flaky.batch_evaluator(width).gate_rows(names, ca.rows(0, width), cb.rows(0, width))
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.b, want.b)
    assert flaky_engine.faults_raised == 0
    assert flaky_engine.calls > 0
    # The wrapped engine staged its intermediates through the context's
    # workspace — the argument the old fixed signature would have dropped.
    assert "transform" in flaky.workspace._pools


@pytest.mark.parametrize(
    "kind, options",
    [("naive", {}), ("double", {}), ("approx", {"twiddle_bits": 24})],
    ids=("naive", "double", "approx"),
)
def test_flaky_engine_reports_its_base_engines_spec(kind, options):
    """What a failover rebuilds from: the wrapped engine's kind and options,
    for an engine of every error model."""
    base = make_transform(kind, TEST_TINY.N, **options)
    flaky = FlakyEngine(base)
    assert flaky.engine_kind == kind
    assert flaky.spec() == base.spec() == TransformSpec.from_options(
        kind, **base.engine_options()
    )
    rebuilt = flaky.spec().create(TEST_TINY.N)
    assert type(rebuilt) is type(base)
    assert rebuilt.engine_options() == base.engine_options()


# --------------------------------------------------------------------------- #
# drain + shedding                                                            #
# --------------------------------------------------------------------------- #


def test_drain_resolves_accepted_then_refuses(server_factory, wire_keys):
    """SIGTERM-style drain: jobs accepted before the drain all resolve
    (through a deliberately slow dispatcher), clients are notified, and new
    work is refused with the typed retryable ``draining`` error."""
    server = server_factory(dispatcher=SlowDispatcher(0.05), flush_interval=0.2)
    secret, cloud = wire_keys
    client = ServingClient(port=server.port, session="drain-test")
    try:
        client.register_key(cloud)
        pairs = _encrypt_pairs(secret, seed=600)
        ids = [client.submit_gate("nand", ca, cb) for ca, cb in pairs]

        # Admission closes the moment the drain starts, so wait until every
        # submitted frame has actually been accepted into the scheduler —
        # otherwise the drain correctly rejects the still-in-flight ones.
        import time as _time

        deadline = _time.monotonic() + 10.0
        while _time.monotonic() < deadline:
            accepted = len(server._waiters) + server.scheduler.stats.jobs_completed
            if accepted >= len(ids):
                break
            _time.sleep(0.005)

        loop = server._flusher.get_loop()
        drain = asyncio.run_coroutine_threadsafe(server.drain(timeout=30.0), loop)

        # Every accepted job resolves during the drain, bit-correctly.
        got = []
        for request_id in ids:
            _, body = client.result(request_id)
            got.append(bool(decrypt_bit(secret, from_bytes(unpack_parts(body)[0]))))
        assert got == _expected("nand")

        drain_seconds = drain.result(30.0)
        assert drain_seconds >= 0.0

        # The client was told, and new work is refused with a typed error.
        assert any(e.get("event") == "draining" for e in client.events)
        ca, cb = pairs[0]
        with pytest.raises(ServerError) as excinfo:
            client.gate("nand", ca, cb)
        assert excinfo.value.kind == "draining"
        assert excinfo.value.retryable

        # The scrape is introspection: still served, over the wire, mid-drain.
        scraped = scrape(client)
        assert scraped["fhe_server_draining"] == 1
        assert scraped["fhe_jobs_completed_total"] == len(pairs)

        # The listener is closed: fresh connections are refused.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=1.0)
    finally:
        client.close()


def test_deadline_shedding_under_slow_flush(server_factory, wire_keys):
    server = server_factory(flush_interval=0.4)
    secret, cloud = wire_keys
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        ca = encrypt_bit(secret, True, rng=700)
        cb = encrypt_bit(secret, False, rng=701)
        with pytest.raises(ServerError) as excinfo:
            client.call(
                "gate",
                pack_parts([to_bytes(ca), to_bytes(cb)]),
                gate="nand",
                deadline_ms=1,
            )
        assert excinfo.value.kind == "shed"
        assert not excinfo.value.retryable
        assert scrape(server)["fhe_jobs_shed_total"] == 1
        # Introspection is never shed.
        header = client.hello()
        assert header["server"] == "repro-serve"
