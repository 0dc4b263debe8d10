"""The coalescing window's policy, observed from outside the server.

``flush_interval`` is a *ceiling*: the window a first queued job opens closes
as soon as the queue holds as many jobs as the server counted in flight at
the end of the previous flush, and that count is forgotten once the queue
has sat empty for a whole ``flush_interval``.  A recording dispatcher logs
when each ``run_rows`` call starts and how many rows it carries (and can
hold a call open on a ``threading.Event`` to stage arrivals), so every case
below asserts on *which rows rode together* and on waits no tighter than a
quarter of the 200 ms window.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.runtime.protocol import (
    ServerError,
    ServingClient,
    pack_parts,
    unpack_parts,
)
from repro.runtime.scheduler import InlineDispatcher
from repro.telemetry import parse_prometheus_text
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.params import TEST_TINY
from repro.tfhe.serialize import from_bytes, to_bytes
from repro.tfhe.transform import DoubleFFTNegacyclicTransform

WINDOW = 0.2
SLACK = WINDOW / 4


@pytest.fixture(scope="module")
def wire_keys():
    return generate_keys(
        TEST_TINY,
        DoubleFFTNegacyclicTransform(TEST_TINY.N),
        unroll_factor=1,
        rng=61,
        eager=False,
    )


class RecordingDispatcher(InlineDispatcher):
    """Inline execution that logs ``(start, rows)`` per ``run_rows`` call."""

    def __init__(self) -> None:
        self.calls = []
        #: When set to an Event, the next call blocks on it before running.
        self.hold = None
        self.entered = threading.Event()

    def run_rows(self, client_id, context, rows, *args, **kwargs):
        self.calls.append((time.monotonic(), len(rows)))
        hold, self.hold = self.hold, None
        if hold is not None:
            self.entered.set()
            assert hold.wait(30.0), "held run_rows call was never released"
        return super().run_rows(client_id, context, rows, *args, **kwargs)

    @property
    def widths(self):
        return [rows for _start, rows in self.calls]


def _operands(secret, index):
    a, b = index & 1, (index >> 1) & 1
    return (
        encrypt_bit(secret, a, rng=9000 + 2 * index),
        encrypt_bit(secret, b, rng=9001 + 2 * index),
        1 - (a & b),
    )


def _timed_gate(client, secret, index):
    """One NAND round trip; returns the submit time, after checking the bit."""
    ca, cb, want = _operands(secret, index)
    submitted = time.monotonic()
    assert decrypt_bit(secret, client.gate("nand", ca, cb)) == want
    return submitted


def _burst(client, secret, count, base=0):
    """``count`` pipelined NANDs, all submitted before any reply is read."""
    pending = []
    for index in range(base, base + count):
        ca, cb, want = _operands(secret, index)
        pending.append((client.submit_gate("nand", ca, cb), want))
    for request, want in pending:
        assert decrypt_bit(secret, client.gate_result(request)) == want


def _waits(dispatcher, submits):
    """Submit → start of the call that ran it, for one-call-per-gate runs."""
    assert len(dispatcher.calls) == len(submits)
    return [start - at for (start, _rows), at in zip(dispatcher.calls, submits)]


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_lone_closed_loop_client_pays_the_window_once(server_factory, wire_keys):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        submits = [_timed_gate(client, secret, i) for i in range(6)]
        waits = _waits(dispatcher, submits)
        # Cold: nobody is known to be around, so the first job waits it out.
        assert waits[0] >= WINDOW - SLACK
        # Then the one job in flight *is* the whole batch.
        assert max(waits[1:]) < SLACK
        assert dispatcher.widths == [1] * 6

        # The same waits, as the operator sees them.
        assert client.metrics()["coalesce_wait_p50"] < SLACK
        _, text = client.call("metrics_prom")
        family = parse_prometheus_text(text.decode("utf-8"))[
            "fhe_coalesce_wait_seconds"
        ]
        samples = {
            (name, labels.get("le")): value
            for name, labels, value in family["samples"]
        }
        assert samples[("fhe_coalesce_wait_seconds_count", None)] == 6
        assert samples[("fhe_coalesce_wait_seconds_bucket", "0.05")] == 5


def test_two_closed_loop_clients_out_of_phase_ride_together(
    server_factory, wire_keys
):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    release = threading.Event()
    dispatcher.hold = release
    errors = []

    def closed_loop(client, count, base):
        try:
            for i in range(count):
                _timed_gate(client, secret, base + i)
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    with ServingClient(port=server.port) as first, ServingClient(
        port=server.port
    ) as second:
        first.register_key(cloud)
        second.register_key(cloud)
        a = threading.Thread(target=closed_loop, args=(first, 6, 0))
        b = threading.Thread(target=closed_loop, args=(second, 5, 10))
        a.start()
        # The second client's first job arrives while the first one's flush
        # is running — as far out of phase as two clients can be.
        assert dispatcher.entered.wait(10.0)
        b.start()
        assert _wait_until(lambda: server.metrics()["awaiting_results"] == 2)
        release.set()
        a.join(30.0)
        b.join(30.0)
        assert not a.is_alive() and not b.is_alive()
    assert not errors
    assert dispatcher.widths[0] == 1
    assert dispatcher.widths[2:] == [2] * (len(dispatcher.widths) - 2)
    assert sum(dispatcher.widths) == 11


def test_cold_burst_is_one_call(server_factory, wire_keys):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        _burst(client, secret, 8)
    assert dispatcher.widths == [8]


def test_absent_population_costs_the_ceiling_never_more(server_factory, wire_keys):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        _burst(client, secret, 2)  # two in flight at the end of this flush
        submitted = _timed_gate(client, secret, 2)  # ... but only one returns
    assert dispatcher.widths == [2, 1]
    wait = dispatcher.calls[1][0] - submitted
    assert WINDOW - SLACK <= wait < WINDOW + 2 * SLACK


def test_departed_client_costs_the_survivor_one_window(server_factory, wire_keys):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    survivor = ServingClient(port=server.port)
    # A durable session: its teardown keeps the key for a reconnect, so the
    # only thing its departure changes is who is left to wait for.
    leaver = ServingClient(port=server.port, session="leaver")
    try:
        survivor.register_key(cloud)
        leaver.register_key(cloud)
        ca, cb, want = _operands(secret, 0)
        requests = [(c, c.submit_gate("nand", ca, cb)) for c in (survivor, leaver)]
        for client, request in requests:
            assert decrypt_bit(secret, client.gate_result(request)) == want
        assert dispatcher.widths == [2]
        # A request that fails inside the submit must not stay counted.
        with pytest.raises(ServerError):
            leaver.call("gate", pack_parts([to_bytes(ca), to_bytes(cb)]), gate="bogus")

        ca, cb, want = _operands(secret, 1)
        submitted = time.monotonic()
        request = survivor.submit_gate("nand", ca, cb)
        assert _wait_until(lambda: len(server._waiters) == 1)
        leaver.close()  # gone while the survivor's job waits for it
        assert decrypt_bit(secret, survivor.gate_result(request)) == want
        waits = [dispatcher.calls[1][0] - submitted]
        for i in (2, 3):
            submitted = _timed_gate(survivor, secret, i)
            waits.append(dispatcher.calls[-1][0] - submitted)
        assert dispatcher.widths == [2, 1, 1, 1]
        assert waits[0] < WINDOW + 2 * SLACK  # at most the ceiling, once
        assert max(waits[1:]) < SLACK  # re-measured: nobody else is here
    finally:
        survivor.close()
        leaver.close()
    assert _wait_until(lambda: not server._connections)
    assert server._jobs_inflight == 0


def test_departed_clients_own_flush_remeasures_who_is_around(
    server_factory, wire_keys, leaver_session=None
):
    """The teardown of a client that held a key re-measures who is around:
    the population becomes the job requests still in flight, and the open
    window closes once they are all queued — here the survivor's job, which
    was waiting for the leaver, runs at once and its next gate waits for
    nobody (not for the rest of the window the departed client opened)."""
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    survivor = ServingClient(port=server.port)
    leaver = ServingClient(port=server.port, session=leaver_session)
    try:
        survivor.register_key(cloud)
        leaver.register_key(cloud)
        ca, cb, want = _operands(secret, 0)
        requests = [(c, c.submit_gate("nand", ca, cb)) for c in (survivor, leaver)]
        for client, request in requests:
            assert decrypt_bit(secret, client.gate_result(request)) == want
        assert dispatcher.widths == [2]  # a population of two

        ca, cb, want = _operands(secret, 1)
        submitted = time.monotonic()
        request = survivor.submit_gate("nand", ca, cb)
        assert _wait_until(lambda: len(server._waiters) == 1)
        assert dispatcher.widths == [2]  # ... so the lone job is held back
        leaver.close()  # its teardown closes the window the survivor's job is in
        assert decrypt_bit(secret, survivor.gate_result(request)) == want
        assert dispatcher.calls[1][0] - submitted < WINDOW - SLACK

        submitted = _timed_gate(survivor, secret, 2)
        assert dispatcher.calls[-1][0] - submitted < SLACK
        assert dispatcher.widths == [2, 1, 1]
    finally:
        survivor.close()
        leaver.close()
    assert _wait_until(lambda: not server._connections)
    assert server._jobs_inflight == 0


def test_departed_session_holder_remeasures_who_is_around(server_factory, wire_keys):
    """The same departure by a client holding a ``session`` token: its key
    stays for a reconnect, but nobody waits for it any more."""
    test_departed_clients_own_flush_remeasures_who_is_around(
        server_factory, wire_keys, leaver_session="leaver"
    )


def test_burst_after_idle_coalesces_like_a_cold_server(server_factory, wire_keys):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=WINDOW)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        for i in range(2):
            _timed_gate(client, secret, i)  # leaves a population of one
        time.sleep(WINDOW + 2 * SLACK)  # ... which idling forgets
        _burst(client, secret, 8, base=2)
    assert dispatcher.widths == [1, 1, 8]


def test_zero_interval_never_waits(server_factory, wire_keys):
    secret, cloud = wire_keys
    dispatcher = RecordingDispatcher()
    server = server_factory(dispatcher=dispatcher, flush_interval=0)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        submits = [_timed_gate(client, secret, i) for i in range(3)]
    assert max(_waits(dispatcher, submits)) < SLACK


def test_deadline_estimate_uses_the_window_actually_paid(server_factory, wire_keys):
    """A lone closed-loop client under a 0.5 s ceiling stops paying it after
    its first gate, so a deadline just above the flush latency is met."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.5)
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        for i in range(4):
            _timed_gate(client, secret, i)
        ca, cb, want = _operands(secret, 4)
        deadline_ms = (client.metrics()["flush_latency_p50"] + 0.1) * 1000.0
        _, body = client.call(
            "gate",
            pack_parts([to_bytes(ca), to_bytes(cb)]),
            gate="nand",
            deadline_ms=deadline_ms,
        )
        assert decrypt_bit(secret, from_bytes(unpack_parts(body)[0])) == want
        assert server.metrics()["jobs_shed"] == 0


def test_drain_closes_the_open_window(server_factory, wire_keys):
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.5)
    with ServingClient(port=server.port) as first, ServingClient(
        port=server.port
    ) as second:
        first.register_key(cloud)
        second.register_key(cloud)
        pending = []
        for index, client in enumerate((first, second, first, second)):
            ca, cb, want = _operands(secret, index)
            pending.append((client, client.submit_gate("nand", ca, cb), want))
        assert _wait_until(lambda: len(server._waiters) == len(pending))
        loop = server._flusher.get_loop()
        drained = asyncio.run_coroutine_threadsafe(server.drain(timeout=30.0), loop)
        # Half the window: a drain that slept it out would need all of it.
        assert drained.result(30.0) < 0.25
        for client, request, want in pending:
            assert decrypt_bit(secret, client.gate_result(request)) == want
