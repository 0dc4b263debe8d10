"""Unit tests for :class:`repro.runtime.resilient.ResilientClient`.

These exercise the retry machinery itself — backoff schedule, deadlines,
typed retry policy, reconnect/resubmit bookkeeping — with a seeded jitter
source and an injectable sleep, so every assertion is deterministic.  The
end-to-end chaos scenarios (proxies dropping/corrupting frames mid-flight)
live in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import random
import socket

import pytest
from conftest import scrape

from repro.runtime.protocol import (
    MAX_HEADER_LEN,
    FrameTooLarge,
    JobShed,
    ServerError,
    ServingClient,
)
from repro.runtime.resilient import DeadlineExceeded, ResilientClient
from repro.tfhe.gates import decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.params import TEST_TINY
from repro.tfhe.transform import DoubleFFTNegacyclicTransform


@pytest.fixture(scope="module")
def wire_keys():
    transform = DoubleFFTNegacyclicTransform(TEST_TINY.N)
    return generate_keys(TEST_TINY, transform, unroll_factor=1, rng=61, eager=False)


def _dead_port() -> int:
    """A port with nothing listening (bound, then released)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_max_attempts_must_be_positive():
    with pytest.raises(ValueError):
        ResilientClient(max_attempts=0)


def test_backoff_schedule_is_deterministic():
    """Seeded jitter + injected sleep: the retry schedule replays exactly."""
    slept = []
    client = ResilientClient(
        port=_dead_port(),
        max_attempts=4,
        base_delay=0.05,
        max_delay=2.0,
        rng=random.Random(7),
        sleep=slept.append,
    )
    request_id = client.submit("hello")
    with pytest.raises((ConnectionError, OSError)):
        client.result(request_id)

    # Attempts 1..3 back off before re-dialling; attempt 4 hits the cap.
    assert len(slept) == 3
    replay = random.Random(7)
    expected = [
        min(2.0, 0.05 * 2 ** (k - 1)) * (0.5 + replay.random()) for k in (1, 2, 3)
    ]
    assert slept == pytest.approx(expected)
    assert client.stats.retries == 3
    assert client.stats.backoff_seconds == pytest.approx(sum(expected))
    assert client.stats.connects == 0  # every dial was refused
    # The request is no longer pending — the failure was surfaced, not lost.
    with pytest.raises(KeyError):
        client.result(request_id)


def test_deadline_exceeded_is_typed_and_final():
    client = ResilientClient(
        port=_dead_port(),
        max_attempts=1000,
        sleep=lambda _d: None,
    )
    request_id = client.submit("hello", deadline=1e-6)
    with pytest.raises(DeadlineExceeded) as excinfo:
        client.result(request_id)
    assert excinfo.value.retryable is False
    with pytest.raises(KeyError):
        client.result(request_id)


def test_non_retryable_server_error_raises_immediately(server_factory):
    server = server_factory()
    with ResilientClient(port=server.port, max_attempts=8) as client:
        with pytest.raises(ServerError) as excinfo:
            client.call(200)  # an op code the server has no op for
        assert excinfo.value.kind == "unsupported"
        assert not excinfo.value.retryable
        with pytest.raises(ValueError, match="no frame code"):
            client.call("no_such_op")  # refused before it is pending
        assert not client._pending
        # No retries were burned on a permanent failure.
        assert client.stats.retries == 0
        assert client.stats.connects == 1


@pytest.mark.parametrize("connected", [False, True], ids=["first-request", "connected"])
def test_a_frame_that_cannot_be_built_raises_from_submit(server_factory, connected):
    """An oversized header fails while the frame is built, before a byte is
    sent: resending it would fail the same way, so it is neither kept nor
    retried, and the connection is dialled once."""
    server = server_factory()
    with ResilientClient(port=server.port, max_attempts=4, sleep=lambda _d: None) as client:
        if connected:
            client.hello()
        with pytest.raises(FrameTooLarge, match="header is"):
            client.submit("hello", pad="y" * (MAX_HEADER_LEN + 1))
        assert not client._pending
        assert (client.stats.connects, client.stats.reconnects) == (1, 0)
        assert client.stats.retries == 0
        assert client.hello()["server"] == "repro-serve"  # the client serves on
        assert client.stats.retries == 0


def test_a_frame_that_could_not_be_sent_yet_raises_once_it_is_built(server_factory):
    """Submitted while the dial is refused, the request waits unbuilt; the
    redial in ``result`` builds it, and its frame error raises there."""
    server = server_factory()
    client = ResilientClient(port=_dead_port(), timeout=5.0, sleep=lambda _d: None)
    with client:
        request = client.submit("hello", pad="y" * (MAX_HEADER_LEN + 1))
        client.port = server.port
        with pytest.raises(FrameTooLarge, match="header is"):
            client.result(request)
        assert not client._pending
        assert (client.stats.connects, client.stats.retries) == (1, 0)


def test_shed_job_raises_jobshed_without_retry(server_factory, wire_keys):
    # A long coalescing window guarantees a 1 ms deadline cannot be met, so
    # the server sheds the job up front; JobShed is not retryable.
    server = server_factory(flush_interval=0.5)
    secret, cloud = wire_keys
    with ResilientClient(port=server.port) as client:
        client.register_key(cloud)
        ca = encrypt_bit(secret, True, rng=11)
        cb = encrypt_bit(secret, False, rng=12)
        with pytest.raises(JobShed):
            client.gate("nand", ca, cb, deadline=0.001)
        assert client.stats.retries == 0
        assert scrape(client)["fhe_jobs_shed_total"] >= 1


def test_reconnect_reregisters_and_resubmits(server_factory, wire_keys):
    """Killing the socket mid-session loses nothing: the next result()
    re-dials, replays the key registration (answered from the server's
    session cache) and resubmits the pending request under its original id."""
    server = server_factory()
    secret, cloud = wire_keys
    with ResilientClient(port=server.port, base_delay=0.001) as client:
        client.register_key(cloud)
        ca = encrypt_bit(secret, True, rng=21)
        cb = encrypt_bit(secret, True, rng=22)
        out = client.gate("nand", ca, cb)
        assert not decrypt_bit(secret, out)

        # Simulate a mid-flight connection loss *before* the submit.
        client._client._sock.shutdown(socket.SHUT_RDWR)
        out = client.gate("and", ca, cb)
        assert decrypt_bit(secret, out)
        assert client.stats.reconnects >= 1
        assert client.stats.resubmitted >= 1

        scraped = scrape(client)
        assert scraped["fhe_sessions_active"] == 1
        # The replayed register_key was answered from the session cache.
        assert scraped["fhe_jobs_deduped_total"] >= 1


def test_session_token_defaults_unique():
    a = ResilientClient(port=1)  # never dialled: submit() absorbs failures
    b = ResilientClient(port=1)
    assert a.session != b.session
    assert len(a.session) == 32


def test_plain_client_can_share_session_token(server_factory, wire_keys):
    """The session protocol is client-agnostic: a plain ServingClient that
    resends a request id under the same token gets the cached bytes back —
    exactly-once, bit-identical."""
    server = server_factory()
    secret, cloud = wire_keys
    ca = encrypt_bit(secret, False, rng=31)
    cb = encrypt_bit(secret, True, rng=32)

    from repro.runtime.protocol import pack_parts
    from repro.tfhe.serialize import to_bytes

    first = ServingClient(port=server.port, session="tok-shared")
    first.register_key(cloud)
    request_id = first.submit_gate("xor", ca, cb)
    _, body_first = first.result(request_id)
    first.close()

    # A later connection resends the same request under the same id/token.
    second = ServingClient(port=server.port, session="tok-shared")
    second.submit(
        "gate",
        pack_parts([to_bytes(ca), to_bytes(cb)]),
        request_id=request_id,
        gate="xor",
    )
    _, body_retry = second.result(request_id)
    second.close()

    assert body_retry == body_first  # cached, not re-executed
    assert scrape(server)["fhe_jobs_deduped_total"] >= 1
