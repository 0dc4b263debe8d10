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
import os
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
from dataclasses import replace

import numpy as np
import pytest
from conftest import ciphertext_form, scrape
from test_serialize import old_layout_key, old_unrolled_key

from repro.runtime import FheContext, ResilientClient, WorkerPool
from repro.runtime import server as server_module
from repro.runtime.chaos import FlakyEngine
from repro.runtime.protocol import (
    DEFAULT_MAX_FRAME,
    MAGIC,
    PROTOCOL_VERSION,
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
from repro.tfhe.gates import TFHEGateEvaluator, decrypt_bit, encrypt_bit
from repro.tfhe.integers import RadixEvaluator, RadixInt, decrypt_radix, encrypt_radix
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch, LweSample, lwe_round_mask
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.serialize import circuit_to_json, from_bytes, to_bytes
from repro.tfhe.transform import DoubleFFTNegacyclicTransform

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

        scraped = scrape(client)
        assert scraped["fhe_jobs_completed_total"] >= 3
        assert scraped["fhe_queue_depth"] == 0
        assert scraped["fhe_rows_bootstrapped_total"] > 0
        assert scraped["fhe_server_busy_seconds_total"] > 0
        assert scraped["fhe_connections"] == 1


def _reply_blob(client, request_id) -> bytes:
    """The one artifact a job's reply body carries, as the wire had it."""
    _, body = client.result(request_id)
    (blob,) = unpack_parts(body, expected=1)
    return bytes(blob)


def test_gate_lut_and_circuit_replies_travel_rounded_as_halves(server_factory, wire_keys):
    """A reply is the in-process result with its mask rounded
    (``lwe_round_mask``), written as ``a_hi``; sent back, it is an operand."""
    secret, cloud = wire_keys
    evaluator = TFHEGateEvaluator(FheContext(cloud))
    ca, cb = encrypt_bit(secret, 1, rng=31), encrypt_bit(secret, 1, rng=32)
    bits = [encrypt_bit(secret, bit, rng=33 + i) for i, bit in enumerate((1, 0, 1, 1))]
    circuit = adder_netlist(2)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        gate = _reply_blob(client, client.submit_gate("nand", ca, cb))
        assert gate == to_bytes(lwe_round_mask(evaluator.nand(ca, cb)))
        lut = _reply_blob(client, client.submit_lut(0b0110, bits[:2]))
        assert lut == to_bytes(lwe_round_mask(evaluator.lut(0b0110, bits[:2])))
        adder = _reply_blob(client, client.submit_circuit(circuit, LweBatch.from_samples(bits)))
        for blob in (gate, lut, adder):
            assert ciphertext_form(blob) == "a_hi"
        total = from_bytes(adder)
        assert sum(decrypt_bit(secret, s) << i for i, s in enumerate(total.to_samples())) == 1 + 3
        # Rounded replies as operands: the next bootstrap reads them as any other.
        again = client.gate("xor", from_bytes(gate), from_bytes(lut))
        assert decrypt_bit(secret, again) == 0 ^ 1


def test_a_ring_too_wide_to_afford_rounding_keeps_the_full_mask(server_factory, wire_keys):
    """At N = 4096 rounding to 16 bits would add more than 1 % of the next
    mod switch's variance, so the server leaves that key's replies whole."""
    wide = replace(TEST_TINY, name="wide-ring", tlwe=replace(TEST_TINY.tlwe, degree=4096))
    secret, cloud = generate_keys(wide, DoubleFFTNegacyclicTransform(wide.N), rng=62, eager=False)
    ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        blob = _reply_blob(client, client.submit_gate("nand", ca, cb))
        assert blob == to_bytes(TFHEGateEvaluator(FheContext(cloud)).nand(ca, cb))
        assert ciphertext_form(blob) == "a" and decrypt_bit(secret, from_bytes(blob)) == 0


def test_the_json_metrics_op_is_gone(server_factory, wire_keys):
    """The scrape is the one read-out: a ``metrics`` request has no frame
    code, an op code the server has no op for is refused as an unknown op —
    typed, not retryable — and the connection serves on."""
    secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        with pytest.raises(ValueError, match="no frame code"):
            client.call("metrics")
        with pytest.raises(ServerError) as excinfo:
            client.call(9)
        assert excinfo.value.kind == "unsupported" and not excinfo.value.retryable
        out = client.gate("nand", encrypt_bit(secret, 1, rng=5), encrypt_bit(secret, 1, rng=6))
        assert decrypt_bit(secret, out) == 0
    for owner in (FheServer, ServingClient, ResilientClient):
        assert not hasattr(owner, "metrics"), owner


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


RADIX_ENCODING = DigitEncoding(message_bits=2, carry_bits=2)


@pytest.fixture(scope="module")
def pbs_keys():
    """One TEST_PBS keypair: rated for the 2+2-bit digit encoding."""
    return generate_keys(TEST_PBS, unroll_factor=1, rng=71, eager=False)


def _radix_operands(secret, y_bound=9):
    """57 + 123 whose bounds force carry propagation: x's digits at 9 sum
    past the budget of 12, so x is propagated in 4 carry rounds (7 rows)."""
    x = encrypt_radix(secret.lwe_key, 57, 4, RADIX_ENCODING, rng=1)
    y = encrypt_radix(secret.lwe_key, 123, 4, RADIX_ENCODING, rng=2)
    return (
        RadixInt(x.digits, bounds=(9,) * 4, encoding=RADIX_ENCODING),
        RadixInt(y.digits, bounds=(y_bound,) * 4, encoding=RADIX_ENCODING),
    )


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pool"])
def test_radix_add_over_the_wire(server_factory, pbs_keys, workers):
    secret, cloud = pbs_keys
    x, y = _radix_operands(secret)
    oracle = RadixEvaluator(FheContext(cloud), RADIX_ENCODING).add(x, y)
    pool = WorkerPool(workers, task_timeout=60.0) if workers else None
    try:
        server = server_factory(dispatcher=pool)
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            total = client.radix_add(x, y)
            assert decrypt_radix(secret.lwe_key, total) == (57 + 123) % RADIX_ENCODING.base**4
            assert to_bytes(total) == to_bytes(oracle)
            assert scrape(client)["fhe_rows_bootstrapped_total"] == 7
    finally:
        if pool is not None:
            pool.close()


def test_a_radix_adds_bootstraps_are_in_the_scrape(server_factory, pbs_keys):
    """Every bootstrap of a wire add is a row of some flush."""
    secret, cloud = pbs_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        client.radix_add(*_radix_operands(secret))
        (resident,) = server.scheduler.residents
        bootstraps = resident.context.batch_evaluator(1).counters.bootstraps
        assert bootstraps == 7
        assert scrape(client)["fhe_rows_bootstrapped_total"] == bootstraps


def test_an_engine_fault_during_a_radix_add_is_replayed(server_factory, pbs_keys):
    secret, cloud = pbs_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        (resident,) = server.scheduler.residents
        context = resident.context
        context.engine = FlakyEngine(context.engine, fail_on_call=3)
        context.release()  # rebuild the spectrum cache on the flaky engine
        total = client.radix_add(*_radix_operands(secret))
        assert decrypt_radix(secret.lwe_key, total) == (57 + 123) % RADIX_ENCODING.base**4
        assert server.scheduler.stats.engine_failovers == 1


def test_a_radix_add_over_budget_fails_alone_in_its_flush(server_factory, pbs_keys):
    """y's bound of 14 is over the propagation budget of 12, which the add
    finds only after x's carry rounds ran: its request is a ``bad_request``
    naming the budget, and another connection's gate in the same flush
    still decrypts."""
    secret, cloud = pbs_keys
    x, y = _radix_operands(secret, y_bound=14)
    server = server_factory(flush_interval=0.25)
    with ServingClient(port=server.port) as adder, ServingClient(port=server.port) as other:
        adder.register_key(cloud)
        other.register_key(cloud)
        gate = other.submit_gate(
            "nand", encrypt_bit(secret, 1, rng=3), encrypt_bit(secret, 1, rng=4)
        )
        message = _bad_request(adder, "radix_add", [to_bytes(x), to_bytes(y)])
        assert "propagation budget 12" in message
        assert decrypt_bit(secret, other.gate_result(gate)) == 0
        assert server.scheduler.stats.flushes == 1


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
        bad = edit_artifact(to_bytes(cloud), version=99)
        assert "version 99" in _bad_request(client, "register_key", [bad])


def test_old_npz_key_is_a_clean_error(server_factory, wire_keys):
    """A format-2 (npz) client gets a refusal that names the container."""
    _secret, cloud = wire_keys
    out = io.BytesIO()
    np.savez(out, keyswitch=cloud.keyswitch_key.data)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        assert "npz" in _bad_request(client, "register_key", [out.getvalue()])


def test_a_key_with_digit_zero_samples_is_refused_by_its_shape(server_factory, wire_keys):
    """A key of the earlier ``(k·N, t, base, n+1)`` key-switching layout is a
    typed, non-retryable refusal naming the expected shape, and the same
    connection then registers the current key and serves a gate."""
    secret, cloud = wire_keys
    ks = TEST_TINY.keyswitch
    expected = (TEST_TINY.k * TEST_TINY.N, ks.length, ks.base - 1, TEST_TINY.n + 1)
    server = server_factory()
    with ServingClient(port=server.port) as client:
        request = client.submit("register_key", pack_parts([old_layout_key(cloud)]))
        with pytest.raises(ServerError) as excinfo:
            client.result(request)
        assert excinfo.value.kind == "bad_request" and not excinfo.value.retryable
        assert "'keyswitch' has rank 4" in str(excinfo.value)
        assert f"expected {expected}" in str(excinfo.value)
        client.register_key(cloud)
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        assert decrypt_bit(secret, client.gate("nand", ca, cb)) == 0


def test_an_unrolled_key_entry_is_refused_by_name(server_factory):
    """A BKU key of the earlier layout, its TGSW stack under ``unrolled_key``,
    is a typed, non-retryable refusal naming ``bootstrapping_key``, and the
    same connection then registers the current key and serves a gate."""
    secret, cloud = generate_keys(
        TEST_TINY, DoubleFFTNegacyclicTransform(TEST_TINY.N), 2, rng=62, eager=False
    )
    server = server_factory()
    with ServingClient(port=server.port) as client:
        request = client.submit("register_key", pack_parts([old_unrolled_key(cloud)]))
        with pytest.raises(ServerError) as excinfo:
            client.result(request)
        assert excinfo.value.kind == "bad_request" and not excinfo.value.retryable
        assert "missing the 'bootstrapping_key' entry" in str(excinfo.value)
        client.register_key(cloud)
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        assert decrypt_bit(secret, client.gate("nand", ca, cb)) == 0


def test_a_hostile_seeded_operand_is_refused_and_the_connection_serves_on(
    server_factory, wire_keys, edit_artifact
):
    """A seeded operand whose head asks for more mask than the expansion
    bound, for no mask, for an unknown form or for a mask of another
    dimension, is a typed, non-retryable ``bad_request``; the same
    connection then serves a NAND of fresh (seeded) operands that
    decrypts."""
    secret, cloud = wire_keys
    fresh = to_bytes(encrypt_bit(secret, 1, rng=3))
    assert ciphertext_form(fresh) == "seed"
    hostile = [
        (edit_artifact(fresh, lambda m: m.__setitem__("n", 2**32 - 1)), "expansion bound"),
        (edit_artifact(fresh, lambda m: m.__setitem__("n", 0)), "n >= 1"),
        (edit_artifact(fresh, lambda m: m.__setitem__("form", 3)), "unknown ciphertext form"),
        (edit_artifact(fresh, lambda m: m.__setitem__("n", TEST_TINY.n + 1)), "dimension"),
    ]
    server = server_factory()
    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        for bad, match in hostile:
            request = client.submit("gate", pack_parts([bad, fresh]), gate="nand")
            with pytest.raises(ServerError) as excinfo:
                client.result(request)
            assert excinfo.value.kind == "bad_request" and not excinfo.value.retryable
            assert match in str(excinfo.value)
        ca, cb = encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        assert ca.seed is not None and cb.seed is not None
        assert decrypt_bit(secret, client.gate("nand", ca, cb)) == 0


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
    and a batch whose head states fewer rows than it carries by ``circuit``."""
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
        lopsided = edit_artifact(to_bytes(bits), lambda m: m.__setitem__("rows", 2))
        message = _bad_request(
            client, "circuit", [lopsided], circuit=json.loads(circuit_to_json(circuit))
        )
        assert "trailing bytes" in message


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


def test_a_reply_frame_sent_as_a_request_is_refused(server_factory):
    """Only a reply or an event may come without an op (and an event without
    an id): the server answers either ``protocol`` and serves on."""
    server = server_factory()
    refusal = {"kind": "protocol", "message": "a reply frame is not a request"}
    with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
        for header, reply_id in (({"id": 5, "gate": "nand"}, 5), ({"event": "draining"}, -1)):
            sock.sendall(encode_frame(header))
            assert read_frame(sock) == ({"id": reply_id, "error": refusal}, b"")
        sock.sendall(encode_frame({"op": "hello", "id": 6}))
        assert read_frame(sock)[0]["protocol"] == PROTOCOL_VERSION


def test_unknown_op_and_missing_fields(server_factory, wire_keys):
    _secret, cloud = wire_keys
    server = server_factory()
    with ServingClient(port=server.port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.call(255)  # an op code with no op
        assert excinfo.value.kind == "unsupported"
        assert str(excinfo.value) == "[unsupported] unknown op code 255"
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
        MAGIC + b"\x00" * 5,                    # truncated prefix
        # a hello with id 0 and a u32 body length of ≈ 4 GiB
        MAGIC + bytes(4) + b"\x01\x62\x00" + b"\xff" * 4,  # oversized body
        struct.pack("<4sIQI", b"rTFS", 2, 0, 0) + b"{}",  # retired protocol 1
        struct.pack("<4sIQI", b"rTF2", 2, 0, 0) + b"{}",  # retired frame 2
    ],
    ids=["bad-magic", "truncated", "oversized-prefix", "retired-magic", "frame-2"],
)
def test_malformed_stream_gets_error_then_close(server_factory, payload):
    server = server_factory()
    header, closed = _raw_exchange(server.port, payload)
    assert closed  # a desynchronised stream is always dropped ...
    if header is not None:  # ... after a best-effort protocol error frame
        assert header["error"]["kind"] == "protocol"
        if payload.startswith(b"rTFS"):  # no legacy reader: a foreign magic
            assert "bad frame magic" in header["error"]["message"]
        if payload.startswith(b"rTF2"):
            assert "frame 2" in header["error"]["message"]
    # The server is still healthy for the next connection.
    with ServingClient(port=server.port) as client:
        assert client.hello()["server"] == "repro-serve"


def test_an_unreadable_frame_raises_a_typed_error_from_result(server_factory):
    """The server answers a frame it cannot read with an id -1 error frame
    whose ``retryable`` comes from the ``ProtocolError``: an oversized frame
    is final, a corrupted one may be resent."""
    server = server_factory(max_frame=4096)
    with ServingClient(port=server.port) as client:
        request = client.submit("hello", pad="y" * 10_000)
        with pytest.raises(ServerError, match="frame of 10023 bytes exceeds 4096") as excinfo:
            client.result(request)
        assert excinfo.value.kind == "protocol" and not excinfo.value.retryable
    with ServingClient(port=server.port) as client:
        frame = bytearray(encode_frame({"op": "hello", "id": 0}))
        frame[len(MAGIC)] ^= 0xFF  # the CRC no longer matches the frame
        client._sock.sendall(bytes(frame))
        with pytest.raises(ServerError, match="checksum") as excinfo:
            client.result(0)
        assert excinfo.value.kind == "protocol" and excinfo.value.retryable
        assert not client._replies


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


def test_the_scrape_counts_every_event_once(server_factory, wire_keys):
    """A reconnect that re-registers its session's key, a pool task retry
    (whose restart trips the breaker), an engine failover on the round the
    scheduler runs in-process while the breaker is open, and a
    deadline-shed job: the scrape counts each once, and every family reads
    its one store."""
    secret, cloud = wire_keys
    ca, cb = encrypt_bit(secret, 1, rng=800), encrypt_bit(secret, 1, rng=801)
    # Spawn 0 dies on its first task: one retry, one restart — and with a
    # threshold of one restart the breaker opens, so the pool refuses later
    # rounds and the scheduler runs them in-process.
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

            # The next in-process round faults on its first transform call:
            # the scheduler rebuilds the engine from its spec and replays it.
            (resident,) = server.scheduler.residents
            context = resident.context
            flaky = FlakyEngine(context.engine)
            context.engine = flaky
            context.release()  # rebuild the spectrum cache on the flaky engine
            faulted_workspace = context.workspace

            client._client._sock.shutdown(socket.SHUT_RDWR)
            assert decrypt_bit(secret, client.gate("and", ca, cb)) == 1
            assert client.stats.reconnects == 1
            assert flaky.faults_raised == server.scheduler.stats.engine_failovers == 1
            assert context.engine is not flaky and context.engine.engine_kind == "double"
            assert context.workspace is not faulted_workspace

        with ServingClient(port=server.port) as observer:
            with pytest.raises(ServerError) as excinfo:
                observer.call("gate", b"", gate="nand", deadline_ms=0)
            assert excinfo.value.kind == "shed"
            scraped = scrape(observer)
            stats, pool_stats = server.scheduler.stats, pool.stats
            stores = {
                "fhe_flushes_total": stats.flushes,
                "fhe_rows_bootstrapped_total": stats.rows_bootstrapped,
                "fhe_jobs_completed_total": stats.jobs_completed,
                "fhe_inline_fallbacks_total": stats.inline_fallbacks,
                "fhe_pool_worker_restarts_total": pool_stats.workers_restarted,
                "fhe_server_busy_seconds_total": server._busy_seconds,
            }
    finally:
        pool.close()

    for family in (
        "fhe_jobs_deduped_total",
        "fhe_jobs_shed_total",
        "fhe_engine_failovers_total",
        "fhe_pool_tasks_retried_total",
        "fhe_pool_breaker_trips_total",
    ):
        assert scraped[family] == 1, family
    assert scraped["fhe_inline_fallbacks_total"] >= 1  # the breaker's rounds
    for family, value in stores.items():
        assert scraped[family] == pytest.approx(value, rel=1e-9), family


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

        scraped = scrape(first)
        assert scraped["fhe_resident_keys"] == 1 and len(residents[0].queues) == 2
        assert scraped["fhe_resident_key_bytes"] == residents[0].context.resident_bytes
        assert scraped["fhe_rows_bootstrapped_total"] == 2 * burst
        assert scraped["fhe_batched_calls_total"] < 2 * burst  # rows of both rode together

    assert _wait_until(lambda: not server._connections)
    assert server.scheduler.residents == []
    with ServingClient(port=server.port) as observer:
        scraped = scrape(observer)
    assert (scraped["fhe_resident_keys"], scraped["fhe_resident_key_bytes"]) == (0, 0)


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
        scraped = scrape(observer)
    assert (scraped["fhe_resident_keys"], scraped["fhe_sessions_active"]) == (0, 0)


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
        scraped = scrape(observer)
    assert (scraped["fhe_resident_keys"], scraped["fhe_sessions_active"]) == (0, 0)


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
        scraped = scrape(observer)
    assert (scraped["fhe_resident_keys"], scraped["fhe_sessions_active"]) == (0, 0)
    assert scraped["fhe_connections"] == 1  # the observer's own


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
    assert data.count(MAGIC) == burst


def _transformed_polys(server) -> tuple:
    """``fhe_engine_transform_calls_total`` by direction: (forward, backward)."""
    family = parse_prometheus_text(server.render_prometheus()).get(
        "fhe_engine_transform_calls_total", {"samples": []}
    )
    totals = {"forward": 0.0, "backward": 0.0}
    for _, labels, value in family["samples"]:
        totals[labels["direction"]] += value
    return totals["forward"], totals["backward"]


def test_a_served_flush_counts_the_polynomials_of_every_row(server_factory, wire_keys):
    """The transform family counts polynomials: a flush of four copies of one
    NAND moves it by four times what a flush of one moves."""
    secret, cloud = wire_keys
    server = server_factory(flush_interval=0.3)  # cold: the burst rides together
    body, want = _nand_body(secret, 1)

    def flush_of(rows):
        flushes = server.scheduler.stats.flushes
        before = _transformed_polys(server)
        requests = [client.submit("gate", body, gate="nand") for _ in range(rows)]
        for request in requests:
            assert decrypt_bit(secret, client.gate_result(request)) == want
        assert server.scheduler.stats.flushes == flushes + 1
        after = _transformed_polys(server)
        return after[0] - before[0], after[1] - before[1]

    with ServingClient(port=server.port) as client:
        client.register_key(cloud)
        (resident,) = server.scheduler.residents
        resident.context.rotator  # the key's spectra, outside both flushes
        four = flush_of(4)
        one = flush_of(1)
    assert one[0] > 0 and one[1] > 0
    assert four == (4 * one[0], 4 * one[1])


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
        assert _wait_until(lambda: scrape(server)["fhe_awaiting_results"] == 1)
        second.submit("gate", body, request_id=50, gate="nand", trace="dup-trace")
        replies = [client.result(50)[1] for client in (first, second)]
        assert replies[0] == replies[1]
        assert decrypt_bit(secret, from_bytes(unpack_parts(replies[0])[0])) == want
        assert (stats.jobs_completed, stats.rows_bootstrapped) == (completed + 1, rows + 1)
        assert scrape(server)["fhe_jobs_deduped_total"] == 1
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
        scraped = scrape(observer)
    assert (scraped["fhe_resident_keys"], scraped["fhe_awaiting_results"]) == (0, 0)


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
        while scrape(server)["fhe_awaiting_results"] != 1:
            await asyncio.sleep(0.01)
        await server.stop()
        # Returns with the client still connected: asyncio.run cancels the
        # server's reader, parked in its next read.

    runner = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    runner.start()
    runner.join(20.0)
    assert not runner.is_alive(), "the cancelled reader never tore its connection down"
    assert torn_down == ["conn1"] and not server._connections
    assert scrape(server)["fhe_resident_keys"] == 0


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
        assert scrape(server)["fhe_jobs_shed_total"] == 20


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


#: A server whose ``print`` sends it SIGTERM as it announces "listening".
_SIGNAL_AT_LISTENING = """
import asyncio, builtins, os, signal
from repro.runtime import server

def print_then_signal(*args, **kwargs):
    builtins.print(*args, **kwargs)
    if "listening on" in str(args[0]):
        os.kill(os.getpid(), signal.SIGTERM)

server.print = print_then_signal
asyncio.run(server.serve(port=0))
"""


def test_a_sigterm_at_the_listening_line_drains():
    """A supervisor may signal the moment it reads "listening": by then the
    handlers are installed, so the server drains and exits 0 instead of
    dying of the signal with its accepted jobs lost."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", _SIGNAL_AT_LISTENING],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert result.returncode == 0, (result.returncode, result.stdout, result.stderr)
    assert "repro-serve draining" in result.stdout
