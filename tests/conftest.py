"""Shared fixtures.

Key generation is the expensive part of the functional tests, so the fixtures
that build keys are session-scoped and deterministic (fixed seeds); individual
tests must not mutate them.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.integer_fft import ApproximateNegacyclicTransform
from repro.tfhe.gates import TFHEGateEvaluator
from repro.tfhe.keys import generate_keys
from repro.tfhe.params import TEST_SMALL, TEST_TINY
from repro.tfhe.transform import DoubleFFTNegacyclicTransform, NaiveNegacyclicTransform


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_keys_naive():
    """TEST_TINY keys with the exact (naive) transform, classical rotation."""
    transform = NaiveNegacyclicTransform(TEST_TINY.N)
    secret, cloud = generate_keys(TEST_TINY, transform, unroll_factor=1, rng=1)
    return secret, cloud


@pytest.fixture(scope="session")
def tiny_keys_naive_m2():
    """TEST_TINY keys with the exact transform and BKU factor m = 2."""
    transform = NaiveNegacyclicTransform(TEST_TINY.N)
    secret, cloud = generate_keys(TEST_TINY, transform, unroll_factor=2, rng=2)
    return secret, cloud


@pytest.fixture(scope="session")
def small_keys_double():
    """TEST_SMALL keys with the double-precision FFT transform."""
    transform = DoubleFFTNegacyclicTransform(TEST_SMALL.N)
    secret, cloud = generate_keys(TEST_SMALL, transform, unroll_factor=1, rng=3)
    return secret, cloud


@pytest.fixture(scope="session")
def small_keys_approx_m2():
    """TEST_SMALL keys with MATCHA's approximate integer transform and m = 2."""
    transform = ApproximateNegacyclicTransform(TEST_SMALL.N, twiddle_bits=64)
    secret, cloud = generate_keys(TEST_SMALL, transform, unroll_factor=2, rng=4)
    return secret, cloud


@pytest.fixture(scope="session")
def small_evaluator_double(small_keys_double):
    _, cloud = small_keys_double
    return TFHEGateEvaluator(cloud)


@pytest.fixture(scope="session")
def small_evaluator_approx(small_keys_approx_m2):
    _, cloud = small_keys_approx_m2
    return TFHEGateEvaluator(cloud)


@pytest.fixture(scope="session")
def tiny_evaluator(tiny_keys_naive):
    _, cloud = tiny_keys_naive
    return TFHEGateEvaluator(cloud)


@pytest.fixture(scope="session")
def edit_artifact():
    """``edit(blob, mutate=None, payload=None, version=None, kind=None) -> blob``
    for corruption tests.

    Splits a :mod:`repro.tfhe.serialize` container by hand (the byte layout is
    the contract under test), lets ``mutate(header_dict)`` edit its header in
    place — a key's or radix integer's JSON, or a ciphertext's binary head as
    ``{"form", "n"}`` (+ ``"rows"`` for a batch), repacked as a ``u16``
    then ``u32`` words — optionally replaces the payload bytes, the container version
    byte or the artifact kind byte, and re-packs it under a correct
    ``header_len`` — so a test reaches the check it aims at instead of
    tripping the prefix check.
    """
    import json
    import struct

    prefix = struct.Struct("<4sBBI")
    heads = {1: ("form", "n"), 2: ("form", "n", "rows")}

    def edit(blob, mutate=None, payload=None, version=None, kind=None):
        magic, old_version, old_kind, header_len = prefix.unpack_from(blob)
        end = prefix.size + header_len
        fields = heads.get(old_kind)
        if fields:
            layout = "<H" + "I" * (len(fields) - 1)
            meta = dict(zip(fields, struct.unpack(layout, bytes(blob[prefix.size : end]))))
        else:
            meta = json.loads(bytes(blob[prefix.size : end]))
        if mutate is not None:
            mutate(meta)
        if fields:
            header = struct.pack("<H" + "I" * (len(meta) - 1), *meta.values())
        else:
            header = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        body = bytes(blob[end:]) if payload is None else payload
        version = old_version if version is None else version
        kind = old_kind if kind is None else kind
        return prefix.pack(magic, version, kind, len(header)) + header + body

    return edit


def ciphertext_form(blob) -> str:
    """The form an ``lwe_sample`` / ``lwe_batch`` container's mask travels
    in, read from its binary head: ``a``, ``seed`` or ``a_hi``."""
    import struct

    assert blob[:4] == b"rTFA" and blob[5] in (1, 2), bytes(blob[:6])
    return ("a", "seed", "a_hi")[struct.unpack_from("<H", blob, 10)[0]]


def scrape(source) -> dict:
    """A server's one read-out, flattened for assertions.

    ``source`` is a client (it sends ``metrics_prom``) or anything in
    process with ``render_prometheus()`` (an ``FheServer``, a ``Telemetry``).
    Returns every counter and gauge family summed over its series, plus each
    histogram's ``<name>_count`` and ``<name>_sum``.
    """
    from repro.telemetry import parse_prometheus_text

    if hasattr(source, "render_prometheus"):
        text = source.render_prometheus()
    else:
        _, body = source.call("metrics_prom")
        text = body.decode("utf-8")
    flat: dict = {}
    for name, family in parse_prometheus_text(text).items():
        for sample, _labels, value in family["samples"]:
            if family["type"] != "histogram":
                flat[name] = flat.get(name, 0.0) + value
            elif sample in (f"{name}_count", f"{name}_sum"):
                flat[sample] = flat.get(sample, 0.0) + value
    return flat


@pytest.fixture
def server_factory():
    """Start :class:`repro.runtime.FheServer` instances on background loops.

    Yields a ``start(**kwargs) -> FheServer`` callable; every server it
    created is stopped (and its loop torn down) at fixture teardown, so
    tests can't leak listeners or flusher tasks.
    """
    from repro.runtime.server import FheServer

    started = []

    def start(**kwargs):
        loop = asyncio.new_event_loop()
        server = FheServer(port=0, **kwargs)
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            ready.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(30.0), "server failed to start"
        started.append((server, loop, thread))
        return server

    yield start

    for server, loop, thread in started:
        try:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
            loop.close()
