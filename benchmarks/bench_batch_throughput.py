"""Batched bootstrapping throughput: bootstraps/sec vs batch size.

The paper's accelerator wins by amortising blind-rotation work across many
concurrent bootstrappings; the pure-Python functional simulator has the same
problem in miniature — at batch 1 every gate pays the full NumPy dispatch
overhead of ``n`` external products, so the benchmark measures Python, not
arithmetic.  :meth:`repro.runtime.context.FheContext.bootstrap_batch` runs the
whole batch through each vectorised step at once, so the dispatch cost is paid
once per *batch* instead of once per *ciphertext*.

This bench reports bootstraps/sec for batch sizes 1, 8, 64 and 256 on the
double-precision FFT engine (the TFHE-library baseline) under the reduced test
parameters, checks the batched outputs stay bit-identical to the sequential
path, and asserts the headline claim: at batch 64 the engine delivers at least
5× the single-ciphertext rate.

Results land in ``results/batch_throughput.txt`` and schema-consistent
``results/BENCH_batch_throughput.json`` (see ``tools/bench.py``).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_batch_throughput.py -q -s
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pytest

from repro.tfhe.gates import encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch
from repro.tfhe.params import TEST_TINY
from repro.tfhe.transform import DoubleFFTNegacyclicTransform
from repro.utils.benchio import make_entry, write_bench_json

BATCH_SIZES = (1, 8, 64, 256)


@functools.lru_cache(maxsize=1)
def _double_fft_backend():
    params = TEST_TINY
    transform = DoubleFFTNegacyclicTransform(params.N)
    secret, cloud = generate_keys(params, transform, unroll_factor=1, rng=11)
    return params, secret, cloud.default_context()


@pytest.fixture(scope="module")
def double_fft_backend():
    return _double_fft_backend()


def _measure_rate(context, batch: LweBatch, min_seconds: float = 0.4) -> float:
    """Bootstraps per second, timed over enough repetitions to be stable."""
    context.bootstrap_batch(batch)  # warm-up
    repetitions = 0
    start = time.perf_counter()
    while True:
        context.bootstrap_batch(batch)
        repetitions += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and repetitions >= 3:
            return repetitions * batch.batch_size / elapsed


def run(record_result=None):
    """Measure bootstraps/sec per batch size; write the schema JSON."""
    params, secret, context = _double_fft_backend()
    rng = np.random.default_rng(12)
    base = [encrypt_bit(secret, int(b), rng) for b in rng.integers(0, 2, max(BATCH_SIZES))]

    rates = {}
    for size in BATCH_SIZES:
        batch = LweBatch.from_samples(base[:size])
        rates[size] = _measure_rate(context, batch)

    lines = [
        "Batched gate bootstrapping, double-FFT engine, "
        f"{params.name} (n={params.n}, N={params.N})",
        f"{'batch':>6}  {'bootstraps/s':>14}  {'speedup':>8}",
    ]
    for size in BATCH_SIZES:
        lines.append(
            f"{size:>6}  {rates[size]:>14.1f}  {rates[size] / rates[1]:>7.1f}x"
        )
    if record_result is not None:
        record_result("batch_throughput", "\n".join(lines))
    else:
        print("\n".join(lines))

    entries = [
        make_entry(
            label=f"batch{size}",
            engine="double",
            params=params.name,
            batch_width=size,
            bootstraps_per_sec=rates[size],
            baseline_bootstraps_per_sec=rates[1],
        )
        for size in BATCH_SIZES
    ]
    path = write_bench_json("batch_throughput", entries)
    print(f"[written to {path}]")
    return rates


def test_batched_bootstraps_per_second(record_result):
    rates = run(record_result)

    # Acceptance criterion: >= 5x bootstraps/sec at batch 64 vs batch 1.
    # Shared CI runners are noisy, so the gate is overridable from the
    # environment (the CI workflow relaxes it; locally the full bar applies).
    minimum = float(os.environ.get("BATCH_SPEEDUP_MIN", "5.0"))
    assert rates[64] >= minimum * rates[1], (
        f"batch=64 rate {rates[64]:.1f}/s is below {minimum}x "
        f"the batch=1 rate {rates[1]:.1f}/s"
    )
    # Larger batches should not be slower than modest ones.
    assert rates[256] >= 0.8 * rates[8]


def test_batched_results_are_bit_identical(double_fft_backend):
    _, secret, context = double_fft_backend
    rng = np.random.default_rng(13)
    samples = [encrypt_bit(secret, int(b), rng) for b in rng.integers(0, 2, 64)]
    batch = LweBatch.from_samples(samples)
    out = context.bootstrap_batch(batch)
    for i, sample in enumerate(samples):
        ref = context.bootstrap(sample)
        assert np.array_equal(out.a[i], ref.a)
        assert int(out.b[i]) == int(ref.b)
