"""Fused external-product kernel: bootstraps/sec vs the pre-fusion path.

Every blind-rotation step is one kernel over ``(B, k+1, N)`` accumulators —
``X^p·ACC`` read as a window of ``[ACC, −ACC, ACC]``, all ``(k+1)`` blocks of
``window − ACC`` gadget-decomposed into a single digit stack, **one** stacked
forward, one ``spectrum_contract`` against the packed ``(rows, k+1, N/2)`` key
tensor, **one** stacked backward, and all scratch staged through a reusable
:class:`~repro.tfhe.tgsw.BootstrapWorkspace`.  The single-stream row times
that kernel at ``B = 1``, the batch row at ``B = 64``; the two ``rotate``
rows time ``rotate_batch`` alone — the loop as served, its bound step kernel
fetched once per call — and report it per step.

This bench measures gate bootstrapping throughput (double-FFT engine,
test-tiny parameters) for the fused path against a **verbatim reproduction of
the pre-PR implementation**: the historical per-row accumulator rotation, the
per-digit-plane external product (one forward per decomposed plane, one
backward per output column, a Python ``rows × (k+1)`` mul/add double loop),
the per-digit-level key switch and the historical double-FFT engine
``forward``/``backward`` bodies.  Both paths are asserted **bit-identical**
before any number is reported.

Acceptance gate: >= 3x single-stream bootstraps/sec (override with
``EP_SPEEDUP_MIN``; CI shared runners are timing-noisy) and a batch-64
improvement >= the ``EP_BATCH_SPEEDUP_MIN`` floor (default 1.1x).  Results
land in ``results/external_product.txt`` and schema-consistent
``results/BENCH_external_product.json`` (see ``tools/bench.py``).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_external_product.py -q -s
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.tfhe.bootstrap import CmuxBlindRotator, modswitch_batch, modswitch_sample
from repro.tfhe.gates import MU
from repro.tfhe.keys import generate_keys
from repro.tfhe.keyswitch import (
    keyswitch_apply_batch_reference,
    keyswitch_apply_reference,
)
from repro.tfhe.lwe import LweBatch, gate_message, lwe_encrypt
from repro.tfhe.params import TEST_TINY
from repro.tfhe.tlwe import (
    TlweBatch,
    tlwe_batch_rotate,
    tlwe_batch_sample_extract,
    tlwe_batch_trivial,
    tlwe_rotate,
    tlwe_sample_extract,
    tlwe_trivial,
)
from repro.tfhe.transform import DoubleFFTNegacyclicTransform
from repro.utils.benchio import make_entry, write_bench_json

SINGLE_STREAM_SAMPLES = 24
BATCH_WIDTH = 64
BEST_OF = 3


class _ReferenceDoubleEngine(DoubleFFTNegacyclicTransform):
    """The pre-PR double-FFT ``forward``/``backward`` bodies, verbatim.

    The fused kernel's engine folds the backward normalisation into the
    untwist table (and never applies the forward one), rounds in the complex
    domain and calls the pocketfft gufuncs directly; this subclass restores
    the historical implementation (bit-identical outputs, historical cost) so
    the baseline measurement does not silently profit from the engine work.
    """

    def forward(self, coeffs):
        self.stats.forward_calls += 1
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        half = self._half
        folded = (coeffs[..., :half] + 1j * coeffs[..., half:]) * self._twist
        return np.fft.ifft(folded, axis=-1) * half

    def backward(self, spectrum):
        self.stats.backward_calls += 1
        half = self._half
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        folded = np.fft.fft(spectrum, axis=-1) / half
        folded = folded * self._untwist
        coeffs = np.empty(spectrum.shape[:-1] + (self.degree,), dtype=np.float64)
        coeffs[..., :half] = folded.real
        coeffs[..., half:] = folded.imag
        return np.round(coeffs).astype(np.int64)


def _fused_bootstrap(context, params, rotator, sample):
    return context.bootstrap(sample)


def _reference_bootstrap(context, params, rotator, sample):
    """The complete pre-fusion gate bootstrapping, step by step."""
    test_vector = np.full(params.N, np.int32(int(MU)), dtype=np.int32)
    barb, bara = modswitch_sample(sample, params.N)
    accumulator = tlwe_trivial(test_vector, params.k)
    if barb != 0:
        accumulator = tlwe_rotate(accumulator, -barb)
    accumulator = rotator.rotate_reference(accumulator, bara)
    extracted = tlwe_sample_extract(accumulator, index=0)
    return keyswitch_apply_reference(context.keyswitch_key, extracted)


def _reference_bootstrap_batch(context, params, rotator, batch):
    test_vector = np.full(params.N, np.int32(int(MU)), dtype=np.int32)
    barb, bara = modswitch_batch(batch, params.N)
    accumulators = tlwe_batch_trivial(test_vector, params.k, batch.batch_size)
    accumulators = tlwe_batch_rotate(accumulators, -barb)
    accumulators = rotator.rotate_batch_reference(accumulators, bara)
    extracted = tlwe_batch_sample_extract(accumulators, index=0)
    return keyswitch_apply_batch_reference(context.keyswitch_key, extracted)


def _best_of(measure, repeats=BEST_OF):
    """Minimum wall-clock of ``repeats`` runs (the standard noise filter)."""
    return min(measure() for _ in range(repeats))


def run(record_result=None):
    """Measure fused vs pre-fusion throughput; returns (entries, lines)."""
    params = TEST_TINY
    engine = DoubleFFTNegacyclicTransform(params.N)
    secret, cloud = generate_keys(params, engine, unroll_factor=1, rng=77)
    context = cloud.default_context()
    fused = context.rotator
    reference = CmuxBlindRotator(
        fused.bootstrapping_key, _ReferenceDoubleEngine(params.N)
    )

    samples = [
        lwe_encrypt(secret.lwe_key, gate_message(i % 2), rng=1000 + i)
        for i in range(SINGLE_STREAM_SAMPLES)
    ]
    batch = LweBatch.from_samples(
        [
            lwe_encrypt(secret.lwe_key, gate_message(i % 2), rng=2000 + i)
            for i in range(BATCH_WIDTH)
        ]
    )

    # -- bit-identity before any timing -------------------------------------
    fused_out = [_fused_bootstrap(context, params, fused, s) for s in samples]
    ref_out = [_reference_bootstrap(context, params, reference, s) for s in samples]
    for got, want in zip(fused_out, ref_out):
        assert np.array_equal(got.a, want.a)
        assert np.int32(got.b) == np.int32(want.b)
    fused_batch_out = context.bootstrap_batch(batch)
    ref_batch_out = _reference_bootstrap_batch(context, params, reference, batch)
    assert np.array_equal(fused_batch_out.a, ref_batch_out.a)
    assert np.array_equal(fused_batch_out.b, ref_batch_out.b)

    # -- single-stream ------------------------------------------------------
    def time_single(rotator, bootstrap):
        def measure():
            start = time.perf_counter()
            for sample in samples:
                bootstrap(context, params, rotator, sample)
            return time.perf_counter() - start

        return measure

    fused_seconds = _best_of(time_single(fused, _fused_bootstrap))
    ref_seconds = _best_of(time_single(reference, _reference_bootstrap))
    fused_bs = SINGLE_STREAM_SAMPLES / fused_seconds
    ref_bs = SINGLE_STREAM_SAMPLES / ref_seconds

    # -- batch-64 ------------------------------------------------------------
    def time_batch(run_batch):
        def measure():
            start = time.perf_counter()
            run_batch()
            return time.perf_counter() - start

        return measure

    fused_batch_seconds = _best_of(time_batch(lambda: context.bootstrap_batch(batch)))
    ref_batch_seconds = _best_of(
        time_batch(lambda: _reference_bootstrap_batch(context, params, reference, batch))
    )
    fused_batch_bs = BATCH_WIDTH / fused_batch_seconds
    ref_batch_bs = BATCH_WIDTH / ref_batch_seconds

    # -- the blind-rotation loop as served: rotate_batch alone, per step ------
    barb, bara = modswitch_batch(batch, params.N)
    test_vector = np.full(params.N, np.int32(int(MU)), dtype=np.int32)
    accumulators = tlwe_batch_rotate(
        tlwe_batch_trivial(test_vector, params.k, BATCH_WIDTH), -barb
    )

    def time_rotation(rotate, rows, amounts, repeats):
        def measure():
            start = time.perf_counter()
            for _ in range(repeats):
                rotate(rows, amounts)
            return (time.perf_counter() - start) / repeats

        return measure

    rotations = {}
    for width in (1, BATCH_WIDTH):
        operands = (TlweBatch(accumulators.data[:width]), bara[:width])
        repeats = SINGLE_STREAM_SAMPLES if width == 1 else 1
        rotations[width] = (
            int(operands[1].any(axis=0).sum()),  # active steps
            _best_of(time_rotation(fused.rotate_batch, *operands, repeats)),
            _best_of(time_rotation(reference.rotate_batch_reference, *operands, repeats)),
        )

    entries = [
        make_entry(
            "single_stream", "double", params.name, 1, fused_bs, ref_bs
        ),
        make_entry(
            "batch", "double", params.name, BATCH_WIDTH, fused_batch_bs, ref_batch_bs
        ),
    ] + [
        make_entry(
            "rotate_batch", "double", params.name, width, width / seconds, width / ref
        )
        for width, (_steps, seconds, ref) in rotations.items()
    ]

    lines = [
        "Fused external product vs pre-fusion path, double-FFT engine, "
        f"{params.name} (n={params.n}, N={params.N}, rows={(params.k + 1) * params.l})",
        "",
        f"{'mode':>14} {'fused bs/s':>11} {'pre-PR bs/s':>12} {'speedup':>8}",
        f"{'single':>14} {fused_bs:>11.1f} {ref_bs:>12.1f} {fused_bs / ref_bs:>7.2f}x",
        f"{'batch-' + str(BATCH_WIDTH):>14} {fused_batch_bs:>11.1f} "
        f"{ref_batch_bs:>12.1f} {fused_batch_bs / ref_batch_bs:>7.2f}x",
        "",
        f"{'rotate_batch':>14} {'fused us/step':>14} {'pre-PR us/step':>15} {'speedup':>8}",
    ] + [
        f"{'rotate-' + str(width):>14} {seconds / steps * 1e6:>14.1f} "
        f"{ref / steps * 1e6:>15.1f} {ref / seconds:>7.2f}x"
        for width, (steps, seconds, ref) in rotations.items()
    ] + [
        "",
        "fused = one digit stack + one stacked forward + spectrum_contract + "
        "one stacked backward per external product, X^p·ACC read as a window "
        "of [ACC, -ACC, ACC], workspace-reused scratch; rotate-B = rotate_batch "
        "alone over B rows, per active step (the bound step kernel fetched "
        "once per call); pre-PR = verbatim "
        "pre-fusion implementation (per-plane transforms, materialised "
        "rotation, per-level keyswitch, historical engine bodies).  Outputs "
        "asserted bit-identical before timing; best-of-" + str(BEST_OF) + " timings.",
    ]
    if record_result is not None:
        record_result("external_product", "\n".join(lines))

    path = write_bench_json("external_product", entries)
    print(f"[written to {path}]")
    return entries, lines


def test_fused_external_product_speedup(record_result):
    entries, _ = run(record_result)
    single = next(e for e in entries if e["label"] == "single_stream")
    batch = next(e for e in entries if e["label"] == "batch")

    minimum = float(os.environ.get("EP_SPEEDUP_MIN", "3.0"))
    batch_minimum = float(os.environ.get("EP_BATCH_SPEEDUP_MIN", "1.1"))
    assert single["speedup"] >= minimum, (
        f"fused single-stream bootstrapping is only {single['speedup']:.2f}x "
        f"the pre-fusion path (required {minimum}x)"
    )
    assert batch["speedup"] >= batch_minimum, (
        f"fused batch-{BATCH_WIDTH} bootstrapping is only "
        f"{batch['speedup']:.2f}x the pre-fusion path (required {batch_minimum}x)"
    )
