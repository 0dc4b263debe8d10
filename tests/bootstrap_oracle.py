"""A bootstrap composed from the tests' oracles: what every bootstrap row must come out as.

:meth:`repro.tfhe.gates.BatchGateEvaluator.bootstrap_rows` is the one place
the library composes Algorithm 1's rounding, blind rotation, sample
extraction and key switch, and every evaluator — the scalar one included —
reaches it.  This module composes the same stages a second time, from
independent parts: the batched rounding and accumulator helpers
(``modswitch_batch``, ``tlwe_batch_trivial``, ``tlwe_batch_rotate``,
``tlwe_batch_sample_extract``, each pinned by its own oracle test), the
per-digit-plane blind rotation of :mod:`tgsw_oracle` (classical CMux) or
:mod:`bku_oracle` (unrolled), and the digit-by-digit key switch of
:mod:`keyswitch_oracle`.
"""

from __future__ import annotations

from bku_oracle import rotate_batch_oracle
from keyswitch_oracle import keyswitch_apply_batch_oracle
from tgsw_oracle import cmux_blind_rotate_oracle
from repro.core.bku import UnrolledBlindRotator
from repro.tfhe.bootstrap import modswitch_batch
from repro.tfhe.lwe import LweBatch
from repro.tfhe.tlwe import tlwe_batch_rotate, tlwe_batch_sample_extract, tlwe_batch_trivial


def extract_oracle(combined: LweBatch, test_vectors, rotator, params) -> LweBatch:
    """Lines 2–8 of Algorithm 1 on every row: rounding, the ``X^{−b̄}``
    rotation of the test vector (one shared ``(N,)`` or a ``(B, N)`` stack),
    the blind rotation by the oracle of ``rotator``'s kind and extraction of
    coefficient 0."""
    barb, bara = modswitch_batch(combined, params.N)
    accumulators = tlwe_batch_trivial(test_vectors, params.k, combined.batch_size)
    accumulators = tlwe_batch_rotate(accumulators, -barb)
    if isinstance(rotator, UnrolledBlindRotator):
        rotated = rotate_batch_oracle(rotator, accumulators, bara)
    else:
        rotated = cmux_blind_rotate_oracle(rotator, accumulators, bara)
    return tlwe_batch_sample_extract(rotated)


def bootstrap_oracle(combined: LweBatch, test_vectors, rotator, keyswitch_key, params) -> LweBatch:
    """A whole bootstrap of every row: :func:`extract_oracle`, then the key switch."""
    extracted = extract_oracle(combined, test_vectors, rotator, params)
    return keyswitch_apply_batch_oracle(keyswitch_key, extracted)
