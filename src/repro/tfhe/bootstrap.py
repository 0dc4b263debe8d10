"""Gate bootstrapping (Algorithm 1 of the paper): rounding, blind rotation, extraction.

A TFHE logic gate is a linear combination of the input ciphertexts followed by
a *gate bootstrapping*: the noisy phase of the combined sample is
homomorphically decrypted into a rotation of a test polynomial, the rotated
accumulator is extracted back to a scalar LWE sample and key-switched to the
original key.  The blind rotation (the loop over the ``n`` mask coefficients,
each step an external product) dominates the latency of every gate; its FFT
and IFFT kernels are the target of MATCHA's approximate integer transforms.

This module holds lines 2–8 of the algorithm —
:func:`blind_rotate_and_extract_batch`, over a batch of any width — and the
test polynomials it rotates (:func:`make_test_vector`, :func:`encode_lut`).
The key switch that completes a bootstrapping is composed with it in exactly
one place, :meth:`repro.tfhe.gates.BatchGateEvaluator.bootstrap_rows`; a
programmable bootstrap is a ``("digit", (encoding, table), sample)`` row of
:meth:`~repro.tfhe.gates.BatchGateEvaluator.rows` against an
:func:`encode_lut` vector, and a single sample is a one-row batch.

Two blind-rotation strategies are provided:

* :class:`CmuxBlindRotator` — the classical TFHE-library strategy
  (``ACC ← CMux(BK_i, X^{ā_i}·ACC, ACC)``), one secret-key bit per external
  product: a rotation fetches the bound step kernel of its batch shape once
  (the kernel behind :func:`repro.tfhe.tgsw.tgsw_batch_cmux_rotate`) and every
  step is one call of it, whatever the batch width;
* :class:`repro.core.bku.UnrolledBlindRotator` — bootstrapping-key unrolling
  (Figure 5), ``m`` secret-key bits per external product using a bundle built
  from ``2^m − 1`` TGSW keys.  MATCHA's pipelined datapath targets this form.

Both rotate a ``(B, k+1, N)`` accumulator stack through their one entry,
``rotate_batch``.  Rotation inputs are checked once per call: integer
rotation amounts, one per row and key bit, and int32 accumulators of the
key's ``(k+1, N)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol, Sequence

import numpy as np

from repro.tfhe.lwe import LweBatch
from repro.tfhe.params import DigitEncoding, TFHEParameters
from repro.tfhe.tgsw import BootstrapWorkspace, TransformedTgswSample, _StepKernel
from repro.tfhe.tlwe import (
    TlweBatch,
    tlwe_batch_rotate,
    tlwe_batch_sample_extract,
    tlwe_batch_trivial,
)
from repro.tfhe.torus import modswitch_from_torus32, modswitch_to_torus32
from repro.tfhe.transform import NegacyclicTransform


class BlindRotator(Protocol):
    """Strategy interface for the blind-rotation loop of Algorithm 1."""

    def rotate_batch(self, accumulators: TlweBatch, bara: np.ndarray) -> TlweBatch:
        """Multiply every accumulator of the ``(B, k+1, N)`` stack by its own
        ``X^{Σ ā_i·s_i}``, ``bara`` of shape ``(B, n)``."""
        ...


def _rotation_amounts(bara, rows: int, key_bits: int) -> np.ndarray:
    """``bara`` as a ``(rows, ≥ key_bits)`` integer array — what every
    rotator's ``rotate_batch`` takes (amounts past the last key bit are
    ignored)."""
    bara = np.asarray(bara)
    if bara.ndim != 2 or bara.shape[0] != rows or bara.shape[1] < key_bits:
        raise ValueError(
            f"blind rotation needs one rotation amount per row and key bit: "
            f"got shape {bara.shape} for {rows} rows and {key_bits} key bits"
        )
    if bara.dtype.kind not in "iu":
        raise ValueError(
            f"blind rotation amounts are integers mod 2N: got dtype {bara.dtype}"
        )
    return bara


def _accumulator_data(accumulators: TlweBatch, mask_count: int, degree: int) -> np.ndarray:
    """The ``(B, k+1, N)`` int32 array of ``accumulators`` — what every
    rotator's ``rotate_batch`` takes for a key of ``mask_count`` and ``degree``."""
    data = accumulators.data
    if data.dtype != np.int32 or data.ndim != 3 or data.shape[1:] != (mask_count + 1, degree):
        raise ValueError(
            f"blind rotation needs int32 accumulators of shape "
            f"(B, {mask_count + 1}, {degree}): got {data.dtype} of shape {data.shape}"
        )
    return data


class CmuxBlindRotator:
    """Classical blind rotation: one CMux (external product) per key bit.

    Every step is the one step kernel of :mod:`repro.tfhe.tgsw` over the
    ``(B, k+1, N)`` accumulator stack — ``X^{ā_i}·ACC`` read as a window of
    ``[ACC, −ACC, ACC]``, the external product one stacked
    forward/contract/backward.  A rotation fetches the kernel bound to its
    batch shape once from the :class:`repro.tfhe.tgsw.BootstrapWorkspace`
    shared across all ``n`` steps (and across every bootstrapping that reuses
    this rotator), so a step resolves nothing and allocates only the
    accumulator it returns.
    """

    def __init__(
        self,
        bootstrapping_key: Sequence[TransformedTgswSample],
        transform: NegacyclicTransform,
        workspace: BootstrapWorkspace | None = None,
    ) -> None:
        self.bootstrapping_key = list(bootstrapping_key)
        self.transform = transform
        self.workspace = workspace if workspace is not None else BootstrapWorkspace()

    def rotate_batch(self, accumulators: TlweBatch, bara: np.ndarray) -> TlweBatch:
        """Rotate every in-flight accumulator in lockstep over the key bits.

        A step at which every row's rotation amount is zero is skipped; a
        zero row inside an active step contributes an exactly-zero
        ``(X^0 − 1)·ACC`` difference, so its accumulator passes through
        unchanged.
        """
        if not self.bootstrapping_key:
            return accumulators
        first = self.bootstrapping_key[0]
        data = _accumulator_data(accumulators, first.mask_count, first.degree)
        steps = len(self.bootstrapping_key)
        bara = _rotation_amounts(bara, len(data), steps)
        # Window offsets (−ā_i) mod 2N of every step, hoisted out of the loop.
        starts = np.ascontiguousarray(-bara.T[:steps] % (2 * first.degree))
        active = starts.any(axis=1).tolist()
        if len(data) == 1:
            starts = starts[:, 0].tolist()
        kernel = _StepKernel.fetch(self.workspace, self.transform, first.params, data.shape)
        step = kernel.step
        acc = data.view(np.uint32)
        for bk_i, start, step_active in zip(self.bootstrapping_key, starts, active):
            if step_active:
                acc = step(acc, bk_i.tensor, start)
        return TlweBatch(acc.view(np.int32))


def make_test_vector(params: TFHEParameters, mu: int) -> np.ndarray:
    """The all-``mu`` test polynomial used by gate bootstrapping.

    After the blind rotation by ``X^{-p̄}`` (where ``p̄`` is the rescaled phase
    of the input sample) the constant coefficient of the test polynomial is
    ``+mu`` when the phase is positive and ``-mu`` when it is negative.
    Memoised (and write-protected) per ``(N, mu)`` — every gate bootstrapping
    of a parameter set shares one constant vector.
    """
    return _make_test_vector_cached(params.N, int(np.int32(mu)))


@lru_cache(maxsize=None)
def _make_test_vector_cached(degree: int, mu: int) -> np.ndarray:
    vector = np.full(degree, np.int32(mu), dtype=np.int32)
    vector.setflags(write=False)
    return vector


def encode_lut(
    params: TFHEParameters,
    table,
    message_bits: int,
    carry_bits: int = 0,
) -> np.ndarray:
    """Encode an arbitrary lookup table as a redundant test polynomial.

    ``table`` lists the output digit (in ``[0, P)``) for every input digit in
    ``[0, P)`` where ``P = 2^(message_bits + carry_bits)``.  Each input digit
    owns a run of ``r = N/P`` consecutive coefficients centred on its encoded
    phase, so a blind rotation by the (noisy) phase of a digit ciphertext
    lands inside the right run as long as the noise stays within ``1/(4P)``.

    The guard half-run at the top of the polynomial (phases just below
    ``1/2``) belongs — negacyclically — to digit 0 approached from below:
    those coefficients carry ``−encode(table[0])`` so that a slightly
    *negative* phase on digit 0 still extracts ``+encode(table[0])``.

    The result is memoised (and write-protected) per ``(N, encoding, table
    bytes)`` — the cache key is the table contents, not a scalar ``mu``.
    """
    encoding = DigitEncoding(message_bits, carry_bits)
    encoding.validate_for(params)
    space = encoding.space
    entries = np.asarray(table, dtype=np.int64).ravel()
    if entries.shape[0] != space:
        raise ValueError(
            f"lookup table must have exactly P={space} entries, got "
            f"{entries.shape[0]}"
        )
    if np.any((entries < 0) | (entries >= space)):
        raise ValueError(f"lookup-table outputs must lie in [0, {space})")
    return _encode_lut_cached(
        params.N, message_bits, carry_bits, entries.tobytes()
    )


@lru_cache(maxsize=None)
def _encode_lut_cached(
    degree: int, message_bits: int, carry_bits: int, table_bytes: bytes
) -> np.ndarray:
    encoding = DigitEncoding(message_bits, carry_bits)
    space = encoding.space
    table = np.frombuffer(table_bytes, dtype=np.int64)
    run = degree // space
    j = np.arange(degree, dtype=np.int64)
    slot = (j + run // 2) // run  # digit owning coefficient j (run-centred)
    encoded = modswitch_to_torus32(table, encoding.torus_space)
    vector = np.where(
        slot < space,
        encoded[np.minimum(slot, space - 1)],
        # Guard half-run: negacyclic wrap of digit 0's lower noise tail.
        -encoded[0],
    ).astype(np.int32)
    vector.setflags(write=False)
    return vector


def modswitch_batch(batch: LweBatch, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every row from the torus to ``Z_{2N}`` (Rounding, Algorithm 1
    line 2): returns ``(b̄ (B,), ā (B, n))``."""
    space = 2 * degree
    barb = np.asarray(modswitch_from_torus32(batch.b, space), dtype=np.int64)
    bara = np.asarray(modswitch_from_torus32(batch.a, space), dtype=np.int64)
    return barb, bara


def blind_rotate_and_extract_batch(
    batch: LweBatch,
    test_vector: np.ndarray,
    rotator: BlindRotator,
    params: TFHEParameters,
) -> LweBatch:
    """Batched lines 2–8 of Algorithm 1: one vectorised pass over the batch.

    ``test_vector`` is either one shared ``(N,)`` polynomial or a ``(B, N)``
    stack giving every row its *own* test vector — one blind rotation can mix
    rows that bootstrap against different lookup tables (boolean gates next
    to programmable digit LUTs).  Rows are independent: a row comes out the
    same whatever else shares its batch, so one sample is a one-row batch.
    """
    degree = params.N
    barb, bara = modswitch_batch(batch, degree)
    accumulators = tlwe_batch_trivial(test_vector, params.k, batch.batch_size)
    accumulators = tlwe_batch_rotate(accumulators, -barb)
    accumulators = rotator.rotate_batch(accumulators, bara)
    return tlwe_batch_sample_extract(accumulators, index=0)


def _require_gate_space(params: TFHEParameters) -> None:
    """Gate bootstrapping encodes at ±1/8: the 8-ary space must be rated."""
    if params.message_space < 8:
        raise ValueError(
            f"gate bootstrapping needs the 8-ary message space but "
            f"{params.name!r} is rated for message_space={params.message_space}"
        )
