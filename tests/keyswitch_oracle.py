"""The key switch written out digit by digit: the oracle of the blocked kernel.

:func:`repro.tfhe.keyswitch.keyswitch_apply_batch` gathers every digit's
sample in one blocked pass, points zero digits at table row 0 and subtracts
that row back once per ciphertext.  This oracle does none of that: it rounds
each mask coefficient, takes its ``t`` digits one level at a time and adds the
sample ``data[i, j, v − 1]`` of every non-zero digit ``v`` in int64, skipping
zero digits outright.  Integer addition is exact, so the kernel must agree
with it bit for bit mod ``2^32``.
"""

from __future__ import annotations

import numpy as np

from repro.tfhe.keyswitch import KeySwitchKey
from repro.tfhe.lwe import LweBatch, LweSample
from repro.tfhe.torus import torus32_from_int64


def keyswitch_totals_oracle(ks: KeySwitchKey, a: np.ndarray) -> np.ndarray:
    """int64 sum of the samples the non-zero digits of ``a`` (``(..., n_in)``) select."""
    params = ks.params
    base_bits, t = params.base_bits, params.length
    rounding = 1 << (32 - base_bits * t - 1) if 32 - base_bits * t - 1 >= 0 else 0
    a_in = ((np.asarray(a).astype(np.int64) & 0xFFFFFFFF) + rounding) & 0xFFFFFFFF

    rows = np.arange(ks.input_dimension)
    totals = np.zeros(a_in.shape[:-1] + (ks.output_dimension + 1,), dtype=np.int64)
    for j in range(t):
        digits = (a_in >> (32 - base_bits * (j + 1))) & (params.base - 1)  # (..., n_in)
        selected = ks.data[rows, j, np.maximum(digits - 1, 0)].astype(np.int64)
        selected[digits == 0] = 0  # a zero digit has no sample
        totals += selected.sum(axis=-2)
    return totals


def keyswitch_apply_batch_oracle(ks: KeySwitchKey, batch: LweBatch) -> LweBatch:
    """Switch every row of ``batch``: ``(−Σ a, b − Σ b)`` over the selected samples."""
    if batch.dimension != ks.input_dimension:
        raise ValueError("sample dimension does not match key-switching key")
    n_out = ks.output_dimension
    totals = keyswitch_totals_oracle(ks, batch.a)  # (B, n_out + 1)
    return LweBatch(
        a=torus32_from_int64(-totals[:, :n_out]),
        b=torus32_from_int64(np.asarray(batch.b).astype(np.int64) - totals[:, n_out]),
    )


def keyswitch_apply_oracle(ks: KeySwitchKey, sample: LweSample) -> LweSample:
    """:func:`keyswitch_apply_batch_oracle` of one sample."""
    switched = keyswitch_apply_batch_oracle(
        ks, LweBatch(a=sample.a[None], b=np.asarray(sample.b)[None])
    )
    return LweSample(a=switched.a[0], b=np.int32(switched.b[0]))
