"""The BKU blind rotation written out per (row, column): the oracle of the rotator.

:meth:`repro.core.bku.UnrolledBlindRotator.rotate_batch` builds each group's
bundle as one packed tensor (one broadcast multiply-add per pattern) and runs
it through the bound product kernel.  This oracle does it the pre-fusion way:
the bundle as a ``rows × (k+1)`` list of spectra, each pattern's term added
polynomial by polynomial, then the per-digit-plane external product of
:func:`repro.tfhe.tgsw._external_product_rows_reference`.  The rotator must
agree with it bit for bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.bku import KeyGroup, UnrolledBlindRotator, x_power_minus_one_polynomials
from repro.tfhe.tgsw import _external_product_rows_reference, _reference_row_col
from repro.tfhe.tlwe import TlweBatch, TlweSample
from repro.tfhe.transform import Spectrum


def build_bundle_oracle(
    rotator: UnrolledBlindRotator, group: KeyGroup, bara: np.ndarray
) -> List[List[Spectrum]]:
    """One group's bundle ``h + Σ_p (X^{e_p} − 1)·BK_p`` as per-(row, col) spectra."""
    indices, keys = group
    transform = rotator.transform
    identity = rotator._identity_spectra
    rows, cols = identity.rows, identity.mask_count + 1
    bundle = [
        [transform.spectrum_copy(_reference_row_col(identity, transform, r, c)) for c in range(cols)]
        for r in range(rows)
    ]
    degree = rotator.params.N
    group_bara = np.asarray(bara)[..., indices].astype(np.int64)
    for pattern in range(1, 1 << len(indices)):
        bits = ((pattern >> np.arange(len(indices))) & 1).astype(np.int64)
        exponents = group_bara @ bits
        if not np.any(exponents % (2 * degree)):
            continue
        factor_spec = transform.forward(x_power_minus_one_polynomials(degree, exponents))
        key = keys[pattern - 1]
        for r in range(rows):
            for c in range(cols):
                bundle[r][c] = transform.spectrum_add(
                    bundle[r][c],
                    transform.spectrum_mul(factor_spec, _reference_row_col(key, transform, r, c)),
                )
    return bundle


def _rotate_data_oracle(rotator: UnrolledBlindRotator, data: np.ndarray, bara) -> np.ndarray:
    params = rotator.params
    for group in rotator.groups:
        bundle = build_bundle_oracle(rotator, group, np.asarray(bara))
        data = _external_product_rows_reference(
            bundle, params.tgsw, params.k, params.N, data, rotator.transform
        )
    return data


def rotate_oracle(
    rotator: UnrolledBlindRotator, accumulator: TlweSample, bara: np.ndarray
) -> TlweSample:
    """Blind-rotate one accumulator, ``bara`` of shape ``(n,)``."""
    return TlweSample(_rotate_data_oracle(rotator, accumulator.data, bara))


def rotate_batch_oracle(
    rotator: UnrolledBlindRotator, accumulators: TlweBatch, bara: np.ndarray
) -> TlweBatch:
    """Blind-rotate a ``(B, k+1, N)`` stack, ``bara`` of shape ``(B, n)``."""
    return TlweBatch(_rotate_data_oracle(rotator, accumulators.data, bara))
