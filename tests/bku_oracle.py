"""The BKU blind rotation written out per (row, column): the oracle of the rotator.

:meth:`repro.core.bku.UnrolledBlindRotator.rotate_batch` builds each group's
bundle as one packed tensor (one broadcast multiply-add per pattern) and runs
it through the bound product kernel.  This oracle does it the pre-fusion way:
each pattern's factor ``X^{e_p} − 1`` built coefficient by coefficient, the
bundle as a ``rows × (k+1)`` list of spectra with each pattern's term added
polynomial by polynomial, then the per-digit-plane external product of
:mod:`tgsw_oracle`.  The rotator must agree with it bit for bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from tgsw_oracle import external_product_rows_oracle, row_col_spectrum


def x_power_minus_one_oracle(degree: int, powers: np.ndarray) -> np.ndarray:
    """``X^p − 1`` mod ``X^N + 1`` for every entry ``p`` of ``powers``, as
    int64 polynomials of shape ``powers.shape + (N,)``."""
    powers = np.asarray(powers, dtype=np.int64)
    polys = np.zeros(powers.shape + (degree,), dtype=np.int64)
    for index in np.ndindex(powers.shape):
        power = int(powers[index]) % (2 * degree)
        polys[index][0] -= 1
        if power < degree:
            polys[index][power] += 1
        else:
            polys[index][power - degree] -= 1
    return polys


def build_bundle_oracle(rotator, group, bara: np.ndarray) -> List[list]:
    """One group's bundle ``h + Σ_p (X^{e_p} − 1)·BK_p`` as a ``rows × (k+1)``
    list of per-polynomial spectra."""
    indices, keys = group
    transform = rotator.transform
    identity = rotator._identity_spectra
    rows, cols = identity.rows, identity.mask_count + 1
    bundle = [[row_col_spectrum(identity, r, c) for c in range(cols)] for r in range(rows)]
    degree = rotator.params.N
    group_bara = np.asarray(bara)[..., indices].astype(np.int64)
    for pattern in range(1, 1 << len(indices)):
        bits = ((pattern >> np.arange(len(indices))) & 1).astype(np.int64)
        exponents = group_bara @ bits
        if not np.any(exponents % (2 * degree)):
            continue
        factor_spec = transform.forward(x_power_minus_one_oracle(degree, exponents))
        key = keys[pattern - 1]
        for r in range(rows):
            for c in range(cols):
                bundle[r][c] = transform.spectrum_add(
                    bundle[r][c],
                    transform.spectrum_mul(factor_spec, row_col_spectrum(key, r, c)),
                )
    return bundle


def rotate_batch_oracle(rotator, accumulators, bara: np.ndarray):
    """Blind-rotate a ``(B, k+1, N)`` :class:`repro.tfhe.tlwe.TlweBatch`
    through a :class:`repro.core.bku.UnrolledBlindRotator`'s key, ``bara`` of
    shape ``(B, n)``; returned as the same type."""
    params = rotator.params
    data = accumulators.data
    for group in rotator.groups:
        bundle = build_bundle_oracle(rotator, group, np.asarray(bara))
        data = external_product_rows_oracle(
            bundle, params.tgsw, params.k, params.N, data, rotator.transform
        )
    return type(accumulators)(data)
