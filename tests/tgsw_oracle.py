"""The external product, the CMux and the classical blind rotation written out
per digit plane: the oracle of the fused kernels.

:func:`repro.tfhe.tgsw.tgsw_batch_external_product` decomposes all ``k+1``
blocks into one digit stack and runs one stacked forward, one contraction and
one stacked backward; :func:`repro.tfhe.tgsw.tgsw_batch_cmux_rotate` reads
``X^p·ACC`` as a window and adds ``ACC`` back inside the product's wrap; and
:meth:`repro.tfhe.bootstrap.CmuxBlindRotator.rotate_batch` chains that step
over the key bits.  This oracle does it the pre-fusion way: the TGSW operand
as a ``rows × (k+1)`` list of per-polynomial spectra, one forward per digit
plane of the int64 :func:`gadget_decompose`, a Python double
loop of pointwise multiply-adds folded from each column's first product, one
backward per output column; the CMux as
``C ⊡ (d1 − d0) + d0``; and each row's rotation materialised on its own with
:func:`poly_mul_by_xk`.  The kernels must agree with it
bit for bit and count the same transformed polynomials.

The ring and sample primitives it is written in live here too, as the tests'
references: torus-polynomial add/subtract, the rotation ``poly_mul_by_xk``,
the schoolbook torus product ``negacyclic_convolution`` (the ground truth of
every engine), gadget decomposition and recomposition, the TLWE phase and
batch add/subtract.

:func:`sample_extract_oracle` is ``SampleExtract`` one mask polynomial at a
time, the oracle of :func:`repro.tfhe.tlwe.tlwe_batch_sample_extract`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.integer_fft import IntegerSpectrum
from repro.tfhe.lwe import LweSample
from repro.tfhe.params import TgswParams
from repro.tfhe.polynomial import negacyclic_convolution_int64
from repro.tfhe.tgsw import decomposition_offset, gadget_values
from repro.tfhe.tlwe import TlweBatch, TlweKey, TlweSample
from repro.tfhe.torus import torus32_from_int64
from repro.tfhe.transform import NegacyclicTransform, Spectrum


def poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise torus addition (wrap-around int32)."""
    return torus32_from_int64(a.astype(np.int64) + b.astype(np.int64))


def poly_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise torus subtraction (wrap-around int32)."""
    return torus32_from_int64(a.astype(np.int64) - b.astype(np.int64))


def poly_mul_by_xk(poly: np.ndarray, power: int) -> np.ndarray:
    """Multiply a polynomial by ``X^power`` modulo ``X^N + 1``.

    ``power`` may be any integer; it is reduced modulo ``2N`` because
    ``X^{2N} = 1`` in the quotient ring.  Coefficients that wrap past the
    degree boundary are negated (negacyclic rotation).

    ``poly`` may be a stack of polynomials of shape ``(..., N)`` — every
    polynomial in the stack is rotated by the same ``power``.  The dtype is
    preserved: ``int32`` inputs are treated as torus polynomials (wrap-around
    reduction), ``int64`` inputs as plain integer polynomials (no reduction);
    other dtypes are rejected.
    """
    poly = np.asarray(poly)
    if poly.dtype == np.int32:
        wrap = True
    elif poly.dtype == np.int64:
        wrap = False
    else:
        raise TypeError(f"poly_mul_by_xk expects int32 or int64 input, got {poly.dtype}")
    degree = poly.shape[-1]
    power = int(power) % (2 * degree)
    negate_all = power >= degree
    shift = power % degree

    rotated = np.empty(poly.shape, dtype=np.int64)
    if shift == 0:
        rotated[...] = poly
    else:
        rotated[..., shift:] = poly[..., : degree - shift]
        rotated[..., :shift] = -poly[..., degree - shift :].astype(np.int64)
    if negate_all:
        rotated = -rotated
    return torus32_from_int64(rotated) if wrap else rotated


def negacyclic_convolution(int_poly: np.ndarray, torus_poly: np.ndarray) -> np.ndarray:
    """Exact negacyclic product of an integer polynomial and a torus polynomial.

    Schoolbook ``O(N^2)`` evaluation used as the ground truth the FFT engines
    are validated against.

    Both operands may carry leading batch axes ``(..., N)`` (broadcast against
    each other); the product is taken along the last axis.  The result is
    reduced onto the 32-bit torus.
    """
    return torus32_from_int64(negacyclic_convolution_int64(int_poly, torus_poly))


def gadget_decompose(
    poly: np.ndarray, params: TgswParams
) -> np.ndarray:
    """Signed gadget decomposition of a torus polynomial.

    Returns an ``(l, N)`` int32 array of digits in ``[-Bg/2, Bg/2)`` such that
    ``Σ_j digits[j]·Bg^{-j-1}`` approximates every coefficient of ``poly`` up
    to the decomposition rounding error ``<= Bg^{-l}/2``.

    ``poly`` may be a stack ``(..., N)``; the digit array then has shape
    ``(l, ..., N)`` so ``digits[j]`` is the ``j``-th digit plane of the whole
    stack.
    """
    base_bits = params.decomp_base_bits
    mask = (1 << base_bits) - 1
    half_base = 1 << (base_bits - 1)
    offset = decomposition_offset(params)

    poly = np.asarray(poly)
    shifted = (poly.astype(np.int64) & 0xFFFFFFFF) + offset
    digits = np.empty((params.decomp_length,) + poly.shape, dtype=np.int32)
    for j in range(params.decomp_length):
        shift = 32 - (j + 1) * base_bits
        digits[j] = (((shifted >> shift) & mask) - half_base).astype(np.int32)
    return digits


def gadget_recompose(digits: np.ndarray, params: TgswParams) -> np.ndarray:
    """Recompose decomposition digits back onto the torus."""
    gadget = gadget_values(params).astype(np.int64)
    total = np.zeros(digits.shape[1:], dtype=np.int64)
    for j in range(params.decomp_length):
        total += digits[j].astype(np.int64) * gadget[j]
    return torus32_from_int64(total)


def tlwe_phase(
    key: TlweKey, sample: TlweSample, transform: NegacyclicTransform
) -> np.ndarray:
    """The phase polynomial ``b - Σ a_j·s_j`` (message plus noise)."""
    phase = sample.b.astype(np.int64)
    for j in range(key.mask_count):
        phase -= transform.multiply(key.key[j], sample.a[j]).astype(np.int64)
    return torus32_from_int64(phase)


def tlwe_batch_add(x: TlweBatch, y: TlweBatch) -> TlweBatch:
    """Elementwise homomorphic addition of two batches."""
    return TlweBatch(poly_add(x.data, y.data))


def tlwe_batch_sub(x: TlweBatch, y: TlweBatch) -> TlweBatch:
    """Elementwise homomorphic subtraction of two batches."""
    return TlweBatch(poly_sub(x.data, y.data))


def buffer_count(workspace) -> int:
    """Number of pools a :class:`repro.tfhe.tgsw.BootstrapWorkspace` holds
    (one per family in use)."""
    return len(workspace._pools)


def row_col_spectrum(tgsw, row: int, col: int) -> Spectrum:
    """Polynomial ``(row, col)`` of a packed ``(rows, ..., k+1, N/2)`` TGSW
    tensor, as its own spectrum (a view; an approximate-engine spectrum keeps
    the polynomial's own fixed-point scale)."""
    tensor = tgsw.tensor
    if not isinstance(tensor, IntegerSpectrum):
        return tensor[row, ..., col, :]
    scale = tensor.scale_bits
    if isinstance(scale, np.ndarray):
        scale = scale[row, ..., col]
        scale = int(scale) if scale.ndim == 0 else scale
    return IntegerSpectrum(tensor.values[row, ..., col, :], scale)


def external_product_rows_oracle(
    spectra: List[List[Spectrum]], params, mask_count: int, degree: int, data, transform
) -> np.ndarray:
    """``spectra ⊡ data`` for a ``rows × (k+1)`` list of spectra and TLWE data
    of shape ``(..., k+1, N)``: one forward per digit plane, one backward per
    output column."""
    decomposed: List[np.ndarray] = []
    for block in range(mask_count + 1):
        digits = gadget_decompose(data[..., block, :], params)
        decomposed.extend(digits[j] for j in range(params.decomp_length))
    dec_spectra = [transform.forward(d) for d in decomposed]

    result = np.zeros(data.shape[:-2] + (mask_count + 1, degree), dtype=np.int32)
    for col in range(mask_count + 1):
        acc = transform.spectrum_mul(dec_spectra[0], spectra[0][col])
        for row in range(1, len(spectra)):
            acc = transform.spectrum_add(
                acc, transform.spectrum_mul(dec_spectra[row], spectra[row][col])
            )
        result[..., col, :] = torus32_from_int64(transform.backward(acc))
    return result


def _external_product_data(tgsw, data: np.ndarray, transform) -> np.ndarray:
    spectra = [
        [row_col_spectrum(tgsw, row, col) for col in range(tgsw.mask_count + 1)]
        for row in range(tgsw.rows)
    ]
    return external_product_rows_oracle(
        spectra, tgsw.params, tgsw.mask_count, tgsw.degree, data, transform
    )


def _cmux_data(selector, if_true: np.ndarray, if_false: np.ndarray, transform) -> np.ndarray:
    difference = poly_sub(if_true, if_false)
    return poly_add(_external_product_data(selector, difference, transform), if_false)


def external_product_oracle(tgsw, tlwe, transform):
    """``tgsw ⊡ tlwe`` for a :class:`TlweSample` or a :class:`TlweBatch`
    (returned as the same type)."""
    return type(tlwe)(_external_product_data(tgsw, tlwe.data, transform))


def cmux_oracle(selector, if_true, if_false, transform):
    """``CMux(C, d1, d0) = C ⊡ (d1 − d0) + d0`` on samples or batches."""
    return type(if_true)(_cmux_data(selector, if_true.data, if_false.data, transform))


def rotate_rows_oracle(data: np.ndarray, powers) -> np.ndarray:
    """Ciphertext ``i`` of a ``(B, k+1, N)`` stack times ``X^{powers[i]}``, row by row."""
    return np.stack([poly_mul_by_xk(row, int(p)) for row, p in zip(data, powers)])


def cmux_blind_rotate_oracle(rotator, accumulators: TlweBatch, bara: np.ndarray) -> TlweBatch:
    """A :class:`repro.tfhe.bootstrap.CmuxBlindRotator` rotation of a
    ``(B, k+1, N)`` stack, ``bara`` of shape ``(B, n)``: per key bit, every row
    rotated on its own, then the per-digit-plane CMux.  A key bit at which
    every row's amount is ``0 mod 2N`` is skipped, as the rotator skips it."""
    data = accumulators.data
    bara = np.asarray(bara)
    for i, bk_i in enumerate(rotator.bootstrapping_key):
        powers = bara[:, i]
        if not np.any(powers % (2 * data.shape[-1])):
            continue
        data = _cmux_data(bk_i, rotate_rows_oracle(data, powers), data, rotator.transform)
    return TlweBatch(data)


def sample_extract_oracle(sample: TlweSample, index: int = 0) -> LweSample:
    """Coefficient ``index`` of the message of ``sample`` as a scalar LWE
    sample under the extracted key, one mask polynomial at a time."""
    k = sample.mask_count
    degree = sample.degree
    if not 0 <= index < degree:
        raise ValueError("extraction index out of range")
    a = np.zeros(k * degree, dtype=np.int32)
    for j in range(k):
        row = sample.a[j].astype(np.int64)
        extracted = np.empty(degree, dtype=np.int64)
        # The coefficient of s_j[t] in the phase of coefficient `index` is
        # a_j[index − t] for t ≤ index and −a_j[N + index − t] for t > index.
        extracted[: index + 1] = row[index::-1]
        if index + 1 < degree:
            extracted[index + 1 :] = -row[:index:-1]
        a[j * degree : (j + 1) * degree] = torus32_from_int64(extracted)
    return LweSample(a=a, b=np.int32(sample.b[index]))
