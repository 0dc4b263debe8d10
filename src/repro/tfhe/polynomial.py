"""Negacyclic polynomial arithmetic.

TFHE works in the rings ``Z_N[X] = Z[X]/(X^N + 1)`` (integer polynomials) and
``T_N[X] = T[X]/(X^N + 1)`` (torus polynomials).  Both are represented as
NumPy ``int32``/``int64`` coefficient vectors of length ``N`` with coefficient
``i`` holding the coefficient of ``X^i``.

The quotient by ``X^N + 1`` makes multiplication *negacyclic*: ``X^N = -1``,
so rotating a polynomial by ``k`` positions negates the coefficients that wrap
around.  This module provides the exact (schoolbook) negacyclic product used
as ground truth by the FFT engines, together with the rotation and
add/subtract primitives that the bootstrapping loop needs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.tfhe.torus import torus32_from_int64


@lru_cache(maxsize=None)
def _coefficient_index(degree: int) -> np.ndarray:
    """The cached (read-only) coefficient index table ``[0, 1, ..., N-1]``.

    Negacyclic rotations are gathers over this table: coefficient ``i`` of
    ``X^p · poly`` comes from coefficient ``(i - p) mod N`` with a sign flip
    on wrap-around.  Precomputing the base table once per ring degree keeps
    the per-step rotation work of the blind-rotation loop down to the gather
    itself.
    """
    index = np.arange(degree, dtype=np.int64)
    index.setflags(write=False)
    return index


def _rotation_tables(degree: int, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather/sign index tables for multiplication by ``X^powers``.

    ``powers`` is an int64 array (already reduced mod ``2N``) whose shape
    broadcasts against the rotated stack's batch axes.  Returns ``(src,
    negate)`` with ``src[..., i]`` the source coefficient index of output
    coefficient ``i`` and ``negate[..., i]`` a boolean marking the
    coefficients whose negacyclic sign is ``−1``.
    """
    col = _coefficient_index(degree)
    negate_all = powers >= degree
    shift = powers % degree
    src = (col - shift[..., None]) % degree
    wrapped = col < shift[..., None]
    negate = wrapped ^ negate_all[..., None]
    return src, negate


def zero_torus_polynomial(degree: int) -> np.ndarray:
    """Return the all-zero torus polynomial of the given ring degree."""
    return np.zeros(degree, dtype=np.int32)


def constant_torus_polynomial(degree: int, constant: int) -> np.ndarray:
    """Return the torus polynomial whose constant term is ``constant``."""
    poly = np.zeros(degree, dtype=np.int32)
    poly[0] = np.int32(np.int64(constant) & 0xFFFFFFFF)
    return poly


def poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise torus addition (wrap-around int32)."""
    return torus32_from_int64(a.astype(np.int64) + b.astype(np.int64))


def poly_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise torus subtraction (wrap-around int32)."""
    return torus32_from_int64(a.astype(np.int64) - b.astype(np.int64))


def poly_neg(a: np.ndarray) -> np.ndarray:
    """Coefficient-wise torus negation."""
    return torus32_from_int64(-a.astype(np.int64))


def poly_scale(scalar: int, a: np.ndarray) -> np.ndarray:
    """Multiply every coefficient by a (signed) integer scalar."""
    return torus32_from_int64(int(scalar) * a.astype(np.int64))


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


def poly_mul_by_xk_powers(polys: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Rotate a stack of torus polynomials, each by its *own* power of ``X``.

    ``polys`` has shape ``(..., N)`` and ``powers`` must broadcast against the
    leading (batch) axes ``polys.shape[:-1]`` — e.g. rotate a batched TLWE
    sample of shape ``(B, k+1, N)`` with per-ciphertext powers of shape
    ``(B, 1)``.  Bit-identical to calling :func:`poly_mul_by_xk` on every
    batch element with its own power, with the same dtype contract: ``int32``
    stacks are torus polynomials (wrap-around), ``int64`` stacks are plain
    integer polynomials, anything else is rejected.
    """
    polys = np.asarray(polys)
    if polys.dtype == np.int32:
        wrap = True
    elif polys.dtype == np.int64:
        wrap = False
    else:
        raise TypeError(
            f"poly_mul_by_xk_powers expects int32 or int64 input, got {polys.dtype}"
        )
    degree = polys.shape[-1]
    powers = np.asarray(powers, dtype=np.int64) % (2 * degree)
    src, negate = _rotation_tables(degree, powers)
    shape = np.broadcast_shapes(polys.shape, src.shape)
    rotated = np.take_along_axis(
        np.broadcast_to(polys, shape), np.broadcast_to(src, shape), axis=-1
    )
    if wrap:
        # Torus stacks rotate entirely in uint32: negation mod 2^32 *is* the
        # negacyclic sign flip followed by the torus reduction.
        unsigned = rotated.view(np.uint32)
        return np.where(negate, -unsigned, unsigned).view(np.int32)
    product = np.where(negate, np.int64(-1), np.int64(1)) * rotated.astype(np.int64)
    return product


def negacyclic_convolution(int_poly: np.ndarray, torus_poly: np.ndarray) -> np.ndarray:
    """Exact negacyclic product of an integer polynomial and a torus polynomial.

    Schoolbook ``O(N^2)`` evaluation used as the ground truth the FFT engines
    are validated against, and as the polynomial-multiplication backend for the
    tiny test parameter sets where it is actually faster than an FFT.

    Both operands may carry leading batch axes ``(..., N)`` (broadcast against
    each other); the product is taken along the last axis.  The result is
    reduced onto the 32-bit torus.
    """
    return torus32_from_int64(negacyclic_convolution_int64(int_poly, torus_poly))


def negacyclic_convolution_int64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact negacyclic product of two integer polynomials, kept in int64.

    Unlike :func:`negacyclic_convolution` the result is *not* reduced onto the
    torus; the FFT error-measurement harness (Figure 8) needs the full-width
    integer reference to express the approximation error in dB.

    Operands may be stacks of polynomials ``(..., N)`` whose batch axes
    broadcast; the batched result is bit-identical to looping over the stack.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    degree = a.shape[-1]
    if b.shape[-1] != degree:
        raise ValueError("polynomial degrees do not match")
    if a.ndim == 1 and b.ndim == 1:
        full = np.convolve(a, b)
    else:
        batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        full = np.zeros(batch + (2 * degree - 1,), dtype=np.int64)
        for i in range(degree):
            full[..., i : i + degree] += a[..., i : i + 1] * b
    folded = full[..., :degree].copy()
    folded[..., : degree - 1] -= full[..., degree:]
    return folded


def poly_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact coefficient-wise equality of two polynomials."""
    return bool(np.array_equal(np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)))
