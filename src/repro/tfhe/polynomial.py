"""Negacyclic polynomial arithmetic.

TFHE works in the rings ``Z_N[X] = Z[X]/(X^N + 1)`` (integer polynomials) and
``T_N[X] = T[X]/(X^N + 1)`` (torus polynomials).  Both are represented as
NumPy ``int32``/``int64`` coefficient vectors of length ``N`` with coefficient
``i`` holding the coefficient of ``X^i``.

The quotient by ``X^N + 1`` makes multiplication *negacyclic*: ``X^N = -1``,
so rotating a polynomial by ``k`` positions negates the coefficients that wrap
around.  This module provides the exact (schoolbook) negacyclic product used
as ground truth by the FFT engines, the add/subtract primitives of the TLWE
operations, and :func:`poly_mul_by_xk`, the rotation written out that the
batched rotations (``tlwe_batch_rotate``, the blind-rotation step) are
checked against.
"""

from __future__ import annotations

import numpy as np

from repro.tfhe.torus import torus32_from_int64


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
