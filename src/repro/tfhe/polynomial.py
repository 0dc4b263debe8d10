"""Negacyclic polynomial arithmetic.

TFHE works in the rings ``Z_N[X] = Z[X]/(X^N + 1)`` (integer polynomials) and
``T_N[X] = T[X]/(X^N + 1)`` (torus polynomials).  Both are represented as
NumPy ``int32``/``int64`` coefficient vectors of length ``N`` with coefficient
``i`` holding the coefficient of ``X^i``.

The quotient by ``X^N + 1`` makes multiplication *negacyclic*: ``X^N = -1``,
so rotating a polynomial by ``k`` positions negates the coefficients that wrap
around.  This module provides the exact (schoolbook) negacyclic product in
int64: the ``naive`` engine's multiply and the reference of the Figure 8
error measurement.  The torus-reduced product, the add/subtract primitives
and ``poly_mul_by_xk``, the rotation written out that the batched rotations
are checked against, live in ``tests/tgsw_oracle.py``.
"""

from __future__ import annotations

import numpy as np


def negacyclic_convolution_int64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact negacyclic product of two integer polynomials, kept in int64.

    The result is *not* reduced onto the torus; the FFT error-measurement
    harness (Figure 8) needs the full-width integer reference to express the
    approximation error in dB.

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
