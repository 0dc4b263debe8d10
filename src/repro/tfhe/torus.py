"""Torus arithmetic.

TFHE is defined over the real torus ``T = R/Z`` (real numbers modulo 1).  Like
the reference TFHE library, the implementation rescales torus elements by
``2^32`` and stores them as 32-bit integers, so every addition and subtraction
implicitly performs the modulo-1 reduction through native integer wrap-around
(Section 2, "Torus Implementation" in the paper).

A torus element ``t`` in ``[-1/2, 1/2)`` is represented by the signed 32-bit
integer ``round(t * 2^32)``.  Messages of a `M`-ary plaintext space are placed
at the ``M`` evenly spaced torus points ``i/M``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.utils.rng import SeedLike, make_rng

#: Number of bits used to represent a torus element.
TORUS_BITS = 32
#: Scale factor mapping the real torus onto 32-bit integers.
TORUS_SCALE = 2**TORUS_BITS

Torus32 = np.int32

ArrayLike = Union[int, float, np.ndarray]


def double_to_torus32(value: ArrayLike) -> np.ndarray:
    """Map real numbers onto the discretised torus (int32 with wrap-around).

    Only the fractional part of ``value`` matters: the real torus is the reals
    modulo 1, and the scaling by ``2^32`` makes the reduction implicit in the
    integer wrap-around.
    """
    scaled = np.round(np.asarray(value, dtype=np.float64) * TORUS_SCALE)
    return np.asarray(scaled % TORUS_SCALE, dtype=np.uint32).astype(np.int32)


def torus32_to_double(value: ArrayLike) -> np.ndarray:
    """Map discretised torus elements back to reals in ``[-1/2, 1/2)``."""
    return np.asarray(value, dtype=np.int32).astype(np.float64) / TORUS_SCALE


def torus32_from_int64(value: ArrayLike) -> np.ndarray:
    """Wrap arbitrary (64-bit or Python) integers onto the 32-bit torus.

    The final step reinterprets the uint32 buffer as int32 (a free view — the
    two's-complement bit pattern is already the torus representative) instead
    of paying a second cast pass.
    """
    return (np.asarray(value, dtype=np.int64) & 0xFFFFFFFF).astype(np.uint32).view(np.int32)


def modswitch_to_torus32(message: ArrayLike, space: int) -> np.ndarray:
    """Encode ``message`` from a ``space``-ary plaintext space onto the torus.

    The plaintext ``mu`` is mapped to the torus point ``mu / space``; e.g. for
    TFHE gate bootstrapping ``space`` is 8 and the two Boolean messages sit at
    ``±1/8``.
    """
    message = np.asarray(message, dtype=np.int64)
    return torus32_from_int64(message * (TORUS_SCALE // space))


def modswitch_from_torus32(phase: ArrayLike, space: int) -> np.ndarray:
    """Decode a torus phase back to the nearest point of a ``space``-ary space."""
    phase = np.asarray(phase, dtype=np.int32).astype(np.int64) & 0xFFFFFFFF
    interval = TORUS_SCALE // space
    return ((phase + interval // 2) // interval % space).astype(np.int64)


def gaussian_torus32(
    stddev: float, size, rng: SeedLike = None
) -> np.ndarray:
    """Sample discretised-Gaussian torus noise with standard deviation ``stddev``.

    The standard deviation is expressed on the real torus (e.g. ``2^-15``); the
    sample is rounded onto the 32-bit discretisation.  This mirrors the
    ``gaussian32`` routine of the TFHE library.
    """
    rng = make_rng(rng)
    noise = rng.normal(loc=0.0, scale=stddev, size=size)
    return double_to_torus32(noise)


def uniform_torus32(size, rng: SeedLike = None) -> np.ndarray:
    """Sample uniformly random torus elements (the mask ``a`` of LWE samples)."""
    rng = make_rng(rng)
    return rng.integers(
        low=-(2**31), high=2**31, size=size, dtype=np.int64
    ).astype(np.int32)


def torus_distance(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Absolute distance on the real torus between two int32 torus elements.

    The distance is the length of the shorter arc, expressed as a real number
    in ``[0, 1/2]``.  Used by noise-measurement tests.
    """
    diff = np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)
    return np.abs(torus32_to_double(torus32_from_int64(diff)))
