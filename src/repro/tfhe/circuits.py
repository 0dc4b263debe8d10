"""Integer encode/decode helpers for encrypted circuits.

A word is a list of bits ordered LSB first: scalar :class:`LweSample` bits
for one word (:func:`encrypt_integer` / :func:`decrypt_integer`), or
:class:`LweBatch` *bit planes* for many — plane ``i`` holds bit ``i`` of
every word (:func:`encrypt_integers` / :func:`decrypt_integers`).  The
word-level circuits are the netlists of :mod:`repro.tfhe.netlist`, run by
:class:`repro.tfhe.executor.CircuitExecutor`::

    executor = CircuitExecutor.for_context(context, batch_size=len(lhs))
    planes = {"a": encrypt_integers(secret, lhs, 8), "b": encrypt_integers(secret, rhs, 8)}
    sums = decrypt_integers(secret, executor.run(adder_netlist(8), planes)["sum"])
"""

from __future__ import annotations

from typing import List, Sequence

from repro.tfhe.gates import (
    decrypt_bit_batch,
    decrypt_bits,
    encrypt_bit_batch,
    encrypt_bits,
)
from repro.tfhe.keys import TFHESecretKey
from repro.tfhe.lwe import LweBatch, LweSample
from repro.utils.rng import SeedLike, make_rng


def int_to_bits(value: int, width: int) -> List[int]:
    """Two's-complement / unsigned bits of ``value``, LSB first."""
    if width <= 0:
        raise ValueError("width must be positive")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Reassemble an unsigned integer from LSB-first bits."""
    return sum(int(bit) << i for i, bit in enumerate(bits))


def encrypt_integer(
    secret: TFHESecretKey, value: int, width: int, rng: SeedLike = None
) -> List[LweSample]:
    """Encrypt an unsigned integer as ``width`` gate-bootstrapping ciphertexts."""
    return encrypt_bits(secret, int_to_bits(value, width), rng)


def decrypt_integer(secret: TFHESecretKey, bits: Sequence[LweSample]) -> int:
    """Decrypt an encrypted integer produced by :func:`encrypt_integer`."""
    return bits_to_int(decrypt_bits(secret, list(bits)))


def encrypt_integers(
    secret: TFHESecretKey, values: Sequence[int], width: int, rng: SeedLike = None
) -> List[LweBatch]:
    """Encrypt a list of unsigned integers as ``width`` LSB-first *bit planes*.

    Plane ``i`` is an :class:`LweBatch` whose row ``j`` encrypts bit ``i`` of
    ``values[j]`` — the layout :meth:`CircuitExecutor.run
    <repro.tfhe.executor.CircuitExecutor.run>` consumes: feeding the planes
    of two lists to an adder netlist adds all ``len(values)`` pairs at once.
    """
    if not values:
        raise ValueError("at least one value is required")
    rng = make_rng(rng)
    bit_rows = [int_to_bits(int(v), width) for v in values]
    return [
        encrypt_bit_batch(secret, [row[i] for row in bit_rows], rng)
        for i in range(width)
    ]


def decrypt_integers(secret: TFHESecretKey, planes: Sequence[LweBatch]) -> List[int]:
    """Decrypt LSB-first bit planes back to one integer per batch row.

    Raises ``ValueError`` for no planes or planes of different widths.
    """
    if not planes:
        raise ValueError("at least one bit plane is required")
    widths = {plane.batch_size for plane in planes}
    if len(widths) > 1:
        raise ValueError(f"bit planes have different batch widths {sorted(widths)}")
    plane_bits = [decrypt_bit_batch(secret, plane) for plane in planes]
    return [bits_to_int(word) for word in zip(*plane_bits)]
