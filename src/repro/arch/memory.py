"""Key footprints: TGSW ciphertexts and the bootstrapping key.

The bootstrapping key grows exponentially with the BKU factor ``m`` and
never fits in the 4 MB scratchpad, so it streams from HBM2 at 640 GB/s —
this stream bounds how aggressively ``m`` can be raised (Section 4.2).
"""

from __future__ import annotations

from repro.tfhe.params import TFHEParameters


def tgsw_ciphertext_bytes(params: TFHEParameters, transformed: bool = True) -> int:
    """Size of one (optionally Lagrange-domain) TGSW ciphertext in bytes.

    Coefficient-domain samples store ``(k+1)·l·(k+1)·N`` 32-bit words; the
    transformed representation keeps ``N/2`` complex values per polynomial,
    each a pair of 64-bit fixed-point words (16 bytes), doubling the
    footprint — the price MATCHA pays for keeping the keys in the Lagrange
    domain.
    """
    k, l, N = params.k, params.l, params.N
    words = (k + 1) * l * (k + 1)
    if transformed:
        return words * (N // 2) * 16
    return words * N * 4


def bootstrapping_key_bytes(
    params: TFHEParameters, unroll_factor: int, transformed: bool = True
) -> int:
    """Total bootstrapping-key footprint for BKU factor ``m``.

    ``⌈n/m⌉`` groups of ``2^m − 1`` TGSW ciphertexts each (Figure 5): the
    exponential blow-up of Section 4.2.
    """
    if unroll_factor < 1:
        raise ValueError("unroll factor must be >= 1")
    n = params.n
    groups, remainder = divmod(n, unroll_factor)
    keys = groups * ((1 << unroll_factor) - 1)
    if remainder:
        keys += (1 << remainder) - 1
    return keys * tgsw_ciphertext_bytes(params, transformed)
