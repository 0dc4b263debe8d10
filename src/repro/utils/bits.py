"""Bit-level helpers used across the TFHE substrate and the hardware models.

The approximate multiplication-less FFT replaces every twiddle-factor
multiplication with additions and binary shifts.  The helpers in this module
convert dyadic coefficients into the shift/add schedule actually executed by a
MATCHA butterfly core.
"""

from __future__ import annotations

from typing import List, Tuple


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def bit_length(value: int) -> int:
    """Number of bits needed to represent ``abs(value)``."""
    return int(abs(int(value))).bit_length()


def signed_digit_expansion(numerator: int, beta: int) -> List[Tuple[int, int]]:
    """Expand a dyadic coefficient ``numerator / 2**beta`` into shift/add terms.

    Returns a list of ``(sign, shift)`` pairs such that::

        numerator / 2**beta == sum(sign * 2**-shift for sign, shift in terms)

    The expansion uses the canonical non-adjacent form (NAF) of ``numerator``,
    which minimises the number of non-zero digits and therefore the number of
    adders a butterfly core needs (the paper's example 9/128 = 1/2^4 + 1/2^7
    is exactly the NAF expansion).
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    terms: List[Tuple[int, int]] = []
    n = int(numerator)
    position = 0
    while n != 0:
        if n & 1:
            digit = 2 - (n & 3)  # +1 if n % 4 == 1, -1 if n % 4 == 3
            n -= digit
            shift = beta - position
            terms.append((digit, shift))
        n >>= 1
        position += 1
    terms.reverse()
    return terms
