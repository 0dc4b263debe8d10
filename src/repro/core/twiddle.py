"""Twiddle-factor schedules, DVQTF quantisation and buffer-read accounting.

Two aspects of the paper are modelled here:

* **dyadic-value-quantised twiddle factors (DVQTFs)** — the cosine/sine (or
  lifting-coefficient) values an FFT stage needs, quantised to a configurable
  number of fractional bits (Section 4.1, Figure 8);
* **twiddle-buffer reads** — the paper argues for the depth-first
  conjugate-pair FFT because it needs a single complex root-of-unity read per
  radix-4 butterfly and lets two butterflies of the same block share one read
  (Section 4.1, Figure 2).  :func:`twiddle_read_counts` quantifies the read
  pressure of the breadth-first Cooley–Tukey radix-2 flow against the
  conjugate-pair flow so the Figure 2 bench can report the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


from repro.core.lifting import DyadicCoefficient


@dataclass(frozen=True)
class QuantisedTwiddle:
    """One twiddle factor quantised to dyadic real and imaginary parts."""

    angle: float
    real: DyadicCoefficient
    imag: DyadicCoefficient

    @property
    def value(self) -> complex:
        return complex(self.real.value, self.imag.value)


class TwiddleFactorBuffer:
    """The twiddle-factor buffer of an FFT core (Figure 7(d)).

    Stores the quantised roots of unity of a transform of size ``size`` and
    counts reads, so the depth-first/breadth-first comparison of Figure 2 can
    be expressed in buffer traffic.
    """

    def __init__(self, size: int, twiddle_bits: int, sign: int = 1) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("transform size must be a power of two")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.size = size
        self.twiddle_bits = int(twiddle_bits)
        self.sign = sign
        self.reads = 0
        self._entries: Dict[int, QuantisedTwiddle] = {}
        for k in range(size):
            angle = sign * 2.0 * math.pi * k / size
            self._entries[k] = QuantisedTwiddle(
                angle=angle,
                real=DyadicCoefficient.from_float(math.cos(angle), twiddle_bits),
                imag=DyadicCoefficient.from_float(math.sin(angle), twiddle_bits),
            )

    def __len__(self) -> int:
        return self.size

    def read(self, index: int) -> QuantisedTwiddle:
        """Read (and count) the twiddle ``W^index``."""
        self.reads += 1
        return self._entries[index % self.size]

    def reset_reads(self) -> None:
        self.reads = 0


def breadth_first_twiddle_reads(size: int) -> int:
    """Twiddle reads of a breadth-first radix-2 Cooley–Tukey transform.

    One twiddle is read per butterfly; there are ``size/2`` butterflies per
    stage and ``log2(size)`` stages (Figure 2(a) behaviour: no reuse across
    the breadth-first sweep).
    """
    stages = int(math.log2(size))
    return (size // 2) * stages


def conjugate_pair_twiddle_reads(size: int) -> int:
    """Twiddle reads of the depth-first conjugate-pair (split-radix) transform.

    The conjugate-pair decomposition pairs the twiddle ``W^k`` with its
    conjugate ``W^{-k}``, so each radix-4-style butterfly needs a *single*
    complex root-of-unity read; two butterflies of the same block share the
    read, halving it again [Becoulet & Verguet 2021].  The resulting read
    count is ``~size/4 · log2(size)`` minus the trivial (``W^0``) butterflies.
    """
    stages = int(math.log2(size))
    reads = (size // 4) * stages
    # W^0 never needs a buffer read (it is the identity rotation).
    reads -= size // 4
    return max(reads, 0)


def twiddle_read_counts(size: int) -> Dict[str, int]:
    """Read counts of both traversals plus the resulting reduction factor."""
    breadth = breadth_first_twiddle_reads(size)
    depth = conjugate_pair_twiddle_reads(size)
    return {
        "breadth_first_reads": breadth,
        "conjugate_pair_reads": depth,
        "reduction_factor": breadth / depth if depth else float("inf"),
    }
