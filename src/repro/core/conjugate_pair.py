"""Depth-first iterative conjugate-pair FFT (CPFFT) — Section 4.1, Figure 2.

MATCHA's FFT cores traverse the transform depth first: a sub-transform is
completed before the next one starts, which keeps the working set small
(spatial locality) and exposes the conjugate-pair structure in which one
twiddle read serves a whole radix-4-style butterfly.

This module is the *structural* model of that data flow: a recursive
(depth-first) conjugate-pair split-radix FFT that

* works on exact complex numbers or on DVQTF-quantised twiddles,
* counts butterflies, twiddle-buffer reads and the maximum recursion depth,
* records the order in which sub-transforms complete (so the tests can verify
  the depth-first property).

The heavy-duty vectorised engine used inside the TFHE evaluator is
:mod:`repro.core.integer_fft`; this model complements it for the Figure 2
analysis and for op-count inputs to the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.twiddle import TwiddleFactorBuffer


@dataclass
class CpfftStats:
    """Instrumentation of one conjugate-pair FFT execution."""

    butterflies: int = 0
    twiddle_reads: int = 0
    max_depth: int = 0
    #: Sizes of sub-transforms in completion order (depth-first evidence).
    completion_order: List[int] = field(default_factory=list)


class ConjugatePairFFT:
    """Depth-first conjugate-pair split-radix FFT of size ``n`` (sign ``+1``).

    Computes ``X_k = Σ_s x_s · exp(sign · 2πi k s / n)``.  The conjugate-pair
    split decomposes the input into the even samples, the samples at indices
    ``4t + 1`` and the samples at indices ``4t − 1`` (cyclically); the two odd
    branches use the twiddle ``W^k`` and its conjugate, hence a single buffer
    read per butterfly pair.
    """

    def __init__(self, size: int, twiddle_bits: Optional[int] = None, sign: int = 1) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("transform size must be a power of two")
        self.size = size
        self.sign = sign
        self.twiddle_bits = twiddle_bits
        self.buffer = TwiddleFactorBuffer(size, twiddle_bits or 64, sign)
        self.stats = CpfftStats()

    def reset_stats(self) -> None:
        self.stats = CpfftStats()
        self.buffer.reset_reads()

    # ------------------------------------------------------------------ #
    def _twiddle(self, k: int) -> complex:
        """Twiddle ``W^k``: quantised when ``twiddle_bits`` is set, exact otherwise."""
        if self.twiddle_bits is None:
            angle = self.sign * 2.0 * np.pi * k / self.size
            return complex(np.cos(angle), np.sin(angle))
        return self.buffer.read(k).value

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Run the depth-first transform and return the spectrum."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[0] != self.size:
            raise ValueError("input length mismatch")
        self.reset_stats()
        indices = np.arange(self.size)
        return self._recurse(values, indices, depth=1)

    def _recurse(self, x: np.ndarray, indices: np.ndarray, depth: int) -> np.ndarray:
        self.stats.max_depth = max(self.stats.max_depth, depth)
        n = indices.shape[0]
        if n == 1:
            self.stats.completion_order.append(1)
            return x[indices].astype(np.complex128)
        if n == 2:
            a, b = x[indices[0]], x[indices[1]]
            self.stats.butterflies += 1
            self.stats.completion_order.append(2)
            return np.array([a + b, a - b], dtype=np.complex128)

        # Conjugate-pair split: even indices, 4t+1 indices, 4t-1 indices.
        even = indices[0::2]
        odd_plus = indices[1::4]
        # The "conjugate" branch takes samples at positions 4t − 1 (cyclically),
        # i.e. n−1, 3, 7, ... — the order matters, it is a time sequence.
        odd_minus = indices[(4 * np.arange(n // 4) - 1) % n]

        even_fft = self._recurse(x, even, depth + 1)
        plus_fft = self._recurse(x, odd_plus, depth + 1)
        minus_fft = self._recurse(x, odd_minus, depth + 1)

        quarter = n // 4
        result = np.empty(n, dtype=np.complex128)
        stride = self.size // n
        for k in range(quarter):
            # A single buffer read provides W^k; its conjugate is derived on
            # the fly (sign flip), which is the conjugate-pair saving.
            w = self._twiddle(k * stride) if k else complex(1.0, 0.0)
            if k:
                self.stats.twiddle_reads += 1
            wc = w.conjugate()
            t_plus = plus_fft[k] * w
            t_minus = minus_fft[k] * wc
            s = t_plus + t_minus
            d = (t_plus - t_minus) * (1j * self.sign)
            result[k] = even_fft[k] + s
            result[k + n // 2] = even_fft[k] - s
            result[k + quarter] = even_fft[k + quarter] + d
            result[k + 3 * quarter] = even_fft[k + quarter] - d
            self.stats.butterflies += 2
        self.stats.completion_order.append(n)
        return result
