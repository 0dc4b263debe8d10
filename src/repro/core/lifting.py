"""The multiplication-less lifting butterfly (Section 4.1, Figure 3).

A twiddle-factor multiplication inside an FFT is a plane rotation.  The
*lifting structure* factors a rotation into three shear ("lifting") steps::

    R(phi) = [[c, -s], [s, c]]
           = [[1, -t], [0, 1]] · [[1, 0], [s, 1]] · [[1, -t], [0, 1]],
    t = tan(phi / 2),  s = sin(phi)

Each step only adds a *rounded, scaled* copy of one component to the other, so
when the scale factors are quantised to dyadic values ``alpha / 2^beta`` the
whole rotation needs only adders and binary shifters — no multipliers — and it
maps integers to integers.  Because each step is a unit-diagonal shear, the
integer map is *exactly invertible* (perfect reconstruction): applying the
inverse steps in reverse order recovers the inputs bit-for-bit, regardless of
the rounding.  The paper's Figure 3(b) example (coefficient 9/128 computed
with a 4-bit and a 7-bit shifter) is reproduced by
:func:`repro.utils.bits.signed_digit_expansion`.

Rotations by arbitrary angles are reduced to a residual in ``[-pi/4, pi/4]``
plus an exact quarter-turn, which keeps ``|t| <= tan(pi/8)`` and ``|s| <=
sqrt(1/2)`` and therefore keeps the dyadic quantisation error small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.bits import signed_digit_expansion


@dataclass(frozen=True)
class DyadicCoefficient:
    """A dyadic-value-quantised coefficient ``numerator / 2^beta``.

    ``beta`` is the paper's twiddle-factor bit-width knob (Figure 8): larger
    ``beta`` means a finer quantisation grid and a smaller approximation
    error, but more shift/add terms per multiplication.
    """

    numerator: int
    beta: int

    @classmethod
    def from_float(cls, value: float, beta: int) -> "DyadicCoefficient":
        """Quantise ``value`` to the nearest multiple of ``2^-beta``."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        return cls(numerator=int(round(value * (1 << beta))), beta=beta)

    @property
    def value(self) -> float:
        """The exact quantised value as a float."""
        return self.numerator / float(1 << self.beta)

    def quantisation_error(self, reference: float) -> float:
        """Absolute difference between the quantised and the reference value."""
        return abs(self.value - reference)

    def shift_add_terms(self) -> List[Tuple[int, int]]:
        """The signed-digit shift/add schedule realising this coefficient."""
        return signed_digit_expansion(self.numerator, self.beta)

    def adder_count(self) -> int:
        """Number of shifted operands a butterfly core adds for this coefficient."""
        return len(self.shift_add_terms())


class LiftingRotationArray:
    """Vectorised lifting rotations by a fixed *vector* of angles.

    This is the workhorse of the approximate integer FFT: one instance per
    FFT stage (or per twist), rotating element ``j`` of the operand arrays by
    ``angles[j]``.  All coefficients are dyadic-value quantised at
    construction time; applying the rotation performs only additions and
    rounded scalings (the vectorised stand-in for the shift/add datapath).
    """

    def __init__(self, angles: Sequence[float], beta: int) -> None:
        angles = np.asarray(angles, dtype=np.float64)
        self.beta = int(beta)
        quarters = np.round(angles / (math.pi / 2.0)).astype(np.int64)
        residual = angles - quarters * (math.pi / 2.0)
        self.quarters = np.mod(quarters, 4)
        scale = float(1 << self.beta)
        # Exact quantised coefficient values (numerator / 2^beta).
        self.tan_half = np.round(np.tan(residual / 2.0) * scale) / scale
        self.sin = np.round(np.sin(residual) * scale) / scale

    def __len__(self) -> int:
        return int(self.quarters.shape[0])

    def _quarter_turn(
        self, re: np.ndarray, im: np.ndarray, quarters: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        new_re = np.where(
            quarters == 0, re, np.where(quarters == 1, -im, np.where(quarters == 2, -re, im))
        )
        new_im = np.where(
            quarters == 0, im, np.where(quarters == 1, re, np.where(quarters == 2, -im, -re))
        )
        return new_re, new_im

    def forward(self, re: np.ndarray, im: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rotate integer-valued arrays forward by the configured angles."""
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
        re, im = self._quarter_turn(re, im, self.quarters)
        re = re - np.round(self.tan_half * im)
        im = im + np.round(self.sin * re)
        re = re - np.round(self.tan_half * im)
        return re, im

    def inverse(self, re: np.ndarray, im: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exactly undo :meth:`forward` on integer-valued arrays."""
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
        re = re + np.round(self.tan_half * im)
        im = im - np.round(self.sin * re)
        re = re + np.round(self.tan_half * im)
        back = np.mod(4 - self.quarters, 4)
        re, im = self._quarter_turn(re, im, back)
        return re, im
