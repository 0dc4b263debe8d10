"""One lifting rotation on one integer point: the oracle of the vectorised rotation.

:class:`repro.core.lifting.LiftingRotationArray` rotates whole arrays, each
element by its own angle, with the quantised coefficients held as arrays.
:class:`LiftingRotation` does it one angle and one point at a time: the angle
split into an exact quarter-turn and a residual in ``[-pi/4, pi/4]``, the
residual's ``tan(phi/2)`` and ``sin(phi)`` quantised to
:class:`repro.core.lifting.DyadicCoefficient` s, and three rounded shears.
The vectorised rotation must agree with it to the last bit of rounding.

:func:`shift_add_apply` is the butterfly core's datapath itself: a
coefficient's signed-digit schedule
(:func:`repro.utils.bits.signed_digit_expansion`) applied to an integer as a
sum of arithmetic shifts, which the rounded product must track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.lifting import DyadicCoefficient


def dyadic_apply(coefficient: DyadicCoefficient, operand: float) -> float:
    """``round(coefficient * operand)`` — the lifting-step product."""
    return round(float(operand) * coefficient.value)


def shift_add_apply(value: int, terms: List[Tuple[int, int]]) -> int:
    """Apply a signed-digit (shift/add) schedule to an integer operand.

    This is the scalar, bit-exact model of what a MATCHA butterfly core does:
    ``value * (numerator / 2**beta)`` computed as a sum of arithmetic right
    shifts.  Shifts use floor semantics, matching a hardware arithmetic
    shifter; the accumulated result is the integer the hardware would produce
    before any final rounding.
    """
    accumulator = 0
    for sign, shift in terms:
        if shift >= 0:
            accumulator += sign * (int(value) >> shift)
        else:
            accumulator += sign * (int(value) << (-shift))
    return accumulator


def _reduce_angle(angle: float) -> Tuple[int, float]:
    """Split ``angle`` into an exact quarter-turn count and a small residual.

    Returns ``(quarter_turns, residual)`` with ``residual`` in
    ``[-pi/4, pi/4]`` and ``quarter_turns`` in ``{0, 1, 2, 3}`` such that
    ``angle ≡ quarter_turns · pi/2 + residual (mod 2·pi)``.
    """
    quarter = round(angle / (math.pi / 2.0))
    residual = angle - quarter * (math.pi / 2.0)
    return quarter % 4, residual


def _apply_quarter_turns(re: float, im: float, quarter: int) -> Tuple[float, float]:
    """Apply an exact rotation by ``quarter * 90`` degrees (sign flips/swaps)."""
    if quarter == 0:
        return re, im
    if quarter == 1:
        return -im, re
    if quarter == 2:
        return -re, -im
    if quarter == 3:
        return im, -re
    raise ValueError("quarter turns must be in {0, 1, 2, 3}")


@dataclass(frozen=True)
class LiftingRotation:
    """A plane rotation by a fixed angle realised with three lifting steps."""

    angle: float
    beta: int

    def __post_init__(self) -> None:
        quarter, residual = _reduce_angle(self.angle)
        object.__setattr__(self, "quarter_turns", quarter)
        object.__setattr__(
            self, "tan_half", DyadicCoefficient.from_float(math.tan(residual / 2.0), self.beta)
        )
        object.__setattr__(
            self, "sin", DyadicCoefficient.from_float(math.sin(residual), self.beta)
        )

    def forward(self, re: int, im: int) -> Tuple[int, int]:
        """Rotate an integer point by ``angle`` (scalar, rounded lifting steps)."""
        re, im = _apply_quarter_turns(float(re), float(im), self.quarter_turns)
        re = re - dyadic_apply(self.tan_half, im)
        im = im + dyadic_apply(self.sin, re)
        re = re - dyadic_apply(self.tan_half, im)
        return int(re), int(im)

    def inverse(self, re: int, im: int) -> Tuple[int, int]:
        """Exactly undo :meth:`forward` (perfect reconstruction)."""
        re, im = float(re), float(im)
        re = re + dyadic_apply(self.tan_half, im)
        im = im - dyadic_apply(self.sin, re)
        re = re + dyadic_apply(self.tan_half, im)
        back = (4 - self.quarter_turns) % 4
        re, im = _apply_quarter_turns(re, im, back)
        return int(re), int(im)
