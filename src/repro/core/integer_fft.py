"""The approximate multiplication-less integer negacyclic transform.

This is MATCHA's replacement for the double-precision FFT/IFFT kernels of the
TFHE library (Section 4.1).  Polynomials are moved between the coefficient
representation and the Lagrange half-complex representation with an integer
FFT whose butterflies are *lifting rotations*: every twiddle multiplication is
three shear steps with dyadic-value-quantised coefficients, realisable with
adders and binary shifters only (:mod:`repro.core.lifting`).

Differences from an exact transform, and why TFHE tolerates them:

* the twiddle factors are quantised to ``twiddle_bits`` fractional bits
  (the paper's DVQTFs) — quantisation error falls with the bit-width and is
  the knob swept in Figure 8;
* every lifting step rounds its scaled operand to an integer — this is the
  irreducible error floor that keeps the approximate transform above the
  double-precision baseline even with 64-bit DVQTFs;
* the transform is *integer to integer*, so the accelerator needs no floating
  point hardware at all.

The resulting polynomial-product error is absorbed by the noise term of the
ciphertext and rounded away at decryption, because every TFHE gate bootstraps
(Section 4.1 "Novelty").

Implementation notes
--------------------

* The forward direction uses a decimation-in-frequency flow (natural input,
  bit-reversed output) and the backward direction a decimation-in-time flow
  (bit-reversed input, natural output); spectra therefore live in bit-reversed
  order and no bit-reversal pass is ever executed, mirroring the paper's
  discussion of bit-reversal overhead.
* Small operands (the gadget-decomposed accumulator rows) are pre-scaled by a
  power of two so the per-step rounding error stays far below the ciphertext
  noise; the scale travels with the spectrum and is removed after the
  pointwise products.  This models the fixed-point headroom of MATCHA's 64-bit
  butterfly datapath.
* The vectorised rotation uses exactly quantised dyadic coefficients and
  round-to-nearest products.  The scalar shift/add datapath
  (``shift_add_apply`` in ``tests/lifting_oracle.py``) is validated
  against it in the unit tests; the two differ only in the final-bit rounding
  convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.lifting import LiftingRotationArray
from repro.tfhe.transform import NegacyclicTransform
from repro.utils.bits import is_power_of_two


@dataclass
class IntegerSpectrum:
    """A Lagrange-domain polynomial with an attached fixed-point scale.

    ``values`` hold integers (stored in a complex128 array); the represented
    spectrum is ``values / 2**scale_bits``.

    ``values`` may be a *stack* of spectra of shape ``(..., N/2)``; then
    ``scale_bits`` is an int64 array of the batch shape ``values.shape[:-1]``
    carrying one fixed-point scale per stacked spectrum, so batched transforms
    stay bit-identical to transforming each polynomial on its own.
    """

    values: np.ndarray
    scale_bits: "int | np.ndarray"

    def copy(self) -> "IntegerSpectrum":
        scale = self.scale_bits
        if isinstance(scale, np.ndarray):
            scale = scale.copy()
        return IntegerSpectrum(self.values.copy(), scale)


class ApproximateNegacyclicTransform(NegacyclicTransform):
    """Approximate multiplication-less integer FFT/IFFT engine.

    Parameters
    ----------
    degree:
        Ring degree ``N`` (a power of two).
    twiddle_bits:
        Bit-width ``beta`` of the dyadic-value-quantised twiddle factors
        (the paper's DVQTFs; Figure 8 sweeps this knob, MATCHA ships with 64).
    target_msb:
        Fixed-point headroom target: forward operands are scaled up so their
        magnitude approaches ``2**target_msb``, keeping rounding error far
        below the ciphertext noise.  The default (36) models the headroom of
        the 64-bit butterfly datapath and is calibrated so the 64-bit-DVQTF
        error floor of a polynomial product lands at about −147 dB, next to
        the paper's reported −141 dB (Figure 8).
    """

    engine_kind = "approx"

    def __init__(self, degree: int, twiddle_bits: int = 64, target_msb: int = 36) -> None:
        super().__init__(degree)
        if not is_power_of_two(degree):
            raise ValueError("ring degree must be a power of two")
        if twiddle_bits < 1:
            raise ValueError("twiddle_bits must be >= 1")
        self.twiddle_bits = int(twiddle_bits)
        self.target_msb = int(target_msb)
        self._half = degree // 2

        # Twist rotations: element s is rotated by +pi*s/N (forward) and the
        # inverse rotation on the way back.
        s = np.arange(self._half)
        self._twist = LiftingRotationArray(np.pi * s / degree, twiddle_bits)

        # Per-stage butterfly rotations for the DIF (forward) and DIT
        # (backward) flows.
        self._dif_stages: List[Tuple[int, LiftingRotationArray]] = []
        length = self._half
        while length >= 2:
            angles = 2.0 * np.pi * np.arange(length // 2) / length
            self._dif_stages.append((length, LiftingRotationArray(angles, twiddle_bits)))
            length //= 2

        self._dit_stages: List[Tuple[int, LiftingRotationArray]] = []
        length = 2
        while length <= self._half:
            angles = -2.0 * np.pi * np.arange(length // 2) / length
            self._dit_stages.append((length, LiftingRotationArray(angles, twiddle_bits)))
            length *= 2

    # ------------------------------------------------------------------ #
    # conversions                                                         #
    # ------------------------------------------------------------------ #
    def _choose_scale(self, coeffs: np.ndarray) -> "int | np.ndarray":
        """Per-polynomial fixed-point scale (an int64 array for stacked input)."""
        peak = np.maximum(np.max(np.abs(coeffs), axis=-1), 1.0)
        msb = np.ceil(np.log2(peak + 1.0)).astype(np.int64)
        scale = np.maximum(np.int64(0), np.int64(self.target_msb) - msb)
        return int(scale) if scale.ndim == 0 else scale

    def forward(self, coeffs: np.ndarray) -> IntegerSpectrum:
        """Coefficients → Lagrange domain (the paper's IFFT kernel)."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        self.stats.forward_polys += coeffs.size // self.degree
        half = self._half
        batch = coeffs.shape[:-1]
        scale_bits = self._choose_scale(coeffs)
        # Multiplication by an exact power of two — exact in float64, so the
        # per-polynomial scales keep batched results bit-identical to looping.
        scaled = coeffs * np.exp2(np.asarray(scale_bits, dtype=np.float64))[..., None]

        re = scaled[..., :half].copy()
        im = scaled[..., half:].copy()
        re, im = self._twist.forward(re, im)

        for length, rotation in self._dif_stages:
            re = re.reshape(batch + (half // length, length))
            im = im.reshape(batch + (half // length, length))
            half_length = length // 2
            top_re, bot_re = re[..., :half_length], re[..., half_length:]
            top_im, bot_im = im[..., :half_length], im[..., half_length:]
            sum_re, sum_im = top_re + bot_re, top_im + bot_im
            diff_re, diff_im = top_re - bot_re, top_im - bot_im
            rot_re, rot_im = rotation.forward(diff_re, diff_im)
            re = np.concatenate([sum_re, rot_re], axis=-1).reshape(batch + (half,))
            im = np.concatenate([sum_im, rot_im], axis=-1).reshape(batch + (half,))

        return IntegerSpectrum(values=re + 1j * im, scale_bits=scale_bits)

    def backward(self, spectrum: IntegerSpectrum) -> np.ndarray:
        """Lagrange domain → int64 coefficients (the paper's FFT kernel)."""
        half = self._half
        values = np.asarray(spectrum.values, dtype=np.complex128)
        if values.shape[-1] != half:
            raise ValueError("spectrum length mismatch")
        self.stats.backward_polys += values.size // half
        batch = values.shape[:-1]
        re = values.real.copy()
        im = values.imag.copy()

        for length, rotation in self._dit_stages:
            re = re.reshape(batch + (half // length, length))
            im = im.reshape(batch + (half // length, length))
            half_length = length // 2
            top_re, bot_re = re[..., :half_length], re[..., half_length:]
            top_im, bot_im = im[..., :half_length], im[..., half_length:]
            rot_re, rot_im = rotation.forward(bot_re, bot_im)
            # Halve each stage output: log2(half) halvings realise the 1/(N/2)
            # normalisation of the inverse transform.
            new_top_re = np.round((top_re + rot_re) * 0.5)
            new_top_im = np.round((top_im + rot_im) * 0.5)
            new_bot_re = np.round((top_re - rot_re) * 0.5)
            new_bot_im = np.round((top_im - rot_im) * 0.5)
            re = np.concatenate([new_top_re, new_bot_re], axis=-1).reshape(batch + (half,))
            im = np.concatenate([new_top_im, new_bot_im], axis=-1).reshape(batch + (half,))

        re, im = self._twist.inverse(re, im)

        descale = np.exp2(np.asarray(spectrum.scale_bits, dtype=np.float64))[..., None]
        coeffs = np.empty(batch + (self.degree,), dtype=np.float64)
        coeffs[..., :half] = re
        coeffs[..., half:] = im
        return np.round(coeffs / descale).astype(np.int64)

    # ------------------------------------------------------------------ #
    # spectrum algebra                                                    #
    # ------------------------------------------------------------------ #
    def spectrum_add(self, a: IntegerSpectrum, b: IntegerSpectrum) -> IntegerSpectrum:
        if a.values.ndim == 1 and b.values.ndim == 1:
            # The all-zero spectrum is the exact additive identity regardless
            # of scale.
            if not np.any(a.values):
                return b.copy()
            if not np.any(b.values):
                return a.copy()
            if a.scale_bits == b.scale_bits:
                return IntegerSpectrum(a.values + b.values, a.scale_bits)
            target = min(a.scale_bits, b.scale_bits)
            a_vals = np.round(a.values / float(1 << (a.scale_bits - target)))
            b_vals = np.round(b.values / float(1 << (b.scale_bits - target)))
            return IntegerSpectrum(a_vals + b_vals, target)
        return self._spectrum_add_batched(a, b)

    def _spectrum_add_batched(self, a: IntegerSpectrum, b: IntegerSpectrum) -> IntegerSpectrum:
        """Stacked addition replicating the scalar semantics per batch element.

        A zero element must not drag the common scale down (the scalar path
        returns the other operand untouched), so zero elements take the other
        operand's scale when the per-element target scale is computed.
        """
        half = self._half
        shape = np.broadcast_shapes(a.values.shape, b.values.shape)
        batch = shape[:-1]
        a_vals = np.broadcast_to(a.values, shape)
        b_vals = np.broadcast_to(b.values, shape)
        a_scale = np.broadcast_to(np.asarray(a.scale_bits, dtype=np.int64), batch)
        b_scale = np.broadcast_to(np.asarray(b.scale_bits, dtype=np.int64), batch)

        zero_a = ~np.any(a_vals, axis=-1)
        zero_b = ~np.any(b_vals, axis=-1)
        eff_a = np.where(zero_a, b_scale, a_scale)
        eff_b = np.where(zero_b, a_scale, b_scale)
        target = np.minimum(eff_a, eff_b)
        # Division by an exact power of two; zero rows divide to zero, so a
        # negative exponent for an all-zero row is harmless.
        a_out = np.round(a_vals / np.exp2((a_scale - target).astype(np.float64))[..., None])
        b_out = np.round(b_vals / np.exp2((b_scale - target).astype(np.float64))[..., None])
        scale = np.where(zero_a & zero_b, b_scale, target)
        return IntegerSpectrum(a_out + b_out, scale)

    def spectrum_mul(self, a: IntegerSpectrum, b: IntegerSpectrum) -> IntegerSpectrum:
        product = a.values * b.values
        if a.values.ndim == 1 and b.values.ndim == 1:
            combined = a.scale_bits + b.scale_bits
            if combined:
                product = product / float(1 << combined)
            return IntegerSpectrum(np.round(product.real) + 1j * np.round(product.imag), 0)
        combined = np.asarray(a.scale_bits, dtype=np.int64) + np.asarray(
            b.scale_bits, dtype=np.int64
        )
        product = product / np.exp2(combined.astype(np.float64))[..., None]
        values = np.round(product.real) + 1j * np.round(product.imag)
        return IntegerSpectrum(values, np.zeros(values.shape[:-1], dtype=np.int64))

    def engine_options(self):
        return {"twiddle_bits": self.twiddle_bits, "target_msb": self.target_msb}

    # -- stacked-spectrum helpers ------------------------------------------
    def spectrum_expand(self, spectrum: IntegerSpectrum, axis: int) -> IntegerSpectrum:
        values = np.expand_dims(spectrum.values, axis)
        scale = spectrum.scale_bits
        if isinstance(scale, np.ndarray):
            # The scale array tracks the batch axes only (no spectral axis),
            # so a negative axis shifts by one.
            scale = np.expand_dims(scale, axis + 1 if axis < 0 else axis)
        return IntegerSpectrum(values, scale)

    def spectrum_contract(
        self, stack: IntegerSpectrum, operand: IntegerSpectrum
    ) -> IntegerSpectrum:
        """Fused contraction: one stacked product + one reduction.

        Every per-row product is normalised to scale 0 with the exact
        rounding of :meth:`spectrum_mul` (division by an exact power of two,
        then round-to-nearest per component), so the accumulator holds exact
        integers in ``complex128`` and the reduction order cannot change a
        single bit — matching the historical equal-scale ``spectrum_add``
        fold of the external product.
        """
        s_vals = stack.values
        o_vals = operand.values
        if s_vals.shape[0] == 0:
            raise ValueError("cannot contract an empty digit stack")
        s_scale = np.asarray(stack.scale_bits, dtype=np.int64)
        o_scale = np.asarray(operand.scale_bits, dtype=np.int64)
        # A scalar scale applies to every stacked element uniformly.
        if s_scale.ndim == 0:
            s_scale = np.broadcast_to(s_scale, s_vals.shape[:1])
        if o_scale.ndim == 0:
            o_scale = np.broadcast_to(o_scale, o_vals.shape[:1])
        from repro.tfhe.transform import _align_contraction_axes

        expanded, o_vals = _align_contraction_axes(s_vals[..., None, :], o_vals)
        exp_scale, o_scale = _align_contraction_axes(s_scale[..., None], o_scale)
        combined = exp_scale + o_scale  # (rows, ..., k+1)
        products = (expanded * o_vals) / np.exp2(
            combined.astype(np.float64)
        )[..., None]
        values = np.round(products.real) + 1j * np.round(products.imag)
        acc = np.add.reduce(values, axis=0)
        return IntegerSpectrum(acc, np.zeros(acc.shape[:-1], dtype=np.int64))
