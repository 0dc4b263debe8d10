"""Optional GPU engine on CuPy arrays (registry kind ``"cupy"``).

:class:`CupyNegacyclicTransform` runs the negacyclic transform trio — fold +
twist + IFFT forward, spectral algebra, FFT + untwist + round backward — on
the GPU via CuPy, with **pinned-host staging** for uploads and **device-side
gadget decomposition** so a fused external product touches the PCIe bus
exactly twice (ciphertext up, result down) instead of once per kernel.

Error model: ``fft64-device``.  The arithmetic is the same double-precision
model as the ``"double"``/``"compiled"`` CPU engines (exact integer folds,
float64 twist products, round-half-even), but cuFFT's butterfly ordering
rounds differently in the last bit, so raw ciphertext bits may differ from
the CPU engines while decrypted results agree — the cross-engine suite
checks decrypted-result equality for this engine instead of bit-identity.
The integer stages (gadget decomposition, negacyclic rotation, the mod-2^32
wraps) are exact on both sides and produce identical digits.

The module imports without CuPy; :func:`cupy_unavailable_reason` is the
availability probe the engine registry surfaces through
``available_engines()`` ("cupy: not installed", "cupy: no CUDA device", ...),
and constructing the engine on such a machine raises that same reason.

Spectra are CuPy ``complex128`` arrays living on the device.  They are *not*
plain NumPy ndarrays, so the :class:`repro.runtime.workers.WorkerPool`
shared-memory spectrum cache automatically declines to share them and each
worker rebuilds its device tensors from the cloud-key bytes — the same
rebuild path the BKU rotator uses.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.tfhe.transform import NegacyclicTransform, Spectrum
from repro.tfhe.torus import torus32_from_int64


def cupy_unavailable_reason() -> Optional[str]:
    """``None`` when CuPy and a CUDA device are usable here, else why not."""
    try:
        import cupy  # type: ignore
    except Exception:
        return "cupy: not installed"
    try:
        count = cupy.cuda.runtime.getDeviceCount()
    except Exception as exc:
        return f"cupy: CUDA runtime unavailable ({type(exc).__name__})"
    if count < 1:
        return "cupy: no CUDA device"
    return None


class CupyNegacyclicTransform(NegacyclicTransform):
    """Double-precision negacyclic transform engine on CuPy device arrays.

    ``block_rows`` bounds how many batch rows of a fused external product are
    resident on the device at once (0 = unbounded); ``pinned_staging``
    toggles the page-locked host staging buffers used for uploads.
    """

    engine_kind = "cupy"

    def __init__(
        self, degree: int, block_rows: int = 0, pinned_staging: bool = True
    ) -> None:
        reason = cupy_unavailable_reason()
        if reason is not None:
            raise RuntimeError(f"cupy engine unavailable: {reason}")
        import cupy as cp  # type: ignore

        super().__init__(degree)
        if block_rows < 0:
            raise ValueError("block_rows must be >= 0")
        self._cp = cp
        self.block_rows = int(block_rows)
        self.pinned_staging = bool(pinned_staging)
        self._pinned: Dict[tuple, np.ndarray] = {}
        half = degree // 2
        self._half = half
        s = cp.arange(half)
        twist = cp.exp(1j * cp.pi * s / degree)
        untwist = cp.exp(-1j * cp.pi * s / degree)
        # Same normalisation folding as the CPU engines: half is a power of
        # two, so scaling the twist tables is an exact exponent shift.
        self._twist_scaled = twist * half
        self._untwist_normalised = untwist / half

    # -- registry identity -------------------------------------------------
    def engine_options(self) -> Dict[str, Any]:
        options: Dict[str, Any] = {}
        if self.block_rows:
            options["block_rows"] = self.block_rows
        if not self.pinned_staging:
            options["pinned_staging"] = False
        return options

    # -- staging -----------------------------------------------------------
    def _to_device(self, arr):
        """Host → device through a reusable pinned staging buffer.

        Page-locked staging lets the copy engine DMA directly instead of
        bouncing through a driver-allocated bounce buffer; buffers are cached
        per (shape, dtype) because bootstrapping re-uploads the same shapes
        every call.  Any pinned-allocation failure permanently degrades to
        pageable copies.
        """
        cp = self._cp
        if isinstance(arr, cp.ndarray):
            return arr
        arr = np.ascontiguousarray(arr)
        if self.pinned_staging:
            try:
                import cupyx  # type: ignore

                key = (arr.shape, arr.dtype.str)
                staging = self._pinned.get(key)
                if staging is None:
                    staging = cupyx.empty_pinned(arr.shape, arr.dtype)
                    self._pinned[key] = staging
                np.copyto(staging, arr)
                return cp.asarray(staging)
            except Exception:
                self.pinned_staging = False
        return cp.asarray(arr)

    # -- conversions --------------------------------------------------------
    def forward(self, coeffs) -> Spectrum:
        self.stats.forward_calls += 1
        cp = self._cp
        dev = self._to_device(coeffs)
        if dev.shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        half = self._half
        folded = cp.empty(dev.shape[:-1] + (half,), dtype=cp.complex128)
        folded.real = dev[..., :half]
        folded.imag = dev[..., half:]
        folded *= self._twist_scaled
        return cp.fft.ifft(folded, axis=-1)

    def backward(self, spectrum: Spectrum) -> np.ndarray:
        self.stats.backward_calls += 1
        cp = self._cp
        spectrum = cp.asarray(spectrum, dtype=cp.complex128)
        folded = cp.fft.fft(spectrum, axis=-1)
        folded *= self._untwist_normalised
        cp.rint(folded, out=folded)
        half = self._half
        coeffs = cp.empty(spectrum.shape[:-1] + (self.degree,), dtype=cp.int64)
        coeffs[..., :half] = folded.real
        coeffs[..., half:] = folded.imag
        return coeffs.get()

    # -- spectrum algebra ----------------------------------------------------
    def spectrum_zero(self) -> Spectrum:
        return self._cp.zeros(self._half, dtype=self._cp.complex128)

    def spectrum_add(self, a: Spectrum, b: Spectrum) -> Spectrum:
        self.stats.pointwise_ops += 1
        return a + b

    def spectrum_mul(self, a: Spectrum, b: Spectrum) -> Spectrum:
        self.stats.pointwise_ops += 1
        return a * b

    def spectrum_copy(self, a: Spectrum) -> Spectrum:
        return self._cp.array(a, copy=True)

    def spectrum_shape(self, spectrum: Spectrum) -> tuple:
        return spectrum.shape

    def spectrum_expand(self, spectrum: Spectrum, axis: int) -> Spectrum:
        return self._cp.expand_dims(spectrum, axis)

    def spectrum_take_col(self, spectrum: Spectrum, col: int) -> Spectrum:
        return spectrum[..., col, :]

    def spectrum_stack(self, spectra: Sequence[Spectrum]) -> Spectrum:
        return self._cp.stack([self._cp.asarray(s) for s in spectra])

    def spectrum_sum(self, spectrum: Spectrum) -> Spectrum:
        self.stats.pointwise_ops += 1
        return self._cp.sum(spectrum, axis=0)

    def spectrum_contract(self, stack: Spectrum, operand: Spectrum) -> Spectrum:
        """One broadcast product + one device reduction (two pointwise ops).

        The ``fft64-device`` error model does not promise an accumulation
        order, so the reduction uses the device's tree sum.
        """
        self.stats.pointwise_ops += 2
        cp = self._cp
        if stack.shape[0] == 0:
            raise ValueError("cannot contract an empty digit stack")
        expanded = stack[..., None, :]
        target = max(expanded.ndim, operand.ndim)
        if expanded.ndim < target:
            expanded = expanded.reshape(
                expanded.shape[:1] + (1,) * (target - expanded.ndim) + expanded.shape[1:]
            )
        if operand.ndim < target:
            operand = operand.reshape(
                operand.shape[:1] + (1,) * (target - operand.ndim) + operand.shape[1:]
            )
        return cp.sum(expanded * operand, axis=0)

    # -- device-side fused external product ----------------------------------
    def _decompose_rows_device(self, shifted, length: int, base_bits: int):
        """Digit planes of an offset-added uint32 tensor, on the device.

        Mirrors :func:`repro.tfhe.tgsw._extract_digit_planes` (same shifts,
        mask and ``− Bg/2`` wrap, exact integer arithmetic → identical
        digits): ``shifted`` is ``(..., k+1, N)`` uint32, the result the
        ``((k+1)·l, ..., N)`` int32 digit stack in gadget row order.
        """
        cp = self._cp
        blocks = shifted.shape[-2]
        degree = shifted.shape[-1]
        batch = shifted.shape[:-2]
        mask = cp.uint32((1 << base_bits) - 1)
        half_base = cp.uint32(1 << (base_bits - 1))
        shifts = cp.asarray(
            [32 - (j + 1) * base_bits for j in range(length)], dtype=cp.uint32
        ).reshape((length,) + (1,) * shifted.ndim)
        scratch = (shifted >> shifts) & mask
        scratch -= half_base
        planes = scratch.view(cp.int32)
        ndim = planes.ndim
        planes = planes.transpose((ndim - 2, 0, *range(1, ndim - 2), ndim - 1))
        digits = cp.ascontiguousarray(planes).reshape(
            (blocks * length,) + batch + (degree,)
        )
        return digits

    def _rotated_difference_device(self, unsigned, power: int):
        """``(X^power − 1)·data`` on uint32 device data (exact mod-2^32)."""
        cp = self._cp
        degree = unsigned.shape[-1]
        power = int(power) % (2 * degree)
        shift = power % degree
        rotated = cp.empty_like(unsigned)
        if shift:
            rotated[..., :shift] = unsigned[..., degree - shift :]
            cp.negative(rotated[..., :shift], out=rotated[..., :shift])
            rotated[..., shift:] = unsigned[..., : degree - shift]
        else:
            rotated[...] = unsigned
        if power >= degree:
            cp.negative(rotated, out=rotated)
        rotated -= unsigned
        return rotated

    def device_external_product(
        self, tensor: Spectrum, data: np.ndarray, params, reduce: bool = True
    ) -> np.ndarray:
        """Fused TGSW ⊡ TLWE entirely on the device (one upload, one download).

        ``data`` is the host ``(..., k+1, N)`` int32 TLWE array; the gadget
        decomposition, the stacked forward, the contraction against the
        resident key ``tensor`` and the backward all run device-side.
        Honours ``block_rows`` by chunking leading batch rows.
        """
        if (
            self.block_rows
            and data.ndim > 2
            and data.shape[0] > self.block_rows
        ):
            chunks = [
                self.device_external_product(
                    tensor, data[start : start + self.block_rows], params, reduce
                )
                for start in range(0, data.shape[0], self.block_rows)
            ]
            return np.concatenate(chunks, axis=0)
        cp = self._cp
        dev = self._to_device(np.ascontiguousarray(data)).view(cp.uint32)
        offset = cp.uint32(_decomposition_offset(params))
        digits = self._decompose_rows_device(
            dev + offset, params.decomp_length, params.decomp_base_bits
        )
        coeffs = self._backward_contract(digits, tensor)
        return torus32_from_int64(coeffs) if reduce else coeffs

    def device_cmux_rotate(
        self, tensor: Spectrum, data: np.ndarray, power: int, params
    ) -> np.ndarray:
        """Raw int64 product ``TGSW ⊡ ((X^power − 1)·ACC)``, device-side.

        The caller (:func:`repro.tfhe.tgsw._cmux_rotate_step`, for one-row
        steps) adds the accumulator back and wraps mod 2^32, exactly like the
        CPU path.
        """
        cp = self._cp
        dev = self._to_device(np.ascontiguousarray(data)).view(cp.uint32)
        offset = cp.uint32(_decomposition_offset(params))
        shifted = self._rotated_difference_device(dev, power)
        shifted += offset
        digits = self._decompose_rows_device(
            shifted, params.decomp_length, params.decomp_base_bits
        )
        return self._backward_contract(digits, tensor)

    def _backward_contract(self, digits, tensor) -> np.ndarray:
        """forward → contract → backward on resident device operands."""
        self.stats.forward_calls += 1
        cp = self._cp
        half = self._half
        folded = cp.empty(digits.shape[:-1] + (half,), dtype=cp.complex128)
        folded.real = digits[..., :half]
        folded.imag = digits[..., half:]
        folded *= self._twist_scaled
        spectra = cp.fft.ifft(folded, axis=-1)
        acc = self.spectrum_contract(spectra, tensor)
        return self.backward(acc)


def _decomposition_offset(params) -> int:
    from repro.tfhe.tgsw import decomposition_offset

    return int(decomposition_offset(params))
