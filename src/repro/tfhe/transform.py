"""Negacyclic polynomial-multiplication engines (the FFT/IFFT substrate).

TFHE stores a polynomial mod ``X^N + 1`` either as a list of ``N``
coefficients or in the *Lagrange half-complex* representation: the complex
evaluations of the polynomial at ``N/2`` odd roots of unity (Section 3 of the
paper).  Converting between the two representations is exactly the FFT/IFFT
work that dominates a bootstrapping, so the multiplication engine is a
pluggable interface:

* :class:`NaiveNegacyclicTransform` — exact schoolbook products (ground truth,
  fast for the tiny test rings);
* :class:`DoubleFFTNegacyclicTransform` — double-precision floating point FFT,
  the approach of the reference TFHE library and of the paper's CPU/GPU/FPGA
  baselines;
* :class:`repro.core.integer_fft.ApproximateNegacyclicTransform` — MATCHA's
  approximate multiplication-less integer FFT (the paper's contribution).

Naming note: following the TFHE library (and the paper's Figure 1), the
*forward* direction (coefficients → Lagrange) is the "IFFT" kernel and the
*backward* direction (Lagrange → coefficients) is the "FFT" kernel.

Batch semantics and counting
----------------------------

Every engine is *batch-vectorised*: ``forward``/``backward`` and the
``spectrum_*`` algebra accept stacks of polynomials/spectra of shape
``(..., N)`` / ``(..., N/2)`` and transform them along the **last axis** in a
single vectorised call (one ``np.fft`` invocation for the double-precision
engine).  Leading batch axes of two spectrum operands broadcast against each
other, so a batched accumulator can be combined with a single pre-transformed
bootstrapping-key spectrum.  Batched results are bit-identical to looping the
corresponding single-polynomial calls — the batch axis only amortises the
Python/NumPy dispatch overhead, it never changes the arithmetic.

:class:`TransformStats` counts *polynomials*, the unit of the paper's
Figure 1 and of :func:`repro.arch.gate_compiler.gate_workloads`: every engine
adds the number of polynomials it forward- or backward-transforms, batch
axes included, and nothing else moves the counters.  One external product of
a ``B``-row batch is ``B·(k+1)·l`` forwards and ``B·(k+1)`` backwards.

The fused external-product core lives here too: ``spectrum_contract``
contracts a stacked digit spectrum against a packed ``(rows, ..., k+1, N/2)``
TGSW tensor and ``contract_accumulate`` wraps one stacked forward, the
contraction and one stacked backward —
:func:`repro.tfhe.tgsw.tgsw_batch_external_product` and the blind-rotation
step :func:`repro.tfhe.tgsw.tgsw_batch_cmux_rotate` route through it.  The base
class composes the engine's own three methods; the double-precision engine
runs the same operations through buffers of the caller's
:class:`repro.tfhe.tgsw.BootstrapWorkspace`, so a blind-rotation step
allocates only its result.  A caller that contracts one stack shape many
times (the ``n`` steps of a blind rotation) asks the engine once for a *bound
contraction* (:meth:`NegacyclicTransform.bind_contraction`) and calls that:
the base binder closes over ``contract_accumulate`` — every engine and proxy
that overrides it keeps seeing each call — and the double-precision engine
returns its fused core as a closure over the workspace views, resolved once
(its polynomial counts too).
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.tfhe.polynomial import negacyclic_convolution_int64
from repro.tfhe.torus import torus32_from_int64

def _probe_pocketfft_gufuncs():  # pragma: no cover - depends on the numpy build
    """The pocketfft gufuncs, or ``None`` when they are absent or misbehave.

    NumPy ≥ 2.0 exposes the pocketfft kernels as gufuncs; calling them
    directly skips ~3 µs of python wrapper per transform, which is most of a
    transform's cost at the reduced test ring sizes.  ``np.fft.fft/ifft``
    call exactly these gufuncs with the same normalisation factors, so the
    results are bit-identical.  The module is *private* NumPy API, so the
    fast path is accepted only after a one-time self-test against the public
    wrappers — any import error, signature change or value mismatch falls
    back to ``np.fft`` instead of crashing the first bootstrap.
    """
    try:
        from numpy.fft import _pocketfft_umath as gufuncs

        probe = np.exp(1j * np.arange(8.0)).reshape(2, 4)
        out = np.empty(probe.shape, dtype=np.complex128)
        gufuncs.fft(probe, 1.0, out=out)
        if not np.array_equal(out, np.fft.fft(probe, axis=-1)):
            return None
        gufuncs.ifft(probe, 1.0 / probe.shape[-1], out=out)
        if not np.array_equal(out, np.fft.ifft(probe, axis=-1)):
            return None
        return gufuncs
    except Exception:
        return None


_pocketfft_gufuncs = _probe_pocketfft_gufuncs()

Spectrum = Any


def _pad_batch_axes(array: np.ndarray, ndim: int) -> np.ndarray:
    """``array`` with length-1 axes inserted after its leading row axis up to
    ``ndim`` dimensions (a view; unchanged when it already has that many)."""
    if array.ndim >= ndim:
        return array
    return array.reshape(array.shape[:1] + (1,) * (ndim - array.ndim) + array.shape[1:])


def _align_contraction_axes(
    expanded: np.ndarray, operand: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-pad batch axes so a contraction's operands broadcast.

    Both arrays lead with the shared row axis and trail with aligned
    ``(columns, spectral)`` axes; any batch axes sit in between.  When one
    side carries fewer batch axes (e.g. a batched digit stack against an
    unbatched key tensor), length-1 axes are inserted right after the row
    axis so right-aligned broadcasting pairs batch with batch and columns
    with columns.
    """
    target = max(expanded.ndim, operand.ndim)
    return _pad_batch_axes(expanded, target), _pad_batch_axes(operand, target)


def _transform_layout(shape: tuple) -> list:
    """Scratch of the double-precision fused core for a ``(rows, ..., N)``
    digit stack against ``cols`` output columns (``shape`` is the stack's
    shape plus ``(cols,)``)."""
    *lead, degree, cols = shape
    rows, batch, half = lead[0], tuple(lead[1:]), degree // 2
    return [
        ((rows,) + batch + (half,), np.complex128),  # folded, twisted digits
        ((rows,) + batch + (half,), np.complex128),  # their spectra
        ((rows,) + batch + (cols, half), np.complex128),  # row products
        (batch + (cols, half), np.complex128),  # spectral accumulator
        (batch + (cols, half), np.complex128),  # its FFT, untwisted in place
        (batch + (cols, degree), np.int64),  # rounded coefficients
    ]


def _into(out: Optional[np.ndarray], values: np.ndarray) -> np.ndarray:
    """``values``, copied into ``out`` when one is given."""
    if out is None:
        return values
    out[...] = values
    return out


@dataclass
class TransformStats:
    """Polynomials an engine has transformed, per direction (Fig. 1's unit)."""

    forward_polys: int = 0
    backward_polys: int = 0

    def reset(self) -> None:
        """Zero all counters (start of a measurement window)."""
        self.forward_polys = 0
        self.backward_polys = 0

    def snapshot(self) -> "TransformStats":
        """An independent copy of the current counter values."""
        return TransformStats(self.forward_polys, self.backward_polys)


@dataclass(frozen=True)
class TransformSpec:
    """A serializable description of a transform engine: kind + constructor options.

    Cloud keys record the spec of the engine they were generated for, so a
    deserialized key can rebuild an equivalent engine through the registry
    (:func:`make_transform`) without shipping the engine object itself.
    ``kwargs`` is a sorted tuple of ``(name, value)`` pairs so specs are
    hashable and comparable.
    """

    kind: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_options(cls, kind: str, **kwargs: Any) -> "TransformSpec":
        return cls(kind=kind, kwargs=tuple(sorted(kwargs.items())))

    def options(self) -> Dict[str, Any]:
        """The constructor keyword arguments as a plain dict."""
        return dict(self.kwargs)

    def create(self, degree: int) -> "NegacyclicTransform":
        """Instantiate the described engine through the registry."""
        return make_transform(self.kind, degree, **self.options())

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "kwargs": self.options()}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "TransformSpec":
        if not isinstance(payload["kind"], str):
            raise TypeError(f"transform kind must be a string, got {payload['kind']!r}")
        return cls.from_options(payload["kind"], **payload.get("kwargs", {}))


class NegacyclicTransform(abc.ABC):
    """Common interface of every polynomial-multiplication engine.

    A *spectrum* is an opaque per-engine representation of a polynomial in
    which addition and multiplication are cheap (pointwise for the FFT-based
    engines, plain coefficients for the naive engine).
    """

    #: Registry kind this engine class is constructed under (``None`` for
    #: ad-hoc engines such as test proxies, which cannot be serialized).
    engine_kind: ClassVar[Optional[str]] = None

    def __init__(self, degree: int) -> None:
        if degree <= 0 or degree & (degree - 1):
            raise ValueError("ring degree must be a power of two")
        self.degree = degree
        self.stats = TransformStats()

    # -- registry identity -------------------------------------------------
    def engine_options(self) -> Dict[str, Any]:
        """The constructor options needed to rebuild an equivalent engine."""
        return {}

    def spec(self) -> Optional[TransformSpec]:
        """A :class:`TransformSpec` for this engine, or ``None`` if unregistered."""
        if self.engine_kind is None:
            return None
        return TransformSpec.from_options(self.engine_kind, **self.engine_options())

    # -- conversions ------------------------------------------------------
    @abc.abstractmethod
    def forward(self, coeffs: np.ndarray) -> Spectrum:
        """Coefficients → Lagrange representation (the paper's IFFT kernel)."""

    @abc.abstractmethod
    def backward(self, spectrum: Spectrum) -> np.ndarray:
        """Lagrange representation → int64 coefficients (the paper's FFT kernel)."""

    # -- spectrum algebra --------------------------------------------------
    @abc.abstractmethod
    def spectrum_add(self, a: Spectrum, b: Spectrum) -> Spectrum:
        """Pointwise addition of two spectra."""

    @abc.abstractmethod
    def spectrum_mul(self, a: Spectrum, b: Spectrum) -> Spectrum:
        """Pointwise multiplication of two spectra (ring product)."""

    # -- stacked-spectrum helpers ------------------------------------------
    def spectrum_expand(self, spectrum: Spectrum, axis: int) -> Spectrum:
        """Insert a length-1 axis into a stacked spectrum at ``axis``.

        ``axis`` is given with respect to the underlying value array (the
        spectral axis is last and cannot be expanded past, so ``axis == -1``
        is invalid).  Engines whose spectra carry per-element side state
        (e.g. fixed-point scales) override this so the side state keeps its
        batch shape aligned.
        """
        return np.expand_dims(np.asarray(spectrum), axis)

    @abc.abstractmethod
    def spectrum_contract(self, stack: Spectrum, operand: Spectrum) -> Spectrum:
        """Contract a digit stack against a packed spectral tensor over rows.

        ``stack`` is a stacked spectrum of shape ``(rows, ..., N/2)`` (the
        forward-transformed gadget digits, optional batch axes in the middle)
        and ``operand`` a packed tensor of shape ``(rows, ..., k+1, N/2)``
        (a :class:`repro.tfhe.tgsw.TransformedTgswSample`, whose optional
        batch axes broadcast against the stack's).  The result is the
        spectral accumulator of the external product::

            result[..., c, :] = sum_r stack[r, ..., :] * operand[r, ..., c, :]

        The row accumulation is **sequential** (a left fold in row order), so
        floating-point engines stay bit-identical to a per-row
        ``spectrum_add``/``spectrum_mul`` loop.
        """

    # -- convenience -------------------------------------------------------
    def multiply(self, int_poly: np.ndarray, torus_poly: np.ndarray) -> np.ndarray:
        """Negacyclic product reduced onto the 32-bit torus."""
        product = self.spectrum_mul(self.forward(int_poly), self.forward(torus_poly))
        return torus32_from_int64(self.backward(product))

    def contract_accumulate(
        self,
        int_stack: np.ndarray,
        tensor: Spectrum,
        addend: Optional[np.ndarray] = None,
        workspace=None,
    ) -> np.ndarray:
        """The fused external-product core: one forward, one contraction, one backward.

        ``int_stack`` is a stack of small integer polynomials of shape
        ``(rows, ..., N)`` (the gadget digits) and ``tensor`` a packed
        spectral tensor of shape ``(rows, ..., k+1, N/2)``.  The whole stack
        goes through **one** ``forward``, one :meth:`spectrum_contract` and
        **one** ``backward``; the result is the ``(..., k+1, N)`` torus
        coefficient array of every output column at once.
        :func:`repro.tfhe.tgsw.tgsw_batch_external_product` routes through
        this single implementation.

        ``addend`` is an int32 torus array of the result's shape (the CMux
        add-back ``ACC``) added to the product before its single reduction
        mod ``2^32`` — wrapping commutes with integer addition, so the result
        is bit-identical to reducing first and adding after.

        ``workspace`` (a :class:`repro.tfhe.tgsw.BootstrapWorkspace`) offers
        scratch memory to engines that stage their intermediates through it;
        this generic composition of the engine's own ``forward`` /
        ``spectrum_contract`` / ``backward`` ignores it.  Either way the
        result is a fresh array that never aliases the workspace.
        """
        dec_spectra = self.forward(np.asarray(int_stack))
        acc = self.spectrum_contract(dec_spectra, tensor)
        coeffs = self.backward(acc)
        if addend is not None:
            coeffs += addend
        return torus32_from_int64(coeffs)

    def bind_contraction(
        self, stack_shape: tuple, cols: int, workspace=None
    ) -> Callable[..., np.ndarray]:
        """:meth:`contract_accumulate` bound to one stack shape and workspace.

        Returns ``contract(int_stack, tensor, addend=None)`` for digit stacks
        of ``stack_shape`` against tensors of ``cols`` output columns, which a
        caller that runs many such contractions (every step of a blind
        rotation) fetches once and calls per step.  It speaks *torus words*:
        ``addend`` and the fresh result are the uint32 views of the int32
        arrays ``contract_accumulate`` takes and returns.

        This base binder closes over ``self.contract_accumulate``, so an
        engine or proxy that overrides that method intercepts every bound
        call unchanged; an engine overrides the binder itself to resolve
        per-shape state (workspace views, tables) once instead of per call.
        """

        def contract(int_stack, tensor, addend=None):
            if addend is not None:
                addend = addend.view(np.int32)
            result = self.contract_accumulate(
                int_stack, tensor, addend=addend, workspace=workspace
            )
            return result.view(np.uint32)

        return contract

    def reset_stats(self) -> None:
        """Reset the engine's polynomial counters."""
        self.stats.reset()


class NaiveNegacyclicTransform(NegacyclicTransform):
    """Exact engine: the "spectrum" is the coefficient vector itself.

    Spectrum multiplication is the exact negacyclic convolution, so this
    engine introduces no error at all.  It is quadratic in ``N`` and is only
    practical for the reduced test rings, where it serves as the ground truth
    for both FFT engines.
    """

    engine_kind = "naive"

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        self.stats.forward_polys += coeffs.size // self.degree
        return coeffs.copy()

    def backward(self, spectrum: np.ndarray) -> np.ndarray:
        coeffs = np.array(spectrum, dtype=np.int64)
        self.stats.backward_polys += coeffs.size // self.degree
        return coeffs

    def spectrum_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def spectrum_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return negacyclic_convolution_int64(a, b)

    def spectrum_contract(self, stack: np.ndarray, operand: np.ndarray) -> np.ndarray:
        """Fused contraction: one stacked product + one reduction.

        Exact integer arithmetic, so the accumulation order is immaterial:
        one broadcast negacyclic product over all rows, then one reduction
        along the row axis.
        """
        stack = np.asarray(stack, dtype=np.int64)
        operand = np.asarray(operand, dtype=np.int64)
        if stack.shape[0] == 0:
            raise ValueError("cannot contract an empty digit stack")
        expanded, operand = _align_contraction_axes(stack[..., None, :], operand)
        products = negacyclic_convolution_int64(expanded, operand)
        return np.add.reduce(products, axis=0)


class DoubleFFTNegacyclicTransform(NegacyclicTransform):
    """Double-precision floating-point FFT engine (the TFHE-library baseline).

    A real polynomial of degree ``N`` is folded into ``N/2`` complex samples
    ``q_s = p_s + i p_{s + N/2}``, twisted by ``exp(i pi s / N)`` and run
    through an ``N/2``-point complex transform; the result holds the
    evaluations of the polynomial at the odd roots of unity
    ``exp(i pi (4u + 1) / N)``.  Pointwise products of these evaluations
    correspond exactly to negacyclic polynomial products.
    """

    engine_kind = "double"

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        half = degree // 2
        self._half = half
        s = np.arange(half)
        self._twist = np.exp(1j * np.pi * s / degree)
        self._untwist = np.exp(-1j * np.pi * s / degree)
        # half is a power of two, so a transform normalisation is an exact
        # exponent shift that commutes with every rounding of the FFT: the
        # backward one is folded into the untwist table, and the forward one
        # (the inverse-sign DFT of `forward` is unnormalised) is never applied
        # — both bit-identical to normalising in a separate pass.
        self._untwist_normalised = self._untwist / half

    def _fft(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Unnormalised complex FFT along the last axis (bit-identical to np.fft.fft)."""
        if _pocketfft_gufuncs is None:
            return _into(out, np.fft.fft(values, axis=-1))
        if out is None:
            out = np.empty(values.shape, dtype=np.complex128)
        _pocketfft_gufuncs.fft(values, 1.0, out=out)
        return out

    def _ifft(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Unnormalised inverse-sign FFT along the last axis (bit-identical to
        ``np.fft.ifft(..., norm="forward")``)."""
        if _pocketfft_gufuncs is None:
            return _into(out, np.fft.ifft(values, axis=-1, norm="forward"))
        if out is None:
            out = np.empty(values.shape, dtype=np.complex128)
        _pocketfft_gufuncs.ifft(values, 1.0, out=out)
        return out

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        self.stats.forward_polys += coeffs.size // self.degree
        half = self._half
        # Build the folded complex array by direct component assignment (the
        # casts to float64 and the twist product are bit-identical to the
        # historical `(re + 1j·im) * twist` expression, minus two temporaries).
        folded = np.empty(coeffs.shape[:-1] + (half,), dtype=np.complex128)
        folded.real = coeffs[..., :half]
        folded.imag = coeffs[..., half:]
        folded *= self._twist
        # Unnormalised inverse-sign DFT: S_u = sum_s folded_s e^{+2 pi i u s / half}
        return self._ifft(folded)

    def backward(self, spectrum: np.ndarray) -> np.ndarray:
        half = self._half
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        self.stats.backward_polys += spectrum.size // half
        folded = self._fft(spectrum)
        folded *= self._untwist_normalised
        # Round-half-even while still complex (componentwise, identical to
        # rounding after the split), then unfold with casting assignments —
        # the integral float64 → int64 casts are exact.
        np.rint(folded, out=folded)
        coeffs = np.empty(spectrum.shape[:-1] + (self.degree,), dtype=np.int64)
        coeffs[..., :half] = folded.real
        coeffs[..., half:] = folded.imag
        return coeffs

    def contract_accumulate(
        self,
        int_stack: np.ndarray,
        tensor: np.ndarray,
        addend: Optional[np.ndarray] = None,
        workspace=None,
    ) -> np.ndarray:
        """``forward → spectrum_contract → backward`` through workspace buffers.

        With a ``workspace`` this is the bound contraction of the stack's
        shape (:meth:`bind_contraction`, cached by the workspace) called once;
        without one the generic composition runs instead.
        """
        if workspace is None:
            return super().contract_accumulate(int_stack, tensor, addend)
        int_stack = np.asarray(int_stack)
        tensor = np.asarray(tensor)
        contract = self.bind_contraction(int_stack.shape, tensor.shape[-2], workspace)
        if addend is not None:
            addend = addend.view(np.uint32)
        return contract(int_stack, tensor, addend).view(np.int32)

    def bind_contraction(self, stack_shape: tuple, cols: int, workspace=None):
        """The fused core as a closure over the workspace's views for this shape.

        The same operations in the same order as the three methods it fuses
        (so bit-identical to them), each writing into a buffer the
        ``workspace`` owns; the low 32-bit words of the rounded coefficients
        plus ``addend`` — one wrapping uint32 add — are the only fresh array.
        The polynomials a call transforms are counted by two constant
        increments.  The workspace caches the closure per shape and engine.
        """
        if workspace is None:
            return super().bind_contraction(stack_shape, cols)
        if stack_shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        if stack_shape[0] == 0:
            raise ValueError("cannot contract an empty digit stack")
        return workspace.buffers(
            "transform", stack_shape + (cols,), _transform_layout, self._contraction_over, (self,)
        )

    def _contraction_over(self, folded, spectra, products, accumulator, unfolded, coeffs):
        """Build the bound fused core over the arrays of :func:`_transform_layout`."""
        half = self._half
        twist, untwist = self._twist, self._untwist_normalised
        native = _pocketfft_gufuncs
        ifft = native.ifft if native else lambda values, _, out: self._ifft(values, out)
        fft = native.fft if native else lambda values, _, out: self._fft(values, out)
        multiply, add, add_reduce, rint = np.multiply, np.add, np.add.reduce, np.rint
        folded_real, folded_imag = folded.real, folded.imag
        spectra_expanded = spectra[..., None, :]
        unfolded_floats = unfolded.view(np.float64)
        # (..., 2, N/2) views: part 0 is the real components / the low half
        # of a coefficient vector, part 1 the imaginary / high half.
        unfolded_parts = np.moveaxis(unfolded_floats.reshape(unfolded.shape + (2,)), -1, -2)
        coeff_parts = coeffs.reshape(coeffs.shape[:-1] + (2, half))
        # The low 32-bit word of every int64 coefficient: its value mod 2^32.
        low_words = coeffs.view(np.uint32)[..., (sys.byteorder == "big") :: 2]
        # An unbatched key tensor (rows, cols, N/2) as it broadcasts against
        # the batched spectra: length-1 batch axes opened after the rows.
        operand_ndim = products.ndim
        unbatched = products.shape[:1] + (1,) * (operand_ndim - 3) + products.shape[-2:]
        # Digit polynomials in, output-column polynomials out, per call.
        forward_polys, backward_polys = folded.size // half, accumulator.size // half

        def contract(int_stack, tensor, addend=None):
            stats = self.stats
            stats.forward_polys += forward_polys
            stats.backward_polys += backward_polys
            # forward: fold (p_s, p_{s+N/2}) into one complex sample, twist, IFFT.
            folded_real[...] = int_stack[..., :half]
            folded_imag[...] = int_stack[..., half:]
            multiply(folded, twist, out=folded)
            ifft(folded, 1.0, out=spectra)
            # contract: broadcast product, then the sequential row-order fold.
            if tensor.ndim < operand_ndim:
                if tensor.ndim == 3:
                    tensor = tensor.reshape(unbatched)
                else:
                    tensor = _pad_batch_axes(tensor, operand_ndim)
            multiply(spectra_expanded, tensor, out=products)
            add_reduce(products, axis=0, out=accumulator)
            # backward: FFT, untwist, round half-even on the contiguous float
            # view, then one casting copy — integral float64 → int64 is exact.
            fft(accumulator, 1.0, out=unfolded)
            multiply(unfolded, untwist, out=unfolded)
            rint(unfolded_floats, out=unfolded_floats)
            coeff_parts[...] = unfolded_parts
            if addend is None:
                return low_words.copy()
            return add(low_words, addend)

        return contract

    def spectrum_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def spectrum_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def spectrum_contract(self, stack: np.ndarray, operand: np.ndarray) -> np.ndarray:
        """Fused contraction: one stacked product + one reduction.

        ``np.add.reduce`` over the leading (row) axis accumulates the row
        slices **sequentially in row order** (NumPy's pairwise summation only
        applies to reductions along the innermost axis), so every output
        element sees the exact floating-point addition order of the
        historical per-row ``acc = add(acc, mul(...))`` fold — adding to the
        initial zero is exact, so starting from the first product is
        bit-identical.  The property suite pins this down against the
        per-row loop of ``tests/tgsw_oracle.py`` for every engine.
        """
        stack = np.asarray(stack)
        operand = np.asarray(operand)
        if stack.shape[0] == 0:
            raise ValueError("cannot contract an empty digit stack")
        expanded, operand = _align_contraction_axes(stack[..., None, :], operand)
        products = expanded * operand
        return np.add.reduce(products, axis=0)


# --------------------------------------------------------------------------- #
# engine registry                                                             #
# --------------------------------------------------------------------------- #


class EngineFault(RuntimeError):
    """A transform engine failed *at runtime* (after construction).

    Raised when an engine that constructed fine later misbehaves — a device
    error mid-transform, a poisoned buffer.  The fault is typed (rather than
    a bare ``RuntimeError``) so the runtime can react structurally:
    :meth:`repro.runtime.context.FheContext.failover` rebuilds the evaluation
    state on a fresh engine of the same spec, and the batch scheduler replays
    the affected rows there once.  Retryable by construction: no partial
    results escape.
    """

    retryable = True


class UnsupportedEngine(ValueError):
    """The kind asked for is not registered here.  The message lists the
    registered kinds; the serving front answers it with a non-retryable
    ``unsupported_engine`` error frame."""


@dataclass(frozen=True)
class EngineEntry:
    """One registered polynomial-multiplication engine.

    Beyond the factory, an entry carries the engine's ``error_model`` — the
    numerical contract its results satisfy:

    * ``"exact"``: exact integer arithmetic (no error at all);
    * ``"fft64"``: double-precision FFT (the ``"double"`` engine);
    * ``"approx"``: MATCHA's approximate integer FFT error model
      (validated against the Figure-8 error budget, not bit-identity).
    """

    kind: str
    factory: Callable[..., NegacyclicTransform]
    valid_kwargs: frozenset
    description: str = ""
    error_model: str = "exact"


_ENGINE_REGISTRY: Dict[str, EngineEntry] = {}


def register_engine(
    kind: str,
    factory: Callable[..., NegacyclicTransform],
    valid_kwargs: Sequence[str] = (),
    description: str = "",
    error_model: str = "exact",
) -> None:
    """Register a transform engine under ``kind``.

    ``factory(degree, **kwargs)`` must return a :class:`NegacyclicTransform`;
    ``valid_kwargs`` lists every keyword argument the factory accepts, so
    :func:`make_transform` can reject typos instead of silently forwarding
    bogus options; ``error_model`` names the numerical contract of its
    results (see :class:`EngineEntry`).  Re-registering a kind replaces the
    previous entry.
    """
    if not kind:
        raise ValueError("engine kind must be a non-empty string")
    _ENGINE_REGISTRY[kind] = EngineEntry(
        kind=kind,
        factory=factory,
        valid_kwargs=frozenset(valid_kwargs),
        description=description,
        error_model=error_model,
    )


def available_engines() -> Tuple[str, ...]:
    """Every registered engine kind, sorted."""
    return tuple(sorted(_ENGINE_REGISTRY))


def engine_entry(kind: str) -> EngineEntry:
    """Look up a registry entry; unknown kinds list the registered ones."""
    try:
        return _ENGINE_REGISTRY[kind]
    except KeyError:
        raise UnsupportedEngine(
            f"unknown transform kind: {kind!r} (registered engines: "
            f"{', '.join(available_engines())})"
        ) from None


def make_transform(kind: str, degree: int, **kwargs) -> NegacyclicTransform:
    """Instantiate a registered engine (``"naive"``, ``"double"``, ``"approx"``).

    Keyword arguments are validated against the engine's registered option
    set before the factory runs, so a typo like ``twiddel_bits`` fails with
    the offending engine named and its accepted options listed instead of
    being silently dropped or crashing deep inside the engine constructor.
    """
    entry = engine_entry(kind)
    unknown = sorted(set(kwargs) - entry.valid_kwargs)
    if unknown:
        valid = ", ".join(sorted(entry.valid_kwargs)) or "(none)"
        raise ValueError(
            f"unknown option(s) {unknown} for transform engine {kind!r}; "
            f"engine {kind!r} accepts: {valid}"
        )
    return entry.factory(degree, **kwargs)


def _approx_factory(degree: int, **kwargs) -> NegacyclicTransform:
    # Imported lazily: repro.core builds on repro.tfhe, not the reverse.
    from repro.core.integer_fft import ApproximateNegacyclicTransform

    return ApproximateNegacyclicTransform(degree, **kwargs)


register_engine(
    "naive",
    NaiveNegacyclicTransform,
    description="exact schoolbook negacyclic products (ground truth)",
    error_model="exact",
)
register_engine(
    "double",
    DoubleFFTNegacyclicTransform,
    description="double-precision floating-point FFT (TFHE-library baseline)",
    error_model="fft64",
)
register_engine(
    "approx",
    _approx_factory,
    valid_kwargs=("twiddle_bits", "target_msb"),
    description="MATCHA's approximate multiplication-less integer FFT",
    error_model="approx",
)
