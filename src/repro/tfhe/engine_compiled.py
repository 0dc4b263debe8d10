"""Compiled CPU fast path for the double-precision FFT engine.

:class:`CompiledNegacyclicTransform` accelerates the hot trio of the fused
external product — the stacked negacyclic *forward* (fold + twist + IFFT),
the fused ``spectrum_contract`` row-fold, and the *backward* (FFT + untwist +
round) — while staying **bit-identical** to
:class:`repro.tfhe.transform.DoubleFFTNegacyclicTransform` (error model
``fft64``).

Two tiers, chosen at construction time:

* **Numba JIT** (optional dependency): the twist/fold, untwist/round and
  row-contraction loops are compiled to native code.  The FFT core itself
  stays on pocketfft — NumPy's FFT is already native and bit-identity of a
  reimplemented FFT could not be guaranteed — so the JIT only replaces the
  NumPy *glue* around it, which at TFHE ring sizes is a comparable cost to
  the transform itself (temporaries, dispatch, two passes over memory).
  Every jitted kernel uses the same arithmetic as the NumPy expression it
  replaces (naive complex multiply, sequential row accumulation, IEEE
  round-half-even via ``np.rint``) and ``fastmath`` stays **off**, so no FMA
  contraction or reassociation can creep in.  On top of that, a construction
  time self-test runs each kernel against its NumPy reference on probe data
  and silently disables the JIT tier on any mismatch — bit-identity is
  enforced, not assumed.

* **NumPy fallback** (always available): the contraction accumulates row
  products in place instead of materialising the full
  ``(rows, ..., k+1, N/2)`` products tensor that the reference engine reduces
  over.  Every output element still sees the exact sequential row-order
  addition, so results stay bit-identical; only the peak temporary footprint
  shrinks.  This tier is what the ``"compiled"`` engine runs on machines
  without Numba.

Use ``require_numba=True`` to fail construction when the JIT tier is
unavailable (the optional-deps CI job does this so the compiled suite cannot
silently regress to the fallback).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    NegacyclicTransform,
    _align_contraction_axes,
)

_numba_reason: Optional[str] = None
try:  # pragma: no cover - depends on the environment
    import numba  # type: ignore

    _njit = numba.njit
except Exception as exc:  # pragma: no cover - the common CI environment
    numba = None
    _njit = None
    _numba_reason = f"numba: not importable ({type(exc).__name__})"


def numba_unavailable_reason() -> Optional[str]:
    """``None`` when Numba imports here, else a human-readable reason."""
    return _numba_reason


# --------------------------------------------------------------------------- #
# jitted kernels (module-level so compilation is shared across instances)     #
# --------------------------------------------------------------------------- #

_JIT_CACHE: Dict[bool, Optional[dict]] = {}


def _build_jit_kernels(parallel: bool) -> Optional[dict]:  # pragma: no cover
    """Compile (once per ``parallel`` flag) the three hot kernels, or ``None``.

    Compilation failures — an incompatible Numba, a read-only cache dir —
    degrade to the NumPy tier instead of raising.
    """
    if _njit is None:
        return None
    if parallel in _JIT_CACHE:
        return _JIT_CACHE[parallel]
    try:
        prange = numba.prange if parallel else range
        jit = _njit(parallel=parallel, cache=not parallel, fastmath=False)

        @jit
        def fold_twist(coeffs, twist, out):
            # (batch, N) float64  ×  (half,) complex  →  (batch, half) complex
            # Same arithmetic as ``folded.real = lo; folded.imag = hi;
            # folded *= twist``: one naive complex multiply per sample.
            batch, half = out.shape
            for b in prange(batch):
                for s in range(half):
                    re = coeffs[b, s]
                    im = coeffs[b, s + half]
                    t = twist[s]
                    out[b, s] = complex(
                        re * t.real - im * t.imag, re * t.imag + im * t.real
                    )

        @jit
        def untwist_round(folded, untwist, out):
            # (batch, half) complex  ×  (half,) complex  →  (batch, N) int64
            # ``folded *= untwist; np.rint(folded); split`` — np.rint lowers
            # to llvm.rint (IEEE round-half-even), matching the NumPy ufunc.
            batch, half = folded.shape
            for b in prange(batch):
                for s in range(half):
                    f = folded[b, s]
                    u = untwist[s]
                    out[b, s] = np.int64(np.rint(f.real * u.real - f.imag * u.imag))
                    out[b, s + half] = np.int64(np.rint(f.real * u.imag + f.imag * u.real))

        @jit
        def contract(stack, operand, out):
            # (rows, B, half) × (rows, OB, C, half) → (B, C, half), OB ∈ {1, B}
            # Sequential accumulation in row order; starting from 0.0 is
            # exact, so this matches ``np.add.reduce(products, axis=0)``
            # bit for bit (no FMA: fastmath is off).
            rows, batch, half = stack.shape
            obatch = operand.shape[1]
            cols = operand.shape[2]
            for b in prange(batch):
                ob = b if obatch > 1 else 0
                for c in range(cols):
                    for s in range(half):
                        acc_re = 0.0
                        acc_im = 0.0
                        for r in range(rows):
                            a = stack[r, b, s]
                            o = operand[r, ob, c, s]
                            acc_re += a.real * o.real - a.imag * o.imag
                            acc_im += a.real * o.imag + a.imag * o.real
                        out[b, c, s] = complex(acc_re, acc_im)

        kernels = {
            "fold_twist": fold_twist,
            "untwist_round": untwist_round,
            "contract": contract,
        }
    except Exception:
        kernels = None
    _JIT_CACHE[parallel] = kernels
    return kernels


class CompiledNegacyclicTransform(DoubleFFTNegacyclicTransform):
    """JIT-compiled (or in-place NumPy) drop-in for the ``"double"`` engine.

    Spectra are plain complex128 ndarrays exactly like the parent's, so
    everything downstream — :class:`~repro.tfhe.tgsw.TransformedTgswSample`
    tensors, the :class:`~repro.runtime.workers.WorkerPool` shared-memory
    spectrum cache, serialization round-trips — works unchanged.
    """

    engine_kind = "compiled"

    def __init__(
        self,
        degree: int,
        parallel: bool = False,
        require_numba: bool = False,
    ) -> None:
        super().__init__(degree)
        self.parallel = bool(parallel)
        self._kernels = _build_jit_kernels(self.parallel)
        if self._kernels is not None and not self._verify_kernels():
            self._kernels = None  # pragma: no cover - defensive
        #: True when the Numba tier is active (observable by benches/tests).
        self.jit_enabled = self._kernels is not None
        if require_numba and not self.jit_enabled:
            raise RuntimeError(
                "compiled engine: require_numba=True but the JIT tier is "
                f"unavailable ({_numba_reason or 'kernel self-test failed'})"
            )

    # -- registry identity -------------------------------------------------
    def engine_options(self) -> Dict[str, Any]:
        options: Dict[str, Any] = {}
        if self.parallel:
            options["parallel"] = True
        # require_numba is a construction-time assertion, not an engine
        # property: a key generated under it must stay loadable on
        # fallback-only machines, so it is deliberately not serialized.
        return options

    # -- JIT self-test ------------------------------------------------------
    def _verify_kernels(self) -> bool:  # pragma: no cover - needs numba
        """Probe every jitted kernel against its NumPy reference, exactly.

        Any mismatch (an FMA-contracting build, a rounding difference)
        disables the JIT tier so the ``fft64`` bit-identity contract can
        never be violated — the engine just runs at fallback speed.
        """
        try:
            rng = np.random.default_rng(0xC0DE)
            half = self._half
            probe = rng.integers(-(2**31), 2**31, size=(3, self.degree)).astype(
                np.float64
            )
            out = np.empty((3, half), dtype=np.complex128)
            self._kernels["fold_twist"](probe, self._twist, out)
            folded = np.empty((3, half), dtype=np.complex128)
            folded.real = probe[:, :half]
            folded.imag = probe[:, half:]
            folded *= self._twist
            if not np.array_equal(out, folded):
                return False

            spectra = (rng.standard_normal((3, half)) * 2**20
                       + 1j * rng.standard_normal((3, half)) * 2**20)
            iout = np.empty((3, self.degree), dtype=np.int64)
            self._kernels["untwist_round"](spectra, self._untwist_normalised, iout)
            ref = spectra * self._untwist_normalised
            np.rint(ref, out=ref)
            iref = np.empty((3, self.degree), dtype=np.int64)
            iref[:, :half] = ref.real
            iref[:, half:] = ref.imag
            if not np.array_equal(iout, iref):
                return False

            stack = rng.standard_normal((4, 3, half)) + 1j * rng.standard_normal(
                (4, 3, half)
            )
            tensor = rng.standard_normal((4, 1, 2, half)) + 1j * rng.standard_normal(
                (4, 1, 2, half)
            )
            cout = np.empty((3, 2, half), dtype=np.complex128)
            self._kernels["contract"](stack, tensor, cout)
            cref = np.add.reduce(stack[:, :, None, :] * tensor, axis=0)
            return np.array_equal(cout, cref)
        except Exception:
            return False

    #: The parent stages ``forward → spectrum_contract → backward`` through
    #: workspace buffers with its own NumPy glue; this engine's kernels *are*
    #: its overrides of those three methods, so it composes them generically
    #: (and binds that composition, not the parent's closure).
    contract_accumulate = NegacyclicTransform.contract_accumulate
    bind_contraction = NegacyclicTransform.bind_contraction

    # -- conversions --------------------------------------------------------
    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        if self._kernels is None:
            return super().forward(coeffs)
        self.stats.forward_calls += 1  # pragma: no cover - needs numba
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.degree:
            raise ValueError("polynomial degree mismatch")
        # The float64 cast is exact for every torus/digit value (< 2^53).
        flat = np.ascontiguousarray(coeffs, dtype=np.float64).reshape(
            -1, self.degree
        )
        folded = np.empty((flat.shape[0], self._half), dtype=np.complex128)
        self._kernels["fold_twist"](flat, self._twist, folded)
        return self._ifft(folded).reshape(coeffs.shape[:-1] + (self._half,))

    def backward(self, spectrum: np.ndarray) -> np.ndarray:
        if self._kernels is None:
            return super().backward(spectrum)
        self.stats.backward_calls += 1  # pragma: no cover - needs numba
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        folded = self._fft(spectrum)
        flat = np.ascontiguousarray(folded).reshape(-1, self._half)
        coeffs = np.empty((flat.shape[0], self.degree), dtype=np.int64)
        self._kernels["untwist_round"](flat, self._untwist_normalised, coeffs)
        return coeffs.reshape(spectrum.shape[:-1] + (self.degree,))

    # -- fused contraction ---------------------------------------------------
    def spectrum_contract(self, stack: np.ndarray, operand: np.ndarray) -> np.ndarray:
        """Row-fold without the full products tensor (JIT or in-place NumPy).

        Counts the same two pointwise ops as the reference implementation
        and produces bit-identical results: multiplication is elementwise
        and every output element accumulates its rows sequentially in row
        order, exactly like ``np.add.reduce(products, axis=0)``.
        """
        self.stats.pointwise_ops += 2
        stack = np.asarray(stack)
        operand = np.asarray(operand)
        if stack.shape[0] == 0:
            raise ValueError("cannot contract an empty digit stack")
        expanded, operand = _align_contraction_axes(stack[..., None, :], operand)
        if self._kernels is not None:
            jitted = self._contract_jit(expanded, operand)
            if jitted is not None:  # pragma: no cover - needs numba
                return jitted
        return self._contract_in_place(expanded, operand)

    def _contract_jit(
        self, expanded: np.ndarray, operand: np.ndarray
    ) -> Optional[np.ndarray]:  # pragma: no cover - needs numba
        """The jitted contraction for the common batch layouts, else ``None``.

        Handles ``(rows, [B,] 1, half)`` digit stacks against
        ``(rows, [B|1,] C, half)`` key tensors — i.e. everything the fused
        external product and the rotators produce.  Exotic layouts (extra
        batch axes from ad-hoc callers) fall back to the NumPy path.
        """
        if expanded.ndim == 3 and operand.ndim == 3:
            stack3 = expanded[:, None, 0, :]
            operand4 = operand[:, None, :, :]
            out_shape = operand.shape[1:]
        elif expanded.ndim == 4 and operand.ndim == 4:
            if expanded.shape[2] != 1 or operand.shape[1] not in (1, expanded.shape[1]):
                return None
            stack3 = expanded[:, :, 0, :]
            operand4 = operand
            out_shape = (expanded.shape[1],) + operand.shape[2:]
        else:
            return None
        out = np.empty(
            (stack3.shape[1], operand4.shape[2], operand4.shape[3]),
            dtype=np.complex128,
        )
        self._kernels["contract"](
            np.ascontiguousarray(stack3, dtype=np.complex128),
            np.ascontiguousarray(operand4, dtype=np.complex128),
            out,
        )
        return out.reshape(out_shape)

    def _contract_in_place(
        self, expanded: np.ndarray, operand: np.ndarray
    ) -> np.ndarray:
        """Sequential row accumulation into one output-sized accumulator.

        Peak extra memory is the accumulator plus one scratch of its shape,
        versus the reference's full ``(rows, ..., k+1, N/2)`` products tensor.
        """
        out_shape = np.broadcast_shapes(expanded.shape, operand.shape)[1:]
        out = np.empty(out_shape, dtype=np.complex128)
        scratch = np.empty(out_shape, dtype=np.complex128)
        np.multiply(expanded[0], operand[0], out=out)
        for row in range(1, expanded.shape[0]):
            np.multiply(expanded[row], operand[row], out=scratch)
            out += scratch
        return out
