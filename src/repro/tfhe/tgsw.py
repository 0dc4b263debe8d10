"""TGSW samples, gadget decomposition and the external product.

TGSW is the matrix extension of TLWE (Section 2): a TGSW sample of a message
``mu`` is a stack of ``(k+1)·l`` TLWE encryptions of zero to which the gadget
``mu·h`` is added, where ``h`` is the gadget matrix whose rows contain the
constants ``1/Bg, 1/Bg^2, ..., 1/Bg^l`` in each of the ``k+1`` polynomial
positions.

The *external product* ``⊡ : TGSW × TLWE → TLWE`` multiplies the messages of
its operands; it is the homomorphic CMux/blind-rotation workhorse of
Algorithm 1 line 7 and by far the dominant computation of a TFHE gate, since
each external product performs ``(k+1)·l`` (logical) forward transforms and
``k+1`` (logical) backward transforms.

Fused kernel
------------

The external product runs as **one** fused kernel: all ``k+1`` blocks of the
TLWE operand gadget-decompose into a single ``((k+1)·l, ..., N)`` digit
stack, the stack goes through one stacked ``forward``, one
``spectrum_contract`` against the TGSW operand's packed
``(rows, ..., k+1, N/2)`` spectral tensor, and one stacked ``backward``
produces every output column at once
(:meth:`repro.tfhe.transform.NegacyclicTransform.contract_accumulate`).
The engine counts the polynomials of its stacked calls, so the Figure-1
FFT/IFFT breakdown reads the same numbers as a per-digit-plane loop would
(``tests/tgsw_oracle.py`` spells that loop out; the kernels must agree with
it bit for bit).

Bound kernels
-------------

The kernel is an object, built once per data shape, parameter set and engine
and cached in a :class:`BootstrapWorkspace`: :class:`_ProductKernel` owns the
decomposition's buffers and views, its constants, and the engine's *bound
contraction* (:meth:`~repro.tfhe.transform.NegacyclicTransform.bind_contraction`)
— the int32 digit stack into that contraction is the one seam between this
module and the engines.  :func:`gadget_decompose_rows` and
:func:`tgsw_batch_external_product` are one call of it.

A blind-rotation step ``ACC ← CMux(BK_i, X^p·ACC, ACC)`` is
:class:`_StepKernel`, the same kernel behind a rotation window, over
``(B, k+1, N)`` accumulators with one power per row
(:func:`tgsw_batch_cmux_rotate`).  ``X^p·ACC`` is never built by index tables: it is the
length-``N`` window starting at ``(−p) mod 2N`` of the uint32 buffer
``[ACC, −ACC, ACC]``, filled with the decomposition offset already added, so
``window − ACC`` is the offset-added ``(X^p − 1)·ACC`` the digit extraction
starts from, and the engine's contraction adds ``ACC`` back inside the
product's single wrap mod 2^32.  A blind rotation fetches the kernel once and
calls its ``step`` per key bit: nothing is looked up, reshaped or checked per
step, and every intermediate — window, digit planes, and (for the
double-precision engine) folded digits, spectra, row products and rounded
coefficients — is workspace memory, so the ``n``-step loop allocates nothing
but each step's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from typing import Dict, List, Optional

import numpy as np

from repro.tfhe.params import TgswParams, TlweParams
from repro.tfhe.tlwe import TlweBatch, TlweKey, tlwe_encrypt
from repro.tfhe.torus import torus32_from_int64
from repro.tfhe.transform import NegacyclicTransform, Spectrum
from repro.utils.rng import SeedLike, make_rng


@dataclass
class TgswSample:
    """A TGSW ciphertext: ``(k+1)·l`` TLWE rows of ``k+1`` polynomials each.

    ``data`` has shape ``((k+1)·l, k+1, N)``.
    """

    data: np.ndarray
    params: TgswParams

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def mask_count(self) -> int:
        return int(self.data.shape[1]) - 1

    @property
    def degree(self) -> int:
        return int(self.data.shape[2])

    def copy(self) -> "TgswSample":
        return TgswSample(self.data.copy(), self.params)


@dataclass
class TransformedTgswSample:
    """A TGSW sample kept in the Lagrange domain as one packed spectral tensor.

    Bootstrapping keys are transformed once at key-generation time; the
    blind-rotation loop then only transforms the (small) decomposed
    accumulator polynomials.  ``tensor`` is a single stacked spectrum of
    shape ``(rows, ..., k+1, N/2)``: gadget rows leading (row
    ``block·l + j`` holds digit ``j`` of block ``block``), optional batch
    axes in the middle (batched BKU bundles carry one bundle per in-flight
    ciphertext), the output-column axis second to last and the spectral axis
    last.  This is exactly the layout one stacked ``forward`` over the
    coefficient-domain ``(rows, k+1, N)`` data produces, and the layout
    :meth:`repro.tfhe.transform.NegacyclicTransform.spectrum_contract`
    consumes — no per-row/per-column Python lists anywhere on the hot path.
    """

    tensor: Spectrum
    params: TgswParams
    mask_count: int
    degree: int
    rows: int


class BootstrapWorkspace:
    """Reusable scratch memory of the bootstrap hot path.

    Every kernel on that path — the blind-rotation step and the gadget
    decomposition here, the double-precision engine's fused
    ``contract_accumulate``, the key switch's gather block — stages its
    intermediates through buffers it requests from the workspace by *family*
    and *shape* (:meth:`buffers`), so all ``n`` steps of a blind rotation,
    every gate of an evaluator and every flush of a batch scheduler run in the
    same memory instead of allocating per step.

    Lifetime / reuse rules:

    * each family owns **one pool**, sized to the largest shape it has seen;
      every shape's buffers are cached views carved from the front of that
      pool, so mixing batch widths through one workspace is safe and its
      memory tracks the widest batch, not the number of widths;
    * buffers of one family overlap across shapes and are overwritten by the
      next call: they carry nothing between kernel calls;
    * the result of a kernel is the only fresh array it allocates; everything
      else is workspace scratch, so results never alias workspace memory and
      remain valid after later calls reuse it;
    * a workspace is **not** thread-safe — share it within one evaluation
      context (as :class:`repro.runtime.context.FheContext` does), not across
      concurrently evaluating contexts.
    """

    __slots__ = ("_pools", "_entries")

    #: Buffers start at multiples of this many bytes into their pool.
    ALIGNMENT = 64

    def __init__(self) -> None:
        self._pools: Dict[str, np.ndarray] = {}
        self._entries: Dict[tuple, object] = {}

    def buffers(self, family: str, shape: tuple, layout, prepare=None, key: tuple = ()):
        """The scratch of ``family`` for ``shape`` (one dict hit when cached).

        ``layout(shape)`` lists the ``(array shape, dtype)`` of every buffer;
        on first use they are carved from the family's pool (grown when this
        shape needs more than any before it); the list of them — or, given
        ``prepare``, the object ``prepare(*arrays)`` a kernel builds its views
        in once per shape — is cached and returned.  ``key`` names what a
        prepared object is bound to beyond its shape (a parameter set, an
        engine), so two of them never share an entry.
        """
        entry = self._entries.get((family, shape, key))
        if entry is None:
            entry = self._carve(family, layout(shape))
            if prepare is not None:
                entry = prepare(*entry)
            self._entries[(family, shape, key)] = entry
        return entry

    def _carve(self, family: str, specs) -> List[np.ndarray]:
        align = self.ALIGNMENT
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
        offsets = list(accumulate((-(-size // align) * align for size in sizes), initial=0))
        total = offsets.pop()
        pool = self._pools.get(family)
        if pool is None or pool.size < total:
            # Cached views of the outgrown pool would pin it, directly or
            # through a bound kernel of another family: drop every entry (the
            # other families re-carve theirs from the pools they keep).
            self._entries = {}
            pool = self._pools[family] = np.empty(total, dtype=np.uint8)
        return [
            pool[offset : offset + size].view(dtype).reshape(shape)
            for offset, size, (shape, dtype) in zip(offsets, sizes, specs)
        ]

    def clear(self) -> None:
        """Drop every pool and cached entry now.

        A bound kernel of an engine without its own binder points back at the
        workspace it was built in, so a workspace that is merely forgotten
        would keep its pools until a cyclic GC pass.
        """
        self._pools = {}
        self._entries = {}

    @property
    def nbytes(self) -> int:
        """Total bytes held by the workspace."""
        return sum(pool.nbytes for pool in self._pools.values())


def gadget_values(params: TgswParams) -> np.ndarray:
    """The torus constants ``Bg^{-1}, ..., Bg^{-l}`` of the gadget matrix."""
    shifts = [32 - params.decomp_base_bits * (j + 1) for j in range(params.decomp_length)]
    return np.array(
        [(1 << s) if s >= 0 else 0 for s in shifts], dtype=np.int64
    ).astype(np.uint32).astype(np.int32)


def decomposition_offset(params: TgswParams) -> int:
    """The rounding offset added before digit extraction (TFHE's ``offset``)."""
    offset = 0
    base_bits = params.decomp_base_bits
    half_base = 1 << (base_bits - 1)
    for j in range(1, params.decomp_length + 1):
        shift = 32 - j * base_bits
        if shift >= 0:
            offset += half_base << shift
    return offset & 0xFFFFFFFF


@lru_cache(maxsize=32)
def _decompose_constants(params: TgswParams):
    """Cached uint32 constants of the gadget decomposition of one parameter set."""
    base_bits = params.decomp_base_bits
    shifts = np.array(
        [32 - (j + 1) * base_bits for j in range(params.decomp_length)],
        dtype=np.uint32,
    )
    shifts.setflags(write=False)
    return (
        np.uint32(decomposition_offset(params)),
        shifts,
        np.uint32((1 << base_bits) - 1),
        np.uint32(1 << (base_bits - 1)),
    )


def _decompose_layout(shape: tuple) -> list:
    """Scratch of one gadget decomposition: ``shape`` is the ``(..., k+1, N)``
    data shape plus ``(l,)``."""
    *data_shape, length = shape
    data_shape = tuple(data_shape)
    rows = data_shape[-2] * length
    return [
        (data_shape, np.uint32),  # offset-added coefficients
        ((length,) + data_shape, np.uint32),  # shifted/masked digit planes
        ((rows,) + data_shape[:-2] + data_shape[-1:], np.int32),  # the digit stack
    ]


def _step_layout(shape: tuple) -> list:
    """Scratch of one blind-rotation step over ``(B, k+1, N)`` accumulators
    (``shape`` is that shape plus ``(l,)``): the rotation window ahead of the
    decomposition it feeds."""
    batch, blocks, degree, _ = shape
    return [
        ((batch, blocks, 3 * degree), np.uint32),  # [ACC, −ACC, ACC] + offset
    ] + _decompose_layout(shape)


class _ProductKernel:
    """The external product bound to one data shape, parameter set and engine.

    Built once per ``(..., k+1, N)`` shape in a :class:`BootstrapWorkspace`,
    it owns everything a product needs that does not change between calls:
    the arrays of :func:`_decompose_layout` and the two reordering views that
    land digit plane ``j`` of block ``block`` in stack row ``block·l + j``,
    the decomposition constants with the shift table shaped to broadcast, and
    the engine's bound contraction (``None`` for a kernel that only
    decomposes).  Operands and results are *torus words* — the uint32 view of
    int32 torus data.
    """

    __slots__ = (
        "offset", "shifts", "mask", "half_base",
        "shifted", "scratch", "lower", "planes", "digits", "stack", "contract",
    )  # fmt: skip

    family, layout = "decompose", staticmethod(_decompose_layout)

    def __init__(self, workspace, transform, params, shifted, scratch, digits) -> None:
        length = scratch.shape[0]
        blocks = shifted.shape[-2]
        ndim = scratch.ndim
        self.offset, shifts, self.mask, self.half_base = _decompose_constants(params)
        self.shifts = shifts.reshape(shifts.shape + (1,) * shifted.ndim)
        self.shifted = shifted
        self.scratch = scratch
        # The top plane is the word's leading Bg bits: the shift alone leaves
        # nothing above them, so only the planes below it need the mask.
        self.lower = scratch[1:]
        self.digits = digits
        # Both of shape (k+1, l, ..., N): the planes block-major, and the
        # uint32 stack with its row axis split into (block, digit).
        self.planes = scratch.transpose((ndim - 2, 0, *range(1, ndim - 2), ndim - 1))
        self.stack = digits.view(np.uint32).reshape((blocks, length) + digits.shape[1:])
        self.contract = (
            None if transform is None
            else transform.bind_contraction(digits.shape, blocks, workspace)
        )  # fmt: skip

    @classmethod
    def fetch(cls, workspace, transform, params: TgswParams, shape: tuple):
        """The kernel of ``workspace`` (a throw-away one for ``None``) for data
        of ``shape``: from its cache, bound to ``params`` and ``transform``
        (``None``: decompose only) on first use."""
        if workspace is None:
            workspace = BootstrapWorkspace()
        return workspace.buffers(
            cls.family,
            shape + (params.decomp_length,),
            cls.layout,
            partial(cls, workspace, transform, params),
            (params, transform),
        )

    def decompose(self, words: np.ndarray) -> np.ndarray:
        """Gadget-decompose ``words`` into the kernel's int32 digit stack:
        add the offset, then every plane in one broadcast shift into
        ``scratch`` ``(l, ..., k+1, N)``, one mask, and the ``− Bg/2``
        subtraction writing straight into stack row ``block·l + j``."""
        np.add(words, self.offset, out=self.shifted)
        np.right_shift(self.shifted, self.shifts, out=self.scratch)
        np.bitwise_and(self.lower, self.mask, out=self.lower)
        np.subtract(self.planes, self.half_base, out=self.stack)
        return self.digits

    def product(self, words: np.ndarray, tensor: Spectrum) -> np.ndarray:
        """``tensor ⊡ words``: decompose, then the engine's fused core — one
        stacked forward, one contraction, one stacked backward."""
        return self.contract(self.decompose(words), tensor)


class _StepKernel(_ProductKernel):
    """The blind-rotation step ``ACC ← CMux(BK, X^p·ACC, ACC)`` over
    ``(B, k+1, N)`` accumulators: :class:`_ProductKernel` behind a rotation
    window.

    Negacyclic rotation is a window read: in ``[ACC, −ACC, ACC]`` (uint32 —
    negation mod 2^32 *is* the sign flip plus torus reduction) the
    length-``N`` window starting at ``s = (−p) mod 2N`` is ``X^p·ACC``.  The
    window is filled with the decomposition offset already added, so
    ``window − ACC`` is the offset-added ``(X^p − 1)·ACC`` the digit
    extraction starts from, and the engine's contraction adds ``ACC`` back
    inside the product's single wrap mod 2^32.  ``windows`` is the sliding
    view ``(B, k+1, 2N+1, N)`` of the buffer and ``lanes`` the ``arange(B)``
    index of its per-row gather (constant data, so not pool memory, which the
    next shape overwrites; ``None`` for one row, which reads a plain slice).
    """

    __slots__ = ("extended", "head", "middle", "tail", "windows", "lanes", "degree")

    family, layout = "step", staticmethod(_step_layout)

    def __init__(self, workspace, transform, params, extended, shifted, scratch, digits) -> None:
        super().__init__(workspace, transform, params, shifted, scratch, digits)
        degree = self.degree = shifted.shape[-1]
        self.lanes = np.arange(len(extended)) if len(extended) > 1 else None
        self.extended = extended
        self.head = extended[..., :degree]
        self.middle = extended[..., degree : 2 * degree]
        self.tail = extended[..., 2 * degree :]
        self.windows = np.lib.stride_tricks.sliding_window_view(extended, degree, axis=-1)

    def step(self, acc: np.ndarray, tensor: Spectrum, start) -> np.ndarray:
        """One step on torus words.  For one row ``start`` is an ``int`` and
        the window a plain slice of two slots — ``[ACC, −ACC]``, or
        ``[−ACC, ACC]`` read ``N`` earlier once the window would leave the
        first pair; for a batch it is the ``(B,)`` array of per-row starts of
        one sliding-window gather.  Everything but the returned array is
        workspace scratch."""
        offset = self.offset
        if self.lanes is None:
            degree = self.degree
            if start > degree:
                start -= degree
                np.subtract(offset, acc, out=self.head)
                np.add(acc, offset, out=self.middle)
            else:
                np.add(acc, offset, out=self.head)
                np.subtract(offset, acc, out=self.middle)
            rotated = self.extended[..., start : start + degree]
        else:
            np.add(acc, offset, out=self.head)
            np.subtract(offset, acc, out=self.middle)
            self.tail[...] = self.head
            rotated = self.windows[self.lanes, :, start]
        # The digit extraction of `decompose`, its offset already in the window.
        np.subtract(rotated, acc, out=self.shifted)
        np.right_shift(self.shifted, self.shifts, out=self.scratch)
        np.bitwise_and(self.lower, self.mask, out=self.lower)
        np.subtract(self.planes, self.half_base, out=self.stack)
        return self.contract(self.digits, tensor, acc)


def gadget_decompose_rows(
    data: np.ndarray,
    params: TgswParams,
    workspace: Optional[BootstrapWorkspace] = None,
) -> np.ndarray:
    """Gadget-decompose every block of a TLWE data array into one digit stack.

    ``data`` has shape ``(..., k+1, N)`` (a sample or a batch); the result is
    the ``((k+1)·l, ..., N)`` int32 stack the fused external product feeds to
    one stacked ``forward``, with row ``block·l + j`` holding digit ``j`` of
    block ``block`` — the gadget row order of :class:`TgswSample`.

    All digit planes extract in **one** broadcast shift/mask/subtract over a
    ``(l, ..., k+1, N)`` scratch tensor, entirely in uint32 — bit-identical
    to the reference int64 path per block (``gadget_decompose`` in
    ``tests/tgsw_oracle.py``): the offset-add carry past bit 31 only ever
    reaches digit positions the per-digit mask discards, and the ``− Bg/2``
    wrap-around reinterprets as exactly the signed digit.  The stack is the
    ``workspace``'s buffer (pure input scratch — the engines read it during
    ``forward``), overwritten by the next decomposition of any shape through
    the same workspace.
    """
    data = np.asarray(data)
    kernel = _ProductKernel.fetch(workspace, None, params, data.shape)
    return kernel.decompose(data.view(np.uint32))


def tgsw_encrypt_zero(
    key: TlweKey,
    params: TgswParams,
    transform: NegacyclicTransform,
    noise_stddev: float | None = None,
    rng: SeedLike = None,
) -> TgswSample:
    """A TGSW encryption of zero: a stack of TLWE encryptions of zero."""
    rng = make_rng(rng)
    tlwe_params = key.params
    rows = (tlwe_params.mask_count + 1) * params.decomp_length
    zero_message = np.zeros(tlwe_params.degree, dtype=np.int32)
    data = np.zeros(
        (rows, tlwe_params.mask_count + 1, tlwe_params.degree), dtype=np.int32
    )
    for row in range(rows):
        sample = tlwe_encrypt(key, zero_message, transform, noise_stddev, rng)
        data[row] = sample.data
    return TgswSample(data=data, params=params)


def tgsw_add_gadget(sample: TgswSample, message: int) -> TgswSample:
    """Add ``message·h`` (the scaled gadget matrix) to a TGSW encryption of zero.

    ``message`` is a small integer (the bootstrapping keys encrypt secret-key
    bits and bit products, so it is 0 or 1).
    """
    params = sample.params
    k = sample.mask_count
    gadget = gadget_values(params).astype(np.int64)
    data = sample.data.copy()
    for block in range(k + 1):
        for j in range(params.decomp_length):
            row = block * params.decomp_length + j
            data[row, block, 0] = np.int32(
                torus32_from_int64(
                    data[row, block, 0].astype(np.int64) + int(message) * gadget[j]
                )
            )
    return TgswSample(data=data, params=params)


def tgsw_encrypt(
    key: TlweKey,
    message: int,
    params: TgswParams,
    transform: NegacyclicTransform,
    noise_stddev: float | None = None,
    rng: SeedLike = None,
) -> TgswSample:
    """TGSW encryption of a small integer message (0 or 1 for bootstrapping keys)."""
    zero = tgsw_encrypt_zero(key, params, transform, noise_stddev, rng)
    return tgsw_add_gadget(zero, message)


def tgsw_identity(
    tlwe_params: TlweParams, params: TgswParams
) -> TgswSample:
    """The noiseless gadget matrix ``h`` itself (a trivial TGSW sample of 1).

    The BKU bundle construction of Figure 5 starts from ``h`` ("+1" term) and
    adds the scaled bootstrapping keys to it.
    """
    rows = (tlwe_params.mask_count + 1) * params.decomp_length
    data = np.zeros(
        (rows, tlwe_params.mask_count + 1, tlwe_params.degree), dtype=np.int32
    )
    sample = TgswSample(data=data, params=params)
    return tgsw_add_gadget(sample, 1)


def tgsw_transform(
    sample: TgswSample, transform: NegacyclicTransform
) -> TransformedTgswSample:
    """Move every polynomial of a TGSW sample into the Lagrange domain.

    The whole ``(rows, k+1, N)`` stack goes through **one** vectorised
    ``forward`` call (one engine invocation per TGSW sample instead of one
    per polynomial); the stacked result *is* the packed
    ``(rows, k+1, N/2)`` spectral tensor the fused external product
    contracts against.  Per-polynomial values are bit-identical to
    transforming each polynomial on its own (the engines' documented batch
    semantics).
    """
    return TransformedTgswSample(
        tensor=transform.forward(sample.data),
        params=sample.params,
        mask_count=sample.mask_count,
        degree=sample.degree,
        rows=sample.rows,
    )


def _check_compatible(tgsw: TransformedTgswSample, tlwe) -> None:
    if tlwe.degree != tgsw.degree or tlwe.mask_count != tgsw.mask_count:
        raise ValueError("TGSW and TLWE operands are incompatible")


def tgsw_batch_external_product(
    tgsw: TransformedTgswSample,
    tlwe: TlweBatch,
    transform: NegacyclicTransform,
    workspace: Optional[BootstrapWorkspace] = None,
) -> TlweBatch:
    """Batched external product: one call covers a whole stack of accumulators.

    One call of the shape's bound kernel (:class:`_ProductKernel`): all
    ``k+1`` blocks gadget-decompose into one ``(k+1)·l`` digit stack, which
    goes through one stacked forward, the contraction against the operand's
    packed spectral tensor and one stacked backward.  The tensor may itself
    carry a batch axis (a batched BKU bundle, one per row), which broadcasts
    inside the contraction.
    """
    _check_compatible(tgsw, tlwe)
    data = tlwe.data
    kernel = _ProductKernel.fetch(workspace, transform, tgsw.params, data.shape)
    result = kernel.product(data.view(np.uint32), tgsw.tensor)
    return TlweBatch(result.view(np.int32))


def tgsw_batch_cmux_rotate(
    selector: TransformedTgswSample,
    accumulators: TlweBatch,
    powers: np.ndarray,
    transform: NegacyclicTransform,
    workspace: Optional[BootstrapWorkspace] = None,
) -> TlweBatch:
    """One blind-rotation step ``CMux(BK, X^{p_b}·ACC_b, ACC_b)`` per row.

    Every ciphertext of the ``(B, k+1, N)`` batch rotates by its own power.
    Rows whose power reduces to zero mod ``2N`` contribute an exactly-zero
    difference, so their accumulators come back unchanged.  The CMux
    ``BK ⊡ (X^{p_b}·ACC_b − ACC_b) + ACC_b`` with the difference never
    materialised.
    """
    _check_compatible(selector, accumulators)
    starts = -np.asarray(powers, dtype=np.int64) % (2 * accumulators.degree)
    if starts.shape != (accumulators.batch_size,):
        raise ValueError("one rotation power per batched ciphertext is required")
    data = accumulators.data
    kernel = _StepKernel.fetch(workspace, transform, selector.params, data.shape)
    start = int(starts[0]) if len(starts) == 1 else starts
    result = kernel.step(data.view(np.uint32), selector.tensor, start)
    return TlweBatch(result.view(np.int32))
