"""Bootstrapping-key unrolling (BKU) — Section 4.2, Figures 4 and 5.

The blind rotation of Algorithm 1 computes ``X^{Σ ā_i s_i}`` with one external
product per secret-key bit.  BKU groups ``m`` bits together: for every group
and every non-empty bit pattern ``p`` it pre-encrypts the indicator product

    ind_p = Π_{j: p_j = 1} s_j · Π_{j: p_j = 0} (1 − s_j)

as a TGSW ciphertext (``2^m − 1`` keys per group).  Because the indicators of
all ``2^m`` patterns sum to one, the rotation of one group collapses to a
single external product with the *bootstrapping key bundle*

    BKB = h + Σ_{p ≠ 0} (X^{e_p} − 1) · BK_p,     e_p = Σ_{j: p_j = 1} ā_j,

exactly the construction of Figure 5 (shown there for ``m = 2``).  The number
of external products per bootstrapping drops from ``n`` to ``n/m``, at the
cost of a bootstrapping key that grows as ``(2^m − 1)/m`` and of bundle
construction work that grows as ``2^m − 1`` — the trade-off MATCHA's pipelined
TGSW clusters are built to hide.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.tfhe.bootstrap import _accumulator_data, _rotation_amounts
from repro.tfhe.keys import group_indices
from repro.tfhe.params import TFHEParameters
from repro.tfhe.tgsw import (
    BootstrapWorkspace,
    TransformedTgswSample,
    _ProductKernel,
    tgsw_identity,
    tgsw_transform,
)
from repro.tfhe.tlwe import TlweBatch
from repro.tfhe.transform import NegacyclicTransform

#: One group of the key: its LWE key indices and the transformed TGSW
#: encryptions of the indicators of patterns ``1 .. 2^size − 1``, in order.
KeyGroup = Tuple[List[int], List[TransformedTgswSample]]


def x_power_minus_one_polynomials(degree: int, powers: np.ndarray) -> np.ndarray:
    """A stack of ``X^power − 1`` polynomials, one row per entry of ``powers``.

    Rows with ``power ≡ 0 (mod 2N)`` come out as the zero polynomial — the
    vanishing bundle term the sequential path skips explicitly.
    """
    powers = np.asarray(powers, dtype=np.int64) % (2 * degree)
    polys = np.zeros(powers.shape + (degree,), dtype=np.int64)
    polys[..., 0] -= 1
    sign = np.where(powers < degree, np.int64(1), np.int64(-1))
    flat = polys.reshape(-1, degree)
    flat[np.arange(powers.size), powers.reshape(-1) % degree] += sign.reshape(-1)
    return polys


class UnrolledBlindRotator:
    """Blind rotation through bootstrapping-key bundles (Figure 5 / Figure 6 ❶❷).

    Each group performs two steps, exactly the two pipeline stages of MATCHA:

    1. *bundle construction* (TGSW cluster): scale each group key by
       ``X^{e_p} − 1`` in the Lagrange domain and add them to the gadget
       ``h``;
    2. *external product* (EP core): ``ACC ← BKB ⊡ ACC``.

    Both run over the ``(B, k+1, N)`` accumulator stack with one bundle per
    row, through the rotator's one entry, :meth:`rotate_batch`.

    The rotator is built from the same flat list of transformed TGSW samples
    a :class:`repro.tfhe.bootstrap.CmuxBlindRotator` takes — the key's
    groups in :func:`repro.tfhe.keys.group_indices` order, each group's
    ``2^size − 1`` indicator keys in pattern order — and slices its groups
    out of it.
    """

    def __init__(
        self,
        bootstrapping_key: Sequence[TransformedTgswSample],
        params: TFHEParameters,
        unroll_factor: int,
        transform: NegacyclicTransform,
        workspace: BootstrapWorkspace | None = None,
    ) -> None:
        self.bootstrapping_key = list(bootstrapping_key)
        self.params = params
        self.unroll_factor = unroll_factor
        self.transform = transform
        self.workspace = workspace if workspace is not None else BootstrapWorkspace()
        self.groups: List[KeyGroup] = []
        start = 0
        for indices in group_indices(params.n, unroll_factor):
            end = start + (1 << len(indices)) - 1
            self.groups.append((indices, self.bootstrapping_key[start:end]))
            start = end
        if start != len(self.bootstrapping_key):
            raise ValueError(
                f"an m={unroll_factor} key of {params.n} bits holds {start} TGSW "
                f"samples, got {len(self.bootstrapping_key)}"
            )
        identity = tgsw_identity(params.tlwe, params.tgsw)
        self._identity_spectra = tgsw_transform(identity, transform)

    # -- pipeline stage 1: the TGSW cluster --------------------------------
    def build_bundle(self, group: KeyGroup, bara: np.ndarray) -> TransformedTgswSample:
        """Construct the ``BKB`` bundles of one group as one packed tensor.

        ``bara`` has shape ``(B, n)`` — one row of rotation amounts per
        in-flight ciphertext — and the returned tensor carries the batch axis
        between the row and column axes: ``(rows, B, k+1, N/2)``.  Each
        non-vanishing pattern contributes **one** broadcast spectral
        multiply-add over the whole ``rows × (k+1)`` key tensor instead of a
        per-polynomial Python double loop.  A per-ciphertext exponent that
        reduces to zero yields an exactly-zero factor polynomial, so the term
        vanishes for that ciphertext alone — bit-identical to skipping it; the
        explicit skip below only fires when the term vanishes for the *whole*
        stack.
        """
        indices, keys = group
        transform = self.transform
        identity = self._identity_spectra
        rows = identity.rows
        cols = identity.mask_count + 1
        degree = self.params.N
        group_bara = np.asarray(bara)[:, indices].astype(np.int64)  # (B, size)
        # Open the batch axis between rows and columns so the per-ciphertext
        # pattern terms broadcast against it (a view: spectra are never
        # mutated, every term builds a new bundle).
        bundle = transform.spectrum_expand(identity.tensor, 1)
        for pattern in range(1, 1 << len(indices)):
            bits = ((pattern >> np.arange(len(indices))) & 1).astype(np.int64)
            exponents = group_bara @ bits  # (B,)
            if not np.any(exponents % (2 * degree)):
                # X^0 − 1 = 0 everywhere: the term vanishes.
                continue
            factors = x_power_minus_one_polynomials(degree, exponents)
            # (B, H) → (B, 1, H) against (rows, 1, k+1, H): the factor
            # broadcasts over the column axis, the key over the batch axis.
            factor_spec = transform.spectrum_expand(transform.forward(factors), -2)
            key_tensor = transform.spectrum_expand(keys[pattern - 1].tensor, 1)
            bundle = transform.spectrum_add(
                bundle, transform.spectrum_mul(factor_spec, key_tensor)
            )
        return TransformedTgswSample(
            tensor=bundle,
            params=self.params.tgsw,
            mask_count=cols - 1,
            degree=degree,
            rows=rows,
        )

    # -- pipeline stage 2: the EP core --------------------------------------
    def rotate_batch(self, accumulators: TlweBatch, bara: np.ndarray) -> TlweBatch:
        """BKU blind rotation: per group, one batched bundle then one product.

        A rotation fetches the product kernel bound to its batch shape once
        (as :class:`repro.tfhe.bootstrap.CmuxBlindRotator` fetches its step
        kernel).
        """
        params = self.params
        data = _accumulator_data(accumulators, params.k, params.N)
        bara = _rotation_amounts(bara, len(data), params.n)
        kernel = _ProductKernel.fetch(self.workspace, self.transform, params.tgsw, data.shape)
        acc = data.view(np.uint32)
        for group in self.groups:
            acc = kernel.product(acc, self.build_bundle(group, bara).tensor)
        return TlweBatch(acc.view(np.int32))
