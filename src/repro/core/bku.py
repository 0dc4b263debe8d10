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

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.tfhe.bootstrap import _accumulator_data, _rotation_amounts
from repro.tfhe.keys import RawUnrolledGroup, TFHESecretKey, group_indices
from repro.tfhe.params import TFHEParameters
from repro.tfhe.tgsw import (
    BootstrapWorkspace,
    TgswSample,
    TransformedTgswSample,
    _external_product_rows_reference,
    _reference_row_col,
    tgsw_batch_external_product,
    tgsw_encrypt,
    tgsw_identity,
    tgsw_transform,
)
from repro.tfhe.tlwe import TlweBatch, TlweSample
from repro.tfhe.transform import NegacyclicTransform, Spectrum
from repro.utils.rng import SeedLike, make_rng


def indicator_message(bits: Sequence[int], pattern: int) -> int:
    """The plaintext ``Π s_j^{p_j} (1 − s_j)^{1 − p_j}`` for a bit pattern."""
    product = 1
    for j, bit in enumerate(bits):
        selected = (pattern >> j) & 1
        product *= bit if selected else (1 - bit)
    return product


def pattern_exponent(bara: Sequence[int], indices: Sequence[int], pattern: int) -> int:
    """The rotation exponent ``e_p = Σ_{j: p_j = 1} ā_{indices[j]}``."""
    return int(sum(int(bara[indices[j]]) for j in range(len(indices)) if (pattern >> j) & 1))


def x_power_minus_one_polynomial(degree: int, power: int) -> np.ndarray:
    """The integer polynomial ``X^power − 1`` reduced modulo ``X^N + 1``."""
    poly = np.zeros(degree, dtype=np.int64)
    poly[0] -= 1
    power = int(power) % (2 * degree)
    sign = 1 if power < degree else -1
    poly[power % degree] += sign
    return poly


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


@dataclass
class UnrolledKeyGroup:
    """The BKU key material of one group of secret-key bits."""

    indices: List[int]
    #: ``keys[pattern - 1]`` is the (transformed) TGSW encryption of the
    #: indicator of ``pattern`` (patterns are 1 .. 2^size − 1).
    keys: List[TransformedTgswSample]

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def pattern_count(self) -> int:
        return (1 << self.size) - 1


@dataclass
class UnrolledBootstrappingKey:
    """The full unrolled bootstrapping key (all groups)."""

    params: TFHEParameters
    unroll_factor: int
    groups: List[UnrolledKeyGroup]

    @property
    def tgsw_key_count(self) -> int:
        """Total number of TGSW ciphertexts (the paper's BK-size blow-up)."""
        return sum(group.pattern_count for group in self.groups)

    @property
    def external_products_per_bootstrap(self) -> int:
        return len(self.groups)


def generate_unrolled_key_material(
    secret: TFHESecretKey,
    transform: NegacyclicTransform,
    unroll_factor: int,
    rng: SeedLike = None,
) -> List[RawUnrolledGroup]:
    """Encrypt the ``(2^m − 1)·⌈n/m⌉`` indicator products of Figure 5.

    Returns the coefficient-domain TGSW samples (what a cloud key stores and
    :mod:`repro.tfhe.serialize` writes); :func:`transform_unrolled_key` moves
    them into the Lagrange domain for evaluation.
    """
    rng = make_rng(rng)
    params = secret.params
    key_bits = secret.lwe_key.key
    groups: List[RawUnrolledGroup] = []
    for indices in group_indices(params.n, unroll_factor):
        bits = [int(key_bits[i]) for i in indices]
        samples: List[TgswSample] = []
        for pattern in range(1, 1 << len(indices)):
            message = indicator_message(bits, pattern)
            samples.append(
                tgsw_encrypt(
                    secret.tlwe_key,
                    message,
                    params.tgsw,
                    transform,
                    noise_stddev=params.tlwe.noise_stddev,
                    rng=rng,
                )
            )
        groups.append(RawUnrolledGroup(indices=indices, samples=samples))
    return groups


def transform_unrolled_key(
    raw_groups: Sequence[RawUnrolledGroup],
    params: TFHEParameters,
    unroll_factor: int,
    transform: NegacyclicTransform,
) -> UnrolledBootstrappingKey:
    """Forward-transform raw BKU key material into an evaluation-ready key.

    Each TGSW sample goes through :func:`repro.tfhe.tgsw.tgsw_transform`
    exactly once — this is the spectrum-cache step an
    :class:`repro.runtime.context.FheContext` runs once per context.
    """
    groups = [
        UnrolledKeyGroup(
            indices=list(raw.indices),
            keys=[tgsw_transform(sample, transform) for sample in raw.samples],
        )
        for raw in raw_groups
    ]
    return UnrolledBootstrappingKey(
        params=params, unroll_factor=unroll_factor, groups=groups
    )


def generate_unrolled_bootstrapping_key(
    secret: TFHESecretKey,
    transform: NegacyclicTransform,
    unroll_factor: int,
    rng: SeedLike = None,
) -> UnrolledBootstrappingKey:
    """Generate and forward-transform the unrolled key in one call."""
    raw = generate_unrolled_key_material(secret, transform, unroll_factor, rng)
    return transform_unrolled_key(raw, secret.params, unroll_factor, transform)


class UnrolledBlindRotator:
    """Blind rotation through bootstrapping-key bundles (Figure 5 / Figure 6 ❶❷).

    Each group performs two steps, exactly the two pipeline stages of MATCHA:

    1. *bundle construction* (TGSW cluster): scale each group key by
       ``X^{e_p} − 1`` in the Lagrange domain and add them to the gadget
       ``h``;
    2. *external product* (EP core): ``ACC ← BKB ⊡ ACC``.

    Both run over the ``(B, k+1, N)`` accumulator stack with one bundle per
    row (:meth:`rotate` is :meth:`rotate_batch` on a one-row view);
    :meth:`rotate_reference` / :meth:`rotate_batch_reference` are the
    per-(row, col) oracle for property tests.
    """

    def __init__(
        self,
        key: UnrolledBootstrappingKey,
        transform: NegacyclicTransform,
        workspace: BootstrapWorkspace | None = None,
    ) -> None:
        self.key = key
        self.transform = transform
        self.workspace = workspace if workspace is not None else BootstrapWorkspace()
        params = key.params
        identity = tgsw_identity(params.tlwe, params.tgsw)
        self._identity_spectra = tgsw_transform(identity, transform)
        #: Counters mirrored by the pipeline/latency models.
        self.bundles_built = 0
        self.external_products = 0

    @property
    def unroll_factor(self) -> int:
        return self.key.unroll_factor

    @property
    def external_products_per_bootstrap(self) -> int:
        return self.key.external_products_per_bootstrap

    # -- pipeline stage 1: the TGSW cluster --------------------------------
    def build_bundle(
        self, group: UnrolledKeyGroup, bara: np.ndarray
    ) -> TransformedTgswSample:
        """Construct the ``BKB`` bundles of one group as one packed tensor.

        ``bara`` has shape ``(B, n)`` — one row of rotation amounts per
        in-flight ciphertext — and the returned tensor carries the batch axis
        between the row and column axes: ``(rows, B, k+1, N/2)``.  Each
        non-vanishing pattern contributes **one** broadcast spectral
        multiply-add over the whole ``rows × (k+1)`` key tensor instead of a
        per-polynomial Python double loop; the engine counters are topped up
        to the logical per-polynomial pointwise counts.  A per-ciphertext
        exponent that reduces to zero yields an exactly-zero factor
        polynomial, so the term vanishes for that ciphertext alone —
        bit-identical to skipping it; the explicit skip below only fires when
        the term vanishes for the *whole* stack.
        """
        self.bundles_built += 1
        transform = self.transform
        identity = self._identity_spectra
        rows = identity.rows
        cols = identity.mask_count + 1
        degree = self.key.params.N
        group_bara = np.asarray(bara)[:, group.indices].astype(np.int64)  # (B, size)
        # Open the batch axis between rows and columns so the per-ciphertext
        # pattern terms broadcast against it.
        bundle = transform.spectrum_expand(transform.spectrum_copy(identity.tensor), 1)
        for pattern in range(1, (1 << group.size)):
            bits = ((pattern >> np.arange(group.size)) & 1).astype(np.int64)
            exponents = group_bara @ bits  # (B,)
            if not np.any(exponents % (2 * degree)):
                # X^0 − 1 = 0 everywhere: the term vanishes.
                continue
            factors = x_power_minus_one_polynomials(degree, exponents)
            # (B, H) → (B, 1, H) against (rows, 1, k+1, H): the factor
            # broadcasts over the column axis, the key over the batch axis.
            factor_spec = transform.spectrum_expand(transform.forward(factors), -2)
            key_tensor = transform.spectrum_expand(group.keys[pattern - 1].tensor, 1)
            bundle = transform.spectrum_add(
                bundle, transform.spectrum_mul(factor_spec, key_tensor)
            )
            # One broadcast mul + one add covered rows·cols polynomial pairs;
            # top the counters up to the logical per-polynomial counts.
            transform.stats.pointwise_ops += 2 * rows * cols - 2
        return TransformedTgswSample(
            tensor=bundle,
            params=self.key.params.tgsw,
            mask_count=cols - 1,
            degree=degree,
            rows=rows,
        )

    def _build_bundle_reference(
        self, group: UnrolledKeyGroup, bara: np.ndarray
    ) -> List[List[Spectrum]]:
        """The pre-fusion per-(row, col) bundle build (ground truth).

        Returns the historical per-row/per-column spectra list, consumed by
        :func:`repro.tfhe.tgsw._external_product_rows_reference`.
        """
        transform = self.transform
        identity = self._identity_spectra
        rows = identity.rows
        cols = identity.mask_count + 1
        bundle: List[List[Spectrum]] = [
            [
                transform.spectrum_copy(
                    _reference_row_col(identity, transform, r, c)
                )
                for c in range(cols)
            ]
            for r in range(rows)
        ]
        degree = self.key.params.N
        group_bara = np.asarray(bara)[..., group.indices].astype(np.int64)
        for pattern in range(1, (1 << group.size)):
            bits = ((pattern >> np.arange(group.size)) & 1).astype(np.int64)
            exponents = group_bara @ bits
            if not np.any(exponents % (2 * degree)):
                continue
            factors = x_power_minus_one_polynomials(degree, exponents)
            factor_spec = transform.forward(factors)
            bk = group.keys[pattern - 1]
            for r in range(rows):
                for c in range(cols):
                    bundle[r][c] = transform.spectrum_add(
                        bundle[r][c],
                        transform.spectrum_mul(
                            factor_spec, _reference_row_col(bk, transform, r, c)
                        ),
                    )
        return bundle

    # -- pipeline stage 2: the EP core --------------------------------------
    def rotate(self, accumulator: TlweSample, bara: np.ndarray) -> TlweSample:
        """Blind-rotate one accumulator: :meth:`rotate_batch` on a 1-row view."""
        batch = TlweBatch(accumulator.data[None])
        return TlweSample(self.rotate_batch(batch, np.asarray(bara)[None]).data[0])

    def rotate_batch(self, accumulators: TlweBatch, bara: np.ndarray) -> TlweBatch:
        """BKU blind rotation: per group, one batched bundle then one batched EP."""
        params = self.key.params
        _accumulator_data(accumulators, params.k, params.N)
        bara = _rotation_amounts(bara, accumulators.batch_size, params.n)
        acc = accumulators
        for group in self.key.groups:
            bundle = self.build_bundle(group, bara)
            acc = tgsw_batch_external_product(
                bundle, acc, self.transform, self.workspace
            )
            self.external_products += 1
        return acc

    # -- pre-fusion ground truth (property tests) --------------------------
    def rotate_reference(self, accumulator: TlweSample, bara: np.ndarray) -> TlweSample:
        """The historical rotation: per-(row, col) bundles + per-plane EP."""
        params = self.key.params
        acc = accumulator
        for group in self.key.groups:
            bundle = self._build_bundle_reference(group, np.asarray(bara))
            acc = TlweSample(
                _external_product_rows_reference(
                    bundle, params.tgsw, params.k, params.N, acc.data, self.transform
                )
            )
            self.external_products += 1
        return acc

    def rotate_batch_reference(
        self, accumulators: TlweBatch, bara: np.ndarray
    ) -> TlweBatch:
        """Batched pre-fusion BKU blind rotation (ground truth)."""
        params = self.key.params
        acc = accumulators
        for group in self.key.groups:
            bundle = self._build_bundle_reference(group, np.asarray(bara))
            acc = TlweBatch(
                _external_product_rows_reference(
                    bundle, params.tgsw, params.k, params.N, acc.data, self.transform
                )
            )
            self.external_products += 1
        return acc


def bootstrapping_key_size_bytes(params: TFHEParameters, unroll_factor: int) -> int:
    """Size of the unrolled bootstrapping key in bytes (32-bit coefficients).

    One TGSW ciphertext holds ``(k+1)·l·(k+1)·N`` 32-bit words; BKU stores
    ``(2^m − 1)`` of them per group of ``m`` key bits — the exponential
    blow-up called out in Section 4.2 and Table 3.
    """
    groups = group_indices(params.n, unroll_factor)
    tgsw_words = (params.k + 1) * params.l * (params.k + 1) * params.N
    total_keys = sum((1 << len(g)) - 1 for g in groups)
    return total_keys * tgsw_words * 4
