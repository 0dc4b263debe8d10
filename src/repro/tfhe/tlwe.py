"""Ring TLWE (TRLWE) encryption.

A TLWE sample in the ring setting encrypts a polynomial message
``mu ∈ T_N[X]`` under a key of ``k`` binary polynomials: the sample is
``(a_1..a_k, b)`` with ``b = Σ a_j·s_j + mu + e``.  The paper fixes ``k = 1``
so a sample is a pair of torus polynomials (a Ring-LWE sample).

The blind-rotation accumulator ``ACC`` of Algorithm 1 is a TLWE sample, and
the final ``SampleExtract`` step turns its constant coefficient into a scalar
LWE sample under the *extracted* key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.tfhe.lwe import LweBatch, LweKey
from repro.tfhe.params import LweParams, TlweParams
from repro.tfhe.torus import gaussian_torus32, torus32_from_int64, uniform_torus32
from repro.tfhe.transform import NegacyclicTransform
from repro.utils.rng import SeedLike, make_rng


@dataclass
class TlweSample:
    """A ring TLWE ciphertext: ``k`` mask polynomials plus the body polynomial.

    ``data`` has shape ``(k + 1, N)``; rows ``0..k-1`` are the mask ``a`` and
    row ``k`` is the body ``b``.
    """

    data: np.ndarray  # int32[(k+1), N]

    @property
    def mask_count(self) -> int:
        return int(self.data.shape[0]) - 1

    @property
    def degree(self) -> int:
        return int(self.data.shape[1])

    @property
    def a(self) -> np.ndarray:
        return self.data[:-1]

    @property
    def b(self) -> np.ndarray:
        return self.data[-1]

    def copy(self) -> "TlweSample":
        return TlweSample(self.data.copy())


@dataclass
class TlweBatch:
    """A batch of ``B`` ring TLWE ciphertexts: ``data`` has shape ``(B, k+1, N)``.

    The batched blind rotation carries one accumulator per in-flight
    bootstrapping; every operation treats the rows independently, so one
    ciphertext is a one-row batch.
    """

    data: np.ndarray  # int32[B, (k+1), N]

    @property
    def batch_size(self) -> int:
        return int(self.data.shape[0])

    @property
    def mask_count(self) -> int:
        return int(self.data.shape[1]) - 1

    @property
    def degree(self) -> int:
        return int(self.data.shape[2])

    def __len__(self) -> int:
        return self.batch_size

    def __getitem__(self, index: int) -> TlweSample:
        return TlweSample(self.data[index].copy())

    def copy(self) -> "TlweBatch":
        return TlweBatch(self.data.copy())

    @classmethod
    def from_samples(cls, samples) -> "TlweBatch":
        samples = list(samples)
        if not samples:
            raise ValueError("cannot build an empty batch")
        return cls(np.stack([s.data for s in samples]).astype(np.int32))

    def to_samples(self) -> List[TlweSample]:
        return [self[i] for i in range(self.batch_size)]


@dataclass
class TlweKey:
    """A ring TLWE secret key: ``k`` binary polynomials."""

    params: TlweParams
    key: np.ndarray  # int32[k, N] with entries in {0, 1}

    @property
    def degree(self) -> int:
        return int(self.key.shape[1])

    @property
    def mask_count(self) -> int:
        return int(self.key.shape[0])


def tlwe_key_generate(params: TlweParams, rng: SeedLike = None) -> TlweKey:
    """Sample a ring key of ``k`` uniform binary polynomials."""
    rng = make_rng(rng)
    key = rng.integers(
        0, 2, size=(params.mask_count, params.degree), dtype=np.int64
    ).astype(np.int32)
    return TlweKey(params=params, key=key)


def tlwe_encrypt(
    key: TlweKey,
    message: np.ndarray,
    transform: NegacyclicTransform,
    noise_stddev: float | None = None,
    rng: SeedLike = None,
) -> TlweSample:
    """Encrypt a torus polynomial message."""
    rng = make_rng(rng)
    params = key.params
    stddev = params.noise_stddev if noise_stddev is None else noise_stddev
    data = np.zeros((params.mask_count + 1, params.degree), dtype=np.int32)
    body = gaussian_torus32(stddev, size=params.degree, rng=rng).astype(np.int64)
    for j in range(params.mask_count):
        a_j = uniform_torus32(params.degree, rng)
        data[j] = a_j
        body += transform.multiply(key.key[j], a_j).astype(np.int64)
    body += np.asarray(message, dtype=np.int32).astype(np.int64)
    data[-1] = torus32_from_int64(body)
    return TlweSample(data)


def tlwe_extract_lwe_key(key: TlweKey) -> LweKey:
    """Extract the scalar LWE key corresponding to a ring key (KeyExtract).

    The extracted key is simply the concatenation of the polynomial key
    coefficients; it has dimension ``k·N``.
    """
    flat = key.key.reshape(-1).astype(np.int32)
    params = LweParams(
        dimension=int(flat.shape[0]), noise_stddev=key.params.noise_stddev
    )
    return LweKey(params=params, key=flat)


# --------------------------------------------------------------------------- #
# batched operations                                                          #
# --------------------------------------------------------------------------- #


def tlwe_batch_trivial(message: np.ndarray, mask_count: int, batch_size: int) -> TlweBatch:
    """A batch of trivial encryptions of ``message`` (shape ``(N,)`` or ``(B, N)``)."""
    if batch_size <= 0:
        raise ValueError("batch size must be positive")
    message = np.asarray(message, dtype=np.int32)
    degree = message.shape[-1]
    data = np.zeros((batch_size, mask_count + 1, degree), dtype=np.int32)
    data[:, -1, :] = message
    return TlweBatch(data)


def tlwe_batch_rotate(batch: TlweBatch, powers: np.ndarray) -> TlweBatch:
    """Multiply ciphertext ``i`` of the batch by ``X^{powers[i]}`` (mod ``X^N+1``).

    Every ciphertext gets its *own* power — this is the ``X^{−b̄}·(0, testv)``
    initialisation of Algorithm 1, one rotation amount per in-flight gate.
    ``X^p·c`` is read the way the blind-rotation step reads it: the
    length-``N`` window starting at ``(−p) mod 2N`` of the uint32 words
    ``[c, −c, c]`` (negation mod 2^32 *is* the negacyclic sign flip), so the
    whole batch is one concatenation and one sliding-window gather.
    """
    powers = np.asarray(powers, dtype=np.int64)
    if powers.shape != (batch.batch_size,):
        raise ValueError("one rotation power per batched ciphertext is required")
    words = np.asarray(batch.data, dtype=np.int32).view(np.uint32)
    degree = words.shape[-1]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([words, -words, words], axis=-1), degree, axis=-1
    )
    rotated = windows[np.arange(len(powers)), :, -powers % (2 * degree)]
    return TlweBatch(rotated.view(np.int32))


def tlwe_batch_sample_extract(batch: TlweBatch, index: int = 0) -> LweBatch:
    """``SampleExtract`` (Algorithm 1): coefficient ``index`` of every
    ciphertext's message as a scalar LWE ciphertext under the extracted key.

    All ``k`` mask polynomials of every batched ciphertext extract in one
    vectorised pass (no per-``k`` Python loop).
    """
    k = batch.mask_count
    degree = batch.degree
    if not 0 <= index < degree:
        raise ValueError("extraction index out of range")
    rows = batch.data[:, :k, :].astype(np.int64)  # (B, k, N)
    extracted = np.empty((batch.batch_size, k, degree), dtype=np.int64)
    extracted[..., : index + 1] = rows[..., index::-1]
    if index + 1 < degree:
        extracted[..., index + 1 :] = -rows[..., :index:-1]
    a = torus32_from_int64(extracted).reshape(batch.batch_size, k * degree)
    return LweBatch(a=a, b=batch.data[:, -1, index].copy())
