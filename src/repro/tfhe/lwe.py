"""Scalar TLWE (LWE over the torus) encryption.

A TLWE sample under a binary secret key ``s ∈ B^n`` is a pair ``(a, b)`` with
``a`` uniform in ``T^n`` and ``b = a·s + e + m`` where ``e`` is Gaussian noise
and ``m`` the torus-encoded message (Section 2 of the paper).  Gate
bootstrapping encodes Boolean messages at the torus points ``±1/8``.

Besides the scalar :class:`LweSample` this module provides :class:`LweBatch`,
a stack of ``B`` independent ciphertexts stored as contiguous arrays, plus the
matching vectorised linear operations (``lwe_batch_*``).  Batched results are
bit-identical to applying the scalar operation to each element of the stack.

A fresh encryption does not draw its mask word by word: it draws a 128-bit
``seed`` (four int32 words) per row from the caller's ``rng`` and expands it
with :func:`lwe_masks` (SHAKE-128 under a fixed domain tag).  The ciphertext
keeps the seed, so :mod:`repro.tfhe.serialize` writes ``seed`` + ``b`` — 20
bytes of payload whatever ``n`` — and a reader regenerates ``a``.  While a
seed is set, ``a`` is read-only, so no in-place edit can leave a stale seed
behind; :meth:`LweSample.copy` gives a writable, unseeded ciphertext.  Every
derived ciphertext (a sum, a key switch, a bootstrap) carries no seed.

A derived ciphertext bound for a client or for another bootstrap may be
rounded first: :func:`lwe_round_mask` keeps the top :data:`ROUNDED_MASK_BITS`
bits of every mask word (a public modulus switch, like the first step of a
bootstrap, so no key is involved), and :mod:`repro.tfhe.serialize` then
writes the mask's high halves only.

Security: the seed is public, like the mask it stands for, and the mask's
pseudorandomness rests on SHAKE-128.  Seeds and noise come from the caller's
NumPy ``rng`` (PCG64 — not a CSPRNG), so a deployment passes one seeded from
:mod:`secrets` (``np.random.default_rng(secrets.randbits(128))``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.tfhe.params import DigitEncoding, LweParams
from repro.tfhe.torus import (
    double_to_torus32,
    gaussian_torus32,
    modswitch_from_torus32,
    modswitch_to_torus32,
    torus32_from_int64,
    torus32_to_double,
    uniform_torus32,
)
from repro.utils.rng import SeedLike, make_rng

#: int32 words of a mask seed (128 bits).
SEED_WORDS = 4
#: Prefixed to every seed before expansion, so a mask stream can never be
#: mistaken for another use of SHAKE-128 with the same 16 bytes.
_MASK_DOMAIN = b"repro-tfhe/lwe-mask/v1\x00"
_MASK_XOF = hashlib.shake_128(_MASK_DOMAIN)
_SEED_BYTES = 4 * SEED_WORDS
#: Seeds are hashed, and masks read, as little-endian words on every platform.
_WORD = np.dtype("<i4")
#: Bits of each mask word that :func:`lwe_round_mask` keeps: the high half
#: word, which is what :mod:`repro.tfhe.serialize`'s ``a_hi`` layout stores.
ROUNDED_MASK_BITS = 16
_ROUND_HALF = np.uint32(1 << (31 - ROUNDED_MASK_BITS))
_KEPT_BITS = np.uint32(2**32 - 2 ** (32 - ROUNDED_MASK_BITS))


def lwe_masks(seeds, n: int) -> np.ndarray:
    """The uniform masks that 128-bit seeds expand to (read-only int32).

    ``seeds`` is int32 of shape ``(4,)`` or ``(B, 4)``; the result has shape
    ``(n,)`` or ``(B, n)``.  A row's mask is the first ``4n`` bytes of
    SHAKE-128 over :data:`_MASK_DOMAIN` then the seed's 16 little-endian
    bytes, read as little-endian int32 — the same words on every platform.
    The one expander of fresh masks: encryption and every reader call it.
    """
    seeds = np.asarray(seeds)
    if seeds.dtype != np.int32 or seeds.shape[-1:] != (SEED_WORDS,) or seeds.ndim > 2:
        raise ValueError(
            f"seeds must be int32 of shape (4,) or (B, 4), not {seeds.dtype} {seeds.shape}"
        )
    if type(n) is not int or n < 1:
        raise ValueError(f"mask length must be a positive int, not {n!r}")
    raw = seeds.astype(_WORD, copy=False).tobytes()
    streams = []
    for start in range(0, len(raw), _SEED_BYTES):
        xof = _MASK_XOF.copy()
        xof.update(raw[start : start + _SEED_BYTES])
        streams.append(xof.digest(4 * n))
    masks = np.frombuffer(b"".join(streams), _WORD).astype(np.int32, copy=False)
    if masks.flags.writeable:  # a big-endian host's converted copy
        masks.flags.writeable = False
    return masks if seeds.ndim == 1 else masks.reshape(len(seeds), n)


def _read_only(array) -> np.ndarray:
    """``array`` if it already is a read-only ndarray, else a read-only view."""
    if type(array) is np.ndarray and not array.flags.writeable:
        return array
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


def _seed(seed, shape) -> np.ndarray:
    seed = _read_only(seed)
    if seed.dtype != np.int32 or seed.shape != shape:
        raise ValueError(f"seed must be int32 of shape {shape}, not {seed.dtype} {seed.shape}")
    return seed


@dataclass
class LweSample:
    """A scalar LWE ciphertext ``(a, b)`` over the discretised torus.

    ``seed`` (int32[4]) is set on a fresh encryption only: ``a`` is then
    ``lwe_masks(seed, n)`` and read-only, and the sample is written as its
    seed.
    """

    a: np.ndarray  # int32[n]
    b: np.int32
    seed: Optional[np.ndarray] = None  # int32[4]

    def __post_init__(self) -> None:
        if self.seed is not None:
            self.seed = _seed(self.seed, (SEED_WORDS,))
            self.a = _read_only(self.a)

    def __reduce__(self):
        # Through __init__, so an unpickled seeded sample's ``a`` is read-only too.
        return (LweSample, (self.a, self.b, self.seed))

    @property
    def dimension(self) -> int:
        return int(self.a.shape[0])

    def copy(self) -> "LweSample":
        """A deep copy (fresh, writable arrays, same ciphertext value, no seed)."""
        return LweSample(self.a.copy(), np.int32(self.b))


@dataclass
class LweBatch:
    """A batch of ``B`` independent LWE ciphertexts under one key.

    ``a`` has shape ``(B, n)`` and ``b`` shape ``(B,)``; row ``i`` is the
    ciphertext ``(a[i], b[i])``.  The batch axis only amortises dispatch
    overhead — every batched operation is bit-identical to looping the scalar
    one over the rows.  ``seed`` (int32[B, 4]) is set when every row is a
    fresh encryption: ``a`` is then ``lwe_masks(seed, n)`` and read-only.
    """

    a: np.ndarray  # int32[B, n]
    b: np.ndarray  # int32[B]
    seed: Optional[np.ndarray] = None  # int32[B, 4]

    def __post_init__(self) -> None:
        if self.seed is not None:
            self.seed = _seed(self.seed, (self.a.shape[0], SEED_WORDS))
            self.a = _read_only(self.a)

    def __reduce__(self):
        return (LweBatch, (self.a, self.b, self.seed))

    @property
    def batch_size(self) -> int:
        return int(self.a.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.a.shape[1])

    def __len__(self) -> int:
        return self.batch_size

    def __getitem__(self, index: int) -> LweSample:
        seed = None if self.seed is None else self.seed[index].copy()
        return LweSample(a=self.a[index].copy(), b=np.int32(self.b[index]), seed=seed)

    def copy(self) -> "LweBatch":
        """A deep copy of the whole batch (writable, no seeds)."""
        return LweBatch(self.a.copy(), self.b.copy())

    @classmethod
    def from_samples(cls, samples: Iterable[LweSample]) -> "LweBatch":
        """Stack samples as rows; seeds are kept when every sample has one."""
        samples = list(samples)
        if not samples:
            raise ValueError("cannot build an empty batch")
        a = np.stack([s.a for s in samples]).astype(np.int32)
        b = np.array([np.int32(s.b) for s in samples], dtype=np.int32)
        seeds = [s.seed for s in samples]
        seed = None
        if all(x is not None for x in seeds):
            # Every seed is int32 (4,): their concatenation is their stack, cheaper.
            seed = np.concatenate(seeds).reshape(-1, SEED_WORDS)
        return cls(a=a, b=b, seed=seed)

    def to_samples(self) -> List[LweSample]:
        """Unpack the batch into independent scalar samples (row order)."""
        return [self[i] for i in range(self.batch_size)]

    def rows(self, start: int, stop: int) -> "LweBatch":
        """A copy of rows ``[start, stop)`` as a new, independent batch."""
        if not (0 <= start < stop <= self.batch_size):
            raise ValueError("row range out of bounds")
        seed = None if self.seed is None else self.seed[start:stop].copy()
        return LweBatch(a=self.a[start:stop].copy(), b=self.b[start:stop].copy(), seed=seed)


@dataclass
class LweKey:
    """A binary LWE secret key."""

    params: LweParams
    key: np.ndarray  # int32[n] with entries in {0, 1}

    @property
    def dimension(self) -> int:
        return int(self.key.shape[0])


def lwe_key_generate(params: LweParams, rng: SeedLike = None) -> LweKey:
    """Sample a uniform binary secret key ``s ← B^n``."""
    rng = make_rng(rng)
    key = rng.integers(0, 2, size=params.dimension, dtype=np.int64).astype(np.int32)
    return LweKey(params=params, key=key)


def lwe_encrypt(
    key: LweKey,
    message: np.int32,
    noise_stddev: float | None = None,
    rng: SeedLike = None,
) -> LweSample:
    """Encrypt a torus message: ``b = a·s + e + message``, with ``a`` the
    expansion of a seed drawn from ``rng`` (kept on the sample)."""
    rng = make_rng(rng)
    stddev = key.params.noise_stddev if noise_stddev is None else noise_stddev
    seed = uniform_torus32(SEED_WORDS, rng)
    a = lwe_masks(seed, key.dimension)
    noise = gaussian_torus32(stddev, size=None, rng=rng)
    phase = int(np.dot(a.astype(np.int64), key.key.astype(np.int64)))
    b = torus32_from_int64(phase + int(noise) + int(np.int64(message)))
    return LweSample(a=a, b=np.int32(b), seed=seed)


def lwe_encrypt_trivial(dimension: int, message: np.int32) -> LweSample:
    """A noiseless, keyless ("trivial") encryption: ``a = 0, b = message``.

    Trivial samples encrypt public constants; they are used for the constant
    gate and as the starting accumulator of a bootstrapping.
    """
    return LweSample(a=np.zeros(dimension, dtype=np.int32), b=np.int32(message))


def lwe_phase(key: LweKey, sample: LweSample) -> np.int32:
    """The phase ``b - a·s`` (message plus noise) of a sample."""
    dot = int(np.dot(sample.a.astype(np.int64), key.key.astype(np.int64)))
    return np.int32(torus32_from_int64(int(np.int64(sample.b)) - dot))


def lwe_decrypt_bit(key: LweKey, sample: LweSample) -> int:
    """Decrypt a gate-bootstrapping ciphertext (messages at ``±1/8``) to a bit.

    Decryption follows the paper's description: the phase is computed and
    the noise is rounded away by looking only at its sign.
    """
    phase = lwe_phase(key, sample)
    return int(phase > 0)


def lwe_noise(key: LweKey, sample: LweSample, message: np.int32) -> float:
    """The (signed, real-valued) noise of a sample given its true message."""
    phase = lwe_phase(key, sample)
    return float(torus32_to_double(torus32_from_int64(int(phase) - int(np.int64(message)))))


def lwe_add(x: LweSample, y: LweSample) -> LweSample:
    """Homomorphic addition of two LWE samples."""
    a = torus32_from_int64(x.a.astype(np.int64) + y.a.astype(np.int64))
    b = torus32_from_int64(int(np.int64(x.b)) + int(np.int64(y.b)))
    return LweSample(a=a, b=np.int32(b))


def lwe_negate(x: LweSample) -> LweSample:
    """Homomorphic negation of an LWE sample."""
    a = torus32_from_int64(-x.a.astype(np.int64))
    b = torus32_from_int64(-int(np.int64(x.b)))
    return LweSample(a=a, b=np.int32(b))


def lwe_scale(scalar: int, x: LweSample) -> LweSample:
    """Multiply an LWE sample by a small public integer."""
    a = torus32_from_int64(int(scalar) * x.a.astype(np.int64))
    b = torus32_from_int64(int(scalar) * int(np.int64(x.b)))
    return LweSample(a=a, b=np.int32(b))


def lwe_add_constant(x: LweSample, constant: np.int32) -> LweSample:
    """Add a public torus constant to the message of an LWE sample."""
    b = torus32_from_int64(int(np.int64(x.b)) + int(np.int64(constant)))
    return LweSample(a=x.a.copy(), b=np.int32(b))


def lwe_round_mask(x):
    """``x`` (a sample or a batch) with every mask word rounded to its top
    :data:`ROUNDED_MASK_BITS` bits: ``a ← (a + 2¹⁵) & 0xFFFF0000``, wrapping.

    ``b`` stays exact and the result carries no seed.  The phase moves by
    ``−Σ (a'_i − a_i)·s_i``, each term uniform in ``[−2⁻¹⁷, 2⁻¹⁷)`` on the
    torus (:meth:`repro.tfhe.noise.TfheNoiseModel.reply_rounding_variance`).
    """
    rounded = np.asarray(x.a, dtype=np.int32).view(np.uint32) + _ROUND_HALF
    rounded &= _KEPT_BITS
    if isinstance(x, LweBatch):
        return LweBatch(a=rounded.view(np.int32), b=np.array(x.b, dtype=np.int32))
    return LweSample(a=rounded.view(np.int32), b=np.int32(x.b))


def gate_message(bit: int) -> np.int32:
    """Torus encoding of a Boolean for gate bootstrapping: ``±1/8``."""
    mu = double_to_torus32(0.125)
    return np.int32(mu if bit else -mu)


# --------------------------------------------------------------------------- #
# multi-bit digit encoding (programmable bootstrapping)                       #
# --------------------------------------------------------------------------- #


def digit_message(value: int, encoding: DigitEncoding) -> np.int32:
    """Torus encoding of one radix digit: slot ``value`` of ``2P`` slots.

    Valid digits lie in ``[0, P)`` so the encoded phase stays in ``[0, 1/2)``
    — the padding bit that makes the negacyclic blind rotation a true lookup.
    """
    value = int(value)
    if not 0 <= value < encoding.space:
        raise ValueError(
            f"digit {value} out of range [0, {encoding.space}) for a "
            f"{encoding.message_bits}+{encoding.carry_bits}-bit encoding"
        )
    return np.int32(modswitch_to_torus32(value, encoding.torus_space))


def digit_decode(phase, encoding: DigitEncoding) -> int:
    """Round a torus phase to the nearest of the ``2P`` digit slots.

    Valid ciphertexts decode into ``[0, P)``; a result in ``[P, 2P)`` means
    the padding bit was violated (carry overflow or noise beyond the margin).
    """
    return int(modswitch_from_torus32(int(phase), encoding.torus_space))


def encrypt_digit(
    key: LweKey,
    value: int,
    encoding: DigitEncoding,
    noise_stddev: float | None = None,
    rng: SeedLike = None,
) -> LweSample:
    """Encrypt one radix digit ``value ∈ [0, P)`` under ``encoding``."""
    return lwe_encrypt(key, digit_message(value, encoding), noise_stddev, rng)


def decrypt_digit(key: LweKey, sample: LweSample, encoding: DigitEncoding) -> int:
    """Decrypt a digit ciphertext back to its plaintext slot in ``[0, 2P)``."""
    return digit_decode(lwe_phase(key, sample), encoding)


# --------------------------------------------------------------------------- #
# batched linear algebra                                                      #
# --------------------------------------------------------------------------- #


def lwe_batch_trivial(batch_size: int, dimension: int, message) -> LweBatch:
    """A batch of trivial encryptions; ``message`` is a scalar or a ``(B,)`` array."""
    if batch_size <= 0:
        raise ValueError("batch size must be positive")
    a = np.zeros((batch_size, dimension), dtype=np.int32)
    b = np.broadcast_to(np.asarray(message, dtype=np.int32), (batch_size,)).copy()
    return LweBatch(a=a, b=b)


def lwe_batch_phase(key: LweKey, batch: LweBatch) -> np.ndarray:
    """The per-ciphertext phases ``b - a·s`` of a batch, shape ``(B,)``."""
    dot = batch.a.astype(np.int64) @ key.key.astype(np.int64)
    return torus32_from_int64(batch.b.astype(np.int64) - dot)


def lwe_batch_decrypt_bits(key: LweKey, batch: LweBatch) -> np.ndarray:
    """Decrypt a batch of gate-bootstrapping ciphertexts to a ``(B,)`` bit array."""
    return (lwe_batch_phase(key, batch) > 0).astype(np.int64)


def lwe_batch_negate(x: LweBatch) -> LweBatch:
    """Elementwise homomorphic negation of a batch."""
    return LweBatch(
        a=torus32_from_int64(-x.a.astype(np.int64)),
        b=torus32_from_int64(-x.b.astype(np.int64)),
    )


def lwe_batch_concat(batches) -> LweBatch:
    """Stack several batches (same dimension) into one along the batch axis.

    The level-parallel circuit executor uses this to pack the operands of all
    gates in one dependency level — ``gates × words`` rows — into the single
    mixed-gate bootstrapping call of that level.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("cannot concatenate zero batches")
    dimension = batches[0].dimension
    if any(batch.dimension != dimension for batch in batches):
        raise ValueError("all batches must share the LWE dimension")
    return LweBatch(
        a=np.concatenate([batch.a for batch in batches], axis=0),
        b=np.concatenate([batch.b for batch in batches], axis=0),
    )
