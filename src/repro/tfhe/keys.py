"""Key material: secret keys, bootstrapping keys and the cloud key set.

The client generates a :class:`TFHESecretKey` and derives from it a
:class:`TFHECloudKey` (bootstrapping key + key-switching key) which is shipped
to the server.  The cloud key is *pure data*: it holds the coefficient-domain
TGSW samples of the bootstrapping key, the key-switching key and a
:class:`repro.tfhe.transform.TransformSpec` naming the engine it was generated
for — everything a server needs to rebuild the evaluation state, and
everything :mod:`repro.tfhe.serialize` writes to disk.

The *evaluation* state — the resolved transform engine and the blind rotator
whose TGSW rows are forward-transformed into the Lagrange domain — lives in a
:class:`repro.runtime.context.FheContext`.  The context transforms each
cloud-key row exactly once and caches the spectra, so gates never re-transform
key material.  :meth:`TFHECloudKey.default_context` lazily builds (and
memoises) one such context on the key; its ``rotator`` and ``engine`` are the
key's default evaluation state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.tfhe.keyswitch import KeySwitchKey, keyswitch_key_generate
from repro.tfhe.lwe import LweKey, lwe_key_generate
from repro.tfhe.params import TFHEParameters
from repro.tfhe.tgsw import TgswSample, tgsw_encrypt
from repro.tfhe.tlwe import TlweKey, tlwe_extract_lwe_key, tlwe_key_generate
from repro.tfhe.transform import NegacyclicTransform, TransformSpec, make_transform
from repro.utils.rng import SeedLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime builds on keys)
    from repro.runtime.context import FheContext


@dataclass
class TFHESecretKey:
    """The client-side key material."""

    params: TFHEParameters
    lwe_key: LweKey
    tlwe_key: TlweKey
    extracted_key: LweKey


def group_indices(n: int, unroll_factor: int) -> List[List[int]]:
    """Partition the LWE key indices ``0..n-1`` into groups of ``m`` bits.

    The last group may be smaller when ``m`` does not divide ``n``.
    """
    if unroll_factor < 1:
        raise ValueError("unroll factor must be >= 1")
    return [
        list(range(start, min(start + unroll_factor, n)))
        for start in range(0, n, unroll_factor)
    ]


def indicator_message(bits: Sequence[int], pattern: int) -> int:
    """The plaintext ``Π s_j^{p_j} (1 − s_j)^{1 − p_j}`` for a bit pattern."""
    product = 1
    for j, bit in enumerate(bits):
        selected = (pattern >> j) & 1
        product *= bit if selected else (1 - bit)
    return product


@dataclass
class TFHECloudKey:
    """The server-side (public) evaluation key material — pure data.

    ``bootstrapping_key`` is one flat list of coefficient-domain TGSW samples
    for every unroll factor (see :func:`generate_bootstrapping_key`): at
    ``unroll_factor == 1`` one per key bit, under BKU the ``2^|g| − 1``
    indicator encryptions of each group ``g`` in turn.
    ``transform_spec`` records the engine the key was generated for (``None``
    for ad-hoc engines, e.g. test proxies — such keys still evaluate through
    the attached engine instance but cannot be serialized).

    :meth:`default_context` lazily builds a default
    :class:`repro.runtime.context.FheContext` around this key; the context
    pre-transforms every bootstrapping-key row into the Lagrange domain
    exactly once (the spectrum cache) and memoises the rotator.
    """

    params: TFHEParameters
    keyswitch_key: KeySwitchKey
    unroll_factor: int
    transform_spec: Optional[TransformSpec]
    bootstrapping_key: List[TgswSample]
    #: Engine instance the key was generated with (kept so the default
    #: context reuses it — same counters, bit-identical behaviour); rebuilt
    #: from ``transform_spec`` after deserialization.
    _engine: Optional[NegacyclicTransform] = field(
        default=None, repr=False, compare=False
    )
    _context: Optional["FheContext"] = field(default=None, repr=False, compare=False)

    def default_context(self) -> "FheContext":
        """The memoised default evaluation context of this key."""
        if self._context is None:
            from repro.runtime.context import FheContext

            self._context = FheContext(self, engine=self._engine)
        return self._context


def generate_secret_key(
    params: TFHEParameters, rng: SeedLike = None
) -> TFHESecretKey:
    """Generate the LWE and ring keys of a client."""
    rng = make_rng(rng)
    lwe_key = lwe_key_generate(params.lwe, rng)
    tlwe_key = tlwe_key_generate(params.tlwe, rng)
    extracted = tlwe_extract_lwe_key(tlwe_key)
    return TFHESecretKey(
        params=params, lwe_key=lwe_key, tlwe_key=tlwe_key, extracted_key=extracted
    )


def generate_bootstrapping_key(
    secret: TFHESecretKey,
    transform: NegacyclicTransform,
    unroll_factor: int,
    rng: SeedLike = None,
) -> List[TgswSample]:
    """The bootstrapping key, coefficient domain, as one flat TGSW list.

    For each group ``g`` of :func:`group_indices` in turn, the encryptions of
    the indicators of patterns ``1 … 2^|g| − 1`` (Figure 5).  At
    ``unroll_factor == 1`` the one indicator of a group is its key bit, so
    this is the classical key: one TGSW sample per bit.
    """
    rng = make_rng(rng)
    params = secret.params
    key_bits = [int(bit) for bit in secret.lwe_key.key]
    return [
        tgsw_encrypt(
            secret.tlwe_key,
            indicator_message([key_bits[i] for i in indices], pattern),
            params.tgsw,
            transform,
            noise_stddev=params.tlwe.noise_stddev,
            rng=rng,
        )
        for indices in group_indices(params.n, unroll_factor)
        for pattern in range(1, 1 << len(indices))
    ]


def generate_cloud_key(
    secret: TFHESecretKey,
    transform: Optional[NegacyclicTransform] = None,
    unroll_factor: int = 1,
    rng: SeedLike = None,
    eager: bool = True,
) -> TFHECloudKey:
    """Derive the server-side evaluation key from a secret key.

    ``unroll_factor`` selects the blind-rotation strategy: ``1`` generates the
    classical per-bit key, ``m >= 2`` the BKU key of :mod:`repro.core.bku`
    with ``2^m − 1`` TGSW samples per group of ``m`` LWE key bits.  With
    ``eager=True`` (the default) the key's default evaluation context is
    built immediately — the bootstrapping-key spectra are transformed here,
    at key-generation time; pass ``eager=False`` to defer the spectrum cache
    to first use (what a key read by :func:`repro.tfhe.serialize.load` gets).
    """
    rng = make_rng(rng)
    params = secret.params
    if transform is None:
        transform = make_transform("double", params.N)
    bootstrapping_key = generate_bootstrapping_key(secret, transform, unroll_factor, rng)
    keyswitch_key = keyswitch_key_generate(
        secret.extracted_key, secret.lwe_key, params.keyswitch, rng
    )
    cloud = TFHECloudKey(
        params=params,
        keyswitch_key=keyswitch_key,
        unroll_factor=unroll_factor,
        transform_spec=transform.spec(),
        bootstrapping_key=bootstrapping_key,
        _engine=transform,
    )
    if eager:
        cloud.default_context().rotator  # build the spectrum cache now
    return cloud


def generate_keys(
    params: TFHEParameters,
    transform: Optional[NegacyclicTransform] = None,
    unroll_factor: int = 1,
    rng: SeedLike = None,
    eager: bool = True,
) -> tuple[TFHESecretKey, TFHECloudKey]:
    """Generate a matching (secret key, cloud key) pair in one call.

    ``eager=False`` skips building the spectrum cache — right for callers
    that only serialize the key (the loading context rebuilds the cache).
    """
    rng = make_rng(rng)
    secret = generate_secret_key(params, rng)
    cloud = generate_cloud_key(secret, transform, unroll_factor, rng, eager=eager)
    return secret, cloud
