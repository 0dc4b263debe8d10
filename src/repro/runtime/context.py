"""The FHE evaluation context: resolved engine + spectrum-cached cloud key.

A :class:`repro.tfhe.keys.TFHECloudKey` is pure data — coefficient-domain
TGSW samples, the key-switching key and a
:class:`repro.tfhe.transform.TransformSpec`.  An :class:`FheContext` turns
that data into evaluation state, the way the paper's accelerator keeps the
bootstrapping key resident next to the datapath and streams ciphertexts past
it:

* the transform engine is built from the key's recorded spec, or an
  instance supplied explicitly — e.g. to evaluate a ``double``-generated key
  with the ``approx`` engine for error studies;
* every bootstrapping-key row is ``forward()``-transformed into the Lagrange
  domain **exactly once per context** and cached inside the blind rotator —
  the *cloud-key spectrum cache*.  Gates only ever transform the small
  decomposed accumulator polynomials;
* batch evaluators hang off the context and share the cache, so scalar
  gates (``TFHEGateEvaluator(context)``), batched gates and level-parallel
  circuit runs (``CircuitExecutor.for_context``) all hit the same resident
  key spectra through one ``bootstrap_rows``.

``TFHECloudKey.default_context()`` memoises one context on the key, which is
what ``TFHEGateEvaluator(cloud)`` and ``generate_cloud_key(eager=True)`` use.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.tfhe.bootstrap import BlindRotator, CmuxBlindRotator
from repro.tfhe.gates import BatchGateEvaluator
from repro.tfhe.keys import (
    TFHECloudKey,
    TFHEParameters,
    TFHESecretKey,
    generate_cloud_key,
    generate_secret_key,
)
from repro.tfhe.keyswitch import KeySwitchKey
from repro.tfhe.tgsw import BootstrapWorkspace, TransformedTgswSample, tgsw_transform
from repro.tfhe.transform import EngineFault, NegacyclicTransform
from repro.utils.rng import SeedLike, make_rng


def same_cloud_key(a: TFHECloudKey, b: TFHECloudKey) -> bool:
    """Whether two cloud keys are the *identical* key, array for array.

    Exact, not a digest: a checksum can be forged, and a false match would
    run one tenant's ciphertexts under another's context.  Compared
    cheapest-first — parameters, unroll factor and transform spec, then the
    TGSW samples one by one (a different key differs in its first), the big
    key-switching table last — so only a genuine duplicate pays for a full
    pass over the arrays.
    """
    if a is b:
        return True
    if (a.params, a.unroll_factor, a.transform_spec) != (
        b.params,
        b.unroll_factor,
        b.transform_spec,
    ):
        return False
    samples_a, samples_b = a.bootstrapping_key, b.bootstrapping_key
    return (
        len(samples_a) == len(samples_b)
        and all(np.array_equal(x.data, y.data) for x, y in zip(samples_a, samples_b))
        and np.array_equal(a.keyswitch_key.data, b.keyswitch_key.data)
    )


def resolve_engine(
    cloud_key: TFHECloudKey,
    engine: Optional[NegacyclicTransform] = None,
) -> NegacyclicTransform:
    """The engine a context of ``cloud_key`` runs on.

    An already-built :class:`NegacyclicTransform` instance (in-process error
    studies, a pool worker rebuilding its parent's engine) is returned as-is;
    ``None`` builds the key's recorded ``transform_spec`` (an unregistered
    kind raises :class:`repro.tfhe.transform.UnsupportedEngine`).
    """
    if engine is not None:
        return engine
    spec = cloud_key.transform_spec
    if spec is None:
        raise ValueError(
            "cloud key records no transform spec (ad-hoc engine); "
            "pass an engine instance explicitly"
        )
    return spec.create(cloud_key.params.N)


class FheContext:
    """Owns the evaluation state derived from one cloud key.

    ``engine`` defaults to the engine the key's ``transform_spec`` records
    (see :func:`resolve_engine`); pass an instance to evaluate the key on
    another engine.
    """

    def __init__(
        self,
        cloud_key: TFHECloudKey,
        engine: Optional[NegacyclicTransform] = None,
    ) -> None:
        self.cloud_key = cloud_key
        self.params: TFHEParameters = cloud_key.params
        engine = resolve_engine(cloud_key, engine)
        if engine.degree != self.params.N:
            raise ValueError(
                f"engine degree {engine.degree} does not match the "
                f"parameter set's ring degree {self.params.N}"
            )
        self.engine = engine
        self._rotator: Optional[BlindRotator] = None
        self._batch_evaluators: Dict[int, BatchGateEvaluator] = {}
        #: Scratch buffers of the fused external-product kernel, shared by
        #: every bootstrapping this context runs (all rotator steps, all
        #: evaluators, every scheduler flush) — allocated once, reused for
        #: the lifetime of the context.
        self.workspace = BootstrapWorkspace()
        #: Optional :class:`repro.telemetry.Telemetry` bundle; set by the
        #: scheduler on registration so the innermost evaluator layer can
        #: record per-stage spans without an argument threaded through
        #: every call.  ``None`` keeps the fast path untouched.
        self.telemetry = None

    # -- construction helpers ----------------------------------------------
    @classmethod
    def generate(
        cls,
        params: TFHEParameters,
        transform: Optional[NegacyclicTransform] = None,
        unroll_factor: int = 1,
        rng: SeedLike = None,
    ) -> Tuple[TFHESecretKey, "FheContext"]:
        """Generate a fresh keypair and return ``(secret key, context)``."""
        rng = make_rng(rng)
        secret = generate_secret_key(params, rng)
        cloud = generate_cloud_key(secret, transform, unroll_factor, rng, eager=False)
        return secret, cloud.default_context()

    # -- owned state ---------------------------------------------------------
    @property
    def keyswitch_key(self) -> KeySwitchKey:
        return self.cloud_key.keyswitch_key

    @property
    def unroll_factor(self) -> int:
        return self.cloud_key.unroll_factor

    @property
    def rotator(self) -> BlindRotator:
        """The blind rotator over the spectrum-cached bootstrapping key."""
        if self._rotator is None:
            self.install_spectra(
                [tgsw_transform(sample, self.engine) for sample in self.cloud_key.bootstrapping_key]
            )
        return self._rotator

    @property
    def spectra_cached(self) -> bool:
        """Whether the cloud-key spectrum cache has been built yet."""
        return self._rotator is not None

    @property
    def cached_tgsw_samples(self) -> int:
        """TGSW samples held in the spectrum cache (0 until first use)."""
        return 0 if self._rotator is None else len(self._rotator.bootstrapping_key)

    def install_spectra(self, spectra: Sequence[TransformedTgswSample]) -> None:
        """Build this context's blind rotator over transformed key samples.

        The one place a rotator is built: :attr:`rotator` passes the
        forward transforms of the cloud key's samples; a pool worker
        (:mod:`repro.runtime.workers`) passes read-only views into a
        shared-memory segment, so every worker process maps the *same*
        physical cloud-key spectrum cache instead of forward-transforming
        its own copy.  ``spectra`` must be this key's samples in this
        context's engine; installing over an already-built cache is refused
        (the two caches would silently diverge).
        """
        if self._rotator is not None:
            raise RuntimeError(
                "context already built its spectrum cache; install_spectra "
                "must run before the first bootstrap"
            )
        if self.unroll_factor == 1:
            self._rotator = CmuxBlindRotator(spectra, self.engine, workspace=self.workspace)
            return
        # Imported lazily: repro.core builds on repro.tfhe, not the reverse.
        from repro.core.bku import UnrolledBlindRotator

        self._rotator = UnrolledBlindRotator(
            spectra, self.params, self.unroll_factor, self.engine, workspace=self.workspace
        )

    def failover(self, reason: str = "engine fault") -> None:
        """Rebuild the engine from its own spec after a runtime fault.

        Called when the engine raises :class:`repro.tfhe.transform.EngineFault`
        mid-evaluation.  A fresh instance of the same kind and options
        replaces it, and this context's derived state — spectrum cache,
        evaluators, workspace — is released so it is rebuilt lazily on the
        new engine; the replay is bit-identical to an unfaulted run.  The
        scheduler that calls it counts the rebuild
        (:attr:`repro.runtime.scheduler.SchedulerStats.engine_failovers`).

        Raises :class:`EngineFault` when the engine is ad-hoc (no spec to
        rebuild from).
        """
        spec = self.engine.spec()
        if spec is None:
            raise EngineFault(
                f"cannot rebuild an ad-hoc (unregistered) engine: {reason}"
            )
        self.engine = spec.create(self.params.N)
        self.release()

    def release(self) -> None:
        """Drop everything derived from the key: spectrum cache, evaluators,
        workspace.

        The evaluators point back at the context, so a context that is merely
        forgotten keeps its spectra until a cyclic GC pass; ``release`` breaks
        that cycle and frees the derived memory *now* — the scheduler calls it
        when a key's last client leaves.  A released context someone still
        holds stays usable: everything is rebuilt lazily on next use.
        """
        self._rotator = None
        self._batch_evaluators = {}
        self.workspace.clear()
        self.workspace = BootstrapWorkspace()

    @property
    def resident_bytes(self) -> int:
        """Bytes this context keeps resident, by arithmetic over its shapes.

        The cloud key's int32 arrays (TGSW coefficients + the
        ``(k·N, t, base − 1, n + 1)`` key-switching table) plus, once built,
        the spectrum cache at one complex128 per evaluation point (``N/2``
        per polynomial).  Workspace scratch is not
        counted — it tracks the widest batch seen, not the key.
        """
        params = self.params
        tgsw_polys = (params.k + 1) * params.l * (params.k + 1)
        return (
            self.cloud_key.keyswitch_key.data.nbytes
            + len(self.cloud_key.bootstrapping_key) * tgsw_polys * params.N * 4
            + self.cached_tgsw_samples * tgsw_polys * (params.N // 2) * 16
        )

    # -- evaluation entry points ---------------------------------------------
    def batch_evaluator(self, batch_size: int) -> BatchGateEvaluator:
        """The (memoised, per-width) batched gate evaluator of this context."""
        if batch_size not in self._batch_evaluators:
            self._batch_evaluators[batch_size] = BatchGateEvaluator(self, batch_size)
        return self._batch_evaluators[batch_size]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FheContext(params={self.params.name!r}, "
            f"engine={type(self.engine).__name__}, "
            f"unroll_factor={self.unroll_factor}, "
            f"cached={self.spectra_cached})"
        )
