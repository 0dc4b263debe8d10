"""Cross-engine property suite: every registered backend honours its contract.

The engine registry carries capabilities (error model, priority,
availability), and every engine promises a specific numerical contract
relative to the ``"double"`` reference:

* ``"exact"`` engines agree with the naive ground truth bit for bit;
* ``"fft64"`` engines (double, compiled) are **bit-identical to each
  other** — the compiled fast path may be faster, never different;
* ``"approx"`` engines only owe functional correctness within the
  Figure-8 error budget.

Every test here parameterizes over **all registered engines** and skips
unavailable ones with the registry's own reason string; the availability
layer itself is exercised through a ``ghost`` backend whose probe always
fails (no in-tree engine has an optional hard dependency).  Coverage spans the
full stack: raw external products, gate bootstrap + keyswitch on both
rotators (classical CMux and BKU m=2), programmable-bootstrap LUTs,
worker-pool sharding under a non-default engine, the auto-selection layer,
and the serving front's ``unsupported_engine`` error path.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.runtime import FheContext, WorkerPool
from repro.runtime.context import resolve_engine
from repro.runtime.protocol import ServerError, ServingClient
from repro.runtime.scheduler import SchedulerStats, execute_rows
from repro.tfhe.bootstrap import programmable_bootstrap
from repro.tfhe.gates import PLAINTEXT_GATES, decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import decrypt_digit, encrypt_digit
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.tgsw import tgsw_encrypt, tgsw_external_product, tgsw_transform
from repro.tfhe.tlwe import tlwe_encrypt, tlwe_key_generate, tlwe_phase
from repro.tfhe.torus import double_to_torus32, torus_distance
from repro.tfhe import transform as transform_module
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    EngineEntry,
    NaiveNegacyclicTransform,
    TransformSpec,
    available_engines,
    engine_entry,
    make_transform,
    select_best_engine,
    usable_engines,
)

pytestmark = pytest.mark.filterwarnings("error::UserWarning")

#: Frozen at collection time: the suite runs over whatever is registered.
ALL_ENGINES = tuple(sorted(available_engines()))

#: Non-default constructor options needed to make an engine exact enough
#: for the functional assertions (the approx engine's default twiddle
#: quantization is part of what bench_fig8 studies, not what we test here).
ENGINE_KWARGS = {"approx": {"twiddle_bits": 64}}


def _engine_or_skip(kind: str, degree: int):
    reason = available_engines()[kind]
    if reason is not None:
        pytest.skip(f"engine {kind!r} unavailable: {reason}")
    return make_transform(kind, degree, **ENGINE_KWARGS.get(kind, {}))


def _error_model(kind: str) -> str:
    return engine_entry(kind).error_model


def _bit_identical(xs, ys) -> bool:
    return all(
        np.array_equal(x.a, y.a) and int(x.b) == int(y.b) for x, y in zip(xs, ys)
    )


GHOST_REASON = "ghost: not installed"


@pytest.fixture
def ghost_engine(monkeypatch):
    """A registered backend that can never run here: top priority in the
    ``fft64`` family, an availability probe that always gives a reason."""
    entry = EngineEntry(
        kind="ghost",
        factory=DoubleFFTNegacyclicTransform,
        valid_kwargs=frozenset(),
        error_model="fft64",
        priority=99,
        availability=lambda: GHOST_REASON,
    )
    monkeypatch.setitem(transform_module._ENGINE_REGISTRY, "ghost", entry)
    return entry.kind


# --------------------------------------------------------------------------- #
# registry capability layer                                                   #
# --------------------------------------------------------------------------- #


class TestCapabilityReporting:
    def test_optional_backends_register_with_reasons(self, ghost_engine):
        engines = available_engines()
        # The compiled fast path always registers AND is always usable (its
        # NumPy fallback needs nothing optional); a backend that cannot run
        # still registers, with a human-readable reason.
        assert engines["compiled"] is None
        assert engines[ghost_engine] == GHOST_REASON
        assert ghost_engine not in usable_engines()

    def test_usable_engines_is_the_available_subset(self):
        engines = available_engines()
        assert usable_engines() == [k for k, r in engines.items() if r is None]

    def test_selection_prefers_priority_within_family(self, ghost_engine):
        # compiled (prio 10) > double (0) within fft64; the unavailable ghost
        # (prio 99) is never selected.
        assert select_best_engine() == "compiled"
        assert select_best_engine(error_model="fft64") == "compiled"
        assert select_best_engine(for_spec=TransformSpec.from_options("double")) == (
            "compiled"
        )

    def test_exact_and_approx_select_within_themselves(self):
        assert select_best_engine(error_model="exact") == "naive"
        assert select_best_engine(error_model="approx") == "approx"

    def test_no_engine_for_unknown_error_model(self):
        with pytest.raises(ValueError, match="no available engine"):
            select_best_engine(error_model="fft128")

    def test_unavailable_engine_fails_with_reason(self, ghost_engine):
        with pytest.raises(ValueError, match="registered but unavailable") as excinfo:
            make_transform(ghost_engine, TEST_TINY.N)
        assert GHOST_REASON in str(excinfo.value)

    def test_cross_engine_kwarg_hint(self):
        # A kwarg that belongs to a *different* engine names its owner.
        with pytest.raises(ValueError, match=r"'block_size' is accepted by compiled"):
            make_transform("double", TEST_TINY.N, block_size=4)

    def test_compiled_spec_round_trips_options(self):
        engine = make_transform("compiled", TEST_TINY.N, block_size=1024)
        spec = engine.spec()
        assert spec.kind == "compiled"
        assert spec.options()["block_size"] == 1024
        rebuilt = TransformSpec.from_json(spec.to_json()).create(TEST_TINY.N)
        assert rebuilt.engine_kind == "compiled"
        assert rebuilt.spec() == spec


# --------------------------------------------------------------------------- #
# external product conformance                                                #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def ep_setup():
    """TGSW/TLWE material built once under the naive engine, shared by all."""
    naive = NaiveNegacyclicTransform(TEST_TINY.N)
    key = tlwe_key_generate(TEST_TINY.tlwe, rng=81)
    message = np.full(TEST_TINY.N, double_to_torus32(0.125), dtype=np.int32)
    tgsw = tgsw_encrypt(key, 1, TEST_TINY.tgsw, naive, rng=82)
    tlwe = tlwe_encrypt(key, message, naive, rng=83)
    double = DoubleFFTNegacyclicTransform(TEST_TINY.N)
    reference = {
        "exact": tgsw_external_product(tgsw_transform(tgsw, naive), tlwe, naive),
        "fft64": tgsw_external_product(tgsw_transform(tgsw, double), tlwe, double),
    }
    return naive, key, message, tgsw, tlwe, reference


class TestExternalProductConformance:
    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_external_product_honours_error_model(self, ep_setup, kind):
        naive, key, message, tgsw, tlwe, reference = ep_setup
        engine = _engine_or_skip(kind, TEST_TINY.N)
        product = tgsw_external_product(tgsw_transform(tgsw, engine), tlwe, engine)

        model = _error_model(kind)
        if model == "exact":
            assert np.array_equal(product.data, reference["exact"].data)
        elif model == "fft64":
            assert np.array_equal(product.data, reference["fft64"].data)
        # Every model, including approx, still owes functional correctness.
        phase = tlwe_phase(key, product, naive)
        assert torus_distance(phase, message).max() < 2e-2


# --------------------------------------------------------------------------- #
# gate bootstrap + keyswitch on both rotators                                 #
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _gate_keys(unroll_factor: int):
    """TEST_TINY key material per rotator (engine-independent, fixed seed)."""
    return generate_keys(
        TEST_TINY,
        DoubleFFTNegacyclicTransform(TEST_TINY.N),
        unroll_factor=unroll_factor,
        rng=90 + unroll_factor,
        eager=False,
    )


def _gate_sweep(secret, context, name: str):
    out = []
    for bit_a in (0, 1):
        for bit_b in (0, 1):
            ca = encrypt_bit(secret, bit_a, rng=300 + bit_a)
            cb = encrypt_bit(secret, bit_b, rng=310 + bit_b)
            out.append((bit_a, bit_b, context.evaluator().gate(name, ca, cb)))
    return out


class TestGateBootstrapConformance:
    @pytest.mark.parametrize("unroll", (1, 2), ids=("cmux", "bku-m2"))
    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_gate_and_keyswitch_per_rotator(self, kind, unroll):
        secret, cloud = _gate_keys(unroll)
        engine = _engine_or_skip(kind, cloud.params.N)
        context = FheContext(cloud, engine=engine)
        results = _gate_sweep(secret, context, "nand")

        # Functional correctness for every engine and rotator (the gate
        # bootstrap path runs blind rotation AND the keyswitch).
        for bit_a, bit_b, sample in results:
            assert decrypt_bit(secret, sample) == PLAINTEXT_GATES["nand"](bit_a, bit_b)

        if _error_model(kind) == "fft64":
            ref_context = FheContext(
                cloud, engine=DoubleFFTNegacyclicTransform(cloud.params.N)
            )
            reference = _gate_sweep(secret, ref_context, "nand")
            assert _bit_identical(
                [s for _, _, s in results], [s for _, _, s in reference]
            )


# --------------------------------------------------------------------------- #
# programmable-bootstrap LUTs                                                 #
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _pbs_keys(unroll_factor: int):
    return generate_keys(
        TEST_PBS,
        DoubleFFTNegacyclicTransform(TEST_PBS.N),
        unroll_factor=unroll_factor,
        rng=95 + unroll_factor,
        eager=False,
    )


class TestProgrammableBootstrapConformance:
    @pytest.mark.parametrize("unroll", (1, 2), ids=("cmux", "bku-m2"))
    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_lut_per_engine_and_rotator(self, kind, unroll):
        secret, cloud = _pbs_keys(unroll)
        engine = _engine_or_skip(kind, cloud.params.N)
        context = FheContext(cloud, engine=engine)
        encoding = DigitEncoding(message_bits=2)
        table = [(v * v) % encoding.space for v in range(encoding.space)]

        outputs = []
        for value in range(encoding.space):
            sample = encrypt_digit(secret.lwe_key, value, encoding, rng=400 + value)
            out = programmable_bootstrap(context, sample, table, encoding)
            assert decrypt_digit(secret.lwe_key, out, encoding) == table[value]
            outputs.append(out)

        if _error_model(kind) == "fft64":
            ref_context = FheContext(
                cloud, engine=DoubleFFTNegacyclicTransform(cloud.params.N)
            )
            for value, out in zip(range(encoding.space), outputs):
                sample = encrypt_digit(
                    secret.lwe_key, value, encoding, rng=400 + value
                )
                ref = programmable_bootstrap(
                    ref_context, sample, table, encoding
                )
                assert np.array_equal(out.a, ref.a) and int(out.b) == int(ref.b)


# --------------------------------------------------------------------------- #
# worker-pool sharding under a non-default engine                             #
# --------------------------------------------------------------------------- #


class TestWorkerPoolEngines:
    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_sharded_flush_matches_inline_per_engine(self, kind):
        secret, cloud = _gate_keys(1)
        engine = _engine_or_skip(kind, cloud.params.N)
        context = FheContext(cloud, engine=engine)
        rows = []
        for i in range(6):
            ca = encrypt_bit(secret, i & 1, rng=500 + 2 * i)
            cb = encrypt_bit(secret, (i >> 1) & 1, rng=501 + 2 * i)
            rows.append(("gate", "nand", ca, cb))
        inline = execute_rows(context, rows, stats=SchedulerStats())
        with WorkerPool(2, task_timeout=120.0) as pool:
            sharded = pool.run_rows("client", context, rows, SchedulerStats())
        # Workers rebuild the engine from the spec recorded in the shared
        # segment, so sharding is bit-identical to the inline flush even for
        # non-default engines.
        assert _bit_identical(sharded, inline)

    def test_auto_engine_resolves_through_selection(self):
        _, cloud = _gate_keys(1)
        engine = resolve_engine(cloud, engine="auto")
        assert engine.engine_kind == select_best_engine(for_spec=cloud.transform_spec)


# --------------------------------------------------------------------------- #
# serving front: engine requests over the wire                                #
# --------------------------------------------------------------------------- #


class TestServerEngineRequests:
    def test_unknown_engine_rejected_with_catalog(self, server_factory):
        secret, cloud = _gate_keys(1)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.register_key(cloud, engine="fictional")
            assert excinfo.value.kind == "unsupported_engine"
            assert "registered engines" in str(excinfo.value)
            assert "compiled" in str(excinfo.value)

    def test_unavailable_engine_rejected_with_reason(self, server_factory, ghost_engine):
        secret, cloud = _gate_keys(1)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.register_key(cloud, engine=ghost_engine)
            assert excinfo.value.kind == "unsupported_engine"
            assert GHOST_REASON in str(excinfo.value)

    def test_requested_engine_used_and_reported(self, server_factory):
        secret, cloud = _gate_keys(1)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            info = client.register_key(cloud, engine="compiled")
            assert info["engine_kind"] == "compiled"
            out = client.gate(
                "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
            )
            assert decrypt_bit(secret, out) == 0

    def test_auto_engine_reports_selection(self, server_factory):
        secret, cloud = _gate_keys(1)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            info = client.register_key(cloud, engine="auto")
            assert info["engine_kind"] == select_best_engine(
                for_spec=cloud.transform_spec
            )
