"""Cross-engine property suite: every registered backend honours its contract.

The engine registry records each engine's error model, and every engine
promises a specific numerical contract relative to the ``"double"``
reference:

* ``"exact"`` engines agree with the naive ground truth bit for bit;
* ``"fft64"`` engines (double, compiled) are **bit-identical to each
  other** — the compiled fast path may be faster, never different;
* ``"approx"`` engines only owe functional correctness within the
  Figure-8 error budget.

Every test here parameterizes over **all registered engines** and skips
unavailable (quarantined) ones with the registry's own reason string.
Coverage spans the full stack: raw external products, gate bootstrap +
keyswitch on both rotators (classical CMux and BKU m=2),
programmable-bootstrap LUTs, worker-pool sharding under a non-default engine,
the one engine decision (:func:`repro.tfhe.transform.engine_for`) and what the
serving front makes of it.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np
import pytest

from repro.runtime import (
    BatchScheduler,
    FheContext,
    FheServer,
    ResilientClient,
    WorkerPool,
)
from repro.runtime.protocol import ServerError, ServingClient, pack_parts
from repro.runtime.scheduler import SchedulerStats, execute_rows
from repro.tfhe.bootstrap import programmable_bootstrap
from repro.tfhe.gates import PLAINTEXT_GATES, decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import decrypt_digit, encrypt_digit
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.serialize import from_bytes, to_bytes
from repro.tfhe.tgsw import tgsw_encrypt, tgsw_external_product, tgsw_transform
from repro.tfhe.tlwe import tlwe_encrypt, tlwe_key_generate, tlwe_phase
from repro.tfhe.torus import double_to_torus32, torus_distance
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    EngineFault,
    NaiveNegacyclicTransform,
    TransformSpec,
    UnsupportedEngine,
    available_engines,
    clear_engine_quarantine,
    engine_entry,
    engine_for,
    make_transform,
    quarantine_engine,
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


@pytest.fixture
def quarantine():
    """``quarantine(kind, reason)`` for the test, lifted again afterwards."""
    try:
        yield quarantine_engine
    finally:
        clear_engine_quarantine()


# --------------------------------------------------------------------------- #
# the registry and the one engine decision                                    #
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_quarantined_engine_reports_and_refuses_with_its_reason(self, quarantine):
        assert available_engines()["compiled"] is None
        quarantine("compiled", "JIT self-check")
        assert available_engines()["compiled"] == "quarantined: JIT self-check"
        with pytest.raises(UnsupportedEngine, match="registered but unavailable") as excinfo:
            make_transform("compiled", TEST_TINY.N)
        assert "compiled: quarantined: JIT self-check" in str(excinfo.value)

    def test_unknown_option_names_the_engine_and_what_it_accepts(self):
        with pytest.raises(ValueError, match=r"engine 'double' accepts: \(none\)"):
            make_transform("double", TEST_TINY.N, parallel=True)

    def test_compiled_spec_round_trips_options(self):
        engine = make_transform("compiled", TEST_TINY.N, parallel=True)
        spec = engine.spec()
        assert spec == TransformSpec.from_options("compiled", parallel=True)
        rebuilt = TransformSpec.from_json(spec.to_json()).create(TEST_TINY.N)
        assert rebuilt.engine_kind == "compiled"
        assert rebuilt.spec() == spec


class TestEngineFor:
    """The key's recorded spec decides; quarantine moves it to the family twin."""

    def test_a_usable_kind_is_the_spec_itself_options_included(self):
        for kind in ALL_ENGINES:
            assert engine_for(TransformSpec(kind)) == TransformSpec(kind)
        spec = TransformSpec.from_options("approx", twiddle_bits=24)
        assert engine_for(spec) is spec

    @pytest.mark.parametrize(
        "recorded, twin", [("double", "compiled"), ("compiled", "double")]
    )
    def test_quarantine_moves_a_key_to_its_family_twin(self, quarantine, recorded, twin):
        quarantine(recorded, "fault")
        for _ in range(3):  # the same answer every time
            assert engine_for(TransformSpec(recorded)) == TransformSpec(twin)
        # The twin's own keys are unaffected.
        assert engine_for(TransformSpec(twin)) == TransformSpec(twin)

    def test_twin_takes_none_of_the_recorded_options(self, quarantine):
        quarantine("compiled", "fault")
        spec = TransformSpec.from_options("compiled", parallel=True)
        assert engine_for(spec) == TransformSpec("double")

    @pytest.mark.parametrize("kind", ("naive", "approx"))
    def test_no_engine_crosses_error_models(self, quarantine, kind):
        quarantine(kind, "fault")
        with pytest.raises(UnsupportedEngine, match="no other usable engine") as excinfo:
            engine_for(TransformSpec(kind))
        assert f"{kind}: quarantined: fault" in str(excinfo.value)

    def test_whole_family_quarantined_is_refused(self, quarantine):
        quarantine("double", "first")
        quarantine("compiled", "second")
        with pytest.raises(UnsupportedEngine, match="fft64"):
            engine_for(TransformSpec("double"))

    def test_unknown_kind_is_refused_with_the_registry_status(self):
        with pytest.raises(UnsupportedEngine, match="unknown transform kind") as excinfo:
            engine_for(TransformSpec("fictional"))
        assert "compiled: available" in str(excinfo.value)

    def test_context_of_a_quarantined_kind_builds_on_the_twin(self, quarantine):
        secret, cloud = _gate_keys(1)
        cloud = from_bytes(to_bytes(cloud))  # as uploaded: spec only, no engine
        quarantine("double", "fault")
        context = FheContext(cloud)
        assert context.engine.engine_kind == "compiled"
        out = context.evaluator().gate(
            "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
        )
        assert decrypt_bit(secret, out) == 0

    def test_failover_refuses_when_no_twin_remains(self, quarantine):
        _, cloud = _gate_keys(1)
        context = FheContext(cloud, engine=NaiveNegacyclicTransform(cloud.params.N))
        with pytest.raises(EngineFault, match="no compatible fallback"):
            context.failover("exact engine fault")
        assert context.engine.engine_kind == "naive"

    @pytest.mark.parametrize(
        "function",
        (
            FheServer.__init__,
            BatchScheduler.__init__,
            BatchScheduler.register_client,
            ServingClient.register_key,
            ResilientClient.register_key,
        ),
        ids=lambda function: function.__qualname__,
    )
    def test_nothing_else_takes_an_engine(self, function):
        assert "engine" not in inspect.signature(function).parameters


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


# --------------------------------------------------------------------------- #
# serving front: engine requests over the wire                                #
# --------------------------------------------------------------------------- #


class TestServerEngineRequests:
    def test_reply_reports_the_engine_the_key_records(self, server_factory):
        secret, cloud = generate_keys(
            TEST_TINY, make_transform("compiled", TEST_TINY.N), rng=97, eager=False
        )
        server = server_factory()
        with ServingClient(port=server.port) as client:
            info = client.register_key(cloud)
            assert info["engine_kind"] == "compiled"
            out = client.gate(
                "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
            )
            assert decrypt_bit(secret, out) == 0

    def test_key_of_a_quarantined_kind_registers_on_the_twin(
        self, server_factory, quarantine
    ):
        # After a failover quarantined ``double``, a new tenant's double key
        # must still register (this died with an untyped ``internal`` error).
        secret, cloud = _gate_keys(1)
        server = server_factory()
        quarantine("double", "engine fault on another tenant's flush")
        with ServingClient(port=server.port) as client:
            info = client.register_key(cloud)
            assert info["engine_kind"] == "compiled"
            assert client.metrics()["engines_quarantined"] == {
                "double": "engine fault on another tenant's flush"
            }
            out = client.gate(
                "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 0, rng=2)
            )
            assert decrypt_bit(secret, out) == 1

    def test_no_usable_engine_of_the_family_is_unsupported_engine(
        self, server_factory, quarantine
    ):
        _, cloud = _gate_keys(1)
        server = server_factory()
        quarantine("double", "first")
        quarantine("compiled", "second")
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.register_key(cloud)
            assert excinfo.value.kind == "unsupported_engine"
            assert not excinfo.value.retryable
            assert "compiled: quarantined: second" in str(excinfo.value)
            # A typed refusal, not a broken connection or a half registration.
            clear_engine_quarantine()
            assert client.register_key(cloud)["engine_kind"] == "double"

    def test_uploaded_key_of_an_unknown_kind_is_unsupported_engine(self, server_factory):
        _, cloud = _gate_keys(1)
        blob = to_bytes(cloud)
        assert blob.count(b'"kind":"double"') == 1
        server = server_factory()
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call(
                    "register_key",
                    pack_parts([blob.replace(b'"kind":"double"', b'"kind":"doubel"')]),
                )
            assert excinfo.value.kind == "unsupported_engine"
            assert "unknown transform kind: 'doubel'" in str(excinfo.value)
            assert "compiled: available" in str(excinfo.value)

    def test_an_engine_field_on_the_wire_is_refused_not_ignored(self, server_factory):
        _, cloud = _gate_keys(1)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("register_key", pack_parts([to_bytes(cloud)]), engine="naive")
            assert excinfo.value.kind == "bad_request"
            assert "engine" in str(excinfo.value)
            assert client.register_key(cloud)["engine_kind"] == "double"
