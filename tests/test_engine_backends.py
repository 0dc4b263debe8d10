"""Cross-engine property suite: every registered backend honours its contract.

The engine registry records each engine's error model, one engine per model,
and every engine promises a specific numerical contract relative to the
``"double"`` reference:

* ``"exact"`` (naive) agrees with the exact ground truth bit for bit;
* ``"fft64"`` (double) is the reference itself;
* ``"approx"`` only owes functional correctness within the Figure-8 error
  budget.

Every test here parameterizes over **all registered engines**; the
conformance tests add ``generic-double``, ``double``'s primitives reached
through the base class's generic kernels, so ``double``'s buffered kernels
are pinned to change nothing but speed.  Coverage spans the full stack: raw
external products, gate bootstrap + keyswitch on both rotators (classical
CMux and BKU m=2), programmable-bootstrap LUTs,
worker-pool sharding under a non-default engine, the key's own spec as the
one engine decision, an engine fault's rebuild on that spec, and what the
serving front makes of both.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

import numpy as np
import pytest
from conftest import ciphertext_form, scrape
from tgsw_oracle import external_product_oracle, tlwe_phase

from repro.runtime import (
    BatchScheduler,
    FheContext,
    FheServer,
    ResilientClient,
    WorkerPool,
)
from repro.runtime.chaos import FlakyEngine
from repro.runtime.protocol import ServerError, ServingClient, pack_parts
from repro.runtime.scheduler import SchedulerStats, execute_rows
from repro.tfhe.gates import PLAINTEXT_GATES, TFHEGateEvaluator, decrypt_bit, encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch, decrypt_digit, encrypt_digit, lwe_round_mask
from repro.tfhe.params import TEST_PBS, TEST_TINY, DigitEncoding
from repro.tfhe.serialize import to_bytes
from repro.tfhe.tgsw import tgsw_batch_external_product, tgsw_encrypt, tgsw_transform
from repro.tfhe.tlwe import TlweBatch, tlwe_encrypt, tlwe_key_generate
from repro.tfhe.torus import double_to_torus32, torus_distance
from repro.tfhe import transform as transform_module
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    EngineFault,
    NaiveNegacyclicTransform,
    NegacyclicTransform,
    TransformSpec,
    UnsupportedEngine,
    available_engines,
    engine_entry,
    make_transform,
    register_engine,
)

pytestmark = pytest.mark.filterwarnings("error::UserWarning")

#: Frozen at collection time: the suite runs over whatever is registered.
ALL_ENGINES = available_engines()

#: Non-default constructor options needed to make an engine exact enough
#: for the functional assertions (the approx engine's default twiddle
#: quantization is part of what bench_fig8 studies, not what we test here).
ENGINE_KWARGS = {"approx": {"twiddle_bits": 64}}


class _GenericDouble(DoubleFFTNegacyclicTransform):
    """``double``'s primitives through the base class's generic kernels.

    Unregistered (no spec to rebuild from), and an ``fft64`` engine: it must
    be bit-identical to ``double``, whose buffered ``contract_accumulate`` /
    ``bind_contraction`` it does without.
    """

    engine_kind = None
    contract_accumulate = NegacyclicTransform.contract_accumulate
    bind_contraction = NegacyclicTransform.bind_contraction


#: The registered engines plus the generic-kernel proxy of ``double``.
CONFORMANCE_ENGINES = ALL_ENGINES + ("generic-double",)


def _engine(kind: str, degree: int):
    if kind == "generic-double":
        return _GenericDouble(degree)
    return make_transform(kind, degree, **ENGINE_KWARGS.get(kind, {}))


def _error_model(kind: str) -> str:
    if kind == "generic-double":
        return "fft64"
    return engine_entry(kind).error_model


def _bit_identical(xs, ys) -> bool:
    return all(
        np.array_equal(x.a, y.a) and int(x.b) == int(y.b) for x, y in zip(xs, ys)
    )


# --------------------------------------------------------------------------- #
# the registry and the one engine decision                                    #
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_one_engine_per_error_model(self):
        assert available_engines() == ("approx", "double", "naive")
        models = [engine_entry(kind).error_model for kind in available_engines()]
        assert sorted(models) == ["approx", "exact", "fft64"]

    def test_unknown_option_names_the_engine_and_what_it_accepts(self):
        with pytest.raises(ValueError, match=r"engine 'double' accepts: \(none\)"):
            make_transform("double", TEST_TINY.N, parallel=True)

    def test_unknown_kind_is_refused_with_the_registered_kinds(self):
        with pytest.raises(UnsupportedEngine, match="unknown transform kind") as excinfo:
            TransformSpec("fictional").create(TEST_TINY.N)
        assert "(registered engines: approx, double, naive)" in str(excinfo.value)

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


def _scheduled_nands(context, operands):
    """One scheduler round of NANDs on ``context``: (scheduler, results)."""
    scheduler = BatchScheduler()
    scheduler.register_client("tenant", context)
    session = scheduler.session("tenant")
    handles = [session.submit_gate("nand", ca, cb) for ca, cb in operands]
    scheduler.flush()
    return scheduler, [handle.result() for handle in handles]


BIT_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))


def _nand_operands(secret, seed: int):
    return [
        (
            encrypt_bit(secret, a, rng=seed + 2 * i),
            encrypt_bit(secret, b, rng=seed + 2 * i + 1),
        )
        for i, (a, b) in enumerate(BIT_PAIRS)
    ]


class TestEngineRebuild:
    """An engine fault rebuilds the context on a fresh engine of its own spec."""

    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_failover_rebuilds_the_same_spec_and_releases_the_derived_state(self, kind):
        secret, cloud = _gate_keys(1)
        engine = _engine(kind, cloud.params.N)
        context = FheContext(cloud, engine=engine)
        want = _gate_sweep(secret, context, "nand")
        faulted = context.workspace
        assert faulted.nbytes > 0 and context.spectra_cached
        context.failover("injected")
        assert context.engine is not engine
        assert context.engine.spec() == engine.spec()  # options included
        assert context.workspace is not faulted and faulted.nbytes == 0
        assert not context.spectra_cached
        got = _gate_sweep(secret, context, "nand")
        assert _bit_identical([s for _, _, s in got], [s for _, _, s in want])

    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_a_fault_mid_round_replays_bit_identically_on_the_same_kind(self, kind):
        secret, cloud = _gate_keys(1)
        operands = _nand_operands(secret, seed=600)
        clean = FheContext(cloud, engine=_engine(kind, cloud.params.N))
        _, want = _scheduled_nands(clean, operands)

        context = FheContext(cloud, engine=_engine(kind, cloud.params.N))
        spec = context.engine.spec()
        # n forwards build the spectrum cache; the fault lands on step 3.
        flaky = FlakyEngine(context.engine, fail_on_call=cloud.params.n + 3)
        context.engine = flaky
        scheduler, got = _scheduled_nands(context, operands)
        assert flaky.faults_raised == 1
        assert scheduler.stats.engine_failovers == 1
        assert context.engine is not flaky and type(context.engine) is type(flaky.base)
        assert context.engine.spec() == spec  # options included
        assert _bit_identical(got, want)

    def test_a_later_fault_is_rebuilt_again(self):
        # Nothing remembers a fault: the rebuilt engine's own fault gets the
        # same treatment, and the kind keeps serving.
        secret, cloud = _gate_keys(1)
        operands = _nand_operands(secret, seed=620)
        context = FheContext(cloud, engine=_engine("double", cloud.params.N))
        scheduler = BatchScheduler()
        scheduler.register_client("tenant", context)
        want = [PLAINTEXT_GATES["nand"](a, b) for a, b in BIT_PAIRS]
        for faults in (1, 2):
            flaky = FlakyEngine(context.engine, fail_on_call=cloud.params.n + 1)
            context.engine = flaky
            context.release()  # rebuild the spectrum cache on the flaky engine
            session = scheduler.session("tenant")
            handles = [session.submit_gate("nand", ca, cb) for ca, cb in operands]
            scheduler.flush()
            assert flaky.faults_raised == 1
            assert scheduler.stats.engine_failovers == faults
            assert type(context.engine) is DoubleFFTNegacyclicTransform
            assert [decrypt_bit(secret, handle.result()) for handle in handles] == want

    def test_an_ad_hoc_engine_cannot_be_rebuilt(self):
        _, cloud = _gate_keys(1)
        engine = _GenericDouble(cloud.params.N)
        context = FheContext(cloud, engine=engine)
        with pytest.raises(EngineFault, match="ad-hoc"):
            context.failover("injected")
        assert context.engine is engine

    def test_an_engine_that_always_faults_fails_the_round_after_one_rebuild(
        self, monkeypatch
    ):
        built = []

        class AlwaysFaulty(DoubleFFTNegacyclicTransform):
            engine_kind = "always-faulty"

            def forward(self, coeffs):
                raise EngineFault("injected: every instance faults")

        def factory(degree):
            built.append(AlwaysFaulty(degree))
            return built[-1]

        monkeypatch.setattr(
            transform_module, "_ENGINE_REGISTRY", dict(transform_module._ENGINE_REGISTRY)
        )
        register_engine("always-faulty", factory, error_model="fft64")
        secret, cloud = _gate_keys(1)
        cloud = dataclasses.replace(cloud, transform_spec=TransformSpec("always-faulty"))
        module_state = _module_state(transform_module)
        scheduler = BatchScheduler()
        context = scheduler.register_client("tenant", cloud)
        scheduler.session("tenant").submit_gate(
            "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 0, rng=2)
        )
        with pytest.raises(EngineFault, match="every instance faults"):
            scheduler.flush()
        assert len(built) == 2 and context.engine is built[1]
        assert scheduler.stats.engine_failovers == 1
        # Nothing was written outside the context: the kind still builds.
        assert _module_state(transform_module) == module_state
        assert isinstance(make_transform("always-faulty", TEST_TINY.N), AlwaysFaulty)


def _module_state(module) -> dict:
    """A module's globals, with every dict among them copied."""
    return {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in vars(module).items()
        if not name.startswith("__")
    }


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
    tlwe = TlweBatch(tlwe_encrypt(key, message, naive, rng=83).data[None])
    double = DoubleFFTNegacyclicTransform(TEST_TINY.N)
    reference = {
        "exact": external_product_oracle(tgsw_transform(tgsw, naive), tlwe, naive),
        "fft64": external_product_oracle(tgsw_transform(tgsw, double), tlwe, double),
    }
    return naive, key, message, tgsw, tlwe, reference


class TestExternalProductConformance:
    @pytest.mark.parametrize("kind", CONFORMANCE_ENGINES)
    def test_external_product_honours_error_model(self, ep_setup, kind):
        naive, key, message, tgsw, tlwe, reference = ep_setup
        engine = _engine(kind, TEST_TINY.N)
        product = tgsw_batch_external_product(tgsw_transform(tgsw, engine), tlwe, engine)

        model = _error_model(kind)
        if model == "exact":
            assert np.array_equal(product.data, reference["exact"].data)
        elif model == "fft64":
            assert np.array_equal(product.data, reference["fft64"].data)
        # Every model, including approx, still owes functional correctness.
        phase = tlwe_phase(key, product[0], naive)
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
            out.append((bit_a, bit_b, TFHEGateEvaluator(context).gate(name, ca, cb)))
    return out


class TestGateBootstrapConformance:
    @pytest.mark.parametrize("unroll", (1, 2), ids=("cmux", "bku-m2"))
    @pytest.mark.parametrize("kind", CONFORMANCE_ENGINES)
    def test_gate_and_keyswitch_per_rotator(self, kind, unroll):
        secret, cloud = _gate_keys(unroll)
        engine = _engine(kind, cloud.params.N)
        context = FheContext(cloud, engine=engine)
        for gate in ("nand", "xor"):
            results = _gate_sweep(secret, context, gate)

            # Functional correctness for every engine and rotator (the gate
            # bootstrap path runs blind rotation AND the keyswitch).
            for bit_a, bit_b, sample in results:
                assert decrypt_bit(secret, sample) == PLAINTEXT_GATES[gate](bit_a, bit_b)

            if _error_model(kind) == "fft64":
                ref_context = FheContext(
                    cloud, engine=DoubleFFTNegacyclicTransform(cloud.params.N)
                )
                reference = _gate_sweep(secret, ref_context, gate)
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
    @pytest.mark.parametrize("kind", CONFORMANCE_ENGINES)
    def test_lut_per_engine_and_rotator(self, kind, unroll):
        secret, cloud = _pbs_keys(unroll)
        engine = _engine(kind, cloud.params.N)
        context = FheContext(cloud, engine=engine)
        encoding = DigitEncoding(message_bits=2)
        table = [(v * v) % encoding.space for v in range(encoding.space)]
        square = (encoding, tuple(table))

        outputs = []
        for value in range(encoding.space):
            sample = encrypt_digit(secret.lwe_key, value, encoding, rng=400 + value)
            out = context.batch_evaluator(1).rows([square], [LweBatch.from_samples([sample])])[0]
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
                ref = ref_context.batch_evaluator(1).rows(
                    [square], [LweBatch.from_samples([sample])]
                )[0]
                assert np.array_equal(out.a, ref.a) and int(out.b) == int(ref.b)


# --------------------------------------------------------------------------- #
# worker-pool sharding under a non-default engine                             #
# --------------------------------------------------------------------------- #


class TestWorkerPoolEngines:
    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_sharded_flush_matches_inline_per_engine(self, kind):
        secret, cloud = _gate_keys(1)
        engine = _engine(kind, cloud.params.N)
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
            TEST_TINY, make_transform("naive", TEST_TINY.N), rng=97, eager=False
        )
        server = server_factory()
        with ServingClient(port=server.port) as client:
            info = client.register_key(cloud)
            assert info["engine_kind"] == "naive"
            out = client.gate(
                "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 1, rng=2)
            )
            assert decrypt_bit(secret, out) == 0

    @pytest.mark.parametrize("kind", ALL_ENGINES)
    def test_a_key_of_each_kind_serves_what_its_spec_computes_in_process(
        self, server_factory, kind
    ):
        # The approx key records a non-default twiddle width, which changes
        # its output bits: bit identity shows the options crossed the wire,
        # not just the kind.
        secret, cloud = _gate_keys(1)
        options = {"twiddle_bits": 24} if kind == "approx" else {}
        spec = TransformSpec.from_options(kind, **options)
        uploaded = dataclasses.replace(cloud, transform_spec=spec)
        operands = _nand_operands(secret, seed=640)
        in_process = FheContext(cloud, engine=spec.create(cloud.params.N))
        _, want = _scheduled_nands(in_process, operands)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            assert client.register_key(uploaded)["engine_kind"] == kind
            got = [client.gate("nand", ca, cb) for ca, cb in operands]
            # A reply is the in-process result with its mask rounded: it
            # decrypts, travels as packed halves, and bootstraps again as
            # an operand.
            assert _bit_identical(got, [lwe_round_mask(w) for w in want])
            assert [decrypt_bit(secret, reply) for reply in got] == [
                1 - (a & b) for a, b in BIT_PAIRS
            ]
            assert all(ciphertext_form(to_bytes(reply)) == "a_hi" for reply in got)
            again = [client.gate("nand", got[i], got[-1 - i]) for i in range(len(got))]
            assert [decrypt_bit(secret, reply) for reply in again] == [
                1 - ((1 - (a & b)) & (1 - (c & d)))
                for (a, b), (c, d) in zip(BIT_PAIRS, BIT_PAIRS[::-1])
            ]

    def test_after_a_fault_the_kind_keeps_serving_new_keys(self, server_factory):
        secret, cloud = _gate_keys(1)
        other_secret, other = generate_keys(
            TEST_TINY, DoubleFFTNegacyclicTransform(TEST_TINY.N), rng=98, eager=False
        )
        server = server_factory()
        with ServingClient(port=server.port) as client:
            client.register_key(cloud)
            (resident,) = server.scheduler.residents
            faulty = FlakyEngine(resident.context.engine)  # faults on its first call
            resident.context.engine = faulty
            resident.context.release()  # rebuild the spectrum cache on it
            out = client.gate(
                "nand", encrypt_bit(secret, 1, rng=1), encrypt_bit(secret, 0, rng=2)
            )
            assert decrypt_bit(secret, out) == 1
            assert faulty.faults_raised == 1
            assert scrape(client)["fhe_engine_failovers_total"] == 1
            assert resident.context.engine.engine_kind == "double"
        assert make_transform("double", TEST_TINY.N).engine_kind == "double"
        with ServingClient(port=server.port) as client:
            assert client.register_key(other)["engine_kind"] == "double"
            out = client.gate(
                "and",
                encrypt_bit(other_secret, 1, rng=3),
                encrypt_bit(other_secret, 1, rng=4),
            )
            assert decrypt_bit(other_secret, out) == 1

    @pytest.mark.parametrize("kind", ("doubel", "compiled"))
    def test_uploaded_key_of_an_unknown_kind_is_unsupported_engine(
        self, server_factory, kind
    ):
        _, cloud = _gate_keys(1)
        uploaded = dataclasses.replace(cloud, transform_spec=TransformSpec(kind))
        server = server_factory()
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.register_key(uploaded)
            assert excinfo.value.kind == "unsupported_engine"
            assert not excinfo.value.retryable
            assert f"unknown transform kind: {kind!r}" in str(excinfo.value)
            assert "(registered engines: approx, double, naive)" in str(excinfo.value)
            # A typed refusal, not a broken connection or a half registration.
            assert client.register_key(cloud)["engine_kind"] == "double"

    def test_an_engine_field_on_the_wire_is_refused_not_ignored(self, server_factory):
        _, cloud = _gate_keys(1)
        server = server_factory()
        with ServingClient(port=server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("register_key", pack_parts([to_bytes(cloud)]), engine="naive")
            assert excinfo.value.kind == "bad_request"
            assert "engine" in str(excinfo.value)
            assert client.register_key(cloud)["engine_kind"] == "double"
