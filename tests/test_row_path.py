"""Behaviour of the one bootstrap-row path.

A gate is a lut with a fixed test vector, so whatever holds for one kind of
row holds for the other on every entry point: the 8-ary message-space check,
an empty round, a failed operand, and — on random compiler-produced
netlists — the output ciphertexts of the three circuit drivers.  Rotate →
extract → key switch is composed in one place, so what that place does — the
dimension check, the stage spans, the bootstrap count — holds for digit rows,
raw refreshes and the scalar evaluator as well, and nothing else in ``src``
composes it again: what a row must come out as is pinned by the oracle
composition of ``bootstrap_oracle``.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bootstrap_oracle import bootstrap_oracle
from circuit_oracle import circuit_oracle
from repro.compiler.passes import DEFAULT_PIPELINE, LUT_PIPELINE, PassManager
from repro.runtime.context import FheContext
from repro.runtime.scheduler import (
    BatchScheduler,
    InlineDispatcher,
    JobAborted,
    SchedulerStats,
    execute_rows,
)
from repro.runtime.workers import WorkerPool
from repro.telemetry import Telemetry
from repro.tfhe.bootstrap import make_test_vector
from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import (
    MU,
    PLAINTEXT_GATES,
    BatchGateEvaluator,
    TFHEGateEvaluator,
    decrypt_bit,
    encrypt_bit,
    encrypt_bits,
    row_spec,
)
from repro.tfhe.integers import RadixEvaluator, encrypt_radix
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import (
    LweBatch,
    LweSample,
    encrypt_digit,
    lwe_add,
    lwe_encrypt_trivial,
    lwe_scale,
)
from repro.tfhe.netlist import Circuit, adder_netlist
from repro.tfhe.params import TEST_TINY, DigitEncoding
from repro.tfhe.torus import torus32_from_int64
from repro.tfhe.transform import NaiveNegacyclicTransform

from test_compiler_passes import _random_netlist


# --------------------------------------------------------------------------- #
# the 8-ary message-space check follows the row                               #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def cramped_keys():
    """``test-tiny`` rated for a 4-ary space: too small for any ±1/8 row."""
    params = replace(TEST_TINY, message_space=4)
    return generate_keys(params, NaiveNegacyclicTransform(params.N), rng=11)


def _lut_circuit() -> Circuit:
    c = Circuit("one_lut")
    a = c.inputs("a", 3)
    c.output("out", [c.lut(0x96, a)])
    return c


ENTRY_POINTS = {
    "execute_rows: gate row in a mixed chunk": lambda cloud, bits: execute_rows(
        FheContext(cloud),
        [("lut", 0x96, tuple(bits)), ("gate", "nand", bits[0], bits[1])],
    ),
    "execute_rows: lut row": lambda cloud, bits: execute_rows(
        FheContext(cloud), [("lut", 0x96, tuple(bits))]
    ),
    "TFHEGateEvaluator.lut": lambda cloud, bits: TFHEGateEvaluator(cloud).lut(0x96, bits),
    "BatchGateEvaluator.lut": lambda cloud, bits: BatchGateEvaluator(cloud, 1).lut(
        0x96, [LweBatch.from_samples([bit]) for bit in bits]
    ),
    "CircuitExecutor.run: lut node": lambda cloud, bits: CircuitExecutor(
        BatchGateEvaluator(cloud, 1)
    ).run_samples(_lut_circuit(), {"a": bits}),
    "TFHEGateEvaluator.nand on a context": lambda cloud, bits: TFHEGateEvaluator(
        FheContext(cloud)
    ).nand(bits[0], bits[1]),
    "BatchGateEvaluator.gate_rows": lambda cloud, bits: BatchGateEvaluator(cloud, 1).gate_rows(
        ["nand", "xor", "or"], LweBatch.from_samples(bits), LweBatch.from_samples(bits[::-1])
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_boolean_row_needs_the_8ary_space(cramped_keys, entry):
    secret, cloud = cramped_keys
    bits = encrypt_bits(secret, [1, 0, 1], rng=12)
    with pytest.raises(ValueError, match="needs the 8-ary message space"):
        ENTRY_POINTS[entry](cloud, bits)


def test_unrated_rows_fail_at_submit_not_at_flush(cramped_keys):
    secret, cloud = cramped_keys
    bits = encrypt_bits(secret, [1, 0, 1], rng=13)
    scheduler = BatchScheduler()
    scheduler.register_client("alice", cloud)
    session = scheduler.session("alice")
    with pytest.raises(ValueError, match="needs the 8-ary message space"):
        session.submit_gate("nand", bits[0], bits[1])
    with pytest.raises(ValueError, match="needs the 8-ary message space"):
        session.submit_lut(0x96, bits)
    assert scheduler.pending_jobs == 0


# --------------------------------------------------------------------------- #
# a failed operand handle settles its dependents, not the flush               #
# --------------------------------------------------------------------------- #


def test_failed_operand_fails_the_dependent_job_only(tiny_keys_naive):
    secret, cloud = tiny_keys_naive
    scheduler = BatchScheduler()
    scheduler.register_client("alice", cloud)
    scheduler.register_client("bob", cloud)
    one, zero = encrypt_bit(secret, 1, rng=20), encrypt_bit(secret, 0, rng=21)

    stale = scheduler.session("alice").submit_gate("and", one, one)
    scheduler.deregister_client("alice", force=True)
    assert stale.failed
    scheduler.register_client("alice", cloud)

    alice = scheduler.session("alice")
    dependent_gate = alice.submit_gate("or", stale, zero)
    dependent_lut = alice.submit_lut(0x96, [one, stale, zero])
    dependent_circuit = alice.submit_circuit(adder_netlist(1), {"a": [stale], "b": [one]})
    healthy = alice.submit_gate("and", one, one)
    other = scheduler.session("bob").submit_gate("nand", one, one)
    aborted_before = scheduler.stats.jobs_aborted

    assert scheduler.flush() == 2
    assert decrypt_bit(secret, healthy.result()) == 1
    assert decrypt_bit(secret, other.result()) == 0
    for handle in (dependent_gate, dependent_lut, dependent_circuit):
        assert handle.failed
        with pytest.raises(JobAborted):
            handle.result()
    assert scheduler.pending_jobs == 0
    # two queued dependents settled by this flush; the circuit failed at submit
    assert scheduler.stats.jobs_aborted == aborted_before + 2
    assert scheduler.flush() == 0


# --------------------------------------------------------------------------- #
# an empty round is the same no-op on every dispatcher                        #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("make_dispatcher", [InlineDispatcher, lambda: WorkerPool(1)])
def test_empty_round_returns_no_rows_and_counts_nothing(tiny_keys_naive, make_dispatcher):
    _, cloud = tiny_keys_naive
    context = FheContext(cloud)
    context.telemetry = Telemetry()
    stats = SchedulerStats()
    dispatcher = make_dispatcher()
    try:
        assert dispatcher.run_rows("alice", context, [], stats, max_rows_per_call=4) == []
    finally:
        getattr(dispatcher, "close", lambda: None)()
    assert execute_rows(context, [], stats) == []
    assert stats == SchedulerStats()
    assert context.batch_evaluator(1).counters.bootstraps == 0
    assert "fhe_batched_calls_total" not in context.telemetry.render_prometheus()


# --------------------------------------------------------------------------- #
# three drivers, one walker, one row path: bit-identical circuits             #
# --------------------------------------------------------------------------- #


def _same_ciphertexts(left, right) -> bool:
    return left.keys() == right.keys() and all(
        np.array_equal(x.a, y.a) and int(x.b) == int(y.b)
        for name in left
        for x, y in zip(left[name], right[name], strict=True)
    )


def _assert_drivers_agree(cloud, circuit, inputs):
    eager = circuit_oracle(circuit, TFHEGateEvaluator(cloud), inputs)
    levelized = CircuitExecutor(BatchGateEvaluator(cloud, 1)).run_samples(circuit, inputs)
    scheduler = BatchScheduler(max_rows_per_call=5)
    scheduler.register_client("alice", cloud)
    handle = scheduler.session("alice").submit_circuit(circuit, inputs)
    scheduler.flush()
    assert _same_ciphertexts(levelized, eager)
    assert _same_ciphertexts(handle.result(), eager)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    pipeline=st.sampled_from([None, DEFAULT_PIPELINE, LUT_PIPELINE]),
)
def test_drivers_agree_on_random_compiled_netlists(tiny_keys_naive, seed, pipeline):
    secret, cloud = tiny_keys_naive
    rng = np.random.default_rng(seed)
    circuit = _random_netlist(2, rng, n_ops=24)
    if pipeline is not None:
        circuit = PassManager(passes=pipeline, verify=True, trials=8, rng=seed).run(circuit)
    inputs = {name: encrypt_bits(secret, rng.integers(0, 2, 2), rng) for name in "ab"}
    _assert_drivers_agree(cloud, circuit, inputs)


def test_drivers_agree_on_the_lut_lowered_adder(tiny_keys_naive):
    secret, cloud = tiny_keys_naive
    circuit = PassManager(passes=LUT_PIPELINE, verify=True, trials=8, rng=6).run(
        adder_netlist(4)
    )
    assert any(node.op == "lut" for node in circuit.nodes)
    inputs = {
        "a": encrypt_bits(secret, [1, 0, 1, 1], rng=30),
        "b": encrypt_bits(secret, [1, 1, 0, 1], rng=31),
    }
    _assert_drivers_agree(cloud, circuit, inputs)


# --------------------------------------------------------------------------- #
# one composition: its checks, spans and counters reach every caller          #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("keys", ["tiny_keys_naive", "tiny_keys_naive_m2"], ids=["cmux", "bku-m2"])
@pytest.mark.parametrize("extra", [3, -3], ids=["n+3", "n-3"])
def test_wrong_dimension_rows_are_refused_by_both_evaluators(request, keys, extra):
    _, cloud = request.getfixturevalue(keys)
    n = cloud.params.n
    wrong = LweSample(a=np.zeros(n + extra, dtype=np.int32), b=np.int32(0))
    message = rf"dimension {n + extra} does not match .* n={n}\b"
    scalar, batch = TFHEGateEvaluator(cloud), BatchGateEvaluator(cloud, 1)
    plane = LweBatch.from_samples([wrong])
    with pytest.raises(ValueError, match=message):
        scalar.nand(wrong, wrong)
    with pytest.raises(ValueError, match=message):
        scalar.lut(0x96, [wrong, wrong, wrong])
    with pytest.raises(ValueError, match=message):
        batch.nand(plane, plane)
    with pytest.raises(ValueError, match=message):
        batch.bootstrap_rows(plane, batch.gate_test_vector())
    with pytest.raises(ValueError, match=message):
        TFHEGateEvaluator(FheContext(cloud)).nand(wrong, wrong)
    assert scalar.counters.bootstraps == batch.counters.bootstraps == 0
    assert scalar.counters.gates == batch.counters.gates == 0


def _oracle_row(context, op, operands) -> LweSample:
    """One row built only from independent parts: the scalar affine chain,
    then the oracle bootstrap."""
    offset, weights, test_vector = row_spec(context.params, op)
    combined = lwe_encrypt_trivial(context.params.n, torus32_from_int64(offset * int(MU)))
    for weight, operand in zip(weights, operands):
        combined = lwe_add(combined, lwe_scale(weight, operand))
    row = LweBatch.from_samples([combined])
    return bootstrap_oracle(
        row, test_vector, context.rotator, context.keyswitch_key, context.params
    )[0]


@pytest.mark.parametrize(
    "keys", ["tiny_keys_naive", "tiny_keys_naive_m2", "small_keys_double", "small_keys_approx_m2"]
)
def test_scalar_evaluator_rows_equal_the_oracle_composition(request, keys):
    secret, cloud = request.getfixturevalue(keys)
    context = cloud.default_context()
    evaluator = TFHEGateEvaluator(cloud)
    a, b, c = encrypt_bits(secret, [1, 0, 1], rng=50)
    rows = [
        (name, [a, b], evaluator.gate(name, a, b), PLAINTEXT_GATES[name](1, 0))
        for name in sorted(PLAINTEXT_GATES)
    ]
    # 0x96 is the three-input parity.
    rows.append(((0x96, 3), [a, b, c], evaluator.lut(0x96, [a, b, c]), 0))
    for op, inputs, got, bit in rows:
        expected = _oracle_row(context, op, inputs)
        assert np.array_equal(got.a, expected.a), op
        assert got.b == expected.b, op
        assert decrypt_bit(secret, got) == bit, op
    assert evaluator.counters.gates == evaluator.counters.bootstraps == len(rows)


#: Base-4 digits with a digit of carry room.  ``test-tiny`` cannot resolve the
#: 32 torus slots, so the context is a re-rated twin of the key and the calls
#: below are checked for what they record, not for what they decrypt to.
ENCODING = DigitEncoding(message_bits=2, carry_bits=2)
SQUARE = [v * v % ENCODING.space for v in range(ENCODING.space)]


def _digit_rows(secret, count):
    return LweBatch.from_samples(
        encrypt_digit(secret.lwe_key, 3 * i % ENCODING.space, ENCODING, rng=40 + i)
        for i in range(count)
    )


def _refresh(count):
    def refresh(secret, context, radix):
        vector = make_test_vector(context.params, int(MU))
        context.batch_evaluator(1).bootstrap_rows(_digit_rows(secret, count), vector)

    return refresh


def _digit_lookups(secret, context, radix):
    ops = [(ENCODING, tuple(SQUARE))] * 4
    context.batch_evaluator(1).rows(ops, [_digit_rows(secret, 4)])


def _propagate(secret, context, radix):
    """lo+hi rows for the two lower digits, the lo row alone for the top one."""
    x = encrypt_radix(secret.lwe_key, 0b111011, 3, ENCODING, rng=50)
    radix.propagate(radix.add(x, x))


def _mul(secret, context, radix):
    """One call for the 9 partial-product rows; the top column's fifth term
    forces a sweep of the first layer (2 calls, 3 rows) before the final
    one-row renormalisation."""
    x = encrypt_radix(secret.lwe_key, 0b011011, 3, ENCODING, rng=51)
    y = encrypt_radix(secret.lwe_key, 0b100111, 3, ENCODING, rng=52)
    radix.mul(x, y)


def _gt(secret, context, radix):
    """One call for the 3 sign rows, then one one-row fold per lower digit."""
    x = encrypt_radix(secret.lwe_key, 0b011011, 3, ENCODING, rng=53)
    y = encrypt_radix(secret.lwe_key, 0b100111, 3, ENCODING, rng=54)
    radix.gt(x, y)


@pytest.mark.parametrize(
    "call, calls, rows",  # the bootstrap_rows calls it makes, the rows they carry
    [
        pytest.param(_refresh(1), 1, 1, id="bootstrap_rows[1]"),
        pytest.param(_refresh(3), 1, 3, id="bootstrap_rows[3]"),
        pytest.param(_digit_lookups, 1, 4, id="digit_rows"),
        pytest.param(_propagate, 3, 5, id="RadixEvaluator.propagate"),
        pytest.param(_mul, 4, 13, id="RadixEvaluator.mul"),
        pytest.param(_gt, 3, 5, id="RadixEvaluator.gt"),
    ],
)
def test_every_caller_of_the_composition_is_traced_and_counted(
    tiny_keys_naive, call, calls, rows
):
    secret, cloud = tiny_keys_naive
    context = FheContext(
        replace(cloud, params=replace(cloud.params, message_space=32), _context=None)
    )
    context.telemetry = Telemetry()
    radix = RadixEvaluator(context, ENCODING)
    with context.telemetry.stage_round(["trace"]):
        call(secret, context, radix)
    spans = context.telemetry.tracer.spans("trace")
    for stage in ("engine_contract", "keyswitch"):
        recorded = [span.attrs["rows"] for span in spans if span.name == stage]
        assert len(recorded) == calls, f"{stage}: {recorded}"
        assert sum(recorded) == rows
    assert len(spans) == 2 * calls
    assert context.batch_evaluator(1).counters.bootstraps == rows


#: The kernels of the two halves of a bootstrapping → the module that defines
#: each.  Besides that module, only the one batched composition may call
#: them: anything else that pairs a blind rotation with a key switch bypasses
#: the dimension check, the spans and the counters above.
KERNEL_HOME = {
    "keyswitch_apply_batch": "tfhe/keyswitch.py",
    "blind_rotate_and_extract_batch": "tfhe/bootstrap.py",
}


def test_only_the_row_path_composes_rotation_with_key_switch():
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    callers = set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # escapes in docstrings are not at issue
            tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if KERNEL_HOME.get(name, module) != module:
                    callers.add((module, scope.name))
    assert callers == {("tfhe/gates.py", "bootstrap_rows")}
