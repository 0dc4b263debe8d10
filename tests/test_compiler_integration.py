"""End-to-end compiler tests: traced + optimized circuits on real ciphertexts.

The wiring contract of the subsystem: anything :func:`repro.compiler.trace`
produces — before or after :class:`repro.compiler.PassManager` — must run
unchanged through the gate-by-gate ``circuit_oracle``, the level-parallel
:class:`repro.tfhe.executor.CircuitExecutor`, and
:meth:`repro.runtime.scheduler.EvaluationSession.submit_circuit`, and agree
with plaintext co-simulation.
"""

import pytest

from circuit_oracle import circuit_oracle
from repro.compiler import (
    FheUint,
    FheUint4,
    PassManager,
    fhe_max,
    fhe_select,
    optimize,
    simulate,
    trace,
)
from repro.compiler.passes import live_gate_count
from repro.runtime import BatchScheduler
from repro.tfhe.circuits import (
    decrypt_integer,
    decrypt_integers,
    encrypt_integer,
    encrypt_integers,
)
from repro.tfhe.executor import CircuitExecutor, schedule_circuit
from repro.tfhe.gates import TFHEGateEvaluator
from repro.tfhe.serialize import circuit_from_json, circuit_to_json

WIDTH = 4


@pytest.fixture(scope="module")
def traced_pair():
    circuit = trace(
        lambda a, b: fhe_max(a * 3 + b, b - a),
        FheUint(WIDTH, "a"),
        FheUint(WIDTH, "b"),
    )
    manager = PassManager(verify=True, rng=11)
    return circuit, manager.run(circuit)


def _reference(a: int, b: int) -> int:
    modulus = 2**WIDTH
    return max((a * 3 + b) % modulus, (b - a) % modulus)


class TestEncryptedExecution:
    def test_optimization_actually_shrank_the_circuit(self, traced_pair):
        circuit, optimized = traced_pair
        assert live_gate_count(optimized) < live_gate_count(circuit)

    def test_eager_executor_matches_simulation(self, tiny_keys_naive, traced_pair):
        secret, cloud = tiny_keys_naive
        _, optimized = traced_pair
        evaluator = TFHEGateEvaluator(cloud)
        a, b = 13, 6
        out = circuit_oracle(
            optimized,
            evaluator,
            {
                "a": encrypt_integer(secret, a, WIDTH, rng=21),
                "b": encrypt_integer(secret, b, WIDTH, rng=22),
            },
        )
        got = decrypt_integer(secret, out["out"])
        assert got == simulate(optimized, {"a": a, "b": b})["out"] == _reference(a, b)

    def test_level_executor_batch_matches_simulation(
        self, tiny_keys_naive, traced_pair
    ):
        secret, cloud = tiny_keys_naive
        _, optimized = traced_pair
        values_a, values_b = [3, 15, 0], [9, 2, 0]
        executor = CircuitExecutor.for_context(
            cloud.default_context(), batch_size=len(values_a)
        )
        planes = executor.run(
            optimized,
            {
                "a": encrypt_integers(secret, values_a, WIDTH, rng=31),
                "b": encrypt_integers(secret, values_b, WIDTH, rng=32),
            },
        )
        got = decrypt_integers(secret, planes["out"])
        assert got == [_reference(a, b) for a, b in zip(values_a, values_b)]

    def test_scheduler_runs_optimized_circuit(self, tiny_keys_naive, traced_pair):
        secret, cloud = tiny_keys_naive
        _, optimized = traced_pair
        scheduler = BatchScheduler()
        scheduler.register_client("tenant", cloud.default_context())
        session = scheduler.session("tenant")
        handle = session.submit_circuit(
            optimized,
            {
                "a": encrypt_integer(secret, 7, WIDTH, rng=41),
                "b": encrypt_integer(secret, 12, WIDTH, rng=42),
            },
        )
        scheduler.flush()
        got = decrypt_integer(secret, handle.result()["out"])
        assert got == _reference(7, 12)

    def test_serialized_optimized_circuit_still_runs(
        self, tiny_keys_naive, traced_pair
    ):
        secret, cloud = tiny_keys_naive
        _, optimized = traced_pair
        shipped = circuit_from_json(circuit_to_json(optimized))
        evaluator = TFHEGateEvaluator(cloud)
        out = circuit_oracle(
            shipped,
            evaluator,
            {
                "a": encrypt_integer(secret, 5, WIDTH, rng=51),
                "b": encrypt_integer(secret, 10, WIDTH, rng=52),
            },
        )
        assert decrypt_integer(secret, out["out"]) == _reference(5, 10)

    def test_optimization_reduces_executor_level_calls(
        self, tiny_keys_naive, traced_pair
    ):
        circuit, optimized = traced_pair
        assert (
            schedule_circuit(optimized).depth <= schedule_circuit(circuit).depth
        )
        assert (
            schedule_circuit(optimized).gate_count
            < schedule_circuit(circuit).gate_count
        )

    def test_zero_gate_circuit_through_all_executors(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        # a == a folds to constant truth: the whole select collapses.
        circuit = optimize(
            trace(lambda a: fhe_select(a == a, 9, 2), FheUint4("a")), verify=True
        )
        assert live_gate_count(circuit) == 0
        bits = encrypt_integer(secret, 4, WIDTH, rng=61)
        evaluator = TFHEGateEvaluator(cloud)
        eager = circuit_oracle(circuit, evaluator, {"a": bits})
        assert decrypt_integer(secret, eager["out"]) == 9

        executor = CircuitExecutor.for_context(cloud.default_context(), batch_size=1)
        levelized = executor.run_samples(circuit, {"a": bits})
        assert decrypt_integer(secret, levelized["out"]) == 9

        scheduler = BatchScheduler()
        scheduler.register_client("tenant", cloud.default_context())
        handle = scheduler.session("tenant").submit_circuit(circuit, {"a": bits})
        scheduler.flush()
        assert decrypt_integer(secret, handle.result()["out"]) == 9
