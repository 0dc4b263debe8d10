"""Tests for the level scheduler, the mixed-gate batch call and the executor.

The load-bearing properties: (1) a :class:`LevelSchedule` is a valid
dependency levelling of the netlist, (2) ``gate_rows`` — the mixed-gate
batched bootstrapping the executor feeds — is bit-identical to the scalar
evaluator per row, and (3) the levelized executor's output ciphertexts are
bit-identical, row by row, to the gate-by-gate walk of ``circuit_oracle`` on
every corpus circuit and every word-level netlist constructor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circuit_oracle import circuit_oracle
from test_lut import CORPUS
from repro.compiler.passes import LUT_PIPELINE, circuit_depth, live_gate_count, optimize
from repro.tfhe import netlist
from repro.tfhe.circuits import decrypt_integers, encrypt_integers
from repro.tfhe.executor import CircuitExecutor, schedule_circuit
from repro.tfhe.gates import (
    MIXED_GATE_SPECS,
    BatchGateEvaluator,
    TFHEGateEvaluator,
    encrypt_bit,
    encrypt_bit_batch,
)
from repro.tfhe.keys import generate_keys
from repro.tfhe.lwe import LweBatch, lwe_batch_concat
from repro.tfhe.params import TEST_TINY
from repro.tfhe.transform import DoubleFFTNegacyclicTransform
from repro.tfhe.netlist import (
    Circuit,
    Node,
    adder_netlist,
    greater_than_netlist,
    maximum_netlist,
    subtractor_netlist,
)


def assert_batches_identical(x: LweBatch, y: LweBatch) -> None:
    assert np.array_equal(x.a, y.a)
    assert np.array_equal(x.b, y.b)


class TestSchedule:
    def test_levels_respect_dependencies(self):
        c = adder_netlist(4)
        schedule = schedule_circuit(c)
        level_of = {}
        for level, wave in enumerate(schedule.waves, start=1):
            for nid in wave:
                level_of[nid] = level
        for level, wave in enumerate(schedule.waves, start=1):
            for nid in wave:
                for arg in c.node(nid).args:
                    if c.node(arg).is_bootstrapped:
                        assert level_of[arg] < level

    def test_schedule_covers_exactly_the_live_gates(self):
        c = subtractor_netlist(3)
        schedule = schedule_circuit(c)
        live_gates = {n for n in c.live_nodes() if c.node(n).is_bootstrapped}
        scheduled = {n for wave in schedule.waves for n in wave}
        assert scheduled == live_gates
        assert schedule.gate_count == len(live_gates)

    def test_adder_first_level_is_widest(self):
        # All xor(a,b)/and(a,b) pairs are input-independent: width 2W.
        schedule = schedule_circuit(adder_netlist(8))
        assert schedule.level_widths[0] == 16
        assert schedule.max_width == 16
        assert schedule.mean_width > 1.0

    def test_width_histogram_sums_to_depth(self):
        schedule = schedule_circuit(maximum_netlist(4))
        assert len(schedule.level_widths) == schedule.depth
        assert sum(schedule.level_widths) == schedule.gate_count

    def test_depth_is_much_smaller_than_gate_count(self):
        schedule = schedule_circuit(adder_netlist(16))
        assert schedule.depth < schedule.gate_count / 2

    @pytest.mark.parametrize("name", [*CORPUS, "adder8-lut-pipeline"])
    def test_depth_and_gates_are_the_compilers(self, name):
        if name in CORPUS:
            circuit = CORPUS[name][0]()
        else:
            circuit = optimize(adder_netlist(8), passes=LUT_PIPELINE)
        schedule = schedule_circuit(circuit)
        assert schedule.depth == circuit_depth(circuit)
        assert schedule.gate_count == live_gate_count(circuit)

    def test_a_netlist_out_of_ssa_order_is_refused(self):
        c = Circuit()
        a = c.inputs("a", 2)
        first = c.gate("and", a[0], a[1])
        later = c.gate("or", a[0], a[1])
        c.nodes[first] = Node(first, "and", args=(a[0], later))  # reads ahead
        c.output("out", [first])
        with pytest.raises(ValueError, match="not in SSA order"):
            schedule_circuit(c)

    def test_linear_only_circuit_has_no_waves(self):
        c = Circuit()
        a = c.inputs("a", 2)
        c.output("out", [c.not_(a[0]), c.not_(a[1])])
        schedule = schedule_circuit(c)
        assert schedule.depth == 0
        assert schedule.gate_count == 0


class TestGateRows:
    def test_mixed_rows_match_scalar_gates(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        scalar = TFHEGateEvaluator(cloud)
        batch_eval = BatchGateEvaluator(cloud, batch_size=1)
        names = sorted(MIXED_GATE_SPECS)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(len(names), 2))
        ca = [encrypt_bit(secret, int(bits[i, 0]), rng) for i in range(len(names))]
        cb = [encrypt_bit(secret, int(bits[i, 1]), rng) for i in range(len(names))]
        out = batch_eval.gate_rows(
            names, LweBatch.from_samples(ca), LweBatch.from_samples(cb)
        )
        for i, name in enumerate(names):
            ref = scalar.gate(name, ca[i], cb[i])
            assert np.array_equal(out.a[i], ref.a), name
            assert int(out.b[i]) == int(ref.b), name

    def test_row_count_is_free(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        batch_eval = BatchGateEvaluator(cloud, batch_size=4)
        ca = encrypt_bit_batch(secret, [1, 0, 1], rng=1)
        cb = encrypt_bit_batch(secret, [0, 0, 1], rng=2)
        out = batch_eval.gate_rows(["and", "or", "xor"], ca, cb)
        assert out.batch_size == 3

    def test_name_count_mismatch_rejected(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        batch_eval = BatchGateEvaluator(cloud, batch_size=2)
        ca = cb = batch_eval.constant(0)
        with pytest.raises(ValueError):
            batch_eval.gate_rows(["and"], ca, cb)

    def test_unknown_name_rejected(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        batch_eval = BatchGateEvaluator(cloud, batch_size=1)
        ca = cb = batch_eval.constant(0)
        with pytest.raises(ValueError):
            batch_eval.gate_rows(["mystery"], ca, cb)


class TestBatchConcat:
    def test_concat_then_rows_roundtrips(self, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        x = encrypt_bit_batch(secret, [0, 1], rng=3)
        y = encrypt_bit_batch(secret, [1, 1], rng=4)
        z = lwe_batch_concat([x, y])
        assert z.batch_size == 4
        assert_batches_identical(z.rows(0, 2), x)
        assert_batches_identical(z.rows(2, 4), y)

    def test_empty_concat_rejected(self):
        with pytest.raises(ValueError):
            lwe_batch_concat([])

    def test_rows_bounds_checked(self, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        x = encrypt_bit_batch(secret, [0, 1], rng=5)
        with pytest.raises(ValueError):
            x.rows(1, 3)


class TestLevelizedEquivalence:
    """Levelized executor output must be bit-identical to the eager path."""

    WIDTH = 3
    WORDS = 4

    def _planes(self, secret, values, rng):
        return encrypt_integers(secret, values, self.WIDTH, rng=rng)

    @pytest.mark.parametrize(
        "factory,output",
        [
            (adder_netlist, "sum"),
            (subtractor_netlist, "diff"),
            (greater_than_netlist, "gt"),
            (maximum_netlist, "max"),
        ],
    )
    def test_circuits_bit_identical(self, tiny_keys_naive, factory, output):
        secret, cloud = tiny_keys_naive
        circuit = factory(self.WIDTH)
        rng = np.random.default_rng(100)
        a_vals = [int(v) for v in rng.integers(0, 2**self.WIDTH, self.WORDS)]
        b_vals = [int(v) for v in rng.integers(0, 2**self.WIDTH, self.WORDS)]
        inputs = {
            "a": self._planes(secret, a_vals, rng),
            "b": self._planes(secret, b_vals, rng),
        }
        executor = CircuitExecutor(BatchGateEvaluator(cloud, self.WORDS))
        levelized = executor.run(circuit, inputs)
        scalar = TFHEGateEvaluator(cloud)
        for row in range(self.WORDS):
            bits = {name: [plane[row] for plane in planes] for name, planes in inputs.items()}
            eager = circuit_oracle(circuit, scalar, bits)[output]
            assert_batches_identical(
                LweBatch.from_samples(eager),
                LweBatch.from_samples(plane[row] for plane in levelized[output]),
            )

    def test_level_calls_equal_schedule_depth(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        circuit = adder_netlist(2)
        schedule = schedule_circuit(circuit)
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=2))
        inputs = {
            "a": encrypt_integers(secret, [1, 2], 2, rng=8),
            "b": encrypt_integers(secret, [3, 0], 2, rng=9),
        }
        executor.run(circuit, inputs, schedule=schedule)
        assert executor.level_calls == schedule.depth
        assert executor.evaluator.counters.bootstraps == schedule.gate_count * 2

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_random_adds_decrypt_correctly_levelized(self, tiny_keys_naive, data):
        secret, cloud = tiny_keys_naive
        width, words = 3, 2
        a_vals = data.draw(
            st.lists(st.integers(0, 2**width - 1), min_size=words, max_size=words)
        )
        b_vals = data.draw(
            st.lists(st.integers(0, 2**width - 1), min_size=words, max_size=words)
        )
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        inputs = {
            "a": encrypt_integers(secret, a_vals, width, rng=rng),
            "b": encrypt_integers(secret, b_vals, width, rng=rng),
        }
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=words))
        sums = executor.run(adder_netlist(width), inputs)["sum"]
        assert decrypt_integers(secret, sums) == [
            x + y for x, y in zip(a_vals, b_vals)
        ]

    def test_run_samples_single_word(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        from repro.tfhe.circuits import decrypt_integer, encrypt_integer

        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
        a = encrypt_integer(secret, 5, 3, rng=20)
        b = encrypt_integer(secret, 6, 3, rng=21)
        out = executor.run_samples(adder_netlist(3), {"a": a, "b": b})["sum"]
        assert decrypt_integer(secret, out) == 11

    def test_run_samples_requires_batch_one(self, tiny_keys_naive):
        _, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=2))
        with pytest.raises(ValueError):
            executor.run_samples(adder_netlist(1), {"a": [], "b": []})


#: Every word-level constructor of :mod:`repro.tfhe.netlist`, at a small width.
NETLISTS = {
    "adder": lambda: netlist.adder_netlist(3),
    "negate": lambda: netlist.negate_netlist(3),
    "subtractor": lambda: netlist.subtractor_netlist(3),
    "equal": lambda: netlist.equal_netlist(3),
    "greater_than": lambda: netlist.greater_than_netlist(3),
    "select": lambda: netlist.select_netlist(3),
    "maximum": lambda: netlist.maximum_netlist(3),
    "minimum": lambda: netlist.minimum_netlist(3),
    "multiplier": lambda: netlist.multiplier_netlist(3),
    "absolute": lambda: netlist.absolute_netlist(3),
}
CIRCUITS = {**{f"corpus.{name}": build for name, (build, _, _) in CORPUS.items()}, **NETLISTS}


@pytest.fixture(scope="module")
def tiny_keys_double():
    """``test-tiny`` under the ``double`` engine: the gate-by-gate walk of
    the whole corpus is ≈ 2.6k scalar bootstraps, 5x cheaper than ``naive``."""
    return generate_keys(TEST_TINY, DoubleFFTNegacyclicTransform(TEST_TINY.N), rng=42)


def _same(left, right) -> bool:
    return left.keys() == right.keys() and all(
        np.array_equal(x.a, y.a) and int(x.b) == int(y.b)
        for name in left
        for x, y in zip(left[name], right[name], strict=True)
    )


class TestEveryNetlistMatchesTheOracle:
    """``run`` over bit planes, ``run_samples`` per word and the gate-by-gate
    oracle return the same bytes on every circuit the library builds."""

    WORDS = 2

    def test_every_constructor_is_listed(self):
        constructors = {n[: -len("_netlist")] for n in dir(netlist) if n.endswith("_netlist")}
        assert constructors == set(NETLISTS)

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_levels_match_the_gate_by_gate_walk(self, tiny_keys_double, name):
        secret, cloud = tiny_keys_double
        circuit = CIRCUITS[name]()
        rng = np.random.default_rng(sorted(CIRCUITS).index(name))
        planes = {
            input_name: [
                encrypt_bit_batch(secret, rng.integers(0, 2, self.WORDS), rng) for _ in wires
            ]
            for input_name, wires in circuit.input_wires.items()
        }
        ran = CircuitExecutor(BatchGateEvaluator(cloud, self.WORDS)).run(circuit, planes)
        single = CircuitExecutor(BatchGateEvaluator(cloud, 1))
        for row in range(self.WORDS):
            bits = {key: [plane[row] for plane in value] for key, value in planes.items()}
            levelized = single.run_samples(circuit, bits)
            assert _same(levelized, {key: [p[row] for p in value] for key, value in ran.items()})
            if row == 0:
                assert _same(levelized, circuit_oracle(circuit, TFHEGateEvaluator(cloud), bits))


class TestExecutorErrors:
    def test_missing_input_rejected(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
        planes = encrypt_integers(secret, [1], 2, rng=30)
        with pytest.raises(ValueError):
            executor.run(adder_netlist(2), {"a": planes})

    def test_wrong_input_width_rejected(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
        with pytest.raises(ValueError):
            executor.run(
                adder_netlist(2),
                {
                    "a": encrypt_integers(secret, [1], 3, rng=31),
                    "b": encrypt_integers(secret, [1], 2, rng=32),
                },
            )

    def test_wrong_batch_width_rejected(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=2))
        with pytest.raises(ValueError):
            executor.run(
                adder_netlist(2),
                {
                    "a": encrypt_integers(secret, [1], 2, rng=33),
                    "b": encrypt_integers(secret, [1], 2, rng=34),
                },
            )

    def test_scalar_bits_are_refused_by_run(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
        bits = {
            "a": [encrypt_bit(secret, 1, rng=39), encrypt_bit(secret, 0, rng=40)],
            "b": [encrypt_bit(secret, 0, rng=41), encrypt_bit(secret, 1, rng=42)],
        }
        with pytest.raises(ValueError, match="input 'a' holds LweSample bits.*run_samples"):
            executor.run(adder_netlist(2), bits)
        assert executor.level_calls == 0

    def test_schedule_with_conflicting_outputs_rejected(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
        circuit = adder_netlist(2)
        schedule = schedule_circuit(circuit)
        with pytest.raises(ValueError):
            executor.run(
                circuit,
                {
                    "a": encrypt_integers(secret, [1], 2, rng=37),
                    "b": encrypt_integers(secret, [1], 2, rng=38),
                },
                outputs=["nope"],
                schedule=schedule,
            )

    def test_foreign_schedule_rejected(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
        schedule = schedule_circuit(adder_netlist(3))
        with pytest.raises(ValueError):
            executor.run(
                adder_netlist(2),
                {
                    "a": encrypt_integers(secret, [1], 2, rng=35),
                    "b": encrypt_integers(secret, [1], 2, rng=36),
                },
                schedule=schedule,
            )
