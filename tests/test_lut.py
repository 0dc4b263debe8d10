"""Boolean LUTs over the gate encoding: spec search, lutify, lut execution."""

from __future__ import annotations

import inspect

import pytest

from repro.compiler import FheUint, fhe_max, optimize, trace
from repro.compiler.passes import (
    LUT_PIPELINE,
    PASSES,
    PassManager,
    circuit_depth,
    eliminate_dead_nodes,
    live_gate_count,
    lutify,
)
from repro.compiler.sim import simulate, verify_equivalent
from repro.runtime.scheduler import BatchScheduler
from repro.tfhe import netlist
from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import (
    BatchGateEvaluator,
    encrypt_bit,
    decrypt_bit,
    encrypt_bit_batch,
    decrypt_bit_batch,
    require_lut_spec,
)
from repro.tfhe.lut import (
    MAX_LUT_ARITY,
    MAX_WEIGHT_COST,
    boolean_lut_spec,
)
from repro.tfhe.netlist import Circuit, adder_netlist
from repro.tfhe.serialize import circuit_to_json

#: (table, arity) pairs with known single-bootstrap realisations.
FEASIBLE = [
    (0b0110, 2),  # XOR
    (0b1000, 2),  # AND
    (0b0111, 2),  # OR
    (0x96, 3),  # XOR3
    (0xE8, 3),  # MAJ3
    (0x6996, 4),  # 4-input parity
]

#: The canonical infeasible table: 0x1669 has no affine slicing at arity 4.
INFEASIBLE_TABLE = 0x1669


# --------------------------------------------------------------------------- #
# spec search                                                                 #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("table,arity", FEASIBLE)
def test_feasible_specs_match_their_tables(table, arity):
    spec = boolean_lut_spec(table, arity)
    assert spec is not None
    assert spec.weight_cost <= MAX_WEIGHT_COST
    # Negacyclic constraint: opposite slices carry complementary outputs.
    for t in range(4):
        assert spec.slices[t] == 1 - spec.slices[t + 4]
    assert spec.table == table


def test_infeasible_table_reports_none():
    assert boolean_lut_spec(INFEASIBLE_TABLE, 4) is None
    with pytest.raises(ValueError, match="0x1669.*no.*single-bootstrap"):
        require_lut_spec(INFEASIBLE_TABLE, 4)


def test_spec_search_is_memoised():
    assert boolean_lut_spec(0x96, 3) is boolean_lut_spec(0x96, 3)


def test_spec_search_validates_inputs():
    with pytest.raises(ValueError, match="arity"):
        boolean_lut_spec(0, MAX_LUT_ARITY + 1)
    with pytest.raises(ValueError, match="fit"):
        boolean_lut_spec(1 << 16, 3)


def test_arity2_specs_cover_every_gate():
    """Every 2-input truth table has an affine realisation (stock gates do)."""
    for table in range(16):
        spec = boolean_lut_spec(table, 2)
        assert spec is not None, f"table {table:#06b}"
        assert spec.table == table


# --------------------------------------------------------------------------- #
# netlist lut nodes                                                           #
# --------------------------------------------------------------------------- #


def test_circuit_lut_node_validation():
    c = Circuit("luts")
    a, b, d, e = c.inputs("a", 4)
    with pytest.raises(ValueError, match="no.*single-bootstrap"):
        c.lut(INFEASIBLE_TABLE, [a, b, d, e])
    with pytest.raises(ValueError, match="does not fit"):
        c.lut(1 << 4, [a, b])
    with pytest.raises(ValueError, match="arity"):
        c.lut(0, [])
    wire = c.lut(0x96, [a, b, d])
    c.output("out", [wire])
    assert simulate(c, {"a": 0b0111})["out"] == 1  # parity of the low 3 bits


def test_lut_nodes_simulate_like_their_gate_cones():
    c = Circuit("maj")
    a, b, d = c.inputs("x", 3)
    c.output("out", [c.lut(0xE8, [a, b, d])])
    for x in range(8):
        bits = [(x >> i) & 1 for i in range(3)]
        assert simulate(c, {"x": x})["out"] == int(sum(bits) >= 2)


# --------------------------------------------------------------------------- #
# the lutify pass                                                             #
# --------------------------------------------------------------------------- #


def _traced(fn, width, names):
    return lambda: trace(fn, *(FheUint(width, name) for name in names))


#: The corpus: name -> (builder, bootstraps, depth) — the numbers are what
#: ``LUT_PIPELINE`` left of each circuit with the greedy per-root ``lutify``
#: this mapper replaced (commit 8c15eb9).  No row may ever read higher.
CORPUS = {
    "adder8": (lambda: netlist.adder_netlist(8), 34, 8),
    "adder16": (lambda: netlist.adder_netlist(16), 74, 16),
    "sub8": (lambda: netlist.subtractor_netlist(8), 44, 8),
    "mul4": (lambda: netlist.multiplier_netlist(4), 17, 5),
    "mul8": (lambda: netlist.multiplier_netlist(8), 113, 13),
    "gt8": (lambda: netlist.greater_than_netlist(8), 8, 8),
    "eq8": (lambda: netlist.equal_netlist(8), 15, 4),
    "max8": (lambda: netlist.maximum_netlist(8), 30, 10),
    "min8": (lambda: netlist.minimum_netlist(8), 30, 10),
    "abs8": (lambda: netlist.absolute_netlist(8), 13, 7),
    "neg8": (lambda: netlist.negate_netlist(8), 12, 6),
    "sel8": (lambda: netlist.select_netlist(8), 24, 2),
    "traced_mul8": (_traced(lambda a, b: a * b, 8, "ab"), 113, 13),
    "traced_mul16": (_traced(lambda a, b: a * b, 16, "ab"), 593, 29),
    "traced_max16": (
        _traced(lambda a, b, c: fhe_max(a * 3 + b, b - c), 16, "abc"),
        310,
        19,
    ),
}


def _lut_specs(circuit):
    """The spec of every live ``lut`` node, after checking it reads each wire."""
    specs = []
    for nid in sorted(circuit.live_nodes()):
        node = circuit.node(nid)
        if node.op != "lut":
            continue
        assert len(set(node.args)) == len(node.args)
        for position in range(len(node.args)):
            assert any(
                (node.value >> m) & 1 != (node.value >> (m ^ (1 << position))) & 1
                for m in range(1 << len(node.args))
            ), f"lut {nid} ignores wire {position}"
        specs.append(boolean_lut_spec(node.value, len(node.args)))
        assert specs[-1].weight_cost <= MAX_WEIGHT_COST
    return specs


def test_lutify_preserves_semantics_and_saves_bootstraps():
    circuit = adder_netlist(4)
    clustered = lutify(circuit)
    verify_equivalent(circuit, clustered, trials=32, rng=9)
    assert clustered.gate_count <= circuit.gate_count
    # One application, straight on the raw netlist (constant carry-in and
    # all), never costs a bootstrapping or a level on any corpus circuit.
    for name, (build, _, _) in CORPUS.items():
        circuit = build()
        clustered = lutify(circuit)
        verify_equivalent(circuit, clustered, trials=32, rng=9)
        assert live_gate_count(clustered) <= live_gate_count(circuit), name
        assert circuit_depth(clustered) <= circuit_depth(circuit), name
        _lut_specs(clustered)
        assert circuit_to_json(lutify(circuit)) == circuit_to_json(clustered), name
        assert circuit_to_json(eliminate_dead_nodes(clustered)) == circuit_to_json(clustered), name


def test_lut_pipeline_reduces_adder_bootstraps():
    circuit = adder_netlist(4)
    manager = PassManager(passes=LUT_PIPELINE, verify=True, trials=16, rng=3)
    optimized = manager.run(circuit)
    assert optimized.gate_count < circuit.gate_count
    assert any(
        optimized.node(n).op == "lut" for n in optimized.live_nodes()
    ), "pipeline produced no lut nodes on a ripple adder"
    verify_equivalent(circuit, optimized, trials=32, rng=4)
    # The corpus is a contract: no row above the table, the total well below.
    total = 0
    for name, (build, bootstraps, depth) in CORPUS.items():
        circuit = build()
        manager = PassManager(passes=LUT_PIPELINE)
        optimized = manager.run(circuit)
        verify_equivalent(circuit, optimized, trials=64, rng=4)
        assert live_gate_count(optimized) <= bootstraps, name
        assert circuit_depth(optimized) <= depth, name
        total += live_gate_count(optimized)
        _lut_specs(optimized)
        # Deterministic, at a fixpoint the manager reached on its own, and idempotent.
        artifact = circuit_to_json(optimized)
        assert circuit_to_json(optimize(circuit, passes=LUT_PIPELINE)) == artifact, name
        last_sweep = manager.stats[-len(LUT_PIPELINE) :]
        assert not any(stats.changed for stats in last_sweep), name
        assert len(manager.stats) <= manager.max_iterations * len(LUT_PIPELINE)
        assert circuit_to_json(optimize(optimized, passes=LUT_PIPELINE)) == artifact, name
    assert total <= 950  # 1430 with the greedy pass
    # A full adder is XOR3 + MAJ3: two bootstrappings and one level per bit.
    for width in (4, 8, 16):
        optimized = optimize(adder_netlist(width), passes=LUT_PIPELINE)
        assert live_gate_count(optimized) == 2 * width
        assert circuit_depth(optimized) == width
        assert max(spec.weight_cost for spec in _lut_specs(optimized)) <= 10


def test_lutify_leaves_infeasible_cones_as_gates():
    # A single gate has nothing to cluster with: lutify must not regress it.
    c = Circuit("lone")
    a, b = c.inputs("a", 2)
    c.output("out", [c.gate("nand", a, b)])
    out = lutify(c)
    verify_equivalent(c, out, trials=8, rng=1)
    assert out.gate_count <= c.gate_count
    assert [n.op for n in out.nodes if n.is_bootstrapped] == ["nand"]
    # A mux has no single-bootstrap table: its three gates stay three gates.
    mux = netlist.select_netlist(1)
    assert sorted(n.op for n in lutify(mux).nodes if n.is_bootstrapped) == [
        "and",
        "andny",
        "or",
    ]
    # A cone that reads one wire, or none, is that wire, its NOT or a constant.
    c = Circuit("degenerate")
    a, b = c.inputs("a", 2)
    a_and_b = c.gate("and", a, b)
    c.output(
        "out",
        [
            c.gate("or", a, a_and_b),  # absorption: a
            c.gate("nor", c.not_(b), c.gate("andny", a, b)),  # one gate: and(a, b)
            c.gate("xor", a_and_b, c.copy(a_and_b)),  # 0
            c.gate("nand", c.gate("or", a, b), c.constant(1)),  # not or(a, b)
        ],
    )
    out = lutify(c)
    verify_equivalent(c, out, trials=8, rng=1)
    assert [n.op for n in out.nodes if n.op not in ("input", "const")] == [
        "and",
        "or",
        "not",
    ]


def test_lutify_takes_the_circuit_only():
    assert list(inspect.signature(lutify).parameters) == ["circuit"]
    assert list(PASSES) == ["fold", "absorb", "cse", "balance", "lutify", "dce"]
    assert LUT_PIPELINE == ("fold", "absorb", "cse", "balance", "cse", "lutify")


@pytest.mark.parametrize(
    "table,positions,bootstraps",
    [
        (0b0110, (0, 0), 0),  # xor(a, a) = 0
        (0b1000, (0, 0), 0),  # and(a, a) = a
        (0b0111, (2, 2), 0),  # or(c, c) = c
        (0x96, (0, 1, 0), 0),  # xor3(a, b, a) = b
        (0xE8, (0, 0, 1), 0),  # maj(a, a, b) = a
        (0x1E, (1, 2, 1), 1),  # 0x1e(b, c, b) = andny(b, c)
        (0x6996, (0, 1, 0, 2), 1),  # parity(a, b, a, c) = xor(b, c)
        (0x6996, (0, 0, 0, 1), 1),  # parity(a, a, a, b) = xor(a, b)
        (0x6996, (3, 3, 3, 3), 0),  # parity(d, d, d, d) = 0
    ],
)
def test_fold_merges_repeated_lut_wires(table, positions, bootstraps):
    """A lut listing a wire twice is a smaller function: no bootstrap for a constant."""
    c = Circuit("repeated")
    x = c.inputs("x", 4)
    c.output("out", [c.lut(table, [x[p] for p in positions])])
    for result in (PASSES["fold"](c), optimize(c, passes=LUT_PIPELINE)):
        verify_equivalent(c, result, trials=16, rng=2)
        live = [result.node(n) for n in result.live_nodes()]
        assert sum(n.is_bootstrapped for n in live) == bootstraps
        assert all(len(set(n.args)) == len(n.args) for n in live)


# --------------------------------------------------------------------------- #
# encrypted lut execution                                                     #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("table,arity", [(0x96, 3), (0xE8, 3), (0x6996, 4)])
def test_scalar_lut_evaluation(tiny_keys_naive, tiny_evaluator, rng, table, arity):
    secret, _ = tiny_keys_naive
    for index in range(1 << arity):
        bits = [(index >> i) & 1 for i in range(arity)]
        inputs = [encrypt_bit(secret, bit, rng) for bit in bits]
        out = tiny_evaluator.lut(table, inputs)
        assert decrypt_bit(secret, out) == (table >> index) & 1


def test_batched_lut_evaluation(tiny_keys_naive, rng):
    secret, cloud = tiny_keys_naive
    table, arity = 0xE8, 3
    size = 1 << arity
    evaluator = BatchGateEvaluator(cloud, batch_size=size)
    columns = [
        encrypt_bit_batch(secret, [(index >> i) & 1 for index in range(size)], rng)
        for i in range(arity)
    ]
    out = evaluator.lut(table, columns)
    assert decrypt_bit_batch(secret, out) == [
        (table >> index) & 1 for index in range(size)
    ]


def test_executor_runs_lut_pipelined_circuits(tiny_keys_naive, rng):
    """An optimized adder with lut nodes executes batched, end to end."""
    from repro.tfhe.circuits import decrypt_integers, encrypt_integers

    secret, cloud = tiny_keys_naive
    circuit = PassManager(passes=LUT_PIPELINE, verify=True, trials=8, rng=2).run(
        adder_netlist(4)
    )
    a_vals, b_vals = [11, 3], [7, 12]
    executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=2))
    inputs = {
        "a": encrypt_integers(secret, a_vals, 4, rng=rng),
        "b": encrypt_integers(secret, b_vals, 4, rng=rng),
    }
    sums = executor.run(circuit, inputs)["sum"]
    assert decrypt_integers(secret, sums) == [
        x + y for x, y in zip(a_vals, b_vals)
    ]


@pytest.mark.parametrize(
    "reference,values",
    [
        (netlist.adder_netlist(8), {"a": 201, "b": 118}),
        (netlist.multiplier_netlist(4), {"a": 11, "b": 7}),
    ],
    ids=["adder8", "mul4"],
)
def test_lowered_corpus_circuits_decrypt_to_the_reference(tiny_keys_naive, reference, values):
    """Executor and scheduler both return what the *unlowered* circuit computes."""
    from repro.tfhe.circuits import decrypt_integer, encrypt_integer

    secret, cloud = tiny_keys_naive
    lowered = optimize(reference, passes=LUT_PIPELINE)
    expected = simulate(reference, values)
    inputs = {
        name: encrypt_integer(secret, value, reference.input_width(name), rng=60 + i)
        for i, (name, value) in enumerate(values.items())
    }
    executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=1))
    ran = executor.run_samples(lowered, inputs)
    scheduler = BatchScheduler()
    scheduler.register_client("tenant", cloud.default_context())
    handle = scheduler.session("tenant").submit_circuit(lowered, inputs)
    scheduler.flush()
    for outputs in (ran, handle.result()):
        assert {
            name: decrypt_integer(secret, word) for name, word in outputs.items()
        } == expected
