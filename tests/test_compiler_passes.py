"""Property tests for the optimization pass pipeline.

The acceptance bar: every pass is semantics-preserving under plaintext
co-simulation over randomized inputs, for all widths in {4, 8, 16}, on both
traced programs and adversarial hand-built netlists.
"""

import pytest

from repro.compiler import (
    FheBool,
    FheUint,
    OptimizationError,
    PassManager,
    fhe_abs,
    fhe_max,
    fhe_min,
    fhe_select,
    optimize,
    simulate,
    trace,
    verify_equivalent,
)
from repro.compiler.passes import (
    BALANCEABLE_OPS,
    COMMUTATIVE_OPS,
    COMPLEMENT_FIRST,
    COMPLEMENT_SECOND,
    DEFAULT_PIPELINE,
    LUT_PIPELINE,
    MIRROR,
    PASSES,
    absorb_linear,
    circuit_depth,
    eliminate_common_subexpressions,
    eliminate_dead_nodes,
    fold_constants,
    live_gate_count,
    rebalance_depth,
)
from repro.tfhe.gates import PLAINTEXT_GATES
from repro.tfhe.netlist import (
    BOOTSTRAPPED_OPS,
    LINEAR_OPS,
    Circuit,
    equal_netlist,
    maximum_netlist,
    multiplier_netlist,
    subtractor_netlist,
)

WIDTHS = (4, 8, 16)


def linear_count(circuit: Circuit) -> int:
    """Number of linear (bootstrap-free) nodes."""
    return sum(1 for n in circuit.nodes if n.op in LINEAR_OPS)


def _traced_program(width: int) -> Circuit:
    """A representative traced program mixing every lowering path."""
    return trace(
        lambda a, b, c: {
            "score": fhe_max(a * 3 + b, b - c),
            "lo": fhe_min(a & c, b ^ 5),
            "mag": fhe_abs(a - b),
            "pick": fhe_select(a > c, b, c) >> 1,
        },
        FheUint(width, "a"),
        FheUint(width, "b"),
        FheUint(width, "c"),
    )


def _random_netlist(width: int, rng, n_ops: int = 60) -> Circuit:
    """An adversarial random netlist: gates, NOT/COPY chains, consts, muxes."""
    c = Circuit(f"random{width}")
    wires = list(c.inputs("a", width)) + list(c.inputs("b", width))
    wires.append(c.constant(0))
    wires.append(c.constant(1))
    ops = list(BOOTSTRAPPED_OPS)
    for _ in range(n_ops):
        kind = rng.integers(0, 10)
        if kind == 0:
            wires.append(c.not_(wires[int(rng.integers(0, len(wires)))]))
        elif kind == 1:
            wires.append(c.copy(wires[int(rng.integers(0, len(wires)))]))
        elif kind == 2:
            sel, t, f = (wires[int(rng.integers(0, len(wires)))] for _ in range(3))
            wires.append(c.mux(sel, t, f))
        else:
            op = ops[int(rng.integers(0, len(ops)))]
            x, y = (wires[int(rng.integers(0, len(wires)))] for _ in range(2))
            wires.append(c.gate(op, x, y))
    out = [wires[int(rng.integers(0, len(wires)))] for _ in range(width)]
    c.output("out", out)
    return c


class TestGateAlgebra:
    def test_complement_tables_cover_all_gates(self):
        assert set(COMPLEMENT_FIRST) == set(PLAINTEXT_GATES)
        assert set(COMPLEMENT_SECOND) == set(PLAINTEXT_GATES)

    @pytest.mark.parametrize("op", sorted(PLAINTEXT_GATES))
    def test_complement_tables_are_correct(self, op):
        f = PLAINTEXT_GATES[op]
        first = PLAINTEXT_GATES[COMPLEMENT_FIRST[op]]
        second = PLAINTEXT_GATES[COMPLEMENT_SECOND[op]]
        for a in (0, 1):
            for b in (0, 1):
                assert first(a, b) == f(1 - a, b)
                assert second(a, b) == f(a, 1 - b)

    @pytest.mark.parametrize("op", sorted(MIRROR))
    def test_mirror_pairs_swap_arguments(self, op):
        f, g = PLAINTEXT_GATES[op], PLAINTEXT_GATES[MIRROR[op]]
        for a in (0, 1):
            for b in (0, 1):
                assert f(a, b) == g(b, a)

    def test_commutative_set_is_exactly_the_symmetric_gates(self):
        for op, f in PLAINTEXT_GATES.items():
            assert (op in COMMUTATIVE_OPS) == (f(0, 1) == f(1, 0))


class TestPassesPreserveSemantics:
    """The acceptance-criteria property: co-simulation pre vs post, all widths."""

    @pytest.mark.parametrize("pass_name", sorted(PASSES))
    @pytest.mark.parametrize("width", WIDTHS)
    def test_pass_on_traced_program(self, pass_name, width):
        circuit = _traced_program(width)
        rewritten = PASSES[pass_name](circuit)
        verify_equivalent(circuit, rewritten, trials=24, rng=width)

    @pytest.mark.parametrize("pass_name", sorted(PASSES))
    @pytest.mark.parametrize("width", WIDTHS)
    def test_pass_on_random_netlists(self, pass_name, width, rng):
        for _ in range(4):
            circuit = _random_netlist(width, rng)
            rewritten = PASSES[pass_name](circuit)
            verify_equivalent(circuit, rewritten, trials=16, rng=rng)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_full_pipeline_on_traced_program(self, width):
        circuit = _traced_program(width)
        manager = PassManager(verify=True, trials=24, rng=7)
        optimized = manager.run(circuit)
        verify_equivalent(circuit, optimized, trials=24, rng=width + 1)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_full_pipeline_on_random_netlists(self, width, rng):
        for _ in range(3):
            circuit = _random_netlist(width, rng)
            optimized = PassManager(verify=True, trials=16, rng=rng).run(circuit)
            verify_equivalent(circuit, optimized, trials=16, rng=rng)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_pipeline_on_word_constructors(self, width):
        for factory in (multiplier_netlist, maximum_netlist, equal_netlist, subtractor_netlist):
            circuit = factory(width)
            optimized = optimize(circuit, verify=True, rng=3)
            verify_equivalent(circuit, optimized, trials=20, rng=5)


class TestInterfacePreservation:
    def test_all_input_words_survive_even_when_dead(self):
        circuit = trace(lambda a, b: a + 1, FheUint(4, "a"), FheUint(4, "b"))
        optimized = optimize(circuit)
        assert {n: len(w) for n, w in optimized.input_wires.items()} == {
            "a": 4,
            "b": 4,
        }

    def test_output_names_and_widths_survive(self):
        circuit = _traced_program(4)
        optimized = optimize(circuit)
        assert {n: len(w) for n, w in optimized.output_wires.items()} == {
            n: len(w) for n, w in circuit.output_wires.items()
        }

    def test_optimized_circuits_validate(self):
        optimized = optimize(_traced_program(8))
        optimized.validate()  # SSA order, arities, known ops

    def test_input_circuit_is_not_mutated(self):
        circuit = _traced_program(4)
        nodes_before = len(circuit.nodes)
        optimize(circuit)
        assert len(circuit.nodes) == nodes_before


class TestConstantFolding:
    def test_constant_multiplier_collapses(self):
        circuit = trace(lambda a: a * 3, FheUint(8, "a"))
        folded = fold_constants(circuit)
        # The naive shift-and-add trace ANDs against all eight constant
        # multiplier bits; folding must collapse the six zero rows.
        assert live_gate_count(folded) < live_gate_count(circuit) / 2

    def test_fully_constant_cone_becomes_gate_free(self):
        c = Circuit()
        c.inputs("a", 1)
        one = c.constant(1)
        zero = c.constant(0)
        val = c.gate("and", c.gate("or", one, zero), c.gate("xnor", one, one))
        c.output("out", [val])
        folded = fold_constants(c)
        assert live_gate_count(folded) == 0
        assert simulate(folded, {"a": 0})["out"] == 1

    def test_mux_with_constant_select_picks_branch(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        sel = c.constant(1)
        c.output("out", [c.mux(sel, a, b)])
        folded = fold_constants(c)
        assert live_gate_count(folded) == 0
        assert simulate(folded, {"a": 1, "b": 0})["out"] == 1
        assert simulate(folded, {"a": 0, "b": 1})["out"] == 0

    def test_same_wire_diagonal_rules(self):
        expect = {"and": 0, "or": 0, "xor": 1, "xnor": 0, "nand": 1, "nor": 1}
        for op, extra_gates in expect.items():
            c = Circuit()
            a = c.inputs("a", 1)[0]
            c.output("out", [c.gate(op, a, a)])
            folded = fold_constants(c)
            assert live_gate_count(folded) == 0, op
            want = PLAINTEXT_GATES[op](0, 0), PLAINTEXT_GATES[op](1, 1)
            for bit in (0, 1):
                assert simulate(folded, {"a": bit})["out"] == want[bit], op


class TestAbsorbLinear:
    def test_not_chains_fold_into_gates(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        c.output("out", [c.gate("and", c.not_(a), c.not_(c.not_(b)))])
        absorbed = absorb_linear(c)
        ops = [n.op for n in absorbed.nodes if n.is_bootstrapped]
        assert ops == ["andny"]  # and(not a, b) == andny(a, b)
        assert linear_count(absorbed) == 0

    def test_negated_output_keeps_one_trailing_not(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        g = c.gate("and", a, b)
        c.output("out", [c.not_(c.copy(c.not_(c.not_(g))))])
        absorbed = absorb_linear(c)
        assert linear_count(absorbed) == 1
        verify_equivalent(c, absorbed)

    def test_subtractor_nots_are_absorbed(self):
        circuit = subtractor_netlist(8)
        absorbed = absorb_linear(fold_constants(circuit))
        assert linear_count(absorbed) <= 1
        verify_equivalent(circuit, absorbed, trials=20, rng=2)


class TestCSE:
    def test_structural_duplicates_collapse(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        x = c.gate("and", a, b)
        y = c.gate("and", a, b)
        c.output("out", [c.gate("or", x, y)])
        deduped = eliminate_common_subexpressions(c)
        # or(x, x) remains, but the two ANDs share one node.
        assert live_gate_count(deduped) == 2

    def test_commutative_arguments_are_sorted(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        c.output("out", [c.gate("or", c.gate("and", a, b), c.gate("and", b, a))])
        assert live_gate_count(eliminate_common_subexpressions(c)) == 2

    def test_mirror_pair_spellings_are_unified(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        c.output("out", [c.gate("or", c.gate("andny", a, b), c.gate("andyn", b, a))])
        deduped = eliminate_common_subexpressions(c)
        assert live_gate_count(deduped) == 2
        verify_equivalent(c, deduped)

    @pytest.mark.parametrize("pipeline", [DEFAULT_PIPELINE, LUT_PIPELINE], ids=["gates", "luts"])
    def test_traced_repeats_collapse_in_the_pipeline(self, pipeline):
        """The tracer does not hash-cons: ``a + b`` written twice and
        ``b & a`` beside ``a & b`` trace as separate gates, and only ``cse``
        merges them (49 live gates against 86 without it under the gate
        pipeline, 17 against 40 under the LUT pipeline)."""
        circuit = trace(
            lambda a, b: ((a & b) ^ ((b & a) | (a + b)), (a + b) - (a + b) * 3),
            FheUint(4, "a"),
            FheUint(4, "b"),
        )
        with_cse = optimize(circuit, pipeline)
        without_cse = optimize(circuit, tuple(name for name in pipeline if name != "cse"))
        assert live_gate_count(with_cse) < live_gate_count(without_cse)
        verify_equivalent(circuit, with_cse, trials=24, rng=11)


class TestRebalance:
    def test_equality_chain_depth_becomes_logarithmic(self):
        circuit = fold_constants(equal_netlist(16))
        balanced = rebalance_depth(circuit)
        assert circuit_depth(circuit) == 16  # xnor level + 15-deep and chain
        assert circuit_depth(balanced) == 5  # xnor level + ceil(log2 16)
        verify_equivalent(circuit, balanced, trials=20, rng=4)

    def test_multi_use_chain_nodes_stay_leaves(self):
        c = Circuit()
        bits = c.inputs("a", 4)
        x = c.gate("and", bits[0], bits[1])
        y = c.gate("and", x, bits[2])
        z = c.gate("and", y, bits[3])
        c.output("out", [z])
        c.output("also_y", [y])  # y has fanout 2: must not be collapsed
        balanced = rebalance_depth(c)
        verify_equivalent(c, balanced)
        assert len(balanced.output_wires["also_y"]) == 1

    @pytest.mark.parametrize("op", sorted(BALANCEABLE_OPS))
    def test_each_balanceable_op(self, op):
        c = Circuit()
        bits = c.inputs("a", 8)
        acc = bits[0]
        for bit in bits[1:]:
            acc = c.gate(op, acc, bit)
        c.output("out", [acc])
        balanced = rebalance_depth(c)
        assert circuit_depth(balanced) == 3
        verify_equivalent(c, balanced)


class TestDeadNodeElimination:
    def test_dead_gates_are_dropped_and_renumbered(self):
        circuit = subtractor_netlist(8)  # truncated: dead carry cone
        swept = eliminate_dead_nodes(circuit)
        assert len(swept.nodes) < len(circuit.nodes)
        assert live_gate_count(swept) == live_gate_count(circuit)
        assert all(
            nid in swept.live_nodes() or swept.node(nid).op == "input"
            for nid in range(len(swept.nodes))
        )
        verify_equivalent(circuit, swept, trials=20, rng=6)


class TestPassManager:
    def test_stats_recorded_per_application(self):
        manager = PassManager(max_iterations=1)
        manager.run(_traced_program(4))
        assert [s.name for s in manager.stats] == list(DEFAULT_PIPELINE)
        assert all(s.gates_after <= s.gates_before for s in manager.stats)

    def test_fixpoint_stops_early(self):
        manager = PassManager(max_iterations=4)
        optimized = manager.run(_traced_program(4))
        # Second sweep over an already-optimized circuit changes nothing, so
        # at most two sweeps run.
        assert len(manager.stats) <= 2 * len(DEFAULT_PIPELINE)
        again = PassManager().run(optimized)
        assert live_gate_count(again) == live_gate_count(optimized)

    def test_summary_mentions_every_pass(self):
        manager = PassManager(max_iterations=1)
        manager.run(_traced_program(4))
        summary = manager.summary()
        for name in DEFAULT_PIPELINE:
            assert name in summary

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            PassManager(passes=["fold", "mystery"])
        with pytest.raises(ValueError):
            PassManager(max_iterations=0)

    def test_verify_catches_a_broken_pass(self, monkeypatch):
        def broken(circuit):
            rewritten = fold_constants(circuit)
            # Sabotage: flip the final output wire to a NOT of itself.
            name, wires = next(iter(rewritten.output_wires.items()))
            flipped = rewritten.not_(wires[-1])
            rewritten.output_wires[name] = tuple(wires[:-1]) + (flipped,)
            return rewritten

        monkeypatch.setitem(PASSES, "broken", broken)
        manager = PassManager(passes=["broken"], verify=True, max_iterations=1)
        with pytest.raises(OptimizationError, match="broken"):
            manager.run(_traced_program(4))

    def test_verify_off_by_default_still_correct(self):
        circuit = _traced_program(8)
        optimized = PassManager().run(circuit)
        verify_equivalent(circuit, optimized, trials=24, rng=9)

    def test_benchmark_expression_hits_reduction_target(self):
        # The acceptance-criteria expression: >= 20% gate reduction at 16 bit.
        circuit = trace(
            lambda a, b, c: fhe_max(a * 3 + b, b - c),
            FheUint(16, "a"),
            FheUint(16, "b"),
            FheUint(16, "c"),
        )
        optimized = optimize(circuit)
        before, after = live_gate_count(circuit), live_gate_count(optimized)
        assert 1 - after / before >= 0.20
        assert circuit_depth(optimized) <= circuit_depth(circuit)
