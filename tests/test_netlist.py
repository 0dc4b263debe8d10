"""Tests for the circuit netlist IR and its word-level constructors."""

import pytest

from repro.tfhe.netlist import (
    BOOTSTRAPPED_OPS,
    LINEAR_OPS,
    Circuit,
    absolute_netlist,
    adder_netlist,
    equal_netlist,
    greater_than_netlist,
    maximum_netlist,
    minimum_netlist,
    multiplier_netlist,
    negate_netlist,
    select_netlist,
    shift_left_into,
    shift_right_into,
    subtractor_netlist,
)


def linear_count(circuit):
    """Number of linear (bootstrap-free) nodes."""
    return sum(1 for n in circuit.nodes if n.op in LINEAR_OPS)


def shifted(into, width, amount):
    """A circuit whose output ``shifted`` is ``into`` applied to input ``a``."""
    c = Circuit()
    c.output("shifted", into(c, c.inputs("a", width), amount))
    return c


class TestBuilder:
    def test_inputs_are_lsb_first_wires(self):
        c = Circuit()
        wires = c.inputs("a", 3)
        assert wires == [0, 1, 2]
        assert c.input_wires["a"] == (0, 1, 2)
        assert [c.node(w).bit for w in wires] == [0, 1, 2]

    def test_zero_width_input_rejected(self):
        with pytest.raises(ValueError):
            Circuit().inputs("a", 0)

    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.inputs("a", 1)
        with pytest.raises(ValueError):
            c.inputs("a", 2)

    def test_unknown_gate_rejected(self):
        c = Circuit()
        a = c.inputs("a", 2)
        with pytest.raises(ValueError):
            c.gate("mystery", a[0], a[1])

    def test_unknown_wire_rejected(self):
        c = Circuit()
        a = c.inputs("a", 1)
        with pytest.raises(ValueError):
            c.gate("and", a[0], 99)

    def test_duplicate_output_rejected(self):
        c = Circuit()
        a = c.inputs("a", 1)
        c.output("out", a)
        with pytest.raises(ValueError):
            c.output("out", a)

    def test_empty_output_rejected(self):
        c = Circuit()
        c.inputs("a", 1)
        with pytest.raises(ValueError):
            c.output("out", [])

    def test_mux_lowers_to_three_gates(self):
        c = Circuit()
        s = c.inputs("s", 1)[0]
        t = c.inputs("t", 1)[0]
        f = c.inputs("f", 1)[0]
        out = c.mux(s, t, f)
        ops = [c.node(n).op for n in range(3, len(c))]
        assert ops == ["and", "andny", "or"]
        assert c.node(out).op == "or"

    def test_gate_and_linear_counts(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        c.output("out", [c.gate("xor", c.not_(a), b)])
        assert c.gate_count == 1
        assert linear_count(c) == 1

    def test_validate_accepts_builder_output(self):
        adder_netlist(3).validate()


class TestLevels:
    def test_only_bootstrapped_nodes_advance_a_level(self):
        c = Circuit()
        a = c.inputs("a", 1)[0]
        b = c.inputs("b", 1)[0]
        inverted = c.not_(b)
        g = c.gate("and", a, inverted)
        copied = c.copy(c.not_(g))
        h = c.lut(0b10, [copied])
        c.output("out", [h, copied])
        assert c.levels() == {a: 0, b: 0, inverted: 0, g: 1, g + 1: 1, copied: 1, h: 2}

    def test_dead_nodes_get_no_level(self):
        c = Circuit()
        a = c.inputs("a", 2)
        kept = c.gate("xor", a[0], a[1])
        dropped = c.gate("and", kept, a[0])
        c.output("kept", [kept])
        c.output("dropped", [dropped])
        assert dropped not in c.levels(["kept"])
        assert set(c.levels(["kept"])) == c.live_nodes(["kept"])
        assert c.levels()[dropped] == 2

    def test_a_level_depends_only_on_earlier_levels(self):
        c = multiplier_netlist(4)
        levels = c.levels()
        for nid, level in levels.items():
            node = c.node(nid)
            deepest = max((levels[arg] for arg in node.args), default=0)
            assert level == deepest + node.is_bootstrapped


class TestLiveCone:
    def test_truncated_subtractor_drops_dead_carry_gates(self):
        width = 4
        sub = subtractor_netlist(width)
        live_gates = sum(
            1 for n in sub.live_nodes() if sub.node(n).is_bootstrapped
        )
        # Two ripple adders of `width` stages = 2 * 5 * width gates, but the
        # discarded final carries make the last OR (and its private ANDs)
        # dead in both chains.
        assert live_gates < sub.gate_count

    def test_unknown_output_rejected(self):
        with pytest.raises(KeyError):
            adder_netlist(2).live_nodes(["nope"])

    def test_full_cone_of_adder_is_everything_reachable(self):
        c = adder_netlist(3)
        live = c.live_nodes()
        assert all(n.node_id in live for n in c.nodes if n.is_bootstrapped)


class TestConstructors:
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_adder_shape(self, width):
        c = adder_netlist(width)
        assert c.input_width("a") == width
        assert c.input_width("b") == width
        assert len(c.output_wires["sum"]) == width + 1
        assert c.gate_count == 5 * width

    @pytest.mark.parametrize(
        "factory,output,bits",
        [
            (equal_netlist, "eq", 1),
            (greater_than_netlist, "gt", 1),
            (negate_netlist, "neg", 3),
            (subtractor_netlist, "diff", 3),
            (maximum_netlist, "max", 3),
            (minimum_netlist, "min", 3),
            (multiplier_netlist, "prod", 3),
            (absolute_netlist, "abs", 3),
        ],
    )
    def test_word_constructors_shapes(self, factory, output, bits):
        c = factory(3)
        assert list(c.output_wires) == [output]
        assert len(c.output_wires[output]) == bits

    def test_select_has_one_bit_condition(self):
        c = select_netlist(4)
        assert c.input_width("cond") == 1
        assert len(c.output_wires["out"]) == 4
        assert c.gate_count == 3 * 4  # one lowered mux per bit

    @pytest.mark.parametrize(
        "factory",
        [
            adder_netlist,
            negate_netlist,
            subtractor_netlist,
            equal_netlist,
            greater_than_netlist,
            select_netlist,
            maximum_netlist,
            minimum_netlist,
            multiplier_netlist,
            absolute_netlist,
        ],
    )
    def test_zero_width_rejected(self, factory):
        with pytest.raises(ValueError):
            factory(0)

    def test_constructors_are_memoised(self):
        assert adder_netlist(4) is adder_netlist(4)
        assert multiplier_netlist(4) is multiplier_netlist(4)
        assert minimum_netlist(4) is minimum_netlist(4)
        assert absolute_netlist(4) is absolute_netlist(4)

    def test_only_known_bootstrapped_ops_are_emitted(self):
        for factory in (
            adder_netlist,
            greater_than_netlist,
            maximum_netlist,
            minimum_netlist,
            multiplier_netlist,
            absolute_netlist,
        ):
            c = factory(3)
            for node in c.nodes:
                if node.is_bootstrapped:
                    assert node.op in BOOTSTRAPPED_OPS


class TestWordLevelSemantics:
    """Plaintext truth of the new word-level constructors, exhaustively."""

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_multiplier_wraps_like_ints(self, width):
        from repro.compiler.sim import simulate

        modulus = 2**width
        c = multiplier_netlist(width)
        for a in range(modulus):
            for b in range(modulus):
                assert simulate(c, {"a": a, "b": b})["prod"] == (a * b) % modulus

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_minimum_matches_ints(self, width):
        from repro.compiler.sim import simulate

        modulus = 2**width
        c = minimum_netlist(width)
        for a in range(modulus):
            for b in range(modulus):
                assert simulate(c, {"a": a, "b": b})["min"] == min(a, b)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_absolute_is_twos_complement(self, width):
        from repro.compiler.sim import simulate

        modulus = 2**width
        c = absolute_netlist(width)
        for a in range(modulus):
            signed = a - modulus if a >= modulus // 2 else a
            assert simulate(c, {"a": a})["abs"] == abs(signed) % modulus

    @pytest.mark.parametrize("amount", [0, 1, 3, 4, 7])
    def test_constant_shifts(self, amount):
        from repro.compiler.sim import simulate

        width, modulus = 4, 16
        left = shifted(shift_left_into, width, amount)
        right = shifted(shift_right_into, width, amount)
        for a in range(modulus):
            assert simulate(left, {"a": a})["shifted"] == (a << amount) % modulus
            assert simulate(right, {"a": a})["shifted"] == a >> amount

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            shifted(shift_left_into, 4, -1)
        with pytest.raises(ValueError):
            shifted(shift_right_into, 4, -2)
