"""Tests for the data-flow-graph substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.dfg import DataFlowGraph
from repro.arch.ops import OpType


def linear_chain(lengths):
    dfg = DataFlowGraph()
    previous = None
    for work in lengths:
        preds = [previous] if previous is not None else []
        previous = dfg.add_node(OpType.POLY_LINEAR, work, predecessors=preds)
    return dfg


class TestConstruction:
    def test_node_ids_are_sequential(self):
        dfg = DataFlowGraph()
        ids = [dfg.add_node(OpType.IFFT, 1.0) for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_negative_work_rejected(self):
        dfg = DataFlowGraph()
        with pytest.raises(ValueError):
            dfg.add_node(OpType.FFT, -1.0)

    def test_edge_requires_existing_nodes(self):
        dfg = DataFlowGraph()
        a = dfg.add_node(OpType.FFT, 1.0)
        with pytest.raises(KeyError):
            dfg.add_edge(a, 99)

    def test_self_loop_rejected(self):
        dfg = DataFlowGraph()
        a = dfg.add_node(OpType.FFT, 1.0)
        with pytest.raises(ValueError):
            dfg.add_edge(a, a)

    def test_len_counts_nodes(self):
        assert len(linear_chain([1, 2, 3])) == 3


class TestTopology:
    def test_topological_order_respects_edges(self):
        dfg = linear_chain([1, 1, 1, 1])
        order = dfg.topological_order()
        assert order == sorted(order)

    def test_cycle_detection(self):
        dfg = DataFlowGraph()
        a = dfg.add_node(OpType.FFT, 1.0)
        b = dfg.add_node(OpType.IFFT, 1.0, predecessors=[a])
        dfg.add_edge(b, a)
        with pytest.raises(ValueError):
            dfg.topological_order()

    def test_validate_passes_for_acyclic_graph(self):
        linear_chain([1, 2]).validate()

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20))
    def test_depth_of_chain_is_its_length(self, works):
        assert linear_chain(works).depth() == len(works)

    def test_depth_of_diamond(self):
        dfg = DataFlowGraph()
        src = dfg.add_node(OpType.POLY_LINEAR, 1.0)
        left = dfg.add_node(OpType.IFFT, 10.0, predecessors=[src])
        right = dfg.add_node(OpType.IFFT, 3.0, predecessors=[src])
        dfg.add_node(OpType.FFT, 1.0, predecessors=[left, right])
        assert dfg.depth() == 3


class TestNodeLevels:
    def diamond(self):
        # a -> b, c -> d (b and c independent)
        dfg = DataFlowGraph()
        a = dfg.add_node(OpType.FFT, 1.0)
        b = dfg.add_node(OpType.FFT, 1.0, predecessors=[a])
        c = dfg.add_node(OpType.FFT, 1.0, predecessors=[a])
        d = dfg.add_node(OpType.FFT, 1.0, predecessors=[b, c])
        return dfg, (a, b, c, d)

    def test_diamond_levels(self):
        dfg, (a, b, c, d) = self.diamond()
        assert dfg.node_levels() == {a: 1, b: 2, c: 2, d: 3}
        assert dfg.depth() == 3

    def test_every_node_has_a_level(self):
        dfg, _ = self.diamond()
        assert sorted(dfg.node_levels()) == [n.node_id for n in dfg.nodes()]

    def test_empty_graph(self):
        dfg = DataFlowGraph()
        assert dfg.node_levels() == {}
        assert dfg.depth() == 0

    def test_a_node_sits_below_its_predecessors(self):
        dfg, _ = self.diamond()
        levels = dfg.node_levels()
        for nid, level in levels.items():
            assert all(levels[p] < level for p in dfg.node(nid).predecessors)
