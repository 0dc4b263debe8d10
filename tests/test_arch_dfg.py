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
    def test_critical_path_of_chain_is_total_work(self, works):
        dfg = linear_chain(works)
        assert dfg.depth(cost=lambda node: node.work) == sum(works)

    def test_critical_path_of_diamond(self):
        dfg = DataFlowGraph()
        src = dfg.add_node(OpType.POLY_LINEAR, 1.0)
        left = dfg.add_node(OpType.IFFT, 10.0, predecessors=[src])
        right = dfg.add_node(OpType.IFFT, 3.0, predecessors=[src])
        dfg.add_node(OpType.FFT, 1.0, predecessors=[left, right])
        assert dfg.depth(cost=lambda node: node.work) == 12


class TestLevelize:
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
        buckets = dfg.levelize()
        assert buckets[1] == [a]
        assert buckets[2] == [b, c]
        assert buckets[3] == [d]
        assert dfg.depth() == 3

    def test_zero_cost_nodes_share_predecessor_level(self):
        dfg = DataFlowGraph()
        src = dfg.add_node(OpType.LINEAR_GATE, 0.0)
        gate = dfg.add_node(OpType.BOOTSTRAPPED_GATE, 1.0, predecessors=[src])
        inv = dfg.add_node(OpType.LINEAR_GATE, 0.0, predecessors=[gate])
        cost = lambda n: 1 if n.op is OpType.BOOTSTRAPPED_GATE else 0
        levels = dfg.node_levels(cost)
        assert levels[src] == 0
        assert levels[gate] == 1
        assert levels[inv] == 1  # NOT rides along with its producer's level
        assert dfg.depth(cost) == 1

    def test_level_buckets_partition_all_nodes(self):
        dfg, _ = self.diamond()
        buckets = dfg.levelize()
        flattened = [nid for bucket in buckets for nid in bucket]
        assert sorted(flattened) == [n.node_id for n in dfg.nodes()]

    def test_empty_graph(self):
        dfg = DataFlowGraph()
        assert dfg.levelize() == [[]]
        assert dfg.depth() == 0

    def test_within_level_nodes_are_independent(self):
        dfg, _ = self.diamond()
        for bucket in dfg.levelize():
            for nid in bucket:
                assert not (set(dfg.node(nid).predecessors) & set(bucket))
