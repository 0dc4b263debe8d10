"""Tests for the resource-constrained list scheduler."""

import pytest

from repro.arch.architecture import ArchitectureDescription, FunctionalUnitSpec
from repro.arch.dfg import DataFlowGraph
from repro.arch.gate_compiler import compile_gate_dfg
from repro.arch.ops import OpType
from repro.arch.scheduler import ListScheduler
from repro.tfhe.params import TEST_SMALL


def simple_architecture(fft_cores=2, throughput=10.0):
    units = (
        FunctionalUnitSpec("fft", fft_cores, frozenset({OpType.FFT, OpType.IFFT}), throughput),
        FunctionalUnitSpec(
            "alu",
            1,
            frozenset(
                {
                    OpType.POLY_LINEAR,
                    OpType.POINTWISE_MAC,
                    OpType.DECOMPOSE,
                    OpType.TGSW_SCALE,
                    OpType.TGSW_ADD,
                    OpType.ROTATE,
                    OpType.SAMPLE_EXTRACT,
                    OpType.KEYSWITCH,
                    OpType.HBM_TRANSFER,
                    OpType.SPM_TRANSFER,
                }
            ),
            throughput,
        ),
    )
    return ArchitectureDescription(name="simple", clock_hz=1.0e9, units=units)


class TestBasicScheduling:
    def test_independent_nodes_run_in_parallel(self):
        dfg = DataFlowGraph()
        dfg.add_node(OpType.FFT, 100.0)
        dfg.add_node(OpType.FFT, 100.0)
        result = ListScheduler(simple_architecture(fft_cores=2)).schedule(dfg)
        assert result.makespan_cycles == pytest.approx(10.0)

    def test_resource_contention_serialises(self):
        dfg = DataFlowGraph()
        dfg.add_node(OpType.FFT, 100.0)
        dfg.add_node(OpType.FFT, 100.0)
        result = ListScheduler(simple_architecture(fft_cores=1)).schedule(dfg)
        assert result.makespan_cycles == pytest.approx(20.0)

    def test_dependencies_are_respected(self):
        dfg = DataFlowGraph()
        a = dfg.add_node(OpType.FFT, 100.0)
        b = dfg.add_node(OpType.POLY_LINEAR, 100.0, predecessors=[a])
        result = ListScheduler(simple_architecture()).schedule(dfg)
        placed = {p.node_id: p for p in result.placements}
        assert placed[b].start_cycle >= placed[a].end_cycle

    def test_makespan_bounded_by_critical_path_and_work(self):
        dfg = DataFlowGraph()
        prev = None
        for _ in range(5):
            prev = dfg.add_node(OpType.FFT, 50.0, predecessors=[prev] if prev is not None else [])
        result = ListScheduler(simple_architecture(fft_cores=4)).schedule(dfg)
        assert result.makespan_cycles == pytest.approx(25.0)  # fully serial chain

    def test_unsupported_op_raises(self):
        units = (FunctionalUnitSpec("fft", 1, frozenset({OpType.FFT}), 1.0),)
        arch = ArchitectureDescription(name="x", clock_hz=1e9, units=units)
        dfg = DataFlowGraph()
        dfg.add_node(OpType.KEYSWITCH, 1.0)
        with pytest.raises(KeyError):
            ListScheduler(arch).schedule(dfg)

    def test_every_node_is_placed(self):
        dfg = compile_gate_dfg(TEST_SMALL, unroll_factor=2)
        result = ListScheduler(simple_architecture(fft_cores=4, throughput=100.0)).schedule(dfg)
        assert len(result.placements) == len(dfg)


class TestScheduleMetrics:
    def test_utilisation_between_zero_and_one(self):
        dfg = compile_gate_dfg(TEST_SMALL, unroll_factor=1)
        result = ListScheduler(simple_architecture(fft_cores=2, throughput=100.0)).schedule(dfg)
        for value in result.utilisation_by_unit.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_breakdown_fractions_sum_to_one(self):
        """The Figure 1 buckets and the transfers partition every op a gate runs."""
        from repro.arch.ops import BOOTSTRAP_OTHER_OPS, GATE_OPS, TRANSFORM_OPS

        dfg = compile_gate_dfg(TEST_SMALL, unroll_factor=1)
        result = ListScheduler(simple_architecture(fft_cores=2, throughput=100.0)).schedule(dfg)
        buckets = (
            TRANSFORM_OPS + BOOTSTRAP_OTHER_OPS + GATE_OPS
            + (OpType.HBM_TRANSFER, OpType.SPM_TRANSFER)
        )
        assert len(set(buckets)) == len(buckets)
        total = sum(result.cycles_by_op.values())
        bucketed = sum(result.cycles_by_op.get(op, 0.0) for op in buckets)
        assert bucketed == pytest.approx(total)
        assert total > 0

    def test_no_unit_instance_overlaps(self):
        dfg = compile_gate_dfg(TEST_SMALL, unroll_factor=2)
        result = ListScheduler(simple_architecture(fft_cores=2, throughput=100.0)).schedule(dfg)
        by_instance = {}
        for placement in result.placements:
            by_instance.setdefault((placement.unit_name, placement.instance), []).append(
                (placement.start_cycle, placement.end_cycle)
            )
        for intervals in by_instance.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9
