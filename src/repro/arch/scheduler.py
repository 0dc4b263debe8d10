"""Resource-constrained list scheduling of a DFG onto an architecture.

The scheduler fills the role OpenCGRA plays in the paper: given the gate DFG
and the architecture description it "computes the latency and the energy
consumption of each TFHE logic operation by scheduling and mapping the DFG
onto the AD" (Section 5).  This scheduler computes the latency; the paper's
power and energy figures come from :mod:`repro.arch.energy` and
:mod:`repro.platforms`.

Algorithm: classic critical-path list scheduling.  Node priorities are the
longest downstream path (in cycles); ready nodes are dispatched to the
earliest-available instance of the functional-unit class that supports their
operation.  The result records the makespan, per-unit busy time and
utilisation and per-operation-class cycle totals (used for the Figure 1
breakdown).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.architecture import ArchitectureDescription
from repro.arch.dfg import DataFlowGraph
from repro.arch.ops import OpType


@dataclass
class ScheduledNode:
    """Placement of one DFG node on one functional-unit instance."""

    node_id: int
    op: OpType
    unit_name: str
    instance: int
    start_cycle: float
    end_cycle: float


@dataclass
class ScheduleResult:
    """Outcome of scheduling one DFG onto one architecture description."""

    architecture: ArchitectureDescription
    makespan_cycles: float
    placements: List[ScheduledNode]
    busy_cycles_by_unit: Dict[str, float]
    cycles_by_op: Dict[OpType, float]

    @property
    def latency_seconds(self) -> float:
        return self.architecture.seconds(self.makespan_cycles)

    @property
    def utilisation_by_unit(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        unit_map = self.architecture.unit_map()
        for name, busy in self.busy_cycles_by_unit.items():
            capacity = self.makespan_cycles * unit_map[name].count
            result[name] = busy / capacity if capacity else 0.0
        return result


class ListScheduler:
    """Critical-path list scheduler for :class:`DataFlowGraph` instances."""

    def __init__(self, architecture: ArchitectureDescription) -> None:
        self.architecture = architecture

    def _node_cycles(self, op: OpType, work: float) -> float:
        return self.architecture.unit_for_op(op).cycles_for(work)

    def _priorities(self, dfg: DataFlowGraph) -> Dict[int, float]:
        """Longest path (in cycles) from each node to any sink."""
        order = dfg.topological_order()
        priority: Dict[int, float] = {}
        for nid in reversed(order):
            node = dfg.node(nid)
            own = self._node_cycles(node.op, node.work)
            downstream = max((priority[s] for s in node.successors), default=0.0)
            priority[nid] = own + downstream
        return priority

    def schedule(self, dfg: DataFlowGraph) -> ScheduleResult:
        """Map ``dfg`` onto the architecture and return the schedule."""
        for node in dfg.nodes():
            if not self.architecture.supports(node.op):
                raise KeyError(f"architecture has no unit for {node.op}")

        priority = self._priorities(dfg)
        unit_map = self.architecture.unit_map()

        # Earliest-free time of every unit instance.
        instance_free: Dict[str, List[float]] = {
            unit.name: [0.0] * unit.count for unit in self.architecture.units
        }
        # Earliest data-ready time of every node.
        ready_time: Dict[int, float] = {}
        remaining_preds: Dict[int, int] = {}
        ready_heap: List[Tuple[float, float, int]] = []

        for node in dfg.nodes():
            remaining_preds[node.node_id] = len(node.predecessors)
            if not node.predecessors:
                ready_time[node.node_id] = 0.0
                heapq.heappush(ready_heap, (0.0, -priority[node.node_id], node.node_id))

        placements: List[ScheduledNode] = []
        busy: Dict[str, float] = {unit.name: 0.0 for unit in self.architecture.units}
        cycles_by_op: Dict[OpType, float] = {}
        finish_time: Dict[int, float] = {}
        makespan = 0.0

        while ready_heap:
            data_ready, _, nid = heapq.heappop(ready_heap)
            node = dfg.node(nid)
            unit = self.architecture.unit_for_op(node.op)
            free_list = instance_free[unit.name]
            instance = min(range(len(free_list)), key=free_list.__getitem__)
            start = max(data_ready, free_list[instance])
            duration = unit.cycles_for(node.work)
            end = start + duration
            free_list[instance] = end
            finish_time[nid] = end
            makespan = max(makespan, end)
            busy[unit.name] += duration
            cycles_by_op[node.op] = cycles_by_op.get(node.op, 0.0) + duration
            placements.append(
                ScheduledNode(
                    node_id=nid,
                    op=node.op,
                    unit_name=unit.name,
                    instance=instance,
                    start_cycle=start,
                    end_cycle=end,
                )
            )
            for succ in node.successors:
                remaining_preds[succ] -= 1
                succ_ready = max(
                    ready_time.get(succ, 0.0), end
                )
                ready_time[succ] = succ_ready
                if remaining_preds[succ] == 0:
                    heapq.heappush(ready_heap, (succ_ready, -priority[succ], succ))

        if len(placements) != len(dfg):
            raise RuntimeError("scheduler failed to place every node")

        return ScheduleResult(
            architecture=self.architecture,
            makespan_cycles=makespan,
            placements=placements,
            busy_cycles_by_unit=busy,
            cycles_by_op=cycles_by_op,
        )
