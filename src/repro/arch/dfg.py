"""Data-flow graphs.

A DFG node is one operation with a *work* amount (elementary operations, e.g.
butterflies or multiply-accumulates); edges are data dependencies.  The gate
compiler produces a DFG per TFHE gate and the scheduler maps it onto an
architecture description.  The graph also supports the structural queries the
tests and the analysis need: topological order, critical path (in work units)
and per-operation work totals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.arch.ops import OpType


@dataclass
class DfgNode:
    """One operation of a data-flow graph."""

    node_id: int
    op: OpType
    #: Amount of elementary work (unit defined per op type, e.g. butterflies
    #: for transforms, MACs for pointwise products, coefficients for linear ops).
    work: float
    #: Free-form label used by breakdowns ("iteration", "stage", ...).
    tag: str = ""
    predecessors: List[int] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)


class DataFlowGraph:
    """A directed acyclic graph of :class:`DfgNode` operations."""

    def __init__(self) -> None:
        self._nodes: Dict[int, DfgNode] = {}
        self._next_id = 0

    # -- construction -------------------------------------------------------
    def add_node(
        self,
        op: OpType,
        work: float,
        tag: str = "",
        predecessors: Optional[Sequence[int]] = None,
    ) -> int:
        """Add a node and its incoming dependency edges; returns the node id."""
        if work < 0:
            raise ValueError("work must be non-negative")
        node_id = self._next_id
        self._next_id += 1
        node = DfgNode(node_id=node_id, op=op, work=float(work), tag=tag)
        self._nodes[node_id] = node
        for pred in predecessors or ():
            self.add_edge(pred, node_id)
        return node_id

    def add_edge(self, src: int, dst: int) -> None:
        """Add a dependency edge ``src -> dst``."""
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError("both endpoints must exist before adding an edge")
        if src == dst:
            raise ValueError("self-loops are not allowed")
        self._nodes[src].successors.append(dst)
        self._nodes[dst].predecessors.append(src)

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> DfgNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterable[DfgNode]:
        return self._nodes.values()

    def topological_order(self) -> List[int]:
        """Kahn topological sort; raises if the graph has a cycle."""
        in_degree = {nid: len(n.predecessors) for nid, n in self._nodes.items()}
        ready = deque(sorted(nid for nid, deg in in_degree.items() if deg == 0))
        order: List[int] = []
        while ready:
            nid = ready.popleft()
            order.append(nid)
            for succ in self._nodes[nid].successors:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise ValueError("data-flow graph contains a cycle")
        return order

    def node_levels(self, cost=None) -> Dict[int, int]:
        """ASAP dependency level of every node.

        ``cost(node)`` is the integer depth a node adds along any path through
        it (default 1 for every node); a node's level is the maximum level
        among its predecessors plus its own cost.  Zero-cost nodes (e.g.
        sources or linear circuit ops) share the level of their deepest
        predecessor, which is exactly what the level-parallel circuit
        executor needs: only bootstrapped gates advance the schedule.
        """
        if cost is None:
            cost = lambda node: 1  # noqa: E731 - tiny default weight
        levels: Dict[int, int] = {}
        for nid in self.topological_order():
            node = self._nodes[nid]
            incoming = max((levels[p] for p in node.predecessors), default=0)
            levels[nid] = incoming + int(cost(node))
        return levels

    def levelize(self, cost=None) -> List[List[int]]:
        """Bucket node ids by ASAP level (``result[k]`` holds level-``k`` nodes).

        Nodes within a bucket are mutually independent *given* the preceding
        buckets, so every bucket can be issued as one parallel wave — the
        dependency-solving step of the paper's compile flow, applied to whole
        circuits.  Buckets are ordered by node id for determinism.
        """
        levels = self.node_levels(cost)
        depth = max(levels.values(), default=0)
        buckets: List[List[int]] = [[] for _ in range(depth + 1)]
        for nid in sorted(levels):
            buckets[levels[nid]].append(nid)
        return buckets

    def depth(self, cost=None) -> int:
        """Number of dependency levels (the critical path in ``cost`` units)."""
        return max(self.node_levels(cost).values(), default=0)

    def validate(self) -> None:
        """Structural sanity checks (acyclic, consistent edge lists)."""
        self.topological_order()
        for nid, node in self._nodes.items():
            for succ in node.successors:
                if nid not in self._nodes[succ].predecessors:
                    raise ValueError("inconsistent successor/predecessor lists")
