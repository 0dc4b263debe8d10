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

    def node_levels(self) -> Dict[int, int]:
        """ASAP dependency level of every node: one more than the deepest of
        its predecessors (a source sits at level 1)."""
        levels: Dict[int, int] = {}
        for nid in self.topological_order():
            incoming = max((levels[p] for p in self._nodes[nid].predecessors), default=0)
            levels[nid] = incoming + 1
        return levels

    def depth(self) -> int:
        """Number of dependency levels (the longest path, in nodes)."""
        return max(self.node_levels().values(), default=0)

    def validate(self) -> None:
        """Structural sanity checks (acyclic, consistent edge lists)."""
        self.topological_order()
        for nid, node in self._nodes.items():
            for succ in node.successors:
                if nid not in self._nodes[succ].predecessors:
                    raise ValueError("inconsistent successor/predecessor lists")
