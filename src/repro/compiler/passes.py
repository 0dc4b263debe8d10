"""Circuit → Circuit optimization passes and the pipeline that runs them.

Every saved gate is a saved bootstrapping — the dominant cost of TFHE-style
gate evaluation (the paper's Figure-1 breakdown) — so the compiler's job
after tracing is to *shrink* the netlist before the executor ever sees it.
Each pass is a structural rewrite over :class:`repro.tfhe.netlist.Circuit`
that preserves the input/output interface (all declared input words survive,
output names and widths are unchanged) and the plaintext semantics
(:func:`repro.compiler.sim.verify_equivalent` is the oracle):

``fold``    — constant folding: gates with constant inputs collapse to
              constants, copies or NOTs (a mux whose select is constant
              reduces to the picked branch through the same rules).
``absorb``  — NOT/COPY absorption: linear nodes are chased to their roots
              and complemented inputs are folded into the consuming gate's
              affine form (``xor(not a, b)`` → ``xnor(a, b)``) — legal
              because the ten-gate vocabulary is closed under input
              complementation.
``cse``     — common-subexpression elimination: structurally identical
              nodes (up to commutativity, including the ``andny``/``andyn``
              and ``orny``/``oryn`` mirror pairs) are deduplicated.
``balance`` — ASAP depth rebalancing: single-use chains of one associative
              gate (``and``/``or``/``xor``) are regrouped into balanced
              trees, combining earliest-ready operands first, which shortens
              the level count :class:`repro.tfhe.executor.CircuitExecutor`
              must serialize.
``lutify``  — technology mapping (:data:`LUT_PIPELINE` only): one cut-based
              cover of the netlist by k-input ``lut`` nodes, depth-optimal
              first, then fewest bootstrappings, then least noise.
``dce``     — dead-node elimination: everything outside the live cone of
              the outputs is dropped (the rewrite-level generalisation of
              :meth:`repro.tfhe.netlist.Circuit.live_nodes`).

:class:`PassManager` runs a pipeline of passes (optionally to a fixpoint),
records a :class:`PassStats` per application (gates and depth before/after)
and can co-simulate every rewrite against its input circuit.
:func:`optimize` is the one-call convenience wrapper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.sim import verify_equivalent
from repro.tfhe.gates import PLAINTEXT_GATES
from repro.tfhe.lut import MAX_LUT_ARITY, boolean_lut_spec
from repro.tfhe.netlist import Circuit, Node
from repro.utils.rng import SeedLike, make_rng


class OptimizationError(RuntimeError):
    """Raised when a pass produces a circuit that fails verification."""


# --------------------------------------------------------------------------- #
# gate algebra tables (derived from the truth tables, never hand-written)     #
# --------------------------------------------------------------------------- #


def _truth(op: str) -> Tuple[int, int, int, int]:
    f = PLAINTEXT_GATES[op]
    return (f(0, 0), f(0, 1), f(1, 0), f(1, 1))


def _op_for_truth(table: Tuple[int, int, int, int]) -> Optional[str]:
    for name in PLAINTEXT_GATES:
        if _truth(name) == table:
            return name
    return None


def _complement_table(position: int) -> Dict[str, str]:
    """``op`` → the op computing the same function with input ``position`` inverted."""
    out: Dict[str, str] = {}
    for name, f in PLAINTEXT_GATES.items():
        if position == 0:
            flipped = (f(1, 0), f(1, 1), f(0, 0), f(0, 1))
        else:
            flipped = (f(0, 1), f(0, 0), f(1, 1), f(1, 0))
        target = _op_for_truth(flipped)
        assert target is not None, f"gate set not closed under complement: {name}"
        out[name] = target
    return out


#: ``op`` → op with the first / second input complemented.  The ten-gate
#: vocabulary is closed under input complementation, which is what makes
#: NOT absorption a pure renaming.
COMPLEMENT_FIRST: Dict[str, str] = _complement_table(0)
COMPLEMENT_SECOND: Dict[str, str] = _complement_table(1)

#: Commutative gates (args may be sorted for structural comparison).
COMMUTATIVE_OPS = frozenset(
    name for name in PLAINTEXT_GATES if _truth(name)[1] == _truth(name)[2]
)

#: Mirror pairs: ``op(a, b) == MIRROR[op](b, a)`` for the non-commutative gates.
MIRROR: Dict[str, str] = {
    name: _op_for_truth((_truth(name)[0], _truth(name)[2], _truth(name)[1], _truth(name)[3]))
    for name in PLAINTEXT_GATES
    if name not in COMMUTATIVE_OPS
}

#: Associative + commutative gates eligible for tree rebalancing.
BALANCEABLE_OPS = frozenset(("and", "or", "xor"))


def _restrict_lut(
    table: int, wires: Sequence[int], known: Dict[int, int]
) -> Tuple[int, List[int]]:
    """Restrict a lut table on constant wires, merge repeated ones, prune dead ones.

    ``known`` maps a wire to its constant bit; a wire listed twice is one
    variable (the table is read along that diagonal).  Returns
    ``(reduced_table, kept_wires)``: the distinct wires the restricted
    function still depends on, in first-use order.  The reduced table is
    always accepted by :meth:`repro.tfhe.netlist.Circuit.lut` again: fixing
    an input folds its weight into the offset, a pruned input had weight
    zero, and two merged inputs add their weights modulo 8 (checked over
    every realisable table of arity 2-4 and every pair of pins).
    """
    free = [w for w in dict.fromkeys(wires) if w not in known]
    outputs: List[int] = []
    for m in range(1 << len(free)):
        value = {**known, **{w: (m >> j) & 1 for j, w in enumerate(free)}}
        index = sum(value[w] << i for i, w in enumerate(wires))
        outputs.append((table >> index) & 1)
    kept = [
        j
        for j in range(len(free))
        if any(outputs[m] != outputs[m ^ (1 << j)] for m in range(len(outputs)))
    ]
    reduced = 0
    for m in range(1 << len(kept)):
        index = sum(((m >> slot) & 1) << j for slot, j in enumerate(kept))
        reduced |= outputs[index] << m
    return reduced, [free[j] for j in kept]


# --------------------------------------------------------------------------- #
# shared rewrite machinery                                                    #
# --------------------------------------------------------------------------- #


def circuit_depth(circuit: Circuit, outputs: Optional[Sequence[str]] = None) -> int:
    """Bootstrapped critical-path length of the live cone (executor levels)."""
    return max(circuit.levels(outputs).values(), default=0)


def live_gate_count(circuit: Circuit, outputs: Optional[Sequence[str]] = None) -> int:
    """Bootstrapped gates inside the live cone (what the executor will pay for)."""
    live = circuit.live_nodes(outputs)
    return sum(1 for nid in live if circuit.node(nid).is_bootstrapped)


class _Rebuild:
    """Rebuilds a circuit while preserving its input/output interface.

    All input words are redeclared up front (even if dead after the rewrite —
    the interface is part of the circuit's contract), then the pass emits
    replacement nodes in SSA order while maintaining ``wire_map`` from old to
    new wires.  ``finish`` re-declares every output through the map.
    """

    def __init__(self, old: Circuit) -> None:
        self.old = old
        self.new = Circuit(old.name)
        self.wire_map: Dict[int, int] = {}
        self._consts: Dict[int, int] = {}
        for name, wires in old.input_wires.items():
            for old_wire, new_wire in zip(wires, self.new.inputs(name, len(wires))):
                self.wire_map[old_wire] = new_wire

    def const(self, bit: int) -> int:
        """A constant wire in the new circuit, deduplicated."""
        bit = int(bool(bit))
        if bit not in self._consts:
            self._consts[bit] = self.new.constant(bit)
        return self._consts[bit]

    def emit_like(self, node: Node, args: Sequence[int]) -> int:
        """Emit a copy of ``node`` over already-mapped ``args``."""
        if node.op == "const":
            return self.const(node.value)
        if node.op == "not":
            return self.new.not_(args[0])
        if node.op == "copy":
            return self.new.copy(args[0])
        if node.op == "lut":
            return self.new.lut(node.value, args)
        return self.new.gate(node.op, args[0], args[1])

    def finish(self) -> Circuit:
        for name, wires in self.old.output_wires.items():
            self.new.output(name, [self.wire_map[w] for w in wires])
        self.new.validate()
        return self.new


# --------------------------------------------------------------------------- #
# the passes                                                                  #
# --------------------------------------------------------------------------- #


def fold_constants(circuit: Circuit) -> Circuit:
    """Collapse everything reachable from constant wires.

    One SSA walk with forward value tracking, so constants cascade through
    arbitrarily deep cones in a single application: a gate with two known
    inputs becomes a constant, a gate with one known input restricts to a
    constant, an alias of the live input, or a NOT of it (the four possible
    single-variable truth tables).  A gate whose two inputs map to the *same*
    wire restricts along the diagonal the same way (``xnor(x, x)`` → 1,
    ``and(x, x)`` → ``x``, ``nand(x, x)`` → ``not x``), and so does a ``lut``
    that lists one wire twice.  A three-gate mux whose select folded to a
    constant reduces to the selected branch through exactly these rules.
    """
    rebuild = _Rebuild(circuit)
    known: Dict[int, int] = {}
    for node in circuit.nodes:
        if node.op == "input":
            continue
        if node.op == "const":
            known[node.node_id] = node.value
            rebuild.wire_map[node.node_id] = rebuild.const(node.value)
        elif node.op == "not":
            arg = node.args[0]
            if arg in known:
                known[node.node_id] = 1 - known[arg]
                rebuild.wire_map[node.node_id] = rebuild.const(1 - known[arg])
            else:
                rebuild.wire_map[node.node_id] = rebuild.new.not_(
                    rebuild.wire_map[arg]
                )
        elif node.op == "copy":
            arg = node.args[0]
            if arg in known:
                known[node.node_id] = known[arg]
            rebuild.wire_map[node.node_id] = (
                rebuild.const(known[arg])
                if arg in known
                else rebuild.new.copy(rebuild.wire_map[arg])
            )
        elif node.op == "lut":
            table, kept = _restrict_lut(
                node.value,
                [rebuild.wire_map[a] for a in node.args],
                {rebuild.wire_map[a]: known[a] for a in node.args if a in known},
            )
            if not kept:
                value = table & 1
                known[node.node_id] = value
                rebuild.wire_map[node.node_id] = rebuild.const(value)
            elif len(kept) == 1:
                if table == 0b10:  # identity in the surviving input
                    rebuild.wire_map[node.node_id] = kept[0]
                else:  # 0b01: negation (constant tables have no kept inputs)
                    rebuild.wire_map[node.node_id] = rebuild.new.not_(kept[0])
            else:
                rebuild.wire_map[node.node_id] = rebuild.new.lut(table, kept)
        else:
            a, b = node.args
            if a in known and b in known:
                value = PLAINTEXT_GATES[node.op](known[a], known[b])
                known[node.node_id] = value
                rebuild.wire_map[node.node_id] = rebuild.const(value)
            elif a in known or b in known or rebuild.wire_map[a] == rebuild.wire_map[b]:
                f = PLAINTEXT_GATES[node.op]
                if a in known:
                    free = b
                    table = (f(known[a], 0), f(known[a], 1))
                elif b in known:
                    free = a
                    table = (f(0, known[b]), f(1, known[b]))
                else:  # same wire on both inputs: restrict to the diagonal
                    free = a
                    table = (f(0, 0), f(1, 1))
                free_wire = rebuild.wire_map[free]
                if table == (0, 0) or table == (1, 1):
                    known[node.node_id] = table[0]
                    rebuild.wire_map[node.node_id] = rebuild.const(table[0])
                elif table == (0, 1):  # identity in the free input
                    rebuild.wire_map[node.node_id] = free_wire
                else:  # (1, 0): negation of the free input
                    rebuild.wire_map[node.node_id] = rebuild.new.not_(free_wire)
            else:
                rebuild.wire_map[node.node_id] = rebuild.new.gate(
                    node.op, rebuild.wire_map[a], rebuild.wire_map[b]
                )
    return rebuild.finish()


def absorb_linear(circuit: Circuit) -> Circuit:
    """Fold NOT/COPY chains into the gates that consume them.

    Every wire is resolved to ``(root, negated)`` by chasing linear nodes;
    gate inputs then use the root directly, renaming the gate through
    :data:`COMPLEMENT_FIRST` / :data:`COMPLEMENT_SECOND` when the chain had
    odd negation parity.  Linear nodes are never re-emitted — only outputs
    that resolve with a pending negation keep a single trailing NOT.
    """
    resolved: Dict[int, Tuple[int, bool]] = {}
    for node in circuit.nodes:
        if node.op == "copy":
            resolved[node.node_id] = resolved[node.args[0]]
        elif node.op == "not":
            root, neg = resolved[node.args[0]]
            resolved[node.node_id] = (root, not neg)
        else:
            resolved[node.node_id] = (node.node_id, False)

    rebuild = _Rebuild(circuit)
    trailing_not: Dict[int, int] = {}

    def mapped(wire: int) -> int:
        """New wire for an old wire, materialising one NOT per negated root."""
        root, neg = resolved[wire]
        base = rebuild.wire_map[root]
        if not neg:
            return base
        if root not in trailing_not:
            trailing_not[root] = rebuild.new.not_(base)
        return trailing_not[root]

    for node in circuit.nodes:
        if node.op in ("input", "not", "copy"):
            continue  # inputs pre-mapped; linear nodes absorbed
        if node.op == "const":
            rebuild.wire_map[node.node_id] = rebuild.const(node.value)
            continue
        if node.op == "lut":
            roots = [resolved[a] for a in node.args]
            neg_mask = sum(1 << i for i, (_, neg) in enumerate(roots) if neg)
            table = node.value
            if neg_mask:
                # Complementing input i negates its affine weight, so the
                # permuted table stays realisable at the same cost.
                table = sum(
                    ((node.value >> (m ^ neg_mask)) & 1) << m
                    for m in range(1 << len(node.args))
                )
            rebuild.wire_map[node.node_id] = rebuild.new.lut(
                table, [rebuild.wire_map[root] for root, _ in roots]
            )
            continue
        (ra, na), (rb, nb) = resolved[node.args[0]], resolved[node.args[1]]
        op = node.op
        if na:
            op = COMPLEMENT_FIRST[op]
        if nb:
            op = COMPLEMENT_SECOND[op]
        rebuild.wire_map[node.node_id] = rebuild.new.gate(
            op, rebuild.wire_map[ra], rebuild.wire_map[rb]
        )

    # Outputs may reference absorbed linear nodes; route them through mapped().
    for name, wires in circuit.output_wires.items():
        rebuild.new.output(name, [mapped(w) for w in wires])
    rebuild.new.validate()
    return rebuild.new


def eliminate_common_subexpressions(circuit: Circuit) -> Circuit:
    """Structural deduplication of identical nodes (gate-level CSE).

    The structural key sorts the arguments of commutative gates and rewrites
    the ``andny``/``andyn`` and ``orny``/``oryn`` mirror pairs onto a single
    canonical spelling, so ``andny(a, b)`` and ``andyn(b, a)`` — the same
    Boolean function — share one bootstrapping.
    """
    rebuild = _Rebuild(circuit)
    seen: Dict[Tuple, int] = {}
    for node in circuit.nodes:
        if node.op == "input":
            continue
        args = tuple(rebuild.wire_map[a] for a in node.args)
        if node.op == "const":
            key: Tuple = ("const", node.value)
        elif node.op == "lut":
            key = ("lut", node.value, args)
        elif node.op in ("not", "copy"):
            key = (node.op, args[0])
        elif node.op in COMMUTATIVE_OPS:
            key = (node.op,) + tuple(sorted(args))
        else:
            mirror = MIRROR[node.op]
            # Pick the lexicographically smaller (op, args) spelling.
            key = min((node.op, args), (mirror, (args[1], args[0])))
        if key in seen:
            rebuild.wire_map[node.node_id] = seen[key]
        else:
            seen[key] = rebuild.wire_map[node.node_id] = rebuild.emit_like(
                node, args
            )
    return rebuild.finish()


def eliminate_dead_nodes(circuit: Circuit) -> Circuit:
    """Drop every node outside the live cone of the declared outputs.

    Input words always survive (the interface is part of the contract — the
    executors already skip dead input wires), everything else is renumbered
    compactly.  This generalises
    :meth:`repro.tfhe.netlist.Circuit.live_nodes` from a query to a rewrite,
    so downstream consumers (serialization, the scheduler) never see dead
    gates at all.
    """
    live = circuit.live_nodes()
    rebuild = _Rebuild(circuit)
    for node in circuit.nodes:
        if node.op == "input" or node.node_id not in live:
            continue
        args = [rebuild.wire_map[a] for a in node.args]
        rebuild.wire_map[node.node_id] = rebuild.emit_like(node, args)
    return rebuild.finish()


def rebalance_depth(circuit: Circuit) -> Circuit:
    """Regroup associative gate chains into depth-minimal balanced trees.

    A chain like ``and(and(and(a, b), c), d)`` (the equality comparator's
    accumulator, depth 3) computes a symmetric function, so it may be
    regrouped as ``and(and(a, b), and(c, d))`` (depth 2).  Only single-use
    interior nodes are collapsed — a chain node consumed elsewhere stays a
    leaf — and operands are combined cheapest-level-first (a two-element
    min-heap on the operands' ASAP levels), which is optimal for the
    ``max(level_a, level_b) + 1`` level recurrence and also exploits leaves
    that become ready at different times.
    """
    fanout: Dict[int, int] = {}
    for node in circuit.nodes:
        for arg in node.args:
            fanout[arg] = fanout.get(arg, 0) + 1
    for wires in circuit.output_wires.values():
        for wire in wires:
            fanout[wire] = fanout.get(wire, 0) + 1

    def is_interior(nid: int, op: str) -> bool:
        node = circuit.node(nid)
        return node.op == op and fanout.get(nid, 0) == 1

    # Roots of maximal chains: same-op gates that are not themselves interior.
    user_op: Dict[int, str] = {}
    for node in circuit.nodes:
        for arg in node.args:
            user_op[arg] = node.op  # fanout-1 nodes have exactly one user

    def leaves(nid: int, op: str) -> List[int]:
        out: List[int] = []
        for arg in circuit.node(nid).args:
            if is_interior(arg, op):
                out.extend(leaves(arg, op))
            else:
                out.append(arg)
        return out

    rebuild = _Rebuild(circuit)
    level: Dict[int, int] = {w: 0 for w in rebuild.wire_map.values()}

    def emit_gate(op: str, a: int, b: int) -> int:
        wire = rebuild.new.gate(op, a, b)
        level[wire] = max(level.get(a, 0), level.get(b, 0)) + 1
        return wire

    for node in circuit.nodes:
        if node.op == "input":
            continue
        nid = node.node_id
        if node.op in BALANCEABLE_OPS and is_interior(nid, user_op.get(nid, "")):
            continue  # collapsed into its chain root
        if node.op in BALANCEABLE_OPS:
            chain = leaves(nid, node.op)
            if len(chain) > 2:
                heap = [(level.get(rebuild.wire_map[w], 0), rebuild.wire_map[w]) for w in chain]
                heapq.heapify(heap)
                while len(heap) > 1:
                    la, a = heapq.heappop(heap)
                    lb, b = heapq.heappop(heap)
                    wire = emit_gate(node.op, a, b)
                    heapq.heappush(heap, (level[wire], wire))
                rebuild.wire_map[nid] = heap[0][1]
                continue
        args = [rebuild.wire_map[a] for a in node.args]
        wire = rebuild.emit_like(node, args)
        level[wire] = max((level.get(a, 0) for a in args), default=0) + (
            1 if node.is_bootstrapped else 0
        )
        rebuild.wire_map[nid] = wire
    return rebuild.finish()


# --------------------------------------------------------------------------- #
#: Cuts a node keeps for its fan-outs to merge, besides its own wire and its
#: fan-in cut (priority cuts: shallowest first, then fewest leaves).
CUTS_PER_NODE = 8

#: ``op`` → its table in ``lut`` bit order; the 2-input gates both ways round.
_LOCAL_TABLE: Dict[str, int] = {
    op: sum(f(m & 1, m >> 1) << m for m in range(4)) for op, f in PLAINTEXT_GATES.items()
}
_GATE_FOR_TABLE: Dict[int, str] = {table: op for op, table in _LOCAL_TABLE.items()}
_LOCAL_TABLE.update({"not": 0b01, "copy": 0b10})


@lru_cache(maxsize=None)
def _cone_table(local: int, pins: Tuple, arity: int) -> Tuple[int, Tuple[int, ...]]:
    """Table of a node over ``arity`` cone leaves, reduced to its support.

    The node computes ``local`` over its fan-ins; fan-in ``i`` computes
    ``pins[i] = (table, positions)``, its own table over the cone leaves at
    ``positions``.  Returns ``(table, kept_positions)``.
    """
    out = 0
    for m in range(1 << arity):
        index = 0
        for i, (table, positions) in enumerate(pins):
            sub = sum(((m >> p) & 1) << j for j, p in enumerate(positions))
            index |= ((table >> sub) & 1) << i
        out |= ((local >> index) & 1) << m
    table, kept = _restrict_lut(out, range(arity), {})
    return table, tuple(kept)


def lutify(circuit: Circuit) -> Circuit:
    """Cover the netlist with ``lut`` nodes: cut-based technology mapping.

    The objective, in this order: never deeper than the depth-optimal
    cover; among those, fewest bootstrappings; among those, least noise
    (smallest ``weight_cost``, then fewest leaves).

    *Cuts.*  In SSA order every node gets the cuts of at most
    :data:`repro.tfhe.lut.MAX_LUT_ARITY` leaves that merging one cut per
    fan-in produces, each with the cone's truth table reduced to the leaves
    it depends on.  Constants are cuts with no leaf, so they are evaluated
    inside the cone; a node that has a cut of one leaf or none *is* that
    wire, its NOT or a constant (every NOT/COPY, ``and(x, 1)``,
    ``xor(x, x)``): it costs no bootstrapping, never becomes a leaf, and
    its fan-outs look through it.  At most :data:`CUTS_PER_NODE` cuts are
    kept besides the fan-in cut.  A cut can be chosen when
    :func:`repro.tfhe.lut.boolean_lut_spec` realises its table; the fan-in
    cut of a gate or ``lut`` always is one, so no node ever costs more than
    the bootstrapping it costs now.

    *Cover.*  One sweep picks the shallowest cut per node (depth-optimal
    arrival times) and fixes the depth; required times walk back from the
    outputs; then, never exceeding them, a sweep by area flow and a sweep
    by exact local area (reference counting: the bootstrappings a cut
    would add to the cover as it stands) choose the cuts that are emitted.
    A per-root greedy cannot do this: whether absorbing a cone saves
    anything depends on whether another root's leaves keep it alive.

    A chosen 2-leaf cut is emitted as the gate with that table, a wider one
    as a ``lut``; nodes outside the cover are not emitted.  Deterministic.
    """
    count = len(circuit.nodes)
    cuts: List[List[Tuple[Tuple[int, ...], int]]] = [[] for _ in range(count)]
    options: List[List[Tuple[Tuple[int, ...], int, int]]] = [[] for _ in range(count)]
    arrival = [0] * count
    gates: List[int] = []

    def depth_of(leaves: Sequence[int]) -> int:
        return 1 + max((arrival[leaf] for leaf in leaves), default=-1)

    for node in circuit.nodes:
        nid = node.node_id
        if node.op in ("input", "const"):
            cuts[nid] = [((nid,), 0b10) if node.op == "input" else ((), node.value)]
            continue
        merged: Dict[Tuple[int, ...], Tuple] = {(): ()}
        for arg in node.args:
            step: Dict[Tuple[int, ...], Tuple] = {}
            for leaves, picked in merged.items():
                for cut in cuts[arg]:
                    union = tuple(sorted({*leaves, *cut[0]}))
                    if len(union) <= MAX_LUT_ARITY and union not in step:
                        step[union] = picked + (cut,)
            merged = step
        local = node.value if node.op == "lut" else _LOCAL_TABLE[node.op]
        found: Dict[Tuple[int, ...], int] = {}
        for union, picked in merged.items():
            pins = tuple(
                (table, tuple(union.index(leaf) for leaf in leaves))
                for leaves, table in picked
            )
            table, kept = _cone_table(local, pins, len(union))
            found.setdefault(tuple(union[p] for p in kept), table)
        alias = next((cut for cut in found.items() if len(cut[0]) < 2), None)
        wider = [cut for cut in found.items() if len(cut[0]) > 1]
        if alias is not None:  # a constant, a wire or its NOT
            head = [alias]
            arrival[nid] = depth_of(alias[0]) - 1
        else:  # its own wire for the fan-outs, its fan-in cut (found first) for itself
            head = [((nid,), 0b10), wider.pop(0)]
        wider.sort(key=lambda cut: (depth_of(cut[0]), len(cut[0])))
        cuts[nid] = head + wider[:CUTS_PER_NODE]
        if alias is None:
            gates.append(nid)
            for leaves, table in cuts[nid][1:]:
                spec = boolean_lut_spec(table, len(leaves))
                if spec is not None:
                    options[nid].append((leaves, table, spec.weight_cost))

    refs = [0] * count
    for node in circuit.nodes:
        for arg in node.args:
            refs[arg] += 1
    required = [float("inf")] * count
    flow = [0.0] * count
    choice: List[Optional[Tuple[Tuple[int, ...], int, int]]] = [None] * count
    outputs = [w for wires in circuit.output_wires.values() for w in wires]
    roots = [cuts[w][0][0][0] for w in outputs if cuts[w][0][0]]

    def walk(nid: int, delta: int) -> int:
        """(De)reference ``nid``'s chosen cone; returns the bootstrappings moved."""
        area, stack = 0, [nid]
        while stack:
            area += 1
            for leaf in choice[stack.pop()][0]:
                refs[leaf] += delta
                # A gate that just entered (left) the cover takes its cone along.
                if refs[leaf] == max(delta, 0) and choice[leaf] is not None:
                    stack.append(leaf)
        return area

    def flow_of(option) -> float:
        return 1 + sum(flow[leaf] for leaf in option[0])

    def exact_area(nid: int, option) -> int:
        choice[nid] = option
        area = walk(nid, +1)
        walk(nid, -1)
        return area

    def sweep(rank: Callable, exact: bool = False) -> None:
        """Choose every gate's best admissible cut by ``rank``, in SSA order."""
        for nid in gates:
            if exact and refs[nid]:
                walk(nid, -1)
            choice[nid] = best = min(
                (o for o in options[nid] if depth_of(o[0]) <= required[nid]),
                key=lambda o: (*rank(nid, o), o[2], len(o[0])),
            )
            if exact and refs[nid]:
                walk(nid, +1)
            arrival[nid] = depth_of(best[0])
            flow[nid] = flow_of(best) / max(1, refs[nid])

    def cover(depth: int) -> None:
        """Reference counts and required times of the cover the choices imply."""
        for nid in range(count):
            refs[nid], required[nid] = 0, float("inf")
        for root in roots:
            refs[root] += 1
            required[root] = depth
        for nid in reversed(gates):
            if refs[nid]:
                for leaf in choice[nid][0]:
                    refs[leaf] += 1
                    required[leaf] = min(required[leaf], required[nid] - 1)

    sweep(lambda nid, o: (depth_of(o[0]), flow_of(o)))
    depth = max((arrival[root] for root in roots), default=0)
    cover(depth)
    sweep(lambda nid, o: (flow_of(o),))
    cover(depth)
    sweep(lambda nid, o: (exact_area(nid, o),), exact=True)

    rebuild = _Rebuild(circuit)
    for nid in gates:
        if refs[nid]:
            leaves, table, _ = choice[nid]
            args = [rebuild.wire_map[leaf] for leaf in leaves]
            rebuild.wire_map[nid] = (
                rebuild.new.gate(_GATE_FOR_TABLE[table], *args)
                if len(args) == 2
                else rebuild.new.lut(table, args)
            )
    inverted: Dict[int, int] = {}
    for wire in outputs:
        leaves, table = cuts[wire][0]
        if not leaves:
            rebuild.wire_map[wire] = rebuild.const(table)
        elif table == 0b10:
            rebuild.wire_map[wire] = rebuild.wire_map[leaves[0]]
        else:
            if leaves[0] not in inverted:
                inverted[leaves[0]] = rebuild.new.not_(rebuild.wire_map[leaves[0]])
            rebuild.wire_map[wire] = inverted[leaves[0]]
    return rebuild.finish()


# --------------------------------------------------------------------------- #
# the pipeline                                                                #
# --------------------------------------------------------------------------- #

#: Registered passes, in canonical pipeline order.
PASSES: Dict[str, Callable[[Circuit], Circuit]] = {
    "fold": fold_constants,
    "absorb": absorb_linear,
    "cse": eliminate_common_subexpressions,
    "balance": rebalance_depth,
    "lutify": lutify,
    "dce": eliminate_dead_nodes,
}

#: Default pipeline: folding first exposes copies/NOTs, absorption cleans
#: them up so CSE sees canonical gates, rebalancing runs on the shrunk
#: netlist, a second CSE merges tree substructure, and DCE renumbers last.
DEFAULT_PIPELINE: Tuple[str, ...] = ("fold", "absorb", "cse", "balance", "cse", "dce")

#: Pipeline with LUT mapping: lutify runs *after* the gate-level cleanup
#: (the cover is computed over a canonical, deduplicated netlist — folding
#: or CSE after lutify would see opaque tables and miss rewrites) and last:
#: it emits only the nodes the cover references, so no DCE follows it.
LUT_PIPELINE: Tuple[str, ...] = ("fold", "absorb", "cse", "balance", "cse", "lutify")


@dataclass(frozen=True)
class PassStats:
    """Instrumentation of one pass application (live-cone numbers)."""

    name: str
    nodes_before: int
    nodes_after: int
    gates_before: int
    gates_after: int
    depth_before: int
    depth_after: int

    @property
    def changed(self) -> bool:
        """Whether the pass changed any instrumented quantity."""
        return (
            self.nodes_before != self.nodes_after
            or self.gates_before != self.gates_after
            or self.depth_before != self.depth_after
        )

    def __str__(self) -> str:
        return (
            f"{self.name:>8}: gates {self.gates_before:>5} -> {self.gates_after:<5} "
            f"depth {self.depth_before:>3} -> {self.depth_after:<3} "
            f"nodes {self.nodes_before:>5} -> {self.nodes_after:<5}"
        )


class PassManager:
    """Runs a pipeline of circuit passes with instrumentation and verification.

    ``passes`` is a sequence of registered pass names (default
    :data:`DEFAULT_PIPELINE`); the pipeline repeats until it stops changing
    the circuit, up to ``max_iterations`` sweeps.  With ``verify=True`` every
    pass application is checked semantics-preserving against its input by
    plaintext co-simulation (:func:`repro.compiler.sim.verify_equivalent`)
    over ``trials`` randomized assignments (exhaustive for small input
    spaces); a mismatch raises :class:`OptimizationError` naming the pass.
    ``stats`` holds one :class:`PassStats` per application of the last run.
    """

    def __init__(
        self,
        passes: Optional[Sequence[str]] = None,
        verify: bool = False,
        trials: int = 16,
        rng: SeedLike = 0,
        max_iterations: int = 4,
    ) -> None:
        names = tuple(passes) if passes is not None else DEFAULT_PIPELINE
        unknown = [name for name in names if name not in PASSES]
        if unknown:
            raise ValueError(
                f"unknown passes {unknown}; registered: {sorted(PASSES)}"
            )
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        self.pass_names = names
        self.verify = verify
        self.trials = trials
        self.rng = make_rng(rng)
        self.max_iterations = max_iterations
        self.stats: List[PassStats] = []

    def _apply(self, name: str, circuit: Circuit) -> Circuit:
        result = PASSES[name](circuit)
        self.stats.append(
            PassStats(
                name=name,
                nodes_before=len(circuit.nodes),
                nodes_after=len(result.nodes),
                gates_before=live_gate_count(circuit),
                gates_after=live_gate_count(result),
                depth_before=circuit_depth(circuit),
                depth_after=circuit_depth(result),
            )
        )
        if self.verify:
            try:
                verify_equivalent(circuit, result, trials=self.trials, rng=self.rng)
            except AssertionError as exc:
                raise OptimizationError(
                    f"pass {name!r} changed circuit semantics: {exc}"
                ) from exc
        return result

    def run(self, circuit: Circuit) -> Circuit:
        """Optimize ``circuit``; the input is never mutated."""
        circuit.validate()
        self.stats = []
        for _ in range(self.max_iterations):
            sweep_start = len(self.stats)
            for name in self.pass_names:
                circuit = self._apply(name, circuit)
            if not any(s.changed for s in self.stats[sweep_start:]):
                break
        return circuit

    def summary(self) -> str:
        """Human-readable per-pass table of the last run."""
        return "\n".join(str(s) for s in self.stats)


def optimize(
    circuit: Circuit,
    passes: Optional[Sequence[str]] = None,
    verify: bool = False,
    rng: SeedLike = 0,
) -> Circuit:
    """One-call pipeline: ``optimize(trace(fn, ...))`` → executable circuit."""
    return PassManager(passes=passes, verify=verify, rng=rng).run(circuit)


__all__ = [
    "BALANCEABLE_OPS",
    "LUT_PIPELINE",
    "lutify",
    "COMMUTATIVE_OPS",
    "COMPLEMENT_FIRST",
    "COMPLEMENT_SECOND",
    "DEFAULT_PIPELINE",
    "MIRROR",
    "OptimizationError",
    "PASSES",
    "PassManager",
    "PassStats",
    "absorb_linear",
    "circuit_depth",
    "eliminate_common_subexpressions",
    "eliminate_dead_nodes",
    "fold_constants",
    "live_gate_count",
    "optimize",
    "rebalance_depth",
]
