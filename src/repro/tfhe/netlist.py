"""Circuit netlists: a gate-level IR for multi-gate encrypted circuits.

The batched bootstrapping engine (:class:`repro.tfhe.gates.BatchGateEvaluator`)
runs many rows per call, but helpers that *emit* gates strictly one after
another only ever fill the data-parallel batch axis (many words).  This
module is the representation that exposes the rest: a :class:`Circuit` is a small
SSA-style netlist — every node is one Boolean operation producing one named
wire — that a scheduler can analyse *before* anything is evaluated.

The flow mirrors the paper's compilation pipeline (Section 5: "OpenCGRA first
compiles a TFHE logic operation into a data flow graph, solves its
dependencies, and removes structural hazards"), lifted one level up: instead
of compiling the inside of one bootstrapped gate, we compile a whole circuit
of bootstrapped gates: :meth:`Circuit.levels` solves its dependencies in one
pass over the SSA node list, and :mod:`repro.tfhe.executor` packs every
dependency level into a single batched bootstrapping call.

Construction is explicit and cheap::

    c = Circuit("adder2")
    a = c.inputs("a", 2)
    b = c.inputs("b", 2)
    s0 = c.gate("xor", a[0], b[0])
    ...
    c.output("sum", [s0, ...])

Word-level constructors (:func:`adder_netlist`, :func:`subtractor_netlist`,
:func:`equal_netlist`, :func:`greater_than_netlist`, :func:`select_netlist`,
:func:`maximum_netlist`, :func:`negate_netlist`) are the library's word
circuits; :class:`repro.tfhe.executor.CircuitExecutor` runs them level by
level.  The compiler frontend
(:mod:`repro.compiler.frontend`) lowers to the same ``*_into`` builders, so
traced programs and hand-built netlists share one gate vocabulary; the
word-level operations it needs beyond the classic set — shift-and-add
multiplication (:func:`multiplier_netlist`), minimum/absolute value and
constant shifts — live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.tfhe.gates import MIXED_GATE_SPECS
from repro.tfhe.lut import MAX_LUT_ARITY, boolean_lut_spec

#: Two-input ops that require a gate bootstrapping when evaluated.
BOOTSTRAPPED_OPS: Tuple[str, ...] = tuple(MIXED_GATE_SPECS)

#: Ops that are purely linear over ciphertexts (no bootstrapping, ~free).
LINEAR_OPS: Tuple[str, ...] = ("not", "copy")

#: Source ops that produce wires without consuming any.
SOURCE_OPS: Tuple[str, ...] = ("input", "const")

#: Arity of every recognised fixed-arity op (sources take no wire arguments).
#: ``lut`` nodes are variable-arity (1..MAX_LUT_ARITY inputs, truth table in
#: ``value``) and are validated separately.
OP_ARITY: Dict[str, int] = {
    **{name: 2 for name in BOOTSTRAPPED_OPS},
    "not": 1,
    "copy": 1,
    "input": 0,
    "const": 0,
}


@dataclass(frozen=True)
class Node:
    """One netlist node: an operation producing exactly one wire.

    ``node_id`` doubles as the wire id of the produced value (SSA form).
    ``args`` are the wire ids consumed; ``value`` is only meaningful for
    ``const`` nodes (the public bit) and ``name``/``bit`` only for ``input``
    nodes (which input word and which bit position the wire belongs to).
    """

    node_id: int
    op: str
    args: Tuple[int, ...] = ()
    value: int = 0
    name: str = ""
    bit: int = -1

    @property
    def is_bootstrapped(self) -> bool:
        """Whether evaluating this node costs one gate bootstrapping."""
        return self.op in BOOTSTRAPPED_OPS or self.op == "lut"


class Circuit:
    """A Boolean circuit netlist over named multi-bit inputs and outputs.

    The class is its own builder: :meth:`inputs`, :meth:`constant`,
    :meth:`gate`, :meth:`not_`, :meth:`mux` and :meth:`output` append nodes
    and return wire ids.  Wires are integers; words are LSB-first lists of
    wires, matching the convention of :mod:`repro.tfhe.circuits`.

    The structure is evaluation-free — nothing here touches ciphertexts.
    :class:`repro.tfhe.executor.CircuitExecutor` runs a circuit level by
    level through the batched bootstrapping engine.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.input_wires: Dict[str, Tuple[int, ...]] = {}
        self.output_wires: Dict[str, Tuple[int, ...]] = {}

    # -- builder API ---------------------------------------------------------
    def _add(self, node: Node) -> int:
        self.nodes.append(node)
        return node.node_id

    def _new_id(self) -> int:
        return len(self.nodes)

    def _check_wires(self, wires: Iterable[int]) -> None:
        for wire in wires:
            if not (0 <= int(wire) < len(self.nodes)):
                raise ValueError(f"unknown wire {wire!r}")

    def inputs(self, name: str, width: int) -> List[int]:
        """Declare a ``width``-bit named input word; returns its wires, LSB first."""
        if width <= 0:
            raise ValueError("width must be positive")
        if name in self.input_wires:
            raise ValueError(f"duplicate input {name!r}")
        wires = [
            self._add(Node(self._new_id(), "input", name=name, bit=i))
            for i in range(width)
        ]
        self.input_wires[name] = tuple(wires)
        return wires

    def constant(self, bit: int) -> int:
        """A public constant bit (evaluates to a trivial encryption)."""
        return self._add(Node(self._new_id(), "const", value=int(bool(bit))))

    def gate(self, op: str, a: int, b: int) -> int:
        """A two-input bootstrapped gate (``"nand"``, ``"xor"``, ...)."""
        if op not in BOOTSTRAPPED_OPS:
            raise ValueError(f"unknown gate {op!r}")
        self._check_wires((a, b))
        return self._add(Node(self._new_id(), op, args=(int(a), int(b))))

    def lut(self, table: int, wires: Sequence[int]) -> int:
        """A k-input lookup-table node evaluated in one bootstrapping.

        ``table`` is the truth table over the ``wires`` (bit ``m`` of the
        table is the output when wire ``i`` carries bit ``(m >> i) & 1``).
        Only tables with a single-bootstrap realisation on the ±1/8 encoding
        are accepted — see :func:`repro.tfhe.lut.boolean_lut_spec`.
        """
        wires = [int(w) for w in wires]
        if not 1 <= len(wires) <= MAX_LUT_ARITY:
            raise ValueError(
                f"lut arity must lie in [1, {MAX_LUT_ARITY}], got {len(wires)}"
            )
        table = int(table)
        if not 0 <= table < (1 << (1 << len(wires))):
            raise ValueError("truth table does not fit the lut arity")
        if boolean_lut_spec(table, len(wires)) is None:
            raise ValueError(
                f"truth table 0x{table:x} over {len(wires)} inputs has no "
                f"single-bootstrap realisation"
            )
        self._check_wires(wires)
        return self._add(
            Node(self._new_id(), "lut", args=tuple(wires), value=table)
        )

    def not_(self, a: int) -> int:
        """Linear NOT of a wire (no bootstrapping)."""
        self._check_wires((a,))
        return self._add(Node(self._new_id(), "not", args=(int(a),)))

    def copy(self, a: int) -> int:
        """Identity node (used to alias a wire into an output)."""
        self._check_wires((a,))
        return self._add(Node(self._new_id(), "copy", args=(int(a),)))

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        """Multiplexer ``sel ? if_true : if_false``, lowered to three gates.

        The lowering — ``OR(AND(sel, t), ANDNY(sel, f))`` — exposes the two
        AND legs as *independent* gates, so the level scheduler runs them in
        the same batched bootstrapping call.  (The TFHE library's MUX costs
        two bootstraps plus an intermediate key switch; this form needs only
        gate rows.)
        """
        picked_true = self.gate("and", sel, if_true)
        picked_false = self.gate("andny", sel, if_false)
        return self.gate("or", picked_true, picked_false)

    def output(self, name: str, wires: Sequence[int]) -> None:
        """Declare a named output word (LSB first)."""
        if name in self.output_wires:
            raise ValueError(f"duplicate output {name!r}")
        wires = [int(w) for w in wires]
        if not wires:
            raise ValueError("an output needs at least one wire")
        self._check_wires(wires)
        self.output_wires[name] = tuple(wires)

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """The node that produces wire ``node_id``."""
        return self.nodes[node_id]

    @property
    def gate_count(self) -> int:
        """Number of bootstrapped gates in the netlist."""
        return sum(1 for n in self.nodes if n.is_bootstrapped)

    def input_width(self, name: str) -> int:
        """Bit width of a declared input word."""
        return len(self.input_wires[name])

    def live_nodes(self, outputs: Sequence[str] | None = None) -> Set[int]:
        """Wire ids in the transitive fan-in ("cone") of the given outputs.

        Dead nodes — e.g. the discarded carry chain of a truncated
        subtraction — are excluded, so neither executor wastes bootstrappings
        on values nobody reads.
        """
        names = list(outputs) if outputs is not None else list(self.output_wires)
        stack: List[int] = []
        for name in names:
            if name not in self.output_wires:
                raise KeyError(f"unknown output {name!r}")
            stack.extend(self.output_wires[name])
        live: Set[int] = set()
        while stack:
            nid = stack.pop()
            if nid in live:
                continue
            live.add(nid)
            stack.extend(self.nodes[nid].args)
        return live

    def validate(self) -> None:
        """Structural checks: known ops, arities, bit constants, and SSA order."""
        for node in self.nodes:
            if node.op == "lut":
                if not 1 <= len(node.args) <= MAX_LUT_ARITY:
                    raise ValueError(
                        f"lut arity must lie in [1, {MAX_LUT_ARITY}]"
                    )
                if not 0 <= node.value < (1 << (1 << len(node.args))):
                    raise ValueError("lut truth table does not fit its arity")
                if boolean_lut_spec(node.value, len(node.args)) is None:
                    raise ValueError(
                        f"lut table 0x{node.value:x} has no single-bootstrap "
                        f"realisation"
                    )
            elif node.op not in OP_ARITY:
                raise ValueError(f"unknown op {node.op!r}")
            elif len(node.args) != OP_ARITY[node.op]:
                raise ValueError(f"op {node.op!r} expects {OP_ARITY[node.op]} args")
            elif node.op == "const" and node.value not in (0, 1):
                raise ValueError(f"const node carries non-bit value {node.value!r}")
            for arg in node.args:
                if not 0 <= arg < node.node_id:
                    raise ValueError("netlist is not in SSA order")

    def levels(self, outputs: Sequence[str] | None = None) -> Dict[int, int]:
        """Bootstrapped depth of every node in the cone of ``outputs``.

        One pass in SSA order: a node sits at the deepest level among its
        arguments, plus one when it is bootstrapped — so sources and
        NOT/copy chains never lengthen a path, and the nodes of one level
        are mutually independent given the levels before it (the
        dependency-solving step of the paper's compile flow, applied to a
        whole circuit).  Dead nodes get no level.
        """
        live = self.live_nodes(outputs)
        levels: Dict[int, int] = {}
        for node in self.nodes:
            if node.node_id in live:
                deepest = max((levels[arg] for arg in node.args), default=0)
                levels[node.node_id] = deepest + node.is_bootstrapped
        return levels


# --------------------------------------------------------------------------- #
# word-level constructors (gate-for-gate ports of repro.tfhe.circuits)        #
# --------------------------------------------------------------------------- #


def full_adder_into(c: Circuit, a: int, b: int, carry: int) -> Tuple[int, int]:
    """Append one full-adder stage; returns ``(sum, carry_out)`` wires."""
    a_xor_b = c.gate("xor", a, b)
    total = c.gate("xor", a_xor_b, carry)
    carry_out = c.gate("or", c.gate("and", a, b), c.gate("and", a_xor_b, carry))
    return total, carry_out


def ripple_add_into(
    c: Circuit, a: Sequence[int], b: Sequence[int]
) -> List[int]:
    """Append a ripple-carry adder; returns ``width + 1`` wires (carry last)."""
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    carry = c.constant(0)
    out: List[int] = []
    for wire_a, wire_b in zip(a, b):
        total, carry = full_adder_into(c, wire_a, wire_b, carry)
        out.append(total)
    out.append(carry)
    return out


def negate_into(c: Circuit, a: Sequence[int]) -> List[int]:
    """Append a two's-complement negation; returns ``len(a)`` wires."""
    inverted = [c.not_(wire) for wire in a]
    one = [c.constant(1)] + [c.constant(0)] * (len(a) - 1)
    return ripple_add_into(c, inverted, one)[: len(a)]


def greater_than_into(c: Circuit, a: Sequence[int], b: Sequence[int]) -> int:
    """Append an unsigned ``a > b`` comparator (bit-serial, LSB to MSB)."""
    result = c.constant(0)
    for wire_a, wire_b in zip(a, b):
        bits_equal = c.gate("xnor", wire_a, wire_b)
        a_wins_here = c.gate("andyn", wire_a, wire_b)
        result = c.mux(bits_equal, result, a_wins_here)
    return result


def multiply_into(c: Circuit, a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Append a shift-and-add multiplier truncated to ``len(a)`` bits.

    Classic schoolbook form: partial-product row ``j`` is ``a AND b[j]``
    shifted left by ``j``; rows are accumulated with ripple-carry adders over
    the surviving high bits only, so the result wraps modulo ``2**width``
    exactly like :func:`repro.tfhe.circuits.int_to_bits` arithmetic.
    """
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    width = len(a)
    acc = [c.gate("and", wire_a, b[0]) for wire_a in a]
    for j in range(1, width):
        row = [c.gate("and", a[i], b[j]) for i in range(width - j)]
        acc = acc[:j] + ripple_add_into(c, acc[j:], row)[: width - j]
    return acc


def equal_into(c: Circuit, a: Sequence[int], b: Sequence[int]) -> int:
    """Append an equality comparator (AND-chain of per-bit XNORs)."""
    result = c.constant(1)
    for wire_a, wire_b in zip(a, b):
        result = c.gate("and", result, c.gate("xnor", wire_a, wire_b))
    return result


def maximum_into(c: Circuit, a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Append an unsigned maximum (comparator feeding a multiplexer)."""
    a_greater = greater_than_into(c, a, b)
    return [c.mux(a_greater, t, f) for t, f in zip(a, b)]


def minimum_into(c: Circuit, a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Append an unsigned minimum (comparator feeding a flipped multiplexer)."""
    a_greater = greater_than_into(c, a, b)
    return [c.mux(a_greater, f, t) for t, f in zip(a, b)]


def absolute_into(c: Circuit, a: Sequence[int]) -> List[int]:
    """Append a two's-complement absolute value (sign bit selects ``-a``)."""
    negated = negate_into(c, a)
    sign = a[-1]
    return [c.mux(sign, n, p) for p, n in zip(a, negated)]


def shift_left_into(c: Circuit, a: Sequence[int], amount: int) -> List[int]:
    """Constant logical left shift: low bits become constant zeros."""
    if amount < 0:
        raise ValueError("shift amount must be non-negative")
    width = len(a)
    amount = min(amount, width)
    return [c.constant(0) for _ in range(amount)] + list(a)[: width - amount]


def shift_right_into(c: Circuit, a: Sequence[int], amount: int) -> List[int]:
    """Constant logical right shift: high bits become constant zeros."""
    if amount < 0:
        raise ValueError("shift amount must be non-negative")
    width = len(a)
    amount = min(amount, width)
    return list(a)[amount:] + [c.constant(0) for _ in range(amount)]


def _require_width(width: int) -> None:
    if width <= 0:
        raise ValueError("width must be positive")


@lru_cache(maxsize=None)
def adder_netlist(width: int) -> Circuit:
    """Ripple-carry adder: inputs ``a``/``b``, output ``sum`` (``width + 1`` bits)."""
    _require_width(width)
    c = Circuit(f"add{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("sum", ripple_add_into(c, a, b))
    return c


@lru_cache(maxsize=None)
def negate_netlist(width: int) -> Circuit:
    """Two's-complement negation: input ``a``, output ``neg`` (same width)."""
    _require_width(width)
    c = Circuit(f"neg{width}")
    a = c.inputs("a", width)
    c.output("neg", negate_into(c, a))
    return c


@lru_cache(maxsize=None)
def subtractor_netlist(width: int) -> Circuit:
    """Two's-complement subtraction ``a - b`` truncated to ``width`` bits."""
    _require_width(width)
    c = Circuit(f"sub{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("diff", ripple_add_into(c, a, negate_into(c, b))[:width])
    return c


@lru_cache(maxsize=None)
def equal_netlist(width: int) -> Circuit:
    """Equality comparator: inputs ``a``/``b``, one-bit output ``eq``."""
    _require_width(width)
    c = Circuit(f"eq{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("eq", [equal_into(c, a, b)])
    return c


@lru_cache(maxsize=None)
def greater_than_netlist(width: int) -> Circuit:
    """Unsigned ``a > b`` comparator (bit-serial, LSB to MSB), output ``gt``."""
    _require_width(width)
    c = Circuit(f"gt{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("gt", [greater_than_into(c, a, b)])
    return c


@lru_cache(maxsize=None)
def select_netlist(width: int) -> Circuit:
    """Vector multiplexer: one-bit ``cond`` picks ``if_true`` or ``if_false``."""
    _require_width(width)
    c = Circuit(f"select{width}")
    cond = c.inputs("cond", 1)[0]
    if_true = c.inputs("if_true", width)
    if_false = c.inputs("if_false", width)
    c.output("out", [c.mux(cond, t, f) for t, f in zip(if_true, if_false)])
    return c


@lru_cache(maxsize=None)
def maximum_netlist(width: int) -> Circuit:
    """Unsigned maximum of ``a`` and ``b`` (comparator feeding a multiplexer)."""
    _require_width(width)
    c = Circuit(f"max{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("max", maximum_into(c, a, b))
    return c


@lru_cache(maxsize=None)
def minimum_netlist(width: int) -> Circuit:
    """Unsigned minimum of ``a`` and ``b``, output ``min`` (same width)."""
    _require_width(width)
    c = Circuit(f"min{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("min", minimum_into(c, a, b))
    return c


@lru_cache(maxsize=None)
def multiplier_netlist(width: int) -> Circuit:
    """Shift-and-add multiplier ``a * b`` wrapping to ``width`` bits, output ``prod``."""
    _require_width(width)
    c = Circuit(f"mul{width}")
    a = c.inputs("a", width)
    b = c.inputs("b", width)
    c.output("prod", multiply_into(c, a, b))
    return c


@lru_cache(maxsize=None)
def absolute_netlist(width: int) -> Circuit:
    """Two's-complement absolute value of ``a``, output ``abs`` (same width)."""
    _require_width(width)
    c = Circuit(f"abs{width}")
    a = c.inputs("a", width)
    c.output("abs", absolute_into(c, a))
    return c
