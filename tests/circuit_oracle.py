"""A circuit evaluated gate by gate: what every level-parallel run must come out as.

:class:`repro.tfhe.executor.CircuitExecutor` and the scheduler's circuit job
both walk a netlist by dependency levels (``walk_levels``), packing each wave
of independent bootstrapped nodes into one batched call.  This module walks
the same netlist the plain way: one node at a time, in SSA order, every
bootstrapped node a separate call on the scalar
:class:`repro.tfhe.gates.TFHEGateEvaluator`.  A bootstrap is a deterministic
function of its inputs, so the two orders must agree byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def circuit_oracle(
    circuit, evaluator, inputs: Mapping[str, Sequence], outputs: Sequence[str] | None = None
) -> Dict[str, List]:
    """``{output name: bits}`` of ``circuit`` over the live cone of ``outputs``
    (all outputs by default), evaluated node by node with ``evaluator``."""
    output_names = tuple(outputs) if outputs is not None else tuple(circuit.output_wires)
    live = circuit.live_nodes(output_names)
    values = {}
    for name, wires in circuit.input_wires.items():
        if any(wire in live for wire in wires):
            values.update(zip(wires, inputs[name], strict=True))
    for node in circuit.nodes:
        if node.node_id not in live or node.op == "input":
            continue
        operands = [values[arg] for arg in node.args]
        if node.op == "lut":
            value = evaluator.lut(node.value, operands)
        elif node.op == "const":
            value = evaluator.constant(node.value)
        elif node.op == "not":
            value = evaluator.not_(operands[0])
        elif node.op == "copy":
            value = evaluator.copy(operands[0])
        else:
            value = evaluator.gate(node.op, *operands)
        values[node.node_id] = value
    return {name: [values[w] for w in circuit.output_wires[name]] for name in output_names}


def mux_oracle(evaluator, sel, if_true, if_false):
    """``sel ? if_true : if_false`` as the three gates :meth:`Circuit.mux`
    lowers to, issued one after another."""
    return evaluator.or_(evaluator.and_(sel, if_true), evaluator.andny(sel, if_false))
