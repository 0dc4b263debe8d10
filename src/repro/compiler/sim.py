"""Plaintext co-simulation of circuit netlists.

The compiler's correctness story rests on one primitive: evaluating a
:class:`repro.tfhe.netlist.Circuit` over *plain* bits, using the same
truth tables (:data:`repro.tfhe.gates.PLAINTEXT_GATES`) the encrypted
evaluators bootstrap against.  Every optimization pass is checked
semantics-preserving by simulating the circuit before and after the rewrite
over randomized inputs (:func:`verify_equivalent`), and the benchmark /
example compare encrypted executions against :func:`simulate` outputs.

Simulation is dead-code-free — only the live cone of the requested outputs
is evaluated, as :class:`repro.tfhe.executor.CircuitExecutor` does.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.tfhe.circuits import bits_to_int, int_to_bits
from repro.tfhe.gates import PLAINTEXT_GATES
from repro.tfhe.netlist import Circuit
from repro.utils.rng import SeedLike, make_rng


class EquivalenceError(AssertionError):
    """Raised when two circuits disagree on some plaintext input."""


def simulate_bits(
    circuit: Circuit,
    inputs: Mapping[str, Sequence[int]],
    outputs: Optional[Sequence[str]] = None,
) -> Dict[str, List[int]]:
    """Evaluate a netlist over plain bits; returns LSB-first output bits.

    ``inputs`` maps input names to LSB-first bit lists, exactly like the
    ciphertext executors.  Inputs entirely outside the live cone of the
    requested outputs may be omitted.
    """
    output_names = tuple(outputs) if outputs is not None else tuple(circuit.output_wires)
    live = circuit.live_nodes(output_names)
    values: Dict[int, int] = {}
    for name, wires in circuit.input_wires.items():
        if not any(w in live for w in wires):
            continue
        if name not in inputs:
            raise ValueError(f"missing circuit input {name!r}")
        provided = [int(bool(bit)) for bit in inputs[name]]
        if len(provided) != len(wires):
            raise ValueError(
                f"input {name!r} expects {len(wires)} bits, got {len(provided)}"
            )
        values.update(zip(wires, provided))
    for node in circuit.nodes:
        if node.node_id not in live or node.op == "input":
            continue
        if node.op == "const":
            values[node.node_id] = node.value
        elif node.op == "not":
            values[node.node_id] = 1 - values[node.args[0]]
        elif node.op == "copy":
            values[node.node_id] = values[node.args[0]]
        elif node.op == "lut":
            index = 0
            for position, arg in enumerate(node.args):
                index |= values[arg] << position
            values[node.node_id] = (node.value >> index) & 1
        else:
            values[node.node_id] = PLAINTEXT_GATES[node.op](
                values[node.args[0]], values[node.args[1]]
            )
    return {
        name: [values[w] for w in circuit.output_wires[name]] for name in output_names
    }


def simulate(
    circuit: Circuit,
    inputs: Mapping[str, int],
    outputs: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Integer-level simulation: unsigned words in, unsigned words out.

    Each input integer is split into the declared width of its input word
    (wrapping modulo ``2**width``); each output word is reassembled LSB
    first.  This is the reference semantics of a traced encrypted program.
    """
    bit_inputs = {
        name: int_to_bits(int(value), circuit.input_width(name))
        for name, value in inputs.items()
    }
    return {
        name: bits_to_int(bits)
        for name, bits in simulate_bits(circuit, bit_inputs, outputs).items()
    }


def random_inputs(
    circuit: Circuit, rng: SeedLike = None
) -> Dict[str, int]:
    """One random integer per declared input word, uniform over its width."""
    rng = make_rng(rng)
    return {
        name: int(rng.integers(0, 2 ** len(wires)))
        for name, wires in circuit.input_wires.items()
    }


def verify_equivalent(
    before: Circuit,
    after: Circuit,
    trials: int = 16,
    rng: SeedLike = None,
    exhaustive_limit: int = 256,
) -> None:
    """Check two circuits agree on every output over randomized inputs.

    Both circuits must declare the same input words (name and width) and the
    same output names.  When the total input space is at most
    ``exhaustive_limit`` points the check is exhaustive instead of sampled.
    Raises :class:`EquivalenceError` on the first disagreement, naming the
    failing assignment — this is the semantics-preservation oracle every
    optimization pass is property-tested against.
    """
    before_sig = {name: len(w) for name, w in before.input_wires.items()}
    after_sig = {name: len(w) for name, w in after.input_wires.items()}
    if before_sig != after_sig:
        raise EquivalenceError(
            f"input signatures differ: {before_sig} vs {after_sig}"
        )
    if set(before.output_wires) != set(after.output_wires):
        raise EquivalenceError(
            f"output names differ: {sorted(before.output_wires)} vs "
            f"{sorted(after.output_wires)}"
        )
    total_bits = sum(before_sig.values())
    if 2**total_bits <= exhaustive_limit:
        assignments = []
        names = sorted(before_sig)
        for point in range(2**total_bits):
            values = {}
            cursor = point
            for name in names:
                width = before_sig[name]
                values[name] = cursor & ((1 << width) - 1)
                cursor >>= width
            assignments.append(values)
    else:
        rng = make_rng(rng)
        assignments = [random_inputs(before, rng) for _ in range(trials)]
    for values in assignments:
        expected = simulate(before, values)
        actual = simulate(after, values)
        if expected != actual:
            raise EquivalenceError(
                f"circuits disagree on {values}: {expected} vs {actual}"
            )


__all__ = [
    "EquivalenceError",
    "random_inputs",
    "simulate",
    "simulate_bits",
    "verify_equivalent",
]
