"""Level-parallel execution of circuit netlists.

:func:`schedule_circuit` turns a :class:`repro.tfhe.netlist.Circuit` into a
:class:`LevelSchedule` by bucketing :meth:`~repro.tfhe.netlist.Circuit.levels`
— bootstrapped nodes (gates and luts) advance the level, linear nodes (inputs,
constants, NOT, copy) are free — so every level is a *wave* of mutually
independent bootstrapped nodes.  This is the paper's solve-dependencies flow
(Section 5) applied to whole circuits instead of the inside of one gate.

:func:`walk_levels` is the one traversal of such a schedule: a generator that
yields each wave as bootstrap rows (``("gate", name, ca, cb)`` / ``("lut",
table, operands)``), is sent the wave's outputs, resolves the linear nodes in
between and returns the circuit's outputs.  It never bootstraps anything
itself, so whoever drives it decides where the rows run:

* :meth:`CircuitExecutor.run` packs each wave, over all words of the data
  batch, into **one** :meth:`repro.tfhe.gates.BatchGateEvaluator.rows` call —
  a single affine pass, blind rotation, extraction and key switch over
  ``nodes_in_wave × words`` rows.  The wave width multiplies the row count
  of every batched call (level parallelism) and the data batch multiplies
  it again (word parallelism).
* the scheduler's multi-round job (:mod:`repro.runtime.scheduler`)
  contributes each wave to the flush round it is ready in, where it
  coalesces with every other row of the same key.

:class:`CircuitExecutor` is the one in-process way to evaluate a netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Mapping, Sequence, Tuple

from repro.tfhe.gates import BatchGateEvaluator, Row, run_steps, split_rows
from repro.tfhe.lwe import LweBatch, LweSample, lwe_batch_concat
from repro.tfhe.netlist import Circuit, Node


@dataclass(frozen=True)
class LevelSchedule:
    """A level-by-level execution plan for one circuit.

    ``waves[k]`` holds the bootstrapped gates of dependency level ``k + 1``;
    the gates of one wave are mutually independent, so the executor issues
    each wave as a single batched bootstrapping call.  ``linear[k]`` holds
    the live bootstrap-free nodes (inputs, constants, NOT, copy) resolved
    after wave ``k`` (``linear[0]`` before any wave), in SSA order.
    """

    circuit: Circuit
    output_names: Tuple[str, ...]
    waves: Tuple[Tuple[int, ...], ...]
    linear: Tuple[Tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        """Number of bootstrapped dependency levels (the gate critical path)."""
        return len(self.waves)

    @property
    def gate_count(self) -> int:
        """Total live bootstrapped gates in the plan."""
        return sum(len(wave) for wave in self.waves)

    @property
    def level_widths(self) -> List[int]:
        """Gates per level, in execution order (the gates/level histogram)."""
        return [len(wave) for wave in self.waves]

    @property
    def mean_width(self) -> float:
        """Average gates per level — the level-parallelism of the circuit."""
        return self.gate_count / self.depth if self.depth else 0.0

    @property
    def max_width(self) -> int:
        """Widest level (peak number of concurrent bootstrappings)."""
        return max(self.level_widths, default=0)


def schedule_circuit(
    circuit: Circuit, outputs: Sequence[str] | None = None
) -> LevelSchedule:
    """Levelize the output cone of ``circuit`` into a :class:`LevelSchedule`.

    The circuit is validated (an in-process netlist has no other check),
    then its :meth:`~repro.tfhe.netlist.Circuit.levels` are bucketed in SSA
    order; only bootstrapped gates advance a level, so NOT/copy/constant
    chains never lengthen the schedule.  Dead nodes (outside the cone of the
    requested outputs) are dropped entirely.
    """
    circuit.validate()
    output_names = tuple(outputs) if outputs is not None else tuple(circuit.output_wires)
    levels = circuit.levels(output_names)
    depth = max(levels.values(), default=0)
    waves: List[List[int]] = [[] for _ in range(depth)]
    linear: List[List[int]] = [[] for _ in range(depth + 1)]
    for nid in sorted(levels):
        level = levels[nid]
        if circuit.node(nid).is_bootstrapped:
            waves[level - 1].append(nid)
        else:
            linear[level].append(nid)
    return LevelSchedule(
        circuit=circuit,
        output_names=output_names,
        waves=tuple(map(tuple, waves)),
        linear=tuple(map(tuple, linear)),
    )


def _gather_inputs(
    circuit: Circuit,
    inputs: Mapping[str, Sequence],
    live: set,
) -> Dict[int, object]:
    """Map live input wires to the caller-provided ciphertexts."""
    values: Dict[int, object] = {}
    for name, wires in circuit.input_wires.items():
        if not any(w in live for w in wires):
            continue
        if name not in inputs:
            raise ValueError(f"missing circuit input {name!r}")
        provided = list(inputs[name])
        if len(provided) != len(wires):
            raise ValueError(
                f"input {name!r} expects {len(wires)} bits, got {len(provided)}"
            )
        for wire, value in zip(wires, provided):
            values[wire] = value
    return values


def _linear_node(evaluator, node: Node, operands: Sequence):
    """Evaluate one bootstrap-free node (``const``/``not``/``copy``)."""
    if node.op == "const":
        return evaluator.constant(node.value)
    if node.op == "not":
        return evaluator.not_(operands[0])
    return evaluator.copy(operands[0])


def walk_levels(
    schedule: LevelSchedule, inputs: Mapping[str, Sequence], linear
) -> Generator[List[Row], Sequence, Dict[str, List]]:
    """Walk one :class:`LevelSchedule` as a multi-round job: yields each
    non-empty wave's rows, is sent their outputs (one per row, same order)
    and returns ``{output name: wires}``.  ``linear`` settles the nodes in
    between — anything with ``constant``/``not_``/``copy`` over the wire
    values: a :class:`BatchGateEvaluator` for bit planes, a scheduler
    session for scalar samples."""
    circuit = schedule.circuit
    values = _gather_inputs(circuit, inputs, circuit.live_nodes(schedule.output_names))
    for settled, wave in zip(schedule.linear, schedule.waves + ((),)):
        for nid in settled:
            node = circuit.node(nid)
            if node.op != "input":  # inputs were gathered up front
                values[nid] = _linear_node(linear, node, [values[a] for a in node.args])
        if wave:  # an empty wave costs no call
            rows: List[Row] = []
            for nid in wave:
                node = circuit.node(nid)
                operands = tuple(values[a] for a in node.args)
                if node.op == "lut":
                    rows.append(("lut", node.value, operands))
                else:
                    rows.append(("gate", node.op, *operands))
            values.update(zip(wave, (yield rows)))
    return {
        name: [values[w] for w in circuit.output_wires[name]]
        for name in schedule.output_names
    }


class CircuitExecutor:
    """Runs circuits level by level on the batched bootstrapping engine.

    The executor owns a :class:`repro.tfhe.gates.BatchGateEvaluator` whose
    ``batch_size`` is the number of *words* processed per run (wires carry
    :class:`LweBatch` bit planes of that width; use ``batch_size=1`` with
    :meth:`run_samples` for plain single-word circuits).  Every dependency
    level of the schedule — gates and luts alike — becomes one
    :meth:`~repro.tfhe.gates.BatchGateEvaluator.rows` call of
    ``level width × batch_size`` rows::

        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=16))
        planes = executor.run(adder_netlist(32), {"a": a_planes, "b": b_planes})

    ``evaluator.counters`` tracks gates/bootstraps as usual;
    ``executor.level_calls`` counts the batched bootstrapping calls issued,
    i.e. the schedule depth summed over runs.
    """

    def __init__(self, evaluator: BatchGateEvaluator) -> None:
        self.evaluator = evaluator
        self.level_calls = 0

    @classmethod
    def for_context(cls, context, batch_size: int) -> "CircuitExecutor":
        """An executor over ``batch_size`` words bound to an ``FheContext``.

        The evaluator comes from the context's per-width cache, so repeated
        executors share both the batched evaluator and the context's
        cloud-key spectrum cache.
        """
        return cls(context.batch_evaluator(batch_size))

    @property
    def batch_size(self) -> int:
        """Words processed per run (the evaluator's batch width)."""
        return self.evaluator.batch_size

    def run(
        self,
        circuit: Circuit,
        inputs: Mapping[str, Sequence[LweBatch]],
        outputs: Sequence[str] | None = None,
        schedule: LevelSchedule | None = None,
    ) -> Dict[str, List[LweBatch]]:
        """Execute ``circuit`` level-parallel over ``batch_size`` words.

        ``inputs`` maps input names to LSB-first lists of ``batch_size``-row
        bit planes (see :func:`repro.tfhe.circuits.encrypt_integers`).  Pass
        a precomputed ``schedule`` to amortise scheduling across runs.
        Single-word scalar bits go to :meth:`run_samples` instead.
        """
        if schedule is None:
            schedule = schedule_circuit(circuit, outputs)
        elif schedule.circuit is not circuit:
            raise ValueError("schedule was built for a different circuit")
        elif outputs is not None and tuple(outputs) != schedule.output_names:
            raise ValueError(
                f"schedule was built for outputs {schedule.output_names}, "
                f"not {tuple(outputs)}; reschedule or drop the outputs argument"
            )
        words = self.batch_size
        for name in circuit.input_wires:
            for plane in inputs.get(name, ()):
                if not isinstance(plane, LweBatch):
                    raise ValueError(
                        f"input {name!r} holds {type(plane).__name__} bits, not "
                        f"LweBatch bit planes; pass single samples to run_samples"
                    )
                if plane.batch_size != words:
                    raise ValueError(
                        f"input {name!r} has batch width {plane.batch_size}, "
                        f"executor expects {words}"
                    )

        def run_wave(rows: List[Row]) -> List[LweBatch]:
            ops, operands = split_rows(rows, lwe_batch_concat)
            out = self.evaluator.rows([op for op in ops for _ in range(words)], operands)
            self.level_calls += 1
            return [out.rows(i * words, (i + 1) * words) for i in range(len(ops))]

        return run_steps(walk_levels(schedule, inputs, self.evaluator), run_wave)

    def run_samples(
        self,
        circuit: Circuit,
        inputs: Mapping[str, Sequence[LweSample]],
        outputs: Sequence[str] | None = None,
        schedule: LevelSchedule | None = None,
    ) -> Dict[str, List[LweSample]]:
        """Single-word convenience: scalar bits in, scalar bits out.

        Requires ``batch_size == 1``; each sample is lifted to a one-row
        batch so the level packing still merges all gates of a level into
        one call — this is the pure level-parallelism mode (no word batch).
        """
        if self.batch_size != 1:
            raise ValueError("run_samples requires an executor of batch size 1")
        lifted = {
            name: [LweBatch.from_samples([bit]) for bit in bits]
            for name, bits in inputs.items()
        }
        planes = self.run(circuit, lifted, outputs, schedule)
        return {
            name: [plane[0] for plane in plane_list]
            for name, plane_list in planes.items()
        }
