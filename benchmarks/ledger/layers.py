"""The layer walk: the per-layer half of the traced run.

Measured from outside only.  The walk builds an ``FheContext`` from the same
cloud key the server got and replays a batch of the workload's row width
through the call tree

    BatchScheduler.flush
      └ dispatcher.run_rows                      (WorkerPool on the pool workload)
          └ execute_rows
              └ gate_rows | affine + test vectors + bootstrap_rows   ("tfhe.kernel")
                  ├ gate_affine_batch | lut_affine_batch
                  ├ test vectors, modswitch_batch, accumulator init
                  ├ rotator.rotate_batch
                  │   └ n × tgsw_batch_cmux_rotate
                  │        └ gadget_decompose_rows, forward, spectrum_contract, backward
                  ├ tlwe_batch_sample_extract
                  └ keyswitch_apply_batch

A child is a standalone call of the layer's public function on inputs of the
shape the enclosing call hands it, recorded under a span whose parent is the
enclosing call's span; a layer's self time is its span minus its children.
Every timing is the median of ``reps`` repetitions (fewer for calls so slow
that ``reps`` of them would not fit the per-call budget, never under 5).
"""

from __future__ import annotations

import json
import math
import socket
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.context import FheContext
from repro.runtime.protocol import encode_frame, pack_parts, read_frame
from repro.runtime.scheduler import (
    BatchScheduler,
    InlineDispatcher,
    RowDispatcher,
    SchedulerStats,
    execute_rows,
)
from repro.runtime.workers import WorkerPool
from repro.telemetry import Telemetry
from repro.tfhe.bootstrap import modswitch_batch
from repro.tfhe.executor import schedule_circuit
from repro.tfhe.gates import (
    decrypt_bit,
    encrypt_bit,
    gate_affine_batch,
    lut_affine_batch,
    require_lut_spec,
)
from repro.tfhe.keyswitch import keyswitch_apply_batch
from repro.tfhe.lut import lut_test_vector
from repro.tfhe.lwe import LweBatch, LweSample, lwe_batch_concat
from repro.tfhe.serialize import circuit_from_json, circuit_to_json, from_bytes, to_bytes
from repro.tfhe.tgsw import (
    gadget_decompose_rows,
    tgsw_batch_cmux_rotate,
    tgsw_batch_external_product,
)
from repro.tfhe.tlwe import (
    tlwe_batch_rotate,
    tlwe_batch_sample_extract,
    tlwe_batch_trivial,
)

from loadgen import SpanRecorder
from serve_launch import MAX_FRAME
from workloads import Inputs

#: The call tree of the module docstring: span name → the spans it encloses.
TREE: Dict[str, Tuple[str, ...]] = {
    "scheduler.flush": ("dispatch.run_rows",),
    "dispatch.run_rows": ("scheduler.execute_rows",),
    "scheduler.execute_rows": ("tfhe.kernel",),
    "tfhe.kernel": (
        "gates.affine",
        "bootstrap.test_vector",
        "bootstrap.modswitch",
        "bootstrap.accumulator_init",
        "bootstrap.rotate_batch",
        "bootstrap.sample_extract",
        "keyswitch.apply",
    ),
    "bootstrap.rotate_batch": ("tgsw.cmux_rotate",),
    "tgsw.cmux_rotate": (
        "tgsw.decompose",
        "transform.forward",
        "transform.contract",
        "transform.backward",
    ),
}
PARENT: Dict[str, str] = {child: parent for parent, kids in TREE.items() for child in kids}


def layer_of(span: str) -> str:
    """The module a span's self time belongs to (``tfhe.kernel`` is
    ``BatchGateEvaluator.gate_rows`` / ``bootstrap_rows``, in ``tfhe.gates``)."""
    return "gates" if span == "tfhe.kernel" else span.split(".", 1)[0]


def attribute(
    span: str,
    seconds: float,
    median: Dict[str, float],
    calls: Dict[str, int],
    out: Dict[str, float],
    count: int = 1,
) -> None:
    """Split ``seconds`` spent in ``count`` calls of ``span`` into layer self
    times, top down.

    A child costs its standalone median times how often one call of its
    parent makes it (``calls``, default once); what is left is the span's
    self time.  Children measured standalone can add up to
    more than their parent took (they run warmer or colder than inside its
    loop); they are then scaled to fit, so no layer is ever credited with
    more time than its enclosing call had.
    """
    counts = {child: count * calls.get(child, 1) for child in TREE.get(span, ())}
    total = sum(counts[child] * median[child] for child in counts)
    scale = min(1.0, seconds / total) if total > 0 else 1.0
    for child, child_count in counts.items():
        attribute(child, child_count * median[child] * scale, median, calls, out, child_count)
    layer = layer_of(span)
    out[layer] = out.get(layer, 0.0) + max(0.0, seconds - total * scale)


#: Calls shorter than WARM_BELOW seconds get WARM_CALLS unmeasured calls first
#: in every round but the first.
WARM_BELOW = 5e-3
WARM_CALLS = 4


class _RecordingDispatcher(RowDispatcher):
    """Times every ``run_rows`` call the scheduler issues."""

    def __init__(self, inner: RowDispatcher) -> None:
        self.inner = inner
        self.calls: List[Tuple[float, float]] = []

    @property
    def telemetry(self):
        return self.inner.telemetry

    @telemetry.setter
    def telemetry(self, value) -> None:
        self.inner.telemetry = value

    def register_client(self, client_id, context) -> None:
        self.inner.register_client(client_id, context)

    def deregister_client(self, client_id) -> None:
        self.inner.deregister_client(client_id)

    def run_rows(self, client_id, context, rows, stats, max_rows_per_call=None, round_ctx=None):
        begin = time.perf_counter()
        try:
            return self.inner.run_rows(
                client_id, context, rows, stats, max_rows_per_call, round_ctx
            )
        finally:
            self.calls.append((begin, time.perf_counter()))


class Walk:
    """Runs the standalone calls, records their spans, keeps their samples.

    The items of one :meth:`group` run round-robin — one call of every item
    per round — so parent and children sample the same machine states and a
    self time can be taken round by round (:meth:`self_time`) instead of as a
    difference of medians measured minutes apart on a drifting machine.
    """

    def __init__(self, recorder: SpanRecorder, reps: int, budget: float) -> None:
        self.recorder = recorder
        self.reps = reps
        self.budget = budget
        self.samples: Dict[str, List[float]] = {}
        self._first_span: Dict[str, int] = {}

    def record(self, name: str, start: float, end: float, sample: bool = True) -> None:
        parent = self._first_span.get(PARENT.get(name, ""))
        index = self.recorder.add(name, start, end, parent, "walk")
        self._first_span.setdefault(name, index)
        if sample:
            self.samples.setdefault(name, []).append(end - start)

    def rounds(self, spent: float, done: int, reps: int, budget: float, floor: int = 5) -> bool:
        """Whether a group should run another round: up to ``reps``, but past
        ``floor`` rounds only while the group's time budget lasts."""
        return done < reps and (done < min(floor, reps) or spent < budget)

    def group(
        self,
        items: Sequence[Tuple[Any, ...]],
        reps: Optional[int] = None,
        budget: Optional[float] = None,
        floor: int = 5,
    ) -> None:
        """Time every item once per round.  An item is ``(name, call)`` or
        ``(name, call, prepare)``; ``prepare`` runs unmeasured before every
        ``call`` (it feeds the call its input)."""
        reps = reps or self.reps
        budget = self.budget if budget is None else budget
        spent, done = 0.0, 0
        while self.rounds(spent, done, reps, budget, floor):
            for name, call, *prepare in items:
                # A short call is measured warm, as it runs inside its parent's
                # loop: the big siblings of the round evict its working set, so
                # after the first round it is called unmeasured a few times first.
                # Long calls stream their own data and need no such call.
                if done and self.samples[name][-1] < WARM_BELOW:
                    for _ in range(WARM_CALLS):
                        for step in prepare:
                            step()
                        call()
                for step in prepare:
                    step()
                begin = time.perf_counter()
                call()
                end = time.perf_counter()
                self.record(name, begin, end)
                spent += end - begin
            done += 1

    def time_setup(self, name: str, call: Callable[[], Any]) -> None:
        """A set-up-sized call (hundreds of MB at paper-110bit): up to three
        repetitions, one when a single call already eats the budget."""
        self.group([(name, call)], reps=min(3, self.reps), budget=self.budget / 3, floor=1)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def self_time(self, parent: str, children: Dict[str, float]) -> float:
        """Median over rounds of ``parent − Σ multiplicity × child`` (same group)."""
        return statistics.median(
            self.samples[parent][r]
            - sum(mult * self.samples[child][r] for child, mult in children.items())
            for r in range(len(self.samples[parent]))
        )


def _workload_rows(inputs: Inputs, count: int) -> list:
    """``count`` scheduler rows of the kind the workload's flushes carry."""
    if inputs.workload.kind != "circuit":
        stream = inputs.stream(1000)
        rows = []
        for _ in range(count):
            _op, fields, (ca, cb), _expected = stream.next()
            rows.append(("gate", fields["gate"], ca, cb))
        return rows
    operands = inputs.batches[0].to_samples()
    rows = []
    nodes = [node for node in inputs.circuit.nodes if node.is_bootstrapped]
    for index in range(count):
        node = nodes[index % len(nodes)]
        picked = tuple(operands[(index + k) % len(operands)] for k in range(len(node.args)))
        if node.op == "lut":
            rows.append(("lut", node.value, picked))
        else:
            rows.append(("gate", node.op, picked[0], picked[1]))
    return rows


def layer_walk(
    inputs: Inputs,
    rows_per_call: int,
    recorder: SpanRecorder,
    reps: int,
    budget: float,
) -> Dict[str, Any]:
    """Replay the workload's batch shape through every layer; see module docs.

    ``rows_per_call`` is the server-reported mean rows per batched
    bootstrapping call (K).  A dispatcher call carries ``K × workers`` rows on
    the pool workload and K rows otherwise (D).  Returns the medians (seconds
    per call), the round-by-round self times and the shapes they were taken at.
    """
    walk = Walk(recorder, reps, budget)
    workload = inputs.workload
    params = inputs.params
    K = max(1, rows_per_call)
    D = K * max(1, workload.workers)

    # -- serialize / context: what set-up pays ------------------------------
    cloud_blob = to_bytes(inputs.cloud)
    walk.time_setup("serialize.cloud_key_decode", lambda: from_bytes(cloud_blob))
    rows_d = _workload_rows(inputs, D)
    contexts: List[FheContext] = []

    def build_context() -> None:
        del contexts[:]
        context = FheContext(from_bytes(cloud_blob))
        execute_rows(context, rows_d[:1])
        contexts.append(context)

    walk.time_setup("context.spectrum_cache_build", build_context)
    context = contexts.pop()
    spectra_bytes = sum(
        int(np.asarray(sample.tensor).nbytes) for sample in context.rotator.bootstrapping_key
    )

    # -- serialize / protocol / gates: what every op pays -------------------
    sample: LweSample = rows_d[0][2] if rows_d[0][0] == "gate" else rows_d[0][2][0]
    sample_blob = to_bytes(sample)
    op_name, fields, artifacts, _expected = inputs.stream(1001).next()
    request_blobs = [to_bytes(artifact) for artifact in artifacts]
    items: List[Tuple[Any, ...]] = []
    circuit_json_bytes = levels_per_circuit = 0
    if workload.kind == "circuit":
        circuit = inputs.circuit
        outputs = sum(len(w) for w in circuit.output_wires.values())
        reply: Any = LweBatch.from_samples([sample] * outputs)
        circuit_text = circuit_to_json(circuit)
        circuit_json_bytes = len(json.dumps(json.loads(circuit_text), separators=(",", ":")))
        levels_per_circuit = schedule_circuit(circuit).depth
        items += [
            ("serialize.circuit_decode", lambda: circuit_from_json(circuit_text)),
            ("executor.schedule", lambda: schedule_circuit(circuit)),
        ]
    else:
        reply = sample
    header = {"op": op_name, "id": 12345, **fields}
    body = pack_parts(request_blobs)
    frame = encode_frame(header, body)
    rng = np.random.default_rng([inputs.seed, 2])
    left, right = socket.socketpair()
    right.settimeout(10.0)
    try:
        walk.group(items + [
            ("serialize.lwe_encode", lambda: to_bytes(sample)),
            ("serialize.lwe_decode", lambda: from_bytes(sample_blob)),
            ("serialize.request_decode", lambda: [from_bytes(b) for b in request_blobs]),
            ("serialize.reply_encode", lambda: to_bytes(reply)),
            ("protocol.frame_encode", lambda: encode_frame(header, body)),
            # one frame is sent, unmeasured, before every read: the two stay paired
            ("protocol.frame_decode", lambda: read_frame(right, MAX_FRAME),
             lambda: left.sendall(frame)),
            ("gates.encrypt", lambda: encrypt_bit(inputs.secret, 1, rng)),
            ("gates.decrypt", lambda: decrypt_bit(inputs.secret, sample)),
        ])
    finally:
        left.close()
        right.close()

    # -- execute_rows and the kernel beneath it, at K rows ------------------
    rows_k = rows_d[:K]
    evaluator = context.batch_evaluator(1)
    mixed = any(row[0] == "lut" for row in rows_k)
    if mixed:
        operand_batches = [
            [LweBatch.from_samples([op]) for op in (row[2] if row[0] == "lut" else row[2:4])]
            for row in rows_k
        ]
        specs = [
            require_lut_spec(row[1], len(row[2])) if row[0] == "lut" else None for row in rows_k
        ]

        def affine() -> LweBatch:
            return lwe_batch_concat(
                [
                    lut_affine_batch(spec, batches)
                    if spec is not None
                    else gate_affine_batch(row[1], batches[0], batches[1])
                    for row, spec, batches in zip(rows_k, specs, operand_batches)
                ]
            )

        def test_vectors() -> np.ndarray:
            return np.stack(
                [
                    lut_test_vector(params, spec)
                    if spec is not None
                    else evaluator.gate_test_vector()
                    for spec in specs
                ]
            )

        def kernel() -> LweBatch:
            return evaluator.bootstrap_rows(affine(), test_vectors())

    else:
        names = [row[1] for row in rows_k]
        ca = LweBatch.from_samples([row[2] for row in rows_k])
        cb = LweBatch.from_samples([row[3] for row in rows_k])

        def affine() -> LweBatch:
            return gate_affine_batch(names[0], ca, cb)

        def test_vectors() -> np.ndarray:
            return evaluator.gate_test_vector()

        def kernel() -> LweBatch:
            return evaluator.gate_rows(names, ca, cb)

    combined = affine()
    vectors = test_vectors()
    barb, bara = modswitch_batch(combined, params.N)

    def accumulator_init():
        return tlwe_batch_rotate(tlwe_batch_trivial(vectors, params.k, K), -barb)

    accumulators = accumulator_init()
    rotator = context.rotator
    rotated = rotator.rotate_batch(accumulators, bara)
    extracted = tlwe_batch_sample_extract(rotated, index=0)
    ksk = context.keyswitch_key
    # one blind-rotation step (the middle key bit) and the product inside it
    steps = [i for i in range(bara.shape[1]) if bara[:, i].any()]
    step = steps[len(steps) // 2]
    bk_step = rotator.bootstrapping_key[step]
    powers = bara[:, step]
    engine, workspace = context.engine, context.workspace
    tgsw_params = bk_step.params
    digits = gadget_decompose_rows(rotated.data, tgsw_params, workspace).copy()
    spectra = engine.forward(digits)
    contracted = engine.spectrum_contract(spectra, bk_step.tensor)
    walk.group(
        [
            ("scheduler.execute_rows", lambda: execute_rows(context, rows_k)),
            ("tfhe.kernel", kernel),
            ("gates.affine", affine),
            ("bootstrap.test_vector", test_vectors),
            ("bootstrap.modswitch", lambda: modswitch_batch(combined, params.N)),
            ("bootstrap.accumulator_init", accumulator_init),
            ("bootstrap.rotate_batch", lambda: rotator.rotate_batch(accumulators, bara)),
            ("bootstrap.sample_extract", lambda: tlwe_batch_sample_extract(rotated, index=0)),
            ("keyswitch.apply", lambda: keyswitch_apply_batch(ksk, extracted)),
            (
                "tgsw.cmux_rotate",
                lambda: tgsw_batch_cmux_rotate(bk_step, rotated, powers, engine, workspace),
            ),
            (
                "tgsw.external_product",
                lambda: tgsw_batch_external_product(bk_step, rotated, engine, workspace),
            ),
            (
                "tgsw.decompose",
                lambda: gadget_decompose_rows(rotated.data, tgsw_params, workspace),
            ),
            ("transform.forward", lambda: engine.forward(digits)),
            ("transform.contract", lambda: engine.spectrum_contract(spectra, bk_step.tensor)),
            ("transform.backward", lambda: engine.backward(contracted)),
        ]
    )
    self_times = {
        "marshal": walk.self_time("scheduler.execute_rows", {"tfhe.kernel": 1}),
        "cmux_rotate": walk.self_time(
            "tgsw.cmux_rotate", {child: 1 for child in TREE["tgsw.cmux_rotate"]}
        ),
    }

    # -- the worker pool (pool workload only): publish and dispatch ----------
    pool = WorkerPool(workload.workers, task_timeout=60.0) if workload.workers else None
    try:
        if pool is not None:
            spent, done = 0.0, 0
            while walk.rounds(spent, done, min(3, reps), budget / 3, floor=1):
                begin = time.perf_counter()
                pool.register_client(f"publish{done}", context)
                end = time.perf_counter()
                walk.record("workers.segment_publish", begin, end)
                pool.deregister_client(f"publish{done}")
                spent += end - begin
                done += 1
            stats = SchedulerStats()
            pool.run_rows("walk-pool", context, rows_d, stats)  # workers attach the segment
            chunk = math.ceil(D / workload.workers)  # the slowest worker's share
            sized = {size: rows_d[:size] for size in {D, chunk}}
            walk.group(
                [("workers.run_rows",
                  lambda: pool.run_rows("walk-pool", context, rows_d, stats))]
                + [
                    (f"scheduler.execute_rows[{size}]",
                     lambda rows=rows: execute_rows(context, rows))
                    for size, rows in sized.items()
                ],
                budget=budget / 2,
            )
            self_times["dispatch"] = walk.self_time(
                "workers.run_rows", {f"scheduler.execute_rows[{chunk}]": 1}
            )
            pool.deregister_client("walk-pool")

        # -- scheduler: submit + flush, through the workload's dispatcher ----
        # As FheServer builds it: telemetry on, every job carrying a trace id.
        dispatcher = _RecordingDispatcher(pool or InlineDispatcher())
        telemetry = Telemetry()
        new_trace_id = telemetry.tracer.new_trace_id
        scheduler = BatchScheduler(
            dispatcher=dispatcher, max_pending_jobs=1024, telemetry=telemetry
        )
        scheduler.register_client("walk", context)
        session = scheduler.session("walk")
        if workload.kind == "circuit":
            bits = inputs.batches[0].to_samples()
            words, cursor = {}, 0
            for name, wires in circuit.input_wires.items():
                words[name] = bits[cursor : cursor + len(wires)]
                cursor += len(wires)
            jobs = [lambda: session.submit_circuit(circuit, words, trace_id=new_trace_id())]
        else:
            jobs = [
                lambda name=name, a=a, b=b: session.submit_gate(
                    name, a, b, trace_id=new_trace_id()
                )
                for _kind, name, a, b in rows_d
            ]
        flush_rows = 0
        spent, done = 0.0, 0
        while walk.rounds(spent, done, reps, budget / 3):
            del dispatcher.calls[:]
            for submit in jobs:
                begin = time.perf_counter()
                submit()
                walk.record("scheduler.submit", begin, time.perf_counter())
            begin = time.perf_counter()
            flush_rows = scheduler.flush()
            end = time.perf_counter()
            walk.record("scheduler.flush", begin, end)
            for call_begin, call_end in dispatcher.calls:
                walk.record("dispatch.run_rows", call_begin, call_end, sample=False)
            # one sample per flush: a circuit's levels are summed
            walk.samples.setdefault("dispatch.run_rows", []).append(
                sum(e - b for b, e in dispatcher.calls)
            )
            spent += end - begin
            done += 1
        self_times["flush"] = walk.self_time("scheduler.flush", {"dispatch.run_rows": 1})
        scheduler.deregister_client("walk")
    finally:
        if pool is not None:
            pool.close()

    return {
        "median": {name: walk.median(name) for name in walk.samples},
        "count": {name: len(values) for name, values in walk.samples.items()},
        "self": self_times,
        "K": K,
        "D": D,
        "flush_rows": flush_rows,
        "steps": len(steps),
        "digit_polys": int(np.prod(digits.shape[:-1])),
        "spectrum_polys": int(np.prod(np.asarray(contracted).shape[:-1])),
        "spectra_bytes": spectra_bytes,
        "cloud_key_bytes": len(cloud_blob),
        "lwe_sample_bytes": len(sample_blob),
        "circuit_json_bytes": circuit_json_bytes,
        "frame_overhead_bytes": len(frame) - len(body),
        "levels_per_circuit": levels_per_circuit,
    }
