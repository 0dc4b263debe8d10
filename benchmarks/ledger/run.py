#!/usr/bin/env python3
"""The ledger: a wire-to-wire, per-layer benchmark of the serving stack.

    python3 benchmarks/ledger/run.py --workload gate_stream_small --seed 1 \\
        --seconds 30 --trace 0        # the end-to-end metrics
    python3 benchmarks/ledger/run.py --workload gate_stream_small --seed 1 \\
        --seconds 30 --trace 1        # the per-layer metrics (traced run)
    python3 benchmarks/ledger/run.py --smoke

One run generates keys and inputs from ``--seed``, drives a real server child
in a closed loop, decrypts and checks every reply, prints every metric by
name with its unit, as measured, and ends with one JSON line: ``correct``,
``attempted``, ``failed``, ``metrics``.  Names, units and bounds live in
``BENCHMARK.json``; see ``README.md`` beside this file for what each metric
means and should move.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import pathlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: {ROOT / 'src' / 'repro'} is missing; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
from layers import attribute, layer_walk  # noqa: E402
from loadgen import (  # noqa: E402
    ClosedLoop,
    Op,
    ServerProcess,
    SpanRecorder,
    open_loop_connections,
    run_setup_cycles,
    cpu_seconds,
    peak_rss_mib,
    process_tree,
    server_counters,
)
from workloads import WORKLOADS, Inputs, Workload  # noqa: E402

from repro.runtime.server import FheServer  # noqa: E402

OUT = HERE / "out"
SLICES = 20  # the measured window is cut into this many consecutive slices


@dataclass(frozen=True)
class Plan:
    """How long each phase of a run lasts (``--smoke`` shrinks all of them)."""

    seconds: float
    warmup: float = 3.0
    setup_cycles: int = 5
    walk_reps: int = 30
    walk_budget: float = 2.5  # seconds one round-robin group of the walk may take


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(sorted_values: Sequence[float], q: float) -> float:
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def verdict(ops: Sequence[Op]) -> Tuple[int, int, List[str]]:
    failed = [op for op in ops if not op.ok]
    return len(ops), len(failed), sorted({op.error or "wrong" for op in failed})[:5]


@contextmanager
def closed_loop(server: ServerProcess, inputs: Inputs) -> Iterator[ClosedLoop]:
    """The workload's connections on ``server`` with ``gc`` off; stops the server after."""
    loop: Optional[ClosedLoop] = None
    try:
        loop = open_loop_connections(server, inputs)
        gc.collect()
        gc.disable()
        yield loop
    finally:
        gc.enable()
        if loop is not None:
            loop.close()
        server.stop()


# --------------------------------------------------------------------------- #
# the end-to-end run                                                          #
# --------------------------------------------------------------------------- #


def calm_decile(values: Sequence[float], better: str) -> float:
    """The decile of the slices' values on the ``better`` side.

    Neighbours on the host only ever slow a slice down (README finding 1), and
    they do so for seconds at a time, so the median slice flips between a calm
    and a disturbed reading from run to run while the calm decile moves less.
    """
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[0] if better == "lower" else deciles[-1]


def run_end_to_end(workload: Workload, seed: int, plan: Plan) -> Dict[str, Any]:
    generator_cpus, server_cpus = machine.plan_pinning(pool=workload.workers > 0)
    if generator_cpus:
        os.sched_setaffinity(0, generator_cpus)
    calib_before = machine.calib_fft_ms()
    inputs = Inputs(workload, seed)
    cycles, server = run_setup_cycles(inputs, server_cpus, plan.setup_cycles)
    with closed_loop(server, inputs) as loop:
        warm = loop.run(seconds=plan.warmup)
        pids = process_tree(server.pid)  # pool workers are forked at launch
        idle_before = loop.wait_seconds
        window_start = mark = time.perf_counter()
        cpu_mark = cpu_seconds(pids)
        # The window is SLICES consecutive loop.run() calls; each returns right
        # after the first reply past its deadline, requests stay in flight.  The
        # deadlines are fixed from the window's start, so overshoots do not add up.
        slices: List[Tuple[float, float, List[Op]]] = []  # elapsed s, server CPU s, ops
        for index in range(SLICES):
            deadline = window_start + (index + 1) * plan.seconds / SLICES
            done = loop.run(seconds=max(0.0, deadline - time.perf_counter()))
            now, cpu_now = time.perf_counter(), cpu_seconds(pids)
            slices.append((now - mark, cpu_now - cpu_mark, done))
            mark, cpu_mark = now, cpu_now
        window = mark - window_start
        idle_share = (loop.wait_seconds - idle_before) / window
        peak_rss = peak_rss_mib(pids)
        tail = loop.drain()
    calib_after = machine.calib_fft_ms()
    os.sched_setaffinity(0, machine.ALL_CPUS)

    ops = [op for _, _, done in slices for op in done]
    attempted, failed, errors = verdict(warm + ops + tail)
    good = [op for op in ops if op.ok]
    if not good:
        raise RuntimeError(f"no correct op completed in the window (errors: {errors})")
    bpo = inputs.bootstraps_per_op
    latencies = sorted(op.latency for op in good)
    per_slice = []  # seconds, server CPU seconds, bootstraps, median latency
    for elapsed, cpu, done in slices:
        ok = [op.latency for op in done if op.ok]
        if ok:
            per_slice.append((elapsed, cpu, len(ok) * bpo, statistics.median(ok)))
    metrics = {
        "latency_p50_ms": calm_decile([latency * 1e3 for *_, latency in per_slice], "lower"),
        "bootstraps_per_s": calm_decile(
            [count / elapsed for elapsed, _, count, _ in per_slice], "higher"
        ),
        "server_cpu_ms_per_bootstrap": calm_decile(
            [cpu * 1e3 / count for _, cpu, count, _ in per_slice], "lower"
        ),
        "wire_bytes_per_op": sum(op.bytes for op in good) / len(good),
        "server_peak_rss_mb": peak_rss,
        "setup_s": statistics.median(cycles),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "detail": {
            "setup_cycles_s": cycles,
            "window_ops": len(good),
            "window_s": window,
            "whole_window": {  # the same three quantities over the window as a whole
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "bootstraps_per_s": len(good) * bpo / window,
                "server_cpu_ms_per_bootstrap": sum(cpu for _, cpu, _ in slices) * 1e3
                / (len(good) * bpo),
            },
            "slices": [
                {"seconds": elapsed, "server_cpu_s": cpu, "bootstraps": count,
                 "latency_p50_ms": latency * 1e3}
                for elapsed, cpu, count, latency in per_slice
            ],
            "generator_idle_share": idle_share,
            "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
            "pinning": {"generator": generator_cpus, "server": server_cpus},
            "calib_fft_ms": {"before": calib_before, "after": calib_after},
        },
    }


# --------------------------------------------------------------------------- #
# the traced run                                                              #
# --------------------------------------------------------------------------- #


def run_traced(workload: Workload, seed: int, plan: Plan) -> Dict[str, Any]:
    generator_cpus, server_cpus = machine.plan_pinning(pool=workload.workers > 0)
    if generator_cpus:
        os.sched_setaffinity(0, generator_cpus)
    calib_before = machine.calib_fft_ms()
    inputs = Inputs(workload, seed)
    recorder = SpanRecorder()
    phases: Dict[bool, List[Tuple[float, List[Op]]]] = {False: [], True: []}
    server = ServerProcess(workload.workers, server_cpus)
    with closed_loop(server, inputs) as loop:
        loop.recorder = recorder
        warm = loop.run(seconds=min(plan.warmup, 2.0))
        before = server_counters(server)
        bracket_start = time.perf_counter()
        # (a) the wire loop for half of --seconds, tracing off and on in alternating eighths
        for index in range(8):
            loop.tracing = bool(index % 2)
            begin = time.perf_counter()
            done = loop.run(seconds=plan.seconds / 16)
            phases[loop.tracing].append((time.perf_counter() - begin, done))
        loop.tracing = False
        bracket = time.perf_counter() - bracket_start
        after = server_counters(server)
        tail = loop.drain()
    calib_after = machine.calib_fft_ms()

    wire_ops = [op for traced in phases for _, done in phases[traced] for op in done]
    attempted, failed, errors = verdict(warm + wire_ops + tail)
    rate = {
        traced: sum(len(done) for _, done in phases[traced])
        / sum(elapsed for elapsed, _ in phases[traced])
        for traced in phases
    }
    wire_per_op = 1.0 / rate[True]  # seconds of wall time per op while tracing
    # In a closed loop the rate is the outstanding count over the latency, so the
    # slowdown from tracing is read off the median latencies of traced and
    # untraced ops, which a stall in one eighth of the loop does not move.
    latency_of: Dict[bool, List[float]] = {False: [], True: []}
    for op in wire_ops:
        if op.ok:
            latency_of[op.span is not None].append(op.latency)
    if not latency_of[True] or not latency_of[False]:
        raise RuntimeError(f"the wire loop completed no correct op (errors: {errors})")
    median_latency = {traced: statistics.median(v) for traced, v in latency_of.items()}

    bpo = inputs.bootstraps_per_op
    rows = after["rows"] - before["rows"]
    flushes = after["flushes"] - before["flushes"]
    calls = after["batched_calls"] - before["batched_calls"]
    server_ops = rows / bpo
    busy_per_op = (after["busy_seconds"] - before["busy_seconds"]) / server_ops
    rows_per_call = max(1, round(rows / calls)) if calls else 1

    # (b) the layer walk, in this process, with every CPU available again
    os.sched_setaffinity(0, machine.ALL_CPUS)
    walk = layer_walk(inputs, rows_per_call, recorder, plan.walk_reps, plan.walk_budget)
    t = walk["median"]
    K, D = walk["K"], walk["D"]
    us = 1e6

    generator = {  # measured in the traced loop, seconds per op
        "serialize": (recorder.total("serialize.encode") + recorder.total("serialize.decode")),
        "protocol": recorder.total("protocol.send") + recorder.total("protocol.recv"),
        "gates": recorder.total("gates.decrypt"),
    }
    traced_count = recorder.count("op")
    generator = {layer: total / traced_count for layer, total in generator.items()}

    # Server-side self time per bootstrapped row (seconds of wall time), all
    # from the walk's own replay: one execute_rows call of K rows split top down
    # over the call tree, plus the scheduler's (and, through the pool, the
    # dispatcher's) own time around it.
    parallel = D / K  # rows a dispatcher call runs side by side (pool workers)
    per_call: Dict[str, float] = {}
    attribute(
        "scheduler.execute_rows", t["scheduler.execute_rows"], t,
        {"tgsw.cmux_rotate": walk["steps"]}, per_call,
    )
    per_row = {layer: seconds / K / parallel for layer, seconds in per_call.items()}
    per_row["scheduler"] += max(0.0, walk["self"]["flush"]) / walk["flush_rows"]
    if workload.workers:
        per_row["workers"] = max(0.0, walk["self"]["dispatch"]) / D
    # runtime.server sleeps one coalescing window before every flush.
    window = inspect.signature(FheServer.__init__).parameters["flush_interval"].default
    per_op_fixed = {  # server-side work paid once per op, outside the flush
        "server": window * flushes / server_ops,
        "protocol": t["protocol.frame_decode"] + t["protocol.frame_encode"],
        "serialize": t["serialize.request_decode"] + t["serialize.reply_encode"]
        + t.get("serialize.circuit_decode", 0.0),
        "scheduler": t["scheduler.submit"],
        "executor": t.get("executor.schedule", 0.0),
    }
    layers: Dict[str, float] = {}
    for source, scale in ((generator, 1), (per_op_fixed, 1), (per_row, bpo)):
        for layer, seconds in source.items():
            layers[layer] = layers.get(layer, 0.0) + seconds * scale
    attributed = sum(layers.values())
    kernel = sum(layers.get(name, 0.0) for name in ("bootstrap", "tgsw", "transform", "keyswitch"))
    generator_per_op = sum(generator.values())
    walk_flush_per_op = sum(per_row.values()) * bpo
    residual = wire_per_op - generator_per_op - busy_per_op
    unattributed = 1.0 - attributed / wire_per_op
    # Two places the walk can miss time the wire loop spent: the server's flush
    # ran longer than the walk's replay of it, or time passed outside the
    # generator's spans and the server's flushes that no standalone call covers.
    gaps = {
        "the server's measured flush time beyond the walk's replay of a flush":
            busy_per_op - walk_flush_per_op,
        "time outside generator spans and server flushes (event loop, idle) beyond the "
        "coalescing window and the walk's frame/decode/submit/encode calls":
            residual - sum(per_op_fixed.values()),
    }

    latencies = sorted(op.latency for op in wire_ops if op.ok)
    tail_q = min(0.95, 1.0 - 10.0 / len(latencies)) if len(latencies) > 10 else 0.5
    metrics = {
        "serialize.lwe_encode_us": t["serialize.lwe_encode"] * us,
        "serialize.lwe_decode_us": t["serialize.lwe_decode"] * us,
        "serialize.lwe_sample_bytes": walk["lwe_sample_bytes"],
        "serialize.circuit_json_bytes": walk["circuit_json_bytes"],
        "serialize.circuit_decode_us": t.get("serialize.circuit_decode", 0.0) * us,
        "serialize.cloud_key_decode_s": t["serialize.cloud_key_decode"],
        "serialize.cloud_key_bytes": walk["cloud_key_bytes"],
        "protocol.frame_encode_us": t["protocol.frame_encode"] * us,
        "protocol.frame_decode_us": t["protocol.frame_decode"] * us,
        "protocol.frame_overhead_bytes": walk["frame_overhead_bytes"],
        "protocol.client_latency_p95_ms": percentile(latencies, tail_q) * 1e3,
        "gates.encrypt_us": t["gates.encrypt"] * us,
        "gates.decrypt_us": t["gates.decrypt"] * us,
        "gates.affine_us_per_row": t["gates.affine"] / K * us,
        "server.rows_per_flush_mean": rows / flushes,
        "server.flushes_per_op": flushes / server_ops,
        "server.flush_busy_share": (after["busy_seconds"] - before["busy_seconds"]) / bracket,
        "server.residual_us_per_op": residual * us,
        "scheduler.submit_us_per_job": t["scheduler.submit"] * us,
        "scheduler.flush_self_us_per_row": walk["self"]["flush"] / walk["flush_rows"] * us,
        "scheduler.marshal_us_per_row": walk["self"]["marshal"] / K * us,
        "executor.schedule_us": t.get("executor.schedule", 0.0) * us,
        "executor.levels_per_circuit": walk["levels_per_circuit"],
        "workers.dispatch_overhead_us_per_row": walk["self"].get("dispatch", 0.0) / D * us,
        "workers.speedup_vs_inline": (
            t[f"scheduler.execute_rows[{D}]"] / t["workers.run_rows"] if workload.workers else 0.0
        ),
        "workers.segment_publish_s": t.get("workers.segment_publish", 0.0),
        "workers.tasks_retried": after["tasks_retried"] - before["tasks_retried"],
        "bootstrap.modswitch_us_per_row": t["bootstrap.modswitch"] / K * us,
        "bootstrap.blind_rotate_ms_per_row": (
            t["bootstrap.rotate_batch"] + t["bootstrap.sample_extract"]
        ) / K * 1e3,
        "bootstrap.test_vector_us_per_row": t["bootstrap.test_vector"] / K * us,
        "tgsw.external_product_us_per_row": t["tgsw.external_product"] / K * us,
        "tgsw.decompose_us_per_row": t["tgsw.decompose"] / K * us,
        "tgsw.rotate_self_us_per_row": walk["self"]["cmux_rotate"] / K * us,
        "transform.forward_us_per_poly": t["transform.forward"] / walk["digit_polys"] * us,
        "transform.backward_us_per_poly": t["transform.backward"] / walk["spectrum_polys"] * us,
        "transform.contract_us_per_row": t["transform.contract"] / K * us,
        "transform.forward_calls_per_bootstrap": (
            after["forward_calls"] - before["forward_calls"]
        ) / rows,
        "transform.backward_calls_per_bootstrap": (
            after["backward_calls"] - before["backward_calls"]
        ) / rows,
        "keyswitch.apply_us_per_row": t["keyswitch.apply"] / K * us,
        "context.spectrum_cache_build_s": t["context.spectrum_cache_build"],
        "context.spectra_bytes": walk["spectra_bytes"],
        "machine.calib_fft_ms": (calib_before + calib_after) / 2,
        "trace.unattributed_share": unattributed,
        "trace.overhead_share": 1.0 - median_latency[False] / median_latency[True],
    }

    # reconciliation: what the layers add up to against what the wire loop saw
    print(f"reconciliation {workload.name}: wire loop {wire_per_op * us:.1f} us/op "
          f"(traced), {K} rows per bootstrapping call, {bpo} bootstraps per op")
    print(f"  {'layer':<10} {'self us/op':>12}  of wire time  of the sum")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"  {layer:<10} {seconds * us:>12.1f}  {seconds / wire_per_op:>12.1%}"
              f"  {seconds / attributed:>10.1%}")
    print(f"  {'sum':<10} {attributed * us:>12.1f}  {attributed / wire_per_op:>12.1%}")
    print(f"  kernel (bootstrap + tgsw + transform + keyswitch): {kernel / wire_per_op:.1%} "
          f"of the wire time per op, {kernel / attributed:.1%} of the layers' sum")
    print(f"  the walk replays a flush in {walk_flush_per_op * us:.1f} us/op; the server "
          f"measured {busy_per_op * us:.1f} us/op (x{busy_per_op / walk_flush_per_op:.2f}); "
          f"generator {generator_per_op * us:.1f} us/op; residual {residual * us:.1f} us/op")
    if unattributed > 0.15:
        where, seconds = max(gaps.items(), key=lambda item: item[1])
        print(f"WARNING: {unattributed:.1%} of the per-op time is not attributed to a layer; "
              f"largest gap: {where} ({seconds * us:.1f} us/op)")

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{workload.name}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "spans": recorder.to_json()})
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "detail": {
            "wire_us_per_op": wire_per_op * us,
            "layer_us_per_op": {layer: seconds * us for layer, seconds in layers.items()},
            "kernel_share_of_wire_time": kernel / wire_per_op,
            "kernel_share_of_layer_sum": kernel / attributed,
            "flush_busy_us_per_op": busy_per_op * us,
            "walk_flush_us_per_op": walk_flush_per_op * us,
            "server_flush_over_walk_flush": busy_per_op / walk_flush_per_op,
            "latency_tail_percentile": tail_q,
            "rows_per_call": K,
            "rows_per_dispatch": D,
            "walk_repetitions": walk["count"],
            "pinning": {"generator": generator_cpus, "server": server_cpus},
            "calib_fft_ms": {"before": calib_before, "after": calib_after},
        },
    }


# --------------------------------------------------------------------------- #
# output                                                                      #
# --------------------------------------------------------------------------- #


def report(workload: Workload, seed: int, traced: bool, result: Dict[str, Any]) -> Dict[str, Any]:
    """Print every metric with its unit and return the contract's JSON object."""
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    detail = result["detail"]
    print(f"workload {workload.name}  seed {seed}  trace {int(traced)}  "
          f"pinning generator={detail['pinning']['generator']} "
          f"server={detail['pinning']['server']}")
    print(f"machine.calib_fft_ms before {detail['calib_fft_ms']['before']:.3f} "
          f"after {detail['calib_fft_ms']['after']:.3f}")
    whole = detail.get("whole_window", {})
    for name, unit in units.items():
        print(f"  {name:<42} {result['metrics'][name]:>16.4f} {unit}"
              + (f"   (whole window: {whole[name]:.4f})" if name in whole else ""))
    ok = result["attempted"] - result["failed"]
    print(f"ops attempted {result['attempted']}  ok {ok}  failed {result['failed']}"
          + (f"  errors {result['errors']}" if result["errors"] else ""))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{workload.name}_trace{int(traced)}_seed{seed}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "trace": int(traced),
                    "machine": machine.fingerprint(), **line, "detail": detail}, indent=2)
    )
    return line


# --------------------------------------------------------------------------- #
# --smoke                                                                     #
# --------------------------------------------------------------------------- #


def wire_total(inputs: Inputs, server: ServerProcess, ops_per_connection: int) -> Tuple[int, List[Op]]:
    """Bytes on the wire for the first ``ops_per_connection`` ops of each stream."""
    loop = open_loop_connections(server, inputs)
    try:
        ops = loop.run(ops_per_connection=ops_per_connection)
        return sum(op.bytes for op in ops), ops
    finally:
        loop.close()


def smoke() -> int:
    """Every workload's mechanics at test-tiny for 2 s; see README "Smoke"."""
    plan = Plan(seconds=2.0, warmup=0.3, setup_cycles=1, walk_reps=3, walk_budget=0.05)
    seed = 7
    begin = time.perf_counter()
    for workload in WORKLOADS.values():
        tiny = replace(workload, params="test-tiny")
        line = report(tiny, seed, False, run_end_to_end(tiny, seed, plan))
        traced = report(tiny, seed, True, run_traced(tiny, seed, plan))
        if not (line["correct"] and traced["correct"]):
            print(f"SMOKE FAILED: {workload.name} had failed ops")
            return 1
        # two runs of one seed put byte-identical totals on the wire
        inputs = Inputs(tiny, seed)
        per_connection = 200 // tiny.connections if tiny.kind != "circuit" else 10
        server = ServerProcess(tiny.workers, None)
        try:
            first, ops_a = wire_total(inputs, server, per_connection)
            second, ops_b = wire_total(inputs, server, per_connection)  # fresh streams
        finally:
            server.stop()
        if first != second or any(not op.ok for op in ops_a + ops_b):
            print(f"SMOKE FAILED: {workload.name} wire totals {first} vs {second}")
            return 1
        print(f"smoke {workload.name}: {len(ops_a)} ops, {first} bytes on the wire, twice")
    elapsed = time.perf_counter() - begin
    print(f"smoke ok in {elapsed:.1f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    workload = WORKLOADS[args.workload]
    plan = Plan(seconds=seconds)
    run = run_traced if args.trace else run_end_to_end
    line = report(workload, args.seed, bool(args.trace), run(workload, args.seed, plan))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
