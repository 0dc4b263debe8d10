"""Programmable bootstrapping: radix digit-LUT arithmetic vs boolean gates.

Programmable test vectors replace the boolean-only bootstrap contract:
a 16-bit multiply evaluated as radix-2^2 digits
(:class:`repro.tfhe.integers.RadixEvaluator` — one batched partial-product
lookup, carry propagation as lookups, linear digit ops free) against the
best boolean lowering this repo has (traced ``a * b``, optimized with the
LUT pipeline, executed level-parallel by
:class:`repro.tfhe.executor.CircuitExecutor`).

Both paths run under the same cloud key, engine and parameter set, and both
results are decrypted and checked against the plaintext product before any
number is reported.  The win is measured twice:

* **structurally** — bootstraps per multiply (the paper's unit of cost):
  the boolean circuit pays one blind rotation per live gate, the radix
  evaluator one per digit-LUT row;
* **end-to-end** — wall-clock per multiply, reported as effective
  bootstraps/sec (boolean-path bootstraps divided by wall time, so the
  radix entry's speedup is exactly its wall-clock win).

Acceptance gate: >= 3x fewer bootstraps on the 16-bit multiply (override
with ``PBS_BOOTSTRAP_REDUCTION_MIN``) and a wall-clock win >= the
``PBS_SPEEDUP_MIN`` floor (default 1.2x; CI shared runners are
timing-noisy).  The floor is the measured ratio rounded down: the radix
multiply is 112 bootstraps as before, but the boolean baseline it is
compared with is 359 since ``lutify`` covers the netlist (593 with the
greedy per-root pass, when the ratio read 5.3x and the floor 5x) — the
baseline got better, the radix path did not get worse.  Results land in
``results/pbs.txt`` and schema-consistent
``results/BENCH_pbs.json`` (see ``tools/bench.py``).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_programmable_bootstrap.py -q -s
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.compiler import FheUint, PassManager, trace
from repro.compiler.passes import LUT_PIPELINE, live_gate_count
from repro.runtime.context import FheContext
from repro.tfhe.circuits import decrypt_integer, encrypt_integer
from repro.tfhe.executor import CircuitExecutor, schedule_circuit
from repro.tfhe.integers import RadixEvaluator, decrypt_radix, encrypt_radix
from repro.tfhe.params import TEST_PBS, DigitEncoding
from repro.tfhe.transform import DoubleFFTNegacyclicTransform
from repro.utils.benchio import make_entry, write_bench_json

WIDTHS = (8, 16)
ENCODING = DigitEncoding(message_bits=2, carry_bits=2)
BEST_OF = 2
#: The 16-bit operand pair timed for the headline numbers.
OPERANDS = {8: (201, 173), 16: (51_213, 47_900)}


def run(record_result=None):
    """Multiply under both lowerings; verify, count bootstraps, time."""
    params = TEST_PBS
    engine = DoubleFFTNegacyclicTransform(params.N)
    rng = np.random.default_rng(99)
    secret, context = FheContext.generate(params, transform=engine, rng=rng)
    _ = context.rotator  # warm the spectrum cache for both measured paths

    entries = []
    extra = {"encoding": f"{ENCODING.message_bits}+{ENCODING.carry_bits}-bit digits"}
    lines = [
        "Programmable bootstrapping: radix digit-LUT multiply vs optimized "
        f"boolean circuit, double-FFT engine, {params.name} "
        f"(n={params.n}, N={params.N}), {ENCODING.message_bits}+"
        f"{ENCODING.carry_bits}-bit digits",
        "",
        f"{'width':>6} {'path':>8} {'bootstraps':>11} {'seconds':>8} "
        f"{'eff bs/s':>10}",
    ]

    for width in WIDTHS:
        a_val, b_val = OPERANDS[width]
        expected = (a_val * b_val) % (1 << width)

        # -- boolean baseline: traced a*b through the LUT pipeline ----------
        circuit = trace(
            lambda a, b: a * b, FheUint(width, "a"), FheUint(width, "b")
        )
        optimized = PassManager(passes=LUT_PIPELINE, verify=True, trials=8).run(
            circuit
        )
        schedule = schedule_circuit(optimized)
        enc_a = encrypt_integer(secret, a_val, width, rng=rng)
        enc_b = encrypt_integer(secret, b_val, width, rng=rng)
        executor = CircuitExecutor.for_context(context, batch_size=1)
        bool_seconds = float("inf")
        for _ in range(BEST_OF):
            before = executor.evaluator.counters.bootstraps
            start = time.perf_counter()
            out = executor.run_samples(
                optimized, {"a": enc_a, "b": enc_b}, schedule=schedule
            )
            bool_seconds = min(bool_seconds, time.perf_counter() - start)
            bool_bootstraps = executor.evaluator.counters.bootstraps - before
        got = decrypt_integer(secret, out["out"])
        assert got == expected, f"boolean mul{width} decrypted to {got}, want {expected}"

        # -- radix digit-LUT path -------------------------------------------
        evaluator = RadixEvaluator(context, ENCODING)
        digits = width // ENCODING.message_bits
        x = encrypt_radix(secret.lwe_key, a_val, digits, ENCODING, rng=rng)
        y = encrypt_radix(secret.lwe_key, b_val, digits, ENCODING, rng=rng)
        radix_seconds = float("inf")
        for _ in range(BEST_OF):
            before = evaluator.counters.bootstraps
            start = time.perf_counter()
            product = evaluator.mul(x, y)
            radix_seconds = min(radix_seconds, time.perf_counter() - start)
            radix_bootstraps = evaluator.counters.bootstraps - before
        got = decrypt_radix(secret.lwe_key, product)
        assert got == expected, f"radix mul{width} decrypted to {got}, want {expected}"

        # Effective throughput: boolean-path bootstraps (the useful work of
        # one multiply, priced in the baseline's own unit) per second.
        bool_bs = bool_bootstraps / bool_seconds
        radix_bs = bool_bootstraps / radix_seconds
        reduction = bool_bootstraps / radix_bootstraps
        entries.append(
            make_entry(
                label=f"radix_vs_boolean_mul{width}",
                engine="double",
                params=params.name,
                batch_width=1,
                bootstraps_per_sec=radix_bs,
                baseline_bootstraps_per_sec=bool_bs,
            )
        )
        extra[f"mul{width}"] = {
            "boolean_gates_optimized": live_gate_count(optimized),
            "boolean_bootstraps": bool_bootstraps,
            "radix_bootstraps": radix_bootstraps,
            "bootstrap_reduction": reduction,
            "boolean_seconds": bool_seconds,
            "radix_seconds": radix_seconds,
        }
        lines.append(
            f"{width:>6} {'boolean':>8} {bool_bootstraps:>11} "
            f"{bool_seconds:>8.3f} {bool_bs:>10.1f}"
        )
        lines.append(
            f"{width:>6} {'radix':>8} {radix_bootstraps:>11} "
            f"{radix_seconds:>8.3f} {radix_bs:>10.1f}"
        )
        lines.append(
            f"{'':>6} {'':>8} -> {reduction:.1f}x fewer bootstraps, "
            f"{bool_seconds / radix_seconds:.2f}x wall-clock"
        )

    lines += [
        "",
        "boolean = traced a*b, LUT-pipeline optimized, level-parallel "
        "executor; radix = digit-LUT multiply (one batched partial-product "
        "lookup + carry sweeps); both decrypted and checked against the "
        f"plaintext product before timing; best-of-{BEST_OF} timings.",
    ]
    if record_result is not None:
        record_result("pbs", "\n".join(lines))
    else:
        print("\n".join(lines))

    path = write_bench_json("pbs", entries, extra=extra)
    print(f"[written to {path}]")
    return entries, extra


def test_programmable_bootstrap_reduction_and_speedup(record_result):
    entries, extra = run(record_result)
    reduction_floor = float(os.environ.get("PBS_BOOTSTRAP_REDUCTION_MIN", "3.0"))
    speedup_floor = float(os.environ.get("PBS_SPEEDUP_MIN", "1.2"))
    detail = extra["mul16"]
    assert detail["bootstrap_reduction"] >= reduction_floor, (
        f"radix 16-bit multiply needs {detail['radix_bootstraps']} bootstraps "
        f"vs {detail['boolean_bootstraps']} boolean — only "
        f"{detail['bootstrap_reduction']:.1f}x (required {reduction_floor}x)"
    )
    entry = next(e for e in entries if e["label"] == "radix_vs_boolean_mul16")
    assert entry["speedup"] >= speedup_floor, (
        f"radix 16-bit multiply is only {entry['speedup']:.2f}x the boolean "
        f"wall-clock (required {speedup_floor}x)"
    )
