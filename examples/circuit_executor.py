"""Level-parallel encrypted circuits: the netlist executor end to end.

A circuit's independent gates can share one batched bootstrapping; the
netlist subsystem recovers the parallelism the dependency structure allows.
This demo:

1. builds the ripple-carry adder and the maximum circuit as
   :class:`repro.tfhe.netlist.Circuit` netlists,
2. buckets their levels with :func:`repro.tfhe.executor.schedule_circuit`
   and prints the gates-per-level profile (the paper's solve-dependencies
   flow, applied to whole circuits),
3. runs them over a batch of encrypted words with
   :class:`repro.tfhe.executor.CircuitExecutor` — one mixed-gate batched
   bootstrapping per dependency level, where one call per gate would take
   ``schedule.gate_count`` — and checks every word decrypts right.

Run:  PYTHONPATH=src python examples/circuit_executor.py [--width 8] [--batch 16]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import TEST_TINY, BatchGateEvaluator, CircuitExecutor, generate_keys
from repro.tfhe.circuits import decrypt_integers, encrypt_integers
from repro.tfhe.executor import schedule_circuit
from repro.tfhe.netlist import adder_netlist, maximum_netlist
from repro.tfhe.transform import DoubleFFTNegacyclicTransform


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=8, help="operand width in bits")
    parser.add_argument("--batch", type=int, default=16, help="words per run")
    args = parser.parse_args()
    width, batch = args.width, args.batch

    params = TEST_TINY
    transform = DoubleFFTNegacyclicTransform(params.N)
    secret, cloud = generate_keys(params, transform, rng=1)
    print(f"Parameter set : {params.describe()}")
    print(f"Circuit width : {width} bits   word batch: {batch}")

    rng = np.random.default_rng(2)
    mask = (1 << width) - 1
    a_vals = [int(v) for v in rng.integers(0, mask + 1, batch)]
    b_vals = [int(v) for v in rng.integers(0, mask + 1, batch)]
    inputs = {
        "a": encrypt_integers(secret, a_vals, width, rng=3),
        "b": encrypt_integers(secret, b_vals, width, rng=4),
    }

    for circuit, output, expect in (
        (adder_netlist(width), "sum", [x + y for x, y in zip(a_vals, b_vals)]),
        (maximum_netlist(width), "max", [max(x, y) for x, y in zip(a_vals, b_vals)]),
    ):
        schedule = schedule_circuit(circuit)
        print(
            f"\n{circuit.name}: {schedule.gate_count} bootstrapped gates in "
            f"{schedule.depth} levels (mean width {schedule.mean_width:.2f}, "
            f"max {schedule.max_width})"
        )

        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=batch))
        start = time.perf_counter()
        levelized = executor.run(circuit, inputs, schedule=schedule)[output]
        level_s = time.perf_counter() - start

        results = decrypt_integers(secret, levelized)
        print(
            f"  {executor.level_calls} batched calls for {schedule.gate_count} gates "
            f"x {batch} words in {level_s:6.2f} s"
        )
        print(f"  decrypts correctly: {results == expect}")
        assert executor.level_calls == schedule.depth and results == expect


if __name__ == "__main__":
    main()
