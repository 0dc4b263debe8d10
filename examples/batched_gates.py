"""Batched encrypted logic: many gates per bootstrapping pass.

The server-side cost of a TFHE gate is one bootstrapping; in pure Python a
single bootstrapping is dominated by NumPy dispatch overhead, not arithmetic.
The :class:`repro.tfhe.gates.BatchGateEvaluator` evaluates one gate over a
whole *batch* of independent ciphertext pairs at once — every step of
Algorithm 1 (rounding, blind rotation, extraction, key switch) runs as a
single vectorised pass over the batch, so the overhead is paid once per batch
instead of once per ciphertext.  The outputs are bit-identical to evaluating
the gates one at a time.

The demo NANDs ``batch`` ciphertext pairs both ways, checks the results
agree, then adds two vectors of encrypted integers with the ripple-carry
adder netlist run by :class:`repro.tfhe.executor.CircuitExecutor` — one row
per word, one batched call per dependency level.

Run:  PYTHONPATH=src python examples/batched_gates.py [--batch 64]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import (
    TEST_TINY,
    BatchGateEvaluator,
    CircuitExecutor,
    TFHEGateEvaluator,
    generate_keys,
)
from repro.tfhe.circuits import decrypt_integers, encrypt_integers
from repro.tfhe.gates import decrypt_bit_batch, encrypt_bit_batch
from repro.tfhe.netlist import adder_netlist
from repro.tfhe.transform import DoubleFFTNegacyclicTransform


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=64, help="batch width (default 64)")
    args = parser.parse_args()
    batch = args.batch

    params = TEST_TINY
    transform = DoubleFFTNegacyclicTransform(params.N)
    secret, cloud = generate_keys(params, transform, rng=1)
    print(f"Parameter set : {params.describe()}")
    print(f"Batch width   : {batch}")

    rng = np.random.default_rng(2)
    lhs_bits = [int(b) for b in rng.integers(0, 2, batch)]
    rhs_bits = [int(b) for b in rng.integers(0, 2, batch)]
    lhs = encrypt_bit_batch(secret, lhs_bits, rng=3)
    rhs = encrypt_bit_batch(secret, rhs_bits, rng=4)

    batched = BatchGateEvaluator(cloud, batch_size=batch)
    start = time.perf_counter()
    out = batched.nand(lhs, rhs)
    batched_s = time.perf_counter() - start

    scalar = TFHEGateEvaluator(cloud)
    start = time.perf_counter()
    seq = [scalar.nand(lhs[i], rhs[i]) for i in range(batch)]
    scalar_s = time.perf_counter() - start

    identical = all(
        np.array_equal(out.a[i], seq[i].a) and int(out.b[i]) == int(seq[i].b)
        for i in range(batch)
    )
    decrypted = decrypt_bit_batch(secret, out)
    correct = decrypted == [1 - (a & b) for a, b in zip(lhs_bits, rhs_bits)]
    print(f"NAND x{batch:<4}   : batched {batched_s * 1e3:7.1f} ms   "
          f"sequential {scalar_s * 1e3:7.1f} ms   speedup {scalar_s / batched_s:4.1f}x")
    print(f"bit-identical : {identical}   decrypts correctly: {correct}")

    width = 6
    a_vals = [int(v) for v in rng.integers(0, 2 ** (width - 1), batch)]
    b_vals = [int(v) for v in rng.integers(0, 2 ** (width - 1), batch)]
    a_planes = encrypt_integers(secret, a_vals, width, rng=5)
    b_planes = encrypt_integers(secret, b_vals, width, rng=6)
    executor = CircuitExecutor(batched)
    start = time.perf_counter()
    total = executor.run(adder_netlist(width), {"a": a_planes, "b": b_planes})["sum"]
    adder_s = time.perf_counter() - start
    sums = decrypt_integers(secret, total)
    ok = sums == [x + y for x, y in zip(a_vals, b_vals)]
    print(f"adder x{batch:<4}  : {width}-bit ripple carry in {adder_s:5.2f} s "
          f"({executor.level_calls} batched calls)   all sums correct: {ok}")


if __name__ == "__main__":
    main()
