"""Encrypted maximum: compare two encrypted integers and select the larger one.

Demonstrates a second multi-gate workload on the public API: a bit-serial
greater-than comparator followed by a row of multiplexers, written as a
:class:`repro.tfhe.netlist.Circuit` and run on ciphertexts by
:class:`repro.tfhe.executor.CircuitExecutor`.  The server never learns the
inputs, the comparison result, or which operand was selected.

Run:  python examples/encrypted_comparator.py --width 4 --a 11 --b 6
"""

from __future__ import annotations

import argparse
import time
from typing import List

from repro import TEST_SMALL, BatchGateEvaluator, CircuitExecutor, generate_keys
from repro.tfhe.gates import decrypt_bit, decrypt_bits, encrypt_bits
from repro.tfhe.netlist import Circuit
from repro.tfhe.transform import DoubleFFTNegacyclicTransform


def maximum_circuit(width: int) -> Circuit:
    """Outputs ``gt`` (``a > b``) and ``max`` for LSB-first words of ``width`` bits."""
    c = Circuit(f"max{width}")
    a, b = c.inputs("a", width), c.inputs("b", width)
    a_greater = c.constant(0)
    for bit_a, bit_b in zip(a, b):  # LSB to MSB
        bits_equal = c.gate("xnor", bit_a, bit_b)
        a_wins_here = c.gate("andyn", bit_a, bit_b)  # a AND (NOT b)
        a_greater = c.mux(bits_equal, a_greater, a_wins_here)
    c.output("gt", [a_greater])
    c.output("max", [c.mux(a_greater, x, y) for x, y in zip(a, b)])
    return c


def to_bits(value: int, width: int) -> List[int]:
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: List[int]) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=4, help="operand width in bits")
    parser.add_argument("--a", type=int, default=11)
    parser.add_argument("--b", type=int, default=6)
    args = parser.parse_args()
    mask = (1 << args.width) - 1
    a, b = args.a & mask, args.b & mask

    params = TEST_SMALL
    secret_key, cloud_key = generate_keys(
        params, DoubleFFTNegacyclicTransform(params.N), unroll_factor=1, rng=3
    )
    executor = CircuitExecutor(BatchGateEvaluator(cloud_key, batch_size=1))

    cipher_a = encrypt_bits(secret_key, to_bits(a, args.width), rng=4)
    cipher_b = encrypt_bits(secret_key, to_bits(b, args.width), rng=5)

    start = time.perf_counter()
    out = executor.run_samples(maximum_circuit(args.width), {"a": cipher_a, "b": cipher_b})
    elapsed = time.perf_counter() - start

    decrypted_flag = decrypt_bit(secret_key, out["gt"][0])
    decrypted_max = from_bits(decrypt_bits(secret_key, out["max"]))
    print(f"a = {a}, b = {b}")
    print(f"encrypted (a > b)  -> {decrypted_flag}   (expected {int(a > b)})")
    print(f"encrypted max(a,b) -> {decrypted_max}   (expected {max(a, b)})")
    print(
        f"{executor.evaluator.counters.bootstraps} bootstrapped gates in "
        f"{executor.level_calls} batched calls, {elapsed:.2f} s on the functional simulator"
    )
    assert decrypted_max == max(a, b)


if __name__ == "__main__":
    main()
