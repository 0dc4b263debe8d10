"""An encrypted integer calculator on programmable bootstrapping.

The boolean frontend computes ``a * b`` by shift-add over encrypted bits —
83 bootstrappings at 8 bit after the LUT pipeline.  This example runs the
same arithmetic on radix-encoded integers instead: each ciphertext digit carries
``message_bits`` of payload plus ``carry_bits`` of headroom, additions are
digit-wise linear (zero bootstraps until carries must be normalised), and a
multiply is one batched partial-product lookup plus carry-propagation
sweeps — 24 bootstrappings for the same 8-bit product.

The flow mirrors the compiler pipeline end to end:

1. :func:`repro.compiler.trace_radix` records an ordinary Python function as
   a :class:`~repro.compiler.RadixProgram` of digit-LUT primitives;
2. :func:`repro.compiler.verify_against_boolean` co-simulates it against the
   boolean trace of the *same* function — the cross-lowering oracle;
3. the program runs on real ciphertexts through
   :class:`repro.tfhe.RadixEvaluator`, and every decrypted output is
   asserted against the plaintext simulation.

Run:  PYTHONPATH=src python examples/encrypted_calculator.py [--width 8]
"""

from __future__ import annotations

import argparse
import time

from repro import FheContext
from repro.compiler import RadixUint, trace, trace_radix, verify_against_boolean
from repro.compiler.frontend import FheUint
from repro.compiler.passes import live_gate_count
from repro.tfhe import (
    TEST_PBS,
    DigitEncoding,
    RadixEvaluator,
    decrypt_radix,
    encrypt_radix,
)
from repro.tfhe.lwe import decrypt_digit


def calculator(a, b):
    """The encrypted program: one line per calculator key."""
    return {
        "sum": a + b,
        "product": a * b,
        "affine": a * 3 + 7,
        "a_bigger": a > b,
        "equal": a == b,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=8, help="operand width in bits")
    parser.add_argument("--a", type=int, default=173, help="left operand")
    parser.add_argument("--b", type=int, default=58, help="right operand")
    args = parser.parse_args()
    width, modulus = args.width, 2**args.width
    a_val, b_val = args.a % modulus, args.b % modulus

    # -- 1. trace the same function through both lowerings ------------------
    program = trace_radix(calculator, RadixUint(width, "a"), RadixUint(width, "b"))
    boolean = trace(calculator, FheUint(width, "a"), FheUint(width, "b"))
    print(
        f"traced {program.name!r} at {width} bit: {len(program.ops)} radix ops "
        f"vs {live_gate_count(boolean)} boolean gates"
    )

    # -- 2. cross-lowering oracle: both must agree on random inputs ----------
    verify_against_boolean(program, boolean, trials=32, rng=7)
    print("radix and boolean lowerings agree on 32 randomized inputs")

    # -- 3. run on real ciphertexts ------------------------------------------
    encoding = DigitEncoding(message_bits=2, carry_bits=2)
    secret, context = FheContext.generate(TEST_PBS, rng=1)
    evaluator = RadixEvaluator(context, encoding)
    digits = program.digit_width(evaluator)

    encrypted = {
        "a": encrypt_radix(secret.lwe_key, a_val, digits, encoding, rng=2),
        "b": encrypt_radix(secret.lwe_key, b_val, digits, encoding, rng=3),
    }
    counters = context.batch_evaluator(1).counters
    before = counters.bootstraps
    start = time.perf_counter()
    out = program.run(evaluator, encrypted)
    seconds = time.perf_counter() - start
    bootstraps = counters.bootstraps - before

    expected = program.simulate({"a": a_val, "b": b_val})
    results = {}
    for name in program.outputs:
        if program.outputs[name] in program.bool_values:
            results[name] = decrypt_digit(secret.lwe_key, out[name], encoding)
        else:
            results[name] = decrypt_radix(secret.lwe_key, out[name])

    print(f"\ncalculator({a_val}, {b_val}) mod {modulus}, decrypted:")
    for name, value in results.items():
        print(f"  {name:>9} = {value}")
        assert value == expected[name], f"{name}: got {value}, expected {expected[name]}"
    print(
        f"\n{bootstraps} bootstrappings in {seconds:.2f}s "
        f"(boolean lowering would pay one per gate: {live_gate_count(boolean)})"
    )
    print("all outputs match the plaintext simulation")


if __name__ == "__main__":
    main()
