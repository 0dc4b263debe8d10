"""Reusable encrypted-circuit building blocks.

The paper motivates MATCHA with gate-level encrypted computing (e.g. the
TFHE RISC-V processor runs thousands of bootstrapped gates per instruction).
This module packages the standard combinational blocks a downstream user
needs to build such workloads on top of :class:`repro.tfhe.gates.TFHEGateEvaluator`:
integer encode/decode helpers, a ripple-carry adder/subtractor, comparators,
a multiplexer over bit vectors and an equality test.

All functions take and return lists of LWE ciphertexts ordered LSB first, so
they compose freely; every gate they emit is a bootstrapped TFHE gate, which
keeps the depth unlimited.

The blocks are polymorphic over the evaluator: pass a
:class:`repro.tfhe.gates.TFHEGateEvaluator` and lists of scalar
:class:`LweSample` bits to process one word, or a
:class:`repro.tfhe.gates.BatchGateEvaluator` and lists of
:class:`repro.tfhe.lwe.LweBatch` *bit planes* (plane ``i`` holds bit ``i`` of
every word in the batch) to process ``batch_size`` independent words with the
same number of — now batched — gate evaluations.  Use
:func:`encrypt_integers` / :func:`decrypt_integers` to move between integer
lists and bit planes.

Each helper is a thin wrapper over the netlist subsystem: the
block is built once per width as a :class:`repro.tfhe.netlist.Circuit`
(memoised) and evaluated gate by gate with
:func:`repro.tfhe.executor.execute`, which emits exactly the historical gate
sequence — outputs are bit-identical to the pre-netlist implementation.  To
run the *same* circuits level-parallel (one batched bootstrapping per
dependency level instead of per gate), hand the netlist to
:class:`repro.tfhe.executor.CircuitExecutor` instead.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.tfhe import netlist
from repro.tfhe.executor import execute
from repro.tfhe.gates import (
    TFHEGateEvaluator,
    decrypt_bit_batch,
    decrypt_bits,
    encrypt_bit_batch,
    encrypt_bits,
)
from repro.tfhe.keys import TFHESecretKey
from repro.tfhe.lwe import LweBatch, LweSample
from repro.utils.rng import SeedLike, make_rng


def _as_evaluator(evaluator):
    """Accept an evaluator or an ``FheContext`` (coerced to its scalar evaluator).

    Duck-typed on the context surface (``evaluator()`` + ``rotator``) so this
    module stays independent of :mod:`repro.runtime`; gate evaluators pass
    through unchanged, so batched evaluators keep working too.  ``rotator``
    is probed on the *type* — it is a lazy property and a plain ``hasattr``
    on the instance would build the spectrum cache as a side effect.
    """
    if hasattr(evaluator, "gate"):
        return evaluator
    if hasattr(type(evaluator), "evaluator") and hasattr(type(evaluator), "rotator"):
        return evaluator.evaluator()
    raise TypeError(
        f"expected a gate evaluator or an FheContext, got {type(evaluator).__name__}"
    )


def int_to_bits(value: int, width: int) -> List[int]:
    """Two's-complement / unsigned bits of ``value``, LSB first."""
    if width <= 0:
        raise ValueError("width must be positive")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Reassemble an unsigned integer from LSB-first bits."""
    return sum(int(bit) << i for i, bit in enumerate(bits))


def encrypt_integer(
    secret: TFHESecretKey, value: int, width: int, rng: SeedLike = None
) -> List[LweSample]:
    """Encrypt an unsigned integer as ``width`` gate-bootstrapping ciphertexts."""
    return encrypt_bits(secret, int_to_bits(value, width), rng)


def decrypt_integer(secret: TFHESecretKey, bits: Sequence[LweSample]) -> int:
    """Decrypt an encrypted integer produced by :func:`encrypt_integer`."""
    return bits_to_int(decrypt_bits(secret, list(bits)))


def encrypt_integers(
    secret: TFHESecretKey, values: Sequence[int], width: int, rng: SeedLike = None
) -> List[LweBatch]:
    """Encrypt a list of unsigned integers as ``width`` LSB-first *bit planes*.

    Plane ``i`` is an :class:`LweBatch` whose row ``j`` encrypts bit ``i`` of
    ``values[j]`` — the layout the batched circuit blocks consume: feeding the
    planes to :func:`add` with a ``BatchGateEvaluator`` adds all ``len(values)``
    pairs of integers at once.
    """
    if not values:
        raise ValueError("at least one value is required")
    rng = make_rng(rng)
    bit_rows = [int_to_bits(int(v), width) for v in values]
    return [
        encrypt_bit_batch(secret, [row[i] for row in bit_rows], rng)
        for i in range(width)
    ]


def decrypt_integers(secret: TFHESecretKey, planes: Sequence[LweBatch]) -> List[int]:
    """Decrypt LSB-first bit planes back to one integer per batch row."""
    plane_bits = [decrypt_bit_batch(secret, plane) for plane in planes]
    batch = len(plane_bits[0])
    return [bits_to_int([plane[j] for plane in plane_bits]) for j in range(batch)]


def _check_widths(a: Sequence[LweSample], b: Sequence[LweSample]) -> None:
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    if not a:
        raise ValueError("operands must have at least one bit")


def full_adder(
    evaluator: TFHEGateEvaluator, a: LweSample, b: LweSample, carry: LweSample
) -> Tuple[LweSample, LweSample]:
    """One full-adder stage; returns ``(sum, carry_out)`` (5 bootstrapped gates)."""
    evaluator = _as_evaluator(evaluator)
    a_xor_b = evaluator.xor(a, b)
    total = evaluator.xor(a_xor_b, carry)
    carry_out = evaluator.or_(evaluator.and_(a, b), evaluator.and_(a_xor_b, carry))
    return total, carry_out


def add(
    evaluator: TFHEGateEvaluator,
    a: Sequence[LweSample],
    b: Sequence[LweSample],
) -> List[LweSample]:
    """Ripple-carry addition; returns ``width + 1`` bits (the last is the carry)."""
    _check_widths(a, b)
    circuit = netlist.adder_netlist(len(a))
    return execute(circuit, _as_evaluator(evaluator), {"a": a, "b": b})["sum"]


def negate(evaluator: TFHEGateEvaluator, a: Sequence[LweSample]) -> List[LweSample]:
    """Two's-complement negation (invert and add one), same width as the input."""
    if not a:
        raise ValueError("operands must have at least one bit")
    circuit = netlist.negate_netlist(len(a))
    return execute(circuit, _as_evaluator(evaluator), {"a": a})["neg"]


def subtract(
    evaluator: TFHEGateEvaluator,
    a: Sequence[LweSample],
    b: Sequence[LweSample],
) -> List[LweSample]:
    """Two's-complement subtraction ``a - b`` truncated to the operand width."""
    _check_widths(a, b)
    circuit = netlist.subtractor_netlist(len(a))
    return execute(circuit, _as_evaluator(evaluator), {"a": a, "b": b})["diff"]


def equal(
    evaluator: TFHEGateEvaluator,
    a: Sequence[LweSample],
    b: Sequence[LweSample],
) -> LweSample:
    """Encrypted equality test (AND of per-bit XNORs)."""
    _check_widths(a, b)
    circuit = netlist.equal_netlist(len(a))
    return execute(circuit, _as_evaluator(evaluator), {"a": a, "b": b})["eq"][0]


def greater_than(
    evaluator: TFHEGateEvaluator,
    a: Sequence[LweSample],
    b: Sequence[LweSample],
) -> LweSample:
    """Encrypted unsigned comparison ``a > b`` (bit-serial, LSB to MSB)."""
    _check_widths(a, b)
    circuit = netlist.greater_than_netlist(len(a))
    return execute(circuit, _as_evaluator(evaluator), {"a": a, "b": b})["gt"][0]


def select(
    evaluator: TFHEGateEvaluator,
    condition: LweSample,
    if_true: Sequence[LweSample],
    if_false: Sequence[LweSample],
) -> List[LweSample]:
    """Vector multiplexer: returns ``if_true`` when ``condition`` encrypts 1."""
    _check_widths(if_true, if_false)
    circuit = netlist.select_netlist(len(if_true))
    return execute(
        circuit,
        _as_evaluator(evaluator),
        {"cond": [condition], "if_true": if_true, "if_false": if_false},
    )["out"]


def maximum(
    evaluator: TFHEGateEvaluator,
    a: Sequence[LweSample],
    b: Sequence[LweSample],
) -> List[LweSample]:
    """Encrypted unsigned maximum of two integers."""
    _check_widths(a, b)
    circuit = netlist.maximum_netlist(len(a))
    return execute(circuit, _as_evaluator(evaluator), {"a": a, "b": b})["max"]
