"""Homomorphic Boolean gates: the bootstrap-row path.

Every bootstrapped gate is the same datapath — an affine combination of the
input ciphertexts, then one blind rotation against a test polynomial
(Section 2, ``Logic[c0, c1]``).  A *row* names the function and its operands;
everything that evaluates one goes through the same four steps:

1. :func:`row_spec` resolves the row's function (a :data:`RowOp`) to
   ``(offset in eighths, weights, test vector)``.  A two-input gate is a
   lookup with a fixed all-``mu`` test vector and the weights of
   :data:`MIXED_GATE_SPECS` (e.g. NAND is ``(0, 1/8) − c_a − c_b``); a lut
   takes its weights and slice-valued vector from :mod:`repro.tfhe.lut`; a
   digit row — a programmable bootstrap — is the identity against an
   :func:`encode_lut` vector.  This is the only place the three differ, and
   where the ±1/8 encoding's 8-ary rating is checked.
2. :func:`affine_rows` forms ``offset·MU + Σ wᵢ·cᵢ`` for a whole batch of
   rows of any mix of arities in one vectorised pass.
3. :meth:`BatchGateEvaluator.bootstrap_rows` blind-rotates, extracts and
   key-switches the batch — one shared test vector when every row carries
   the same one, a per-row stack otherwise.  It is the one place the three
   stages are composed: the radix integers' digit rows, the scalar
   :class:`TFHEGateEvaluator` and a raw refresh against
   :func:`make_test_vector` reach it too, so a row of the wrong dimension is
   refused, the stages are traced and the bootstraps are counted here for
   every caller.
4. :meth:`BatchGateEvaluator.rows` is steps 1–3 for one batch;
   :func:`split_rows` packs ``("gate", …)`` / ``("lut", …)`` / ``("digit",
   …)`` row tuples into its arguments.

:class:`TFHEGateEvaluator` is :meth:`BatchGateEvaluator.rows` on one-row
views of its scalar operands.  What a row must come out as is the tests'
business: their oracles spell out each stage independently of these kernels.
``NOT`` and ``COPY``/``CONSTANT`` are purely linear and need no
bootstrapping, which is why the paper reports the latency of the
bootstrapped gates only.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.tfhe.bootstrap import (
    _require_gate_space,
    blind_rotate_and_extract_batch,
    encode_lut,
    make_test_vector,
)
from repro.tfhe.keyswitch import keyswitch_apply_batch
from repro.tfhe.keys import TFHECloudKey, TFHESecretKey
from repro.tfhe.lwe import (
    LweBatch,
    LweSample,
    gate_message,
    lwe_batch_decrypt_bits,
    lwe_batch_negate,
    lwe_batch_trivial,
    lwe_decrypt_bit,
    lwe_encrypt,
    lwe_encrypt_trivial,
    lwe_negate,
)
from repro.tfhe.lut import BooleanLutSpec, boolean_lut_spec, lut_test_vector
from repro.tfhe.params import DigitEncoding, TFHEParameters
from repro.tfhe.torus import double_to_torus32, torus32_from_int64
from repro.utils.rng import SeedLike, make_rng

#: Gate-bootstrapping message: 1/8 on the torus.
MU = np.int32(double_to_torus32(0.125))

#: Affine combination of every two-input bootstrapped gate: ``name → (offset
#: in eighths of the torus, weight of ca, weight of cb)``.  XOR/XNOR fit the
#: same shape with weight ±2 (``(0, 1/4) + 2·(ca + cb)`` and its negation).
MIXED_GATE_SPECS: Dict[str, Tuple[int, int, int]] = {
    "nand": (1, -1, -1),
    "and": (-1, 1, 1),
    "or": (1, 1, 1),
    "nor": (-1, -1, -1),
    "andny": (-1, -1, 1),
    "andyn": (-1, 1, -1),
    "orny": (1, -1, 1),
    "oryn": (1, 1, -1),
    "xor": (2, 2, 2),
    "xnor": (-2, -2, -2),
}

#: The function of one bootstrapped row: a gate name, ``(truth table,
#: arity)`` for a lookup, or ``(encoding, table tuple)`` for a digit lookup.
RowOp = Union[str, Tuple[int, int], Tuple[DigitEncoding, Tuple[int, ...]]]

#: One bootstrap row with its operands: ``("gate", name, ca, cb)`` for a
#: two-input gate, ``("lut", table, operands)`` for a k-input lookup,
#: ``("digit", (encoding, table), sample)`` for a digit lookup.  The operands
#: are scalar samples, or bit planes of one common width.
Row = Union[Tuple[str, str, object, object], Tuple[str, object, object]]


def _gate_spec(name: str) -> Tuple[int, int, int]:
    try:
        return MIXED_GATE_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None


def require_lut_spec(table: int, arity: int) -> BooleanLutSpec:
    """The affine realisation of ``table`` — raises when none exists."""
    spec = boolean_lut_spec(int(table), int(arity))
    if spec is None:
        raise ValueError(
            f"truth table 0x{int(table):x} over {arity} inputs has no "
            f"single-bootstrap realisation on the ±1/8 encoding"
        )
    return spec


def row_spec(
    params: TFHEParameters, op: RowOp
) -> Tuple[int, Tuple[int, ...], np.ndarray]:
    """``(offset in eighths, weights, test vector)`` of one bootstrapped row.

    Raises ``ValueError`` for an unknown gate, a table with no
    single-bootstrap realisation, a parameter set not rated for the 8-ary
    message space every ±1/8 row needs, or a digit table it cannot encode.
    The vectors are memoised per ring, so rows of equal function share one
    vector *object*.
    """
    if isinstance(op, str):
        _require_gate_space(params)
        offset, *weights = _gate_spec(op)
        return offset, tuple(weights), make_test_vector(params, int(MU))
    if isinstance(op[0], DigitEncoding):
        encoding, table = op
        vector = encode_lut(params, table, encoding.message_bits, encoding.carry_bits)
        return 0, (1,), vector
    _require_gate_space(params)
    spec = require_lut_spec(*op)
    return spec.offset_eighths, spec.weights, lut_test_vector(params, spec)


def affine_rows(offsets, weights, operands: Sequence[LweBatch]) -> LweBatch:
    """``offsets[r]·MU + Σⱼ weights[r][j]·operands[j][r]`` for every row ``r``.

    ``operands[j]`` holds operand ``j`` of all rows; ``offsets`` is ``(R,)``
    and ``weights`` ``(R, k)``, or one row of each broadcast over the batch.
    A row of lower arity carries weight zero in the positions it does not
    use.  Row for row bit-identical to the scalar ``lwe_add``/``lwe_scale``
    chain (the arithmetic is exact modulo ``2³²``).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape[-1] != len(operands):
        raise ValueError(
            f"{weights.shape[-1]} weights per row but {len(operands)} operand batches"
        )
    a = sum(
        weights[:, j, None] * operand.a.astype(np.int64)
        for j, operand in enumerate(operands)
    )
    b = offsets * np.int64(MU) + sum(
        weights[:, j] * operand.b.astype(np.int64)
        for j, operand in enumerate(operands)
    )
    return LweBatch(a=torus32_from_int64(a), b=torus32_from_int64(b))


def gate_affine_batch(name: str, ca: LweBatch, cb: LweBatch) -> LweBatch:
    """The affine combination entering one batched boolean gate."""
    offset, *weights = _gate_spec(name)
    return affine_rows([offset], [weights], [ca, cb])


def lut_affine_batch(spec: BooleanLutSpec, inputs) -> LweBatch:
    """The affine combination entering a batched lut bootstrapping."""
    inputs = list(inputs)
    if len(inputs) != spec.arity:
        raise ValueError(
            f"lut of arity {spec.arity} got {len(inputs)} operand batches"
        )
    return affine_rows([spec.offset_eighths], [spec.weights], inputs)


def split_rows(
    rows: Iterable[Row], stack: Callable[[Iterable], LweBatch]
) -> Tuple[List[RowOp], List[LweBatch]]:
    """Row tuples → the ``(ops, operands)`` of :meth:`BatchGateEvaluator.rows`.

    ``stack`` packs one operand position of every row into a batch:
    ``LweBatch.from_samples`` for scalar operands, ``lwe_batch_concat`` for
    bit planes (each row then stands for ``width`` batch rows).  A row of
    lower arity than the widest repeats its first operand in the positions
    it does not use; :meth:`~BatchGateEvaluator.rows` weights them zero.
    """
    split = [
        ((row[1], len(row[2])), row[2]) if row[0] == "lut" else (row[1], row[2:])
        for row in rows
    ]
    arity = max(len(operands) for _, operands in split)
    return [op for op, _ in split], [
        stack(operands[j] if j < len(operands) else operands[0] for _, operands in split)
        for j in range(arity)
    ]


def run_steps(steps: Generator, run: Callable[[List[Row]], Sequence]):
    """Drive a multi-round job in-process — a generator that yields each
    round's rows (a circuit's levels, a radix add's carry rounds), is sent
    their outputs and returns its result: ``run`` bootstraps one round."""
    outputs = None
    while True:
        try:
            rows = steps.send(outputs)
        except StopIteration as stop:
            return stop.value
        outputs = run(rows)


def _require_dimension(params: TFHEParameters, dimension: int) -> None:
    """A combined row must live under the key's ``n``-dimensional LWE key."""
    if dimension != params.n:
        raise ValueError(
            f"ciphertext dimension {dimension} does not match the key's LWE "
            f"dimension n={params.n} ({params.name!r})"
        )


def _resolve_context(key):
    """Coerce a :class:`TFHECloudKey` or an ``FheContext`` to a context.

    Duck-typed (``rotator``/``keyswitch_key``/``params``) so this module does
    not import :mod:`repro.runtime` — the runtime layer builds on the gates,
    not the reverse.  The property-backed attributes are probed on the *type*
    so the check never triggers a lazy spectrum-cache build.
    """
    if isinstance(key, TFHECloudKey):
        return key.default_context()
    if (
        hasattr(type(key), "rotator")
        and hasattr(type(key), "keyswitch_key")
        and hasattr(key, "params")
    ):
        return key
    raise TypeError(
        f"expected a TFHECloudKey or an FheContext, got {type(key).__name__}"
    )


@dataclass
class GateCounters:
    """Counts of evaluated gates and bootstrappings (for throughput reporting)."""

    gates: int = 0
    bootstraps: int = 0

    def reset(self) -> None:
        """Zero both counters (start of a measurement window)."""
        self.gates = 0
        self.bootstraps = 0


class _BootstrappedGates:
    """The bootstrapped-gate surface shared by both evaluators.

    Every method is one row function handed to the evaluator's ``_apply(op,
    operands)``; operands are :class:`LweSample` bits on the scalar evaluator
    and ``batch_size``-row :class:`LweBatch` bit planes on the batched one.
    """

    def gate(self, name: str, ca, cb):
        """Evaluate a two-input gate by name (``"nand"``, ``"xor"``, ...)."""
        return self._apply(name, [ca, cb])

    def lut(self, table: int, inputs):
        """Evaluate a k-input boolean LUT in one bootstrapping.

        ``table`` is the truth table (bit ``m`` is the output for the input
        combination whose bit ``i`` is ``inputs[i]``).  Raises ``ValueError``
        for tables with no single-bootstrap realisation.
        """
        inputs = list(inputs)
        return self._apply((table, len(inputs)), inputs)

    def nand(self, ca, cb):
        """Homomorphic NAND: bootstrap of ``(0, 1/8) − ca − cb``."""
        return self.gate("nand", ca, cb)

    def and_(self, ca, cb):
        """Homomorphic AND: bootstrap of ``(0, −1/8) + ca + cb``."""
        return self.gate("and", ca, cb)

    def or_(self, ca, cb):
        """Homomorphic OR: bootstrap of ``(0, 1/8) + ca + cb``."""
        return self.gate("or", ca, cb)

    def nor(self, ca, cb):
        """Homomorphic NOR: bootstrap of ``(0, −1/8) − ca − cb``."""
        return self.gate("nor", ca, cb)

    def andny(self, ca, cb):
        """Homomorphic (NOT a) AND b."""
        return self.gate("andny", ca, cb)

    def andyn(self, ca, cb):
        """Homomorphic a AND (NOT b)."""
        return self.gate("andyn", ca, cb)

    def orny(self, ca, cb):
        """Homomorphic (NOT a) OR b."""
        return self.gate("orny", ca, cb)

    def oryn(self, ca, cb):
        """Homomorphic a OR (NOT b)."""
        return self.gate("oryn", ca, cb)

    def xor(self, ca, cb):
        """Homomorphic XOR: bootstrap of ``(0, 1/4) + 2·(ca + cb)``."""
        return self.gate("xor", ca, cb)

    def xnor(self, ca, cb):
        """Homomorphic XNOR: bootstrap of ``(0, −1/4) − 2·(ca + cb)``."""
        return self.gate("xnor", ca, cb)


class TFHEGateEvaluator(_BootstrappedGates):
    """Evaluates homomorphic Boolean gates with a given cloud key.

    The evaluator is the main public entry point of the functional library::

        secret, cloud = generate_keys(TEST_SMALL, rng=1)
        evaluator = TFHEGateEvaluator(cloud)
        c = evaluator.nand(encrypt_bit(secret, 1), encrypt_bit(secret, 0))
    """

    def __init__(self, cloud_key) -> None:
        self.context = _resolve_context(cloud_key)
        self.cloud_key = self.context.cloud_key
        self.counters = GateCounters()

    def _apply(self, op: RowOp, operands: Sequence[LweSample]) -> LweSample:
        """One row: :meth:`BatchGateEvaluator.rows` on one-row views of the operands."""
        planes = [LweBatch(a=x.a[None], b=np.asarray(x.b)[None]) for x in operands]
        out = self.context.batch_evaluator(1).rows([op], planes)
        self.counters.gates += 1
        self.counters.bootstraps += 1
        return out[0]

    # -- linear (bootstrapping-free) gates ----------------------------------
    def constant(self, bit: int) -> LweSample:
        """A trivial (noiseless) encryption of a public constant bit."""
        self.counters.gates += 1
        return lwe_encrypt_trivial(self.context.params.n, gate_message(bit))

    def not_(self, ca: LweSample) -> LweSample:
        """Homomorphic NOT: plain negation, no bootstrapping (Section 5)."""
        self.counters.gates += 1
        return lwe_negate(ca)

    def copy(self, ca: LweSample) -> LweSample:
        """Identity gate (returns a copy of the ciphertext)."""
        self.counters.gates += 1
        return ca.copy()


class BatchGateEvaluator(_BootstrappedGates):
    """Evaluates homomorphic Boolean gates over *batches* of ciphertexts.

    Every named method takes :class:`repro.tfhe.lwe.LweBatch` operands of
    width ``batch_size`` and evaluates the gate on all rows with **one**
    batched bootstrapping — the affine combination, blind rotation,
    extraction and key switch are each a single vectorised NumPy pass, which
    amortises the per-gate Python overhead across the batch (the software
    analogue of the paper's amortisation of blind-rotation work across
    concurrent bootstrappings).  Row ``i`` of every output is bit-identical
    to running :class:`TFHEGateEvaluator` on row ``i`` of the inputs.

    The method names mirror :class:`TFHEGateEvaluator`.  A whole circuit
    runs through :class:`repro.tfhe.executor.CircuitExecutor`, which packs
    each dependency level of it, over ``batch_size`` words, into one call.

    :meth:`rows`, :meth:`gate_rows` and :meth:`bootstrap_rows` accept **any**
    row count, not just ``batch_size``: the level executor and the scheduler
    pack however many rows a level or a flush round holds.
    """

    def __init__(self, cloud_key, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.context = _resolve_context(cloud_key)
        self.cloud_key = self.context.cloud_key
        self.batch_size = int(batch_size)
        self.counters = GateCounters()

    def _check(self, *batches: LweBatch) -> None:
        for batch in batches:
            if batch.batch_size != self.batch_size:
                raise ValueError(
                    f"operand batch width {batch.batch_size} does not match "
                    f"evaluator batch width {self.batch_size}"
                )

    def _apply(self, op: RowOp, operands: Sequence[LweBatch]) -> LweBatch:
        """The same row function on all ``batch_size`` rows."""
        self._check(*operands)
        return self.rows([op] * self.batch_size, operands)

    # -- the row path --------------------------------------------------------
    def rows(self, ops: Iterable[RowOp], operands: Sequence[LweBatch]) -> LweBatch:
        """Evaluate a possibly *different* function on every row — one bootstrapping.

        ``ops[i]`` (any :data:`RowOp`) is applied to row ``i`` of the operand
        batches; ``operands[j]`` holds operand ``j`` of every row, and a row
        ignores the positions past its arity.  The
        affine combinations are one vectorised pass and all rows share one
        fused blind rotation, so a dependency level of a circuit — whose
        nodes are independent but heterogeneous — costs the same as a
        homogeneous batch of equal width.  Row ``i`` of the result is
        bit-identical to the scalar evaluator on row ``i`` of the inputs.
        """
        ops = list(ops)
        operands = list(operands)
        if any(batch.batch_size != operands[0].batch_size for batch in operands):
            raise ValueError("operand batches must have the same width")
        if len(ops) != operands[0].batch_size:
            raise ValueError("one gate name per row is required")
        offsets, weights, vectors = zip(
            *(row_spec(self.context.params, op) for op in ops)
        )
        arity = len(operands)
        if max(map(len, weights)) > arity:
            raise ValueError("a row takes more operands than were supplied")
        combined = affine_rows(
            offsets, [w + (0,) * (arity - len(w)) for w in weights], operands
        )
        shared = all(vector is vectors[0] for vector in vectors)
        out = self.bootstrap_rows(combined, vectors[0] if shared else np.stack(vectors))
        self.counters.gates += len(ops)
        return out

    def gate_rows(self, names, ca: LweBatch, cb: LweBatch) -> LweBatch:
        """:meth:`rows` for two-input gates: ``names[i]`` on row ``i`` of ``ca``/``cb``."""
        return self.rows(names, [ca, cb])

    def bootstrap_rows(self, combined: LweBatch, test_vectors: np.ndarray) -> LweBatch:
        """Blind-rotate, extract and key-switch a batch of combined rows.

        ``test_vectors`` is one shared ``(N,)`` polynomial or a ``(B, N)``
        stack giving every row its own — gate rows next to lut rows next to
        digit rows, each refreshed against its own lookup table inside a
        single fused pass.  Inside a traced round the two stages record
        ``engine_contract`` and ``keyswitch`` spans against the round's
        traces.  Raises ``ValueError`` when the rows are not ciphertexts of
        the key's LWE dimension.
        """
        _require_dimension(self.context.params, combined.dimension)
        tel = getattr(self.context, "telemetry", None)
        # Telemetry.stage is itself a no-op outside a traced round.
        stage = tel.stage if tel is not None else (lambda name, **attrs: nullcontext())
        with stage("engine_contract", rows=combined.batch_size):
            extracted = blind_rotate_and_extract_batch(
                combined, test_vectors, self.context.rotator, self.context.params
            )
        with stage("keyswitch", rows=combined.batch_size):
            out = keyswitch_apply_batch(
                self.context.keyswitch_key, extracted, self.context.workspace
            )
        self.counters.bootstraps += combined.batch_size
        return out

    def gate_test_vector(self) -> np.ndarray:
        """The shared all-``mu`` test vector of the plain boolean gates."""
        return make_test_vector(self.context.params, int(MU))

    # -- linear (bootstrapping-free) gates ----------------------------------
    def constant(self, bit: int) -> LweBatch:
        """A batch of trivial (noiseless) encryptions of a public constant bit."""
        self.counters.gates += self.batch_size
        return lwe_batch_trivial(
            self.batch_size, self.context.params.n, gate_message(bit)
        )

    def not_(self, ca: LweBatch) -> LweBatch:
        """Homomorphic NOT: plain negation, no bootstrapping."""
        self._check(ca)
        self.counters.gates += self.batch_size
        return lwe_batch_negate(ca)

    def copy(self, ca: LweBatch) -> LweBatch:
        """Identity gate (returns a copy of the batch)."""
        self._check(ca)
        self.counters.gates += self.batch_size
        return ca.copy()


def encrypt_bit(secret: TFHESecretKey, bit: int, rng: SeedLike = None) -> LweSample:
    """Client-side encryption of one Boolean as a gate-bootstrapping ciphertext."""
    rng = make_rng(rng)
    return lwe_encrypt(secret.lwe_key, gate_message(bit), rng=rng)


def decrypt_bit(secret: TFHESecretKey, sample: LweSample) -> int:
    """Client-side decryption of a gate-bootstrapping ciphertext."""
    return lwe_decrypt_bit(secret.lwe_key, sample)


def encrypt_bits(secret: TFHESecretKey, bits, rng: SeedLike = None):
    """Encrypt an iterable of bits (least-significant first for integers)."""
    rng = make_rng(rng)
    return [encrypt_bit(secret, int(b), rng) for b in bits]


def decrypt_bits(secret: TFHESecretKey, samples):
    """Decrypt a list of ciphertexts back to a list of bits."""
    return [decrypt_bit(secret, s) for s in samples]


def encrypt_bit_batch(secret: TFHESecretKey, bits, rng: SeedLike = None) -> LweBatch:
    """Encrypt an iterable of bits as one :class:`LweBatch` (one row per bit)."""
    rng = make_rng(rng)
    return LweBatch.from_samples(encrypt_bit(secret, int(b), rng) for b in bits)


def decrypt_bit_batch(secret: TFHESecretKey, batch: LweBatch):
    """Decrypt a batch of gate-bootstrapping ciphertexts to a list of bits."""
    return [int(b) for b in lwe_batch_decrypt_bits(secret.lwe_key, batch)]


#: Plaintext truth tables used by the test-suite to check every gate.
PLAINTEXT_GATES: Dict[str, Callable[[int, int], int]] = {
    "nand": lambda a, b: 1 - (a & b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "nor": lambda a, b: 1 - (a | b),
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: 1 - (a ^ b),
    "andny": lambda a, b: (1 - a) & b,
    "andyn": lambda a, b: a & (1 - b),
    "orny": lambda a, b: (1 - a) | b,
    "oryn": lambda a, b: a | (1 - b),
}
