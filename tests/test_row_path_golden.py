"""Golden digests of the bootstrap-row path.

Every entry point that turns a gate, a lut, a digit lookup or a raw refresh
into a bootstrapping — the scalar evaluator, the batched evaluator,
``execute_rows``, the level-parallel executor, the scheduler's jobs, a raw
refresh through ``bootstrap_rows``, digit rows, the radix integers, and both
evaluators over a BKU (``unroll_factor=2``) twin key — is run on one seeded
``test-tiny`` key with the exact ``naive`` engine, and the sha256 of the
output ciphertext bytes is compared with the value recorded before the paths
were unified.  The engine is integer-exact, so the digests
depend only on the seeded key and input streams; should a NumPy release ever
change ``Generator.normal``, rebuild the fixture's noise from ``rng.integers``
rather than loosening the comparison.

Re-recorded twice since.  When the key-switching key lost its digit-0
samples, every key-switched output moved (25 digests; ``scheduler.depth0``
runs no bootstrap and kept its value).  When fresh encryptions started
drawing a 128-bit seed per row and expanding it with ``lwe_masks`` (SHAKE-128)
instead of drawing the mask itself, every input ciphertext moved, and with it
all 26 digests — ``scheduler.depth0`` too, whose copied input is one of
them; the keys did not move.  The equalities the recorded values implied
between paths are pinned on their own by
:func:`test_paths_that_must_agree_do`, which held before and after both.

``execute.eager`` keeps the label and the value it had while the library
still shipped a gate-by-gate ``execute``; the same walk is now the tests'
``circuit_oracle``, and ``scalar``'s multiplexer is ``mux_oracle``.  In the
same way ``context.bootstrap*`` keep theirs from ``FheContext.bootstrap`` /
``bootstrap_batch`` (now ``bootstrap_rows`` against ``make_test_vector``),
``pbs.*`` theirs from ``programmable_bootstrap_batch`` (now ``("digit", …)``
rows of ``rows``), and ``radix.*`` theirs from before ``mul`` and ``gt``
sent their lookups as digit rows; none was re-recorded.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from circuit_oracle import circuit_oracle, mux_oracle
from repro.runtime.context import FheContext
from repro.runtime.scheduler import BatchScheduler, execute_rows
from repro.tfhe.bootstrap import make_test_vector
from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import (
    MU,
    BatchGateEvaluator,
    TFHEGateEvaluator,
    encrypt_bit,
    encrypt_bit_batch,
)
from repro.tfhe.integers import RadixEvaluator, encrypt_radix
from repro.tfhe.lwe import LweBatch, encrypt_digit
from repro.tfhe.netlist import Circuit
from repro.tfhe.params import DigitEncoding

GATES = ("nand", "and", "or", "nor", "xor", "xnor", "andny", "andyn", "orny", "oryn")
#: (truth table, arity): NOT, identity, XOR, AND, XOR3, MAJ3.
LUTS = ((0b01, 1), (0b10, 1), (0x6, 2), (0x8, 2), (0x96, 3), (0xE8, 3))
#: Base-4 digits with a digit of carry room (what ``mul``/``gt`` pack into).
#: ``test-tiny`` cannot resolve its 32 torus slots, so the digit digests run on
#: a re-rated twin of the key and pin bytes only — nothing there decrypts.
ENCODING = DigitEncoding(message_bits=2, carry_bits=2)
DIGIT_TABLES = tuple(
    [f(v) % ENCODING.space for v in range(ENCODING.space)]
    for f in (lambda v: v * v, lambda v: v // 4, lambda v: 15 - v, lambda v: v % 4)
)

GOLDEN = {
    "batch.gate": "add12e7356c9cb4545afd385b4362f88a68331d05d611138916542f16288db89",
    "batch.gate_rows": "1a163cfe62827e3486057c1725d96ea8119a6a71f7b135ccd67685933a749b7c",
    "batch.lut": "a604e8fecdf5d185b27a0d99e80726991a1d2e746e1711dc3e5d0678f52a9062",
    "bku2.gate_rows": "5c858859fa44010b162b90b02c4edfa00079890e31df0097907af8c473a1a874",
    "bku2.scalar": "8ac6d1619db8217ea4b98dcefa0e5360aa10686f73998d7aeea90878ad7ea7a1",
    "context.bootstrap": "8f58af1e5d927dcbcbe96b59329bf15f4f35b767969797e6c653886ca0a0314c",
    "context.bootstrap_batch": "2a265ff1714fcde830be777fcd3f127fe370ec9273a630a739b7cd2fa7eb2c53",
    "execute.eager": "4cd762d6048db3df52a377f50890d7df89a7f628193d475fec3443f08783cc29",
    "execute_rows.gates[1]": "1a163cfe62827e3486057c1725d96ea8119a6a71f7b135ccd67685933a749b7c",
    "execute_rows.gates[3]": "1a163cfe62827e3486057c1725d96ea8119a6a71f7b135ccd67685933a749b7c",
    "execute_rows.gates[None]": "1a163cfe62827e3486057c1725d96ea8119a6a71f7b135ccd67685933a749b7c",
    "execute_rows.mixed[1]": "b80cd688987ca4ddfa3c8d6fb593b7ca4f610aea62d3052c0ff7fd6a5e99a99a",
    "execute_rows.mixed[3]": "b80cd688987ca4ddfa3c8d6fb593b7ca4f610aea62d3052c0ff7fd6a5e99a99a",
    "execute_rows.mixed[None]": "b80cd688987ca4ddfa3c8d6fb593b7ca4f610aea62d3052c0ff7fd6a5e99a99a",
    "executor.run": "640be3ece36a5a9416f1d89f32c19a3c60f47024cc2f165db001f52037fd1feb",
    "executor.run_samples": "4cd762d6048db3df52a377f50890d7df89a7f628193d475fec3443f08783cc29",
    "pbs.batch[per-row]": "e6a9b7aad2441f611a8ee31d4205081a931d549a88defcbfc6e8b00ba182424d",
    "pbs.batch[shared]": "3a0ba720600abf373c8ddca969ca59b574e4633f55966dba8c042b68240453cc",
    "pbs.scalar": "e6a9b7aad2441f611a8ee31d4205081a931d549a88defcbfc6e8b00ba182424d",
    "radix.add+propagate": "80fab2df7e9380b8abed42083dd9f8bee7c5ac6881fa6c60d8ac8fb8d1d812cd",
    "radix.gt": "70fbf41ee4640dc52fa9b41f5535a7e297bae0d0dc8b223587b20401bccb3e95",
    "radix.mul": "76c4ebe49da9c4300f9994aa0c3cc465421adf1351192e7242bab5ea2eb2e015",
    "scalar": "7529bf14c603ebb3a17232cf2ba56fb852de852e9f5121bbbc78fc8c566a3511",
    "scheduler.chain": "52d59cf7dc61613d5555857558dbe7fe5ed07dd648765628414041d9929c584c",
    "scheduler.circuit": "4cd762d6048db3df52a377f50890d7df89a7f628193d475fec3443f08783cc29",
    "scheduler.depth0": "b73a1ea8db5a17cb23c5fd47f5402d1c3f70e44570989ae7c11d485523d85ac0",
}


def digest(samples) -> str:
    """sha256 over the ``a`` then ``b`` bytes of every ciphertext, in order."""
    h = hashlib.sha256()
    for s in samples:
        h.update(s.a.tobytes())
        h.update(s.b.tobytes())
    return h.hexdigest()


def mixed_circuit() -> Circuit:
    """const, not, copy, gates and luts over three dependency levels."""
    c = Circuit("mixed")
    a = c.inputs("a", 2)
    b = c.inputs("b", 2)
    one = c.constant(1)
    t0 = c.gate("xor", a[0], b[0])
    t1 = c.gate("andyn", a[1], c.not_(b[1]))
    t2 = c.lut(0xE8, [a[0], b[0], one])
    u0 = c.lut(0x96, [t0, t1, c.copy(t2)])
    u1 = c.gate("nor", c.not_(t1), t2)
    v0 = c.gate("orny", u0, u1)
    c.output("out", [v0, c.copy(u0), c.not_(u1), one])
    return c


def depth0_circuit() -> Circuit:
    c = Circuit("depth0")
    a = c.inputs("a", 2)
    c.output("out", [c.copy(a[0]), c.not_(a[1]), c.constant(0)])
    return c


def flatten(result) -> list:
    """Output words of a circuit result as one list of scalar samples."""
    flat = []
    for name in sorted(result):
        for bit in result[name]:
            flat.extend(bit.to_samples() if isinstance(bit, LweBatch) else [bit])
    return flat


@pytest.fixture(scope="module")
def digests(tiny_keys_naive, tiny_keys_naive_m2):
    secret, cloud = tiny_keys_naive
    bits = [encrypt_bit(secret, (i >> 1) & 1 ^ (i & 1), rng=9000 + i) for i in range(8)]
    planes = [
        encrypt_bit_batch(secret, [(w >> i) & 1 for w in (5, 2, 7, 0)], rng=9100 + i)
        for i in range(3)
    ]
    out = {}

    scalar = TFHEGateEvaluator(cloud)
    out["scalar"] = digest(
        [scalar.gate(name, bits[0], bits[1]) for name in GATES]
        + [mux_oracle(scalar, bits[2], bits[3], bits[4])]
        + [scalar.lut(table, bits[:arity]) for table, arity in LUTS]
    )

    batch = BatchGateEvaluator(cloud, batch_size=4)
    out["batch.gate"] = digest(
        s for name in GATES for s in batch.gate(name, planes[0], planes[1]).to_samples()
    )
    out["batch.lut"] = digest(
        s for table, arity in LUTS for s in batch.lut(table, planes[:arity]).to_samples()
    )
    ca = LweBatch.from_samples(bits[i % 8] for i in range(len(GATES)))
    cb = LweBatch.from_samples(bits[(i + 3) % 8] for i in range(len(GATES)))
    out["batch.gate_rows"] = digest(batch.gate_rows(GATES, ca, cb).to_samples())

    context = FheContext(cloud)
    gate_rows = [
        ("gate", name, bits[i % 8], bits[(i + 3) % 8]) for i, name in enumerate(GATES)
    ]
    lut_rows = [
        ("lut", table, tuple(bits[(j + k) % 8] for k in range(arity)))
        for j, (table, arity) in enumerate(LUTS)
    ]
    mixed_rows = [row for pair in zip(gate_rows, lut_rows) for row in pair] + gate_rows[6:]
    for chunk in (None, 1, 3):
        out[f"execute_rows.gates[{chunk}]"] = digest(
            execute_rows(context, gate_rows, max_rows_per_call=chunk)
        )
        out[f"execute_rows.mixed[{chunk}]"] = digest(
            execute_rows(context, mixed_rows, max_rows_per_call=chunk)
        )

    circuit = mixed_circuit()
    word_inputs = {"a": planes[:2], "b": [planes[2], planes[0]]}
    bit_inputs = {"a": bits[:2], "b": bits[2:4]}
    out["executor.run"] = digest(
        flatten(CircuitExecutor(BatchGateEvaluator(cloud, 4)).run(circuit, word_inputs))
    )
    out["executor.run_samples"] = digest(
        flatten(CircuitExecutor.for_context(context, 1).run_samples(circuit, bit_inputs))
    )
    out["execute.eager"] = digest(flatten(circuit_oracle(circuit, scalar, bit_inputs)))

    scheduler = BatchScheduler()
    scheduler.register_client("alice", cloud)
    first, second = scheduler.session("alice"), scheduler.session("alice")
    circuit_handle = first.submit_circuit(circuit, bit_inputs)
    depth0_handle = second.submit_circuit(depth0_circuit(), {"a": bits[4:6]})
    gate_handle = first.submit_gate("nand", bits[5], bits[6])
    lut_handle = second.submit_lut(0x96, [gate_handle, bits[7], bits[0]])
    scheduler.flush()
    out["scheduler.circuit"] = digest(flatten(circuit_handle.result()))
    out["scheduler.depth0"] = digest(flatten(depth0_handle.result()))
    out["scheduler.chain"] = digest([gate_handle.result(), lut_handle.result()])

    refresh = context.batch_evaluator(1).bootstrap_rows
    gate_vector = make_test_vector(cloud.params, int(MU))
    half_vector = make_test_vector(cloud.params, int(MU) // 2)
    out["context.bootstrap"] = digest(
        [refresh(LweBatch.from_samples([bit]), gate_vector)[0] for bit in bits[:3]]
        + [refresh(LweBatch.from_samples([bits[3]]), half_vector)[0]]
    )
    out["context.bootstrap_batch"] = digest(
        refresh(planes[0], gate_vector).to_samples()
        + refresh(planes[1], half_vector).to_samples()
    )

    rated = FheContext(
        replace(cloud, params=replace(cloud.params, message_space=32), _context=None)
    )
    digits = [
        encrypt_digit(secret.lwe_key, value, ENCODING, rng=9200 + value)
        for value in (0, 5, 10, 15)
    ]
    lookups = [(ENCODING, tuple(table)) for table in DIGIT_TABLES]
    digit_rows = rated.batch_evaluator(1).rows
    out["pbs.scalar"] = digest(
        digit_rows([op], [LweBatch.from_samples([digit])])[0]
        for digit, op in zip(digits, lookups)
    )
    stacked = LweBatch.from_samples(digits)
    out["pbs.batch[shared]"] = digest(digit_rows(lookups[:1] * 4, [stacked]).to_samples())
    out["pbs.batch[per-row]"] = digest(digit_rows(lookups, [stacked]).to_samples())

    radix = RadixEvaluator(rated, ENCODING)
    x = encrypt_radix(secret.lwe_key, 0b100111, 3, ENCODING, rng=9300)
    y = encrypt_radix(secret.lwe_key, 0b011110, 3, ENCODING, rng=9301)
    total = radix.add(radix.add(x, y), y)
    out["radix.add+propagate"] = digest(total.digits + radix.propagate(total).digits)
    out["radix.mul"] = digest(radix.mul(x, y).digits)
    out["radix.gt"] = digest([radix.gt(x, y)])

    secret_m2, cloud_m2 = tiny_keys_naive_m2
    bits_m2 = [encrypt_bit(secret_m2, (i >> 1) & 1, rng=9400 + i) for i in range(8)]
    scalar_m2 = TFHEGateEvaluator(cloud_m2)
    out["bku2.scalar"] = digest(
        [scalar_m2.gate(name, bits_m2[0], bits_m2[3]) for name in GATES]
        + [scalar_m2.lut(table, bits_m2[:arity]) for table, arity in LUTS]
    )
    ca = LweBatch.from_samples(bits_m2[i % 8] for i in range(len(GATES)))
    cb = LweBatch.from_samples(bits_m2[(i + 3) % 8] for i in range(len(GATES)))
    out["bku2.gate_rows"] = digest(
        BatchGateEvaluator(cloud_m2, 4).gate_rows(GATES, ca, cb).to_samples()
    )
    return out


def test_every_entry_point_is_recorded(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_digest_matches_recorded(digests, label):
    assert digests[label] == GOLDEN[label]


def test_scheduler_and_executor_agree_with_eager(digests):
    assert digests["executor.run_samples"] == digests["execute.eager"]
    assert digests["scheduler.circuit"] == digests["execute.eager"]


def test_paths_that_must_agree_do(digests):
    """The equalities the recorded hashes imply, pinned without the hashes.

    These hold for any key, so they survive a re-recording of :data:`GOLDEN`.
    """
    for chunk in (None, 1, 3):
        assert digests[f"execute_rows.gates[{chunk}]"] == digests["batch.gate_rows"]
        assert digests[f"execute_rows.mixed[{chunk}]"] == digests["execute_rows.mixed[None]"]
    assert digests["pbs.scalar"] == digests["pbs.batch[per-row]"]
