"""Golden digests of the bootstrap-row path.

Every entry point that turns a gate, a lut, a digit lookup or a raw refresh
into a bootstrapping — the scalar evaluator, the batched evaluator,
``execute_rows``, the level-parallel executor, the scheduler's jobs,
``FheContext.bootstrap[_batch]``, the programmable bootstraps, the radix
integers, and both evaluators over a BKU (``unroll_factor=2``) twin key — is
run on one seeded ``test-tiny`` key with the exact ``naive`` engine, and the
sha256 of the output ciphertext bytes is compared with the value recorded
before the paths were unified.  The engine is integer-exact, so the digests
depend only on the seeded key and input streams; should a NumPy release ever
change ``Generator.normal``, rebuild the fixture's noise from ``rng.integers``
rather than loosening the comparison.

Re-recorded once since, when the key-switching key lost its digit-0 samples:
every key-switched output moved (25 digests; ``scheduler.depth0`` runs no
bootstrap and kept its value).  The equalities the recorded values implied
between paths are pinned on their own by
:func:`test_paths_that_must_agree_do`, which held before and after.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.runtime.context import FheContext
from repro.runtime.scheduler import BatchScheduler, execute_rows
from repro.tfhe.bootstrap import programmable_bootstrap, programmable_bootstrap_batch
from repro.tfhe.executor import CircuitExecutor, execute
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
    "batch.gate": "504ee3d3c8339de9fc91f0c9c8181292dbc8838e92681fc9bf5ca4ad746db044",
    "batch.gate_rows": "20ff8063f647539e5e730b8201156224adbbd174152373a821e89d5a3e51ee1d",
    "batch.lut": "f8b5e954183a1f7bc3e004b75f4288b06bb6c3f53a56d09fb6ca2161839cf796",
    "bku2.gate_rows": "6c3c2114fa1e03a1a8161eaf144c0257b167af122e4a4be654ae808fad7f84a1",
    "bku2.scalar": "0ddd236db34b9ebf983b074a76da619f11a66c48008e4d632294d2f8f02a793e",
    "context.bootstrap": "b69de33c4467448e1db143536fb65615e90e2a6d8c30b2da82f045314f4bce80",
    "context.bootstrap_batch": "c10dac2c7c757933fbbf27a1d4081f7f4d53933bfe9563afaf45df308ee7efb1",
    "execute.eager": "b2ef8d0efe98f68323f13bfd7302d9a33465e3724c3ac70b35dbe9193d924a17",
    "execute_rows.gates[1]": "20ff8063f647539e5e730b8201156224adbbd174152373a821e89d5a3e51ee1d",
    "execute_rows.gates[3]": "20ff8063f647539e5e730b8201156224adbbd174152373a821e89d5a3e51ee1d",
    "execute_rows.gates[None]": "20ff8063f647539e5e730b8201156224adbbd174152373a821e89d5a3e51ee1d",
    "execute_rows.mixed[1]": "8d6149fb2e4fc0fd82e95f726891e5e3343cf4e1203bbf1eb654f7efbf198e5b",
    "execute_rows.mixed[3]": "8d6149fb2e4fc0fd82e95f726891e5e3343cf4e1203bbf1eb654f7efbf198e5b",
    "execute_rows.mixed[None]": "8d6149fb2e4fc0fd82e95f726891e5e3343cf4e1203bbf1eb654f7efbf198e5b",
    "executor.run": "06e7abefbff5aec414ae7f44fc28322b79608a5cd2455ba37b3c53c4888b93c3",
    "executor.run_samples": "b2ef8d0efe98f68323f13bfd7302d9a33465e3724c3ac70b35dbe9193d924a17",
    "pbs.batch[per-row]": "2c99978878ad9c5c31765979a2c44636aff01b38d3dae9a396353b6afaaf8b17",
    "pbs.batch[shared]": "a0c2284e553508f1af046ee695bf1e81589300e4d33911cd8b7aa6d1ca546c01",
    "pbs.scalar": "2c99978878ad9c5c31765979a2c44636aff01b38d3dae9a396353b6afaaf8b17",
    "radix.add+propagate": "75251621288e5f135270438cc42baaa3187bb84a1a3a7503ce80f6d3a830e888",
    "radix.gt": "804adb255d3e68b8d768c5019d6a8880611646aa9816b41dfa254a7767fee73d",
    "radix.mul": "95917b925def39cd4ef283386517cdb285c87842de341a337a73118250353873",
    "scalar": "5d80d7f4ffb769ebea89a54e2d62fd6733016c052d0421d2669553c3c66f1d3f",
    "scheduler.chain": "c55ee925015a4f71eec3507bb1ff9783001790074179aa316a69f952f4c22312",
    "scheduler.circuit": "b2ef8d0efe98f68323f13bfd7302d9a33465e3724c3ac70b35dbe9193d924a17",
    "scheduler.depth0": "e42d7f00cfe0ce6a564ba0eeae2bec9cb50f9ad82d10994e649eb4418ed88510",
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
        + [scalar.mux(bits[2], bits[3], bits[4])]
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
    out["execute.eager"] = digest(flatten(execute(circuit, scalar, bit_inputs)))

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

    out["context.bootstrap"] = digest(
        [context.bootstrap(bit) for bit in bits[:3]]
        + [context.bootstrap(bits[3], mu=int(MU) // 2)]
    )
    out["context.bootstrap_batch"] = digest(
        context.bootstrap_batch(planes[0]).to_samples()
        + context.bootstrap_batch(planes[1], mu=int(MU) // 2).to_samples()
    )

    rated = FheContext(
        replace(cloud, params=replace(cloud.params, message_space=32), _context=None)
    )
    digits = [
        encrypt_digit(secret.lwe_key, value, ENCODING, rng=9200 + value)
        for value in (0, 5, 10, 15)
    ]
    out["pbs.scalar"] = digest(
        programmable_bootstrap(rated, digit, table, ENCODING)
        for digit, table in zip(digits, DIGIT_TABLES)
    )
    stacked = LweBatch.from_samples(digits)
    out["pbs.batch[shared]"] = digest(
        programmable_bootstrap_batch(rated, stacked, DIGIT_TABLES[0], ENCODING).to_samples()
    )
    out["pbs.batch[per-row]"] = digest(
        programmable_bootstrap_batch(rated, stacked, DIGIT_TABLES, ENCODING).to_samples()
    )

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
