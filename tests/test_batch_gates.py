"""Batch-equivalence tests for the full gate-bootstrapping stack.

Row ``i`` of every batched operation must be bit-identical to running the
scalar path on row ``i``, and both to the oracle composition of
``bootstrap_oracle`` — across both blind-rotation strategies (classical CMux
and BKU) and all three polynomial-multiplication engines.
"""

import numpy as np
import pytest

from bootstrap_oracle import bootstrap_oracle
from circuit_oracle import circuit_oracle, mux_oracle
from keyswitch_oracle import keyswitch_apply_batch_oracle
from repro.tfhe.bootstrap import make_test_vector
from repro.tfhe.circuits import decrypt_integers, encrypt_integers
from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import (
    MU,
    BatchGateEvaluator,
    PLAINTEXT_GATES,
    TFHEGateEvaluator,
    decrypt_bit_batch,
    encrypt_bit,
    encrypt_bit_batch,
)
from repro.tfhe.keyswitch import keyswitch_apply_batch
from repro.tfhe.lwe import LweBatch, lwe_encrypt, gate_message
from repro.tfhe.netlist import adder_netlist, select_netlist
from repro.tfhe.params import TEST_SMALL


def _assert_batch_equals_samples(batch, samples):
    assert batch.batch_size == len(samples)
    for i, sample in enumerate(samples):
        assert np.array_equal(batch.a[i], sample.a), f"row {i} mask differs"
        assert int(batch.b[i]) == int(sample.b), f"row {i} body differs"


@pytest.fixture(
    params=["tiny_keys_naive", "tiny_keys_naive_m2", "small_keys_double", "small_keys_approx_m2"]
)
def backend(request):
    """Every (engine, rotator) backend combination the conftest provides."""
    return request.getfixturevalue(request.param)


class TestBatchedBootstrap:
    BATCH = 4

    def test_gate_bootstrap_batch_is_bit_identical(self, backend):
        secret, cloud = backend
        rng = np.random.default_rng(1000)
        bits = rng.integers(0, 2, self.BATCH)
        samples = [encrypt_bit(secret, int(b), rng) for b in bits]
        batch = LweBatch.from_samples(samples)

        context = cloud.default_context()
        test_vector = make_test_vector(cloud.params, int(MU))
        refresh = context.batch_evaluator(1).bootstrap_rows
        out = refresh(batch, test_vector)
        expected = bootstrap_oracle(
            batch, test_vector, context.rotator, cloud.keyswitch_key, cloud.params
        )
        _assert_batch_equals_samples(out, expected.to_samples())
        _assert_batch_equals_samples(
            out, [refresh(LweBatch.from_samples([s]), test_vector)[0] for s in samples]
        )

    def test_batch_roundtrip_containers(self, backend):
        secret, _ = backend
        batch = encrypt_bit_batch(secret, [1, 0, 1], rng=7)
        rebuilt = LweBatch.from_samples(batch.to_samples())
        assert np.array_equal(batch.a, rebuilt.a)
        assert np.array_equal(batch.b, rebuilt.b)
        assert decrypt_bit_batch(secret, batch) == [1, 0, 1]


class TestBatchedKeySwitch:
    def test_keyswitch_apply_batch_matches_oracle(self, small_keys_double):
        secret, cloud = small_keys_double
        rng = np.random.default_rng(2000)
        messages = np.array(
            [gate_message(int(b)) for b in rng.integers(0, 2, 6)], dtype=np.int32
        )
        batch = LweBatch.from_samples(
            [lwe_encrypt(secret.extracted_key, message, rng=rng) for message in messages]
        )
        switched = keyswitch_apply_batch(cloud.keyswitch_key, batch)
        expected = keyswitch_apply_batch_oracle(cloud.keyswitch_key, batch)
        _assert_batch_equals_samples(switched, expected.to_samples())

    def test_keyswitch_apply_batch_wraparound_rows(self, small_keys_double):
        """Rows whose mask sits at the torus wrap-around switch identically."""
        secret, cloud = small_keys_double
        n_in = secret.extracted_key.dimension
        a = np.zeros((3, n_in), dtype=np.int32)
        a[0] = np.int32(-1)  # unsigned 0xFFFFFFFF everywhere
        a[1] = np.int32(2**31 - 1)
        a[2, ::2] = np.int32(-(2**31))
        batch = LweBatch(a=a, b=np.array([1, -1, 2**30], dtype=np.int32))
        switched = keyswitch_apply_batch(cloud.keyswitch_key, batch)
        expected = keyswitch_apply_batch_oracle(cloud.keyswitch_key, batch)
        _assert_batch_equals_samples(switched, expected.to_samples())

    def test_dimension_mismatch_rejected(self, small_keys_double):
        secret, cloud = small_keys_double
        bad = LweBatch(a=np.zeros((2, 3), dtype=np.int32), b=np.zeros(2, dtype=np.int32))
        with pytest.raises(ValueError):
            keyswitch_apply_batch(cloud.keyswitch_key, bad)


class TestBatchGateEvaluator:
    @pytest.mark.parametrize("name", sorted(PLAINTEXT_GATES))
    def test_all_gates_match_scalar_evaluator(self, tiny_keys_naive, name):
        secret, cloud = tiny_keys_naive
        scalar = TFHEGateEvaluator(cloud)
        batched = BatchGateEvaluator(cloud, batch_size=4)
        truth = PLAINTEXT_GATES[name]

        abits, bbits = [0, 0, 1, 1], [0, 1, 0, 1]
        ca = encrypt_bit_batch(secret, abits, rng=300)
        cb = encrypt_bit_batch(secret, bbits, rng=301)
        out = batched.gate(name, ca, cb)
        refs = [scalar.gate(name, ca[i], cb[i]) for i in range(4)]
        _assert_batch_equals_samples(out, refs)
        assert decrypt_bit_batch(secret, out) == [truth(a, b) for a, b in zip(abits, bbits)]

    def test_double_fft_backend_gate_matches(self, small_keys_double):
        secret, cloud = small_keys_double
        scalar = TFHEGateEvaluator(cloud)
        batched = BatchGateEvaluator(cloud, batch_size=4)
        ca = encrypt_bit_batch(secret, [0, 0, 1, 1], rng=310)
        cb = encrypt_bit_batch(secret, [0, 1, 0, 1], rng=311)
        out = batched.nand(ca, cb)
        refs = [scalar.nand(ca[i], cb[i]) for i in range(4)]
        _assert_batch_equals_samples(out, refs)
        assert decrypt_bit_batch(secret, out) == [1, 1, 1, 0]

    def test_mux_matches_scalar_composition(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        scalar = TFHEGateEvaluator(cloud)
        batched = BatchGateEvaluator(cloud, batch_size=4)
        sel = encrypt_bit_batch(secret, [0, 1, 0, 1], rng=320)
        t = encrypt_bit_batch(secret, [1, 1, 0, 0], rng=321)
        f = encrypt_bit_batch(secret, [0, 0, 1, 1], rng=322)
        out = mux_oracle(batched, sel, t, f)
        refs = [mux_oracle(scalar, sel[i], t[i], f[i]) for i in range(4)]
        _assert_batch_equals_samples(out, refs)

    def test_linear_gates_and_constants(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        batched = BatchGateEvaluator(cloud, batch_size=3)
        ca = encrypt_bit_batch(secret, [1, 0, 1], rng=330)
        assert decrypt_bit_batch(secret, batched.not_(ca)) == [0, 1, 0]
        assert decrypt_bit_batch(secret, batched.copy(ca)) == [1, 0, 1]
        assert decrypt_bit_batch(secret, batched.constant(1)) == [1, 1, 1]

    def test_batch_width_mismatch_rejected(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        batched = BatchGateEvaluator(cloud, batch_size=3)
        ca = encrypt_bit_batch(secret, [1, 0], rng=340)
        with pytest.raises(ValueError):
            batched.not_(ca)
        with pytest.raises(ValueError):
            BatchGateEvaluator(cloud, batch_size=0)

    def test_counters_count_batch_elements(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        batched = BatchGateEvaluator(cloud, batch_size=3)
        ca = encrypt_bit_batch(secret, [1, 0, 1], rng=350)
        cb = encrypt_bit_batch(secret, [1, 1, 0], rng=351)
        batched.nand(ca, cb)
        assert batched.counters.gates == 3
        assert batched.counters.bootstraps == 3


class TestBatchedCircuits:
    """Netlists over bit planes: ``run`` processes one word per batch row."""

    def test_batched_ripple_carry_adder(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        width = 3
        lhs, rhs = [1, 3, 5, 7], [2, 4, 1, 0]
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=len(lhs)))
        a = encrypt_integers(secret, lhs, width, rng=400)
        b = encrypt_integers(secret, rhs, width, rng=401)
        total = executor.run(adder_netlist(width), {"a": a, "b": b})["sum"]
        assert len(total) == width + 1
        assert decrypt_integers(secret, total) == [x + y for x, y in zip(lhs, rhs)]

    def test_batched_adder_matches_scalar_adder(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        width = 2
        lhs, rhs = [1, 2, 3], [3, 2, 1]
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=3))
        a_planes = encrypt_integers(secret, lhs, width, rng=410)
        b_planes = encrypt_integers(secret, rhs, width, rng=411)
        batched_sum = executor.run(adder_netlist(width), {"a": a_planes, "b": b_planes})["sum"]

        scalar = TFHEGateEvaluator(cloud)
        for row in range(3):
            a_bits = [plane[row] for plane in a_planes]
            b_bits = [plane[row] for plane in b_planes]
            scalar_sum = circuit_oracle(adder_netlist(width), scalar, {"a": a_bits, "b": b_bits})
            for plane, ref in zip(batched_sum, scalar_sum["sum"], strict=True):
                assert np.array_equal(plane.a[row], ref.a)
                assert int(plane.b[row]) == int(ref.b)

    def test_batched_select(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        executor = CircuitExecutor(BatchGateEvaluator(cloud, batch_size=2))
        cond = encrypt_bit_batch(secret, [1, 0], rng=420)
        t = encrypt_integers(secret, [2, 2], 2, rng=421)
        f = encrypt_integers(secret, [1, 1], 2, rng=422)
        picked = executor.run(select_netlist(2), {"cond": [cond], "if_true": t, "if_false": f})
        assert decrypt_integers(secret, picked["out"]) == [2, 1]
