"""Truth-table tests for every homomorphic gate, across evaluation backends."""

import pytest

from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import (
    PLAINTEXT_GATES,
    TFHEGateEvaluator,
    decrypt_bit,
    decrypt_bits,
    encrypt_bit,
    encrypt_bits,
)
from repro.tfhe.netlist import select_netlist

ALL_INPUT_PAIRS = [(a, b) for a in (0, 1) for b in (0, 1)]


class TestGateTruthTablesExact:
    """Every two-input gate against its truth table (exact transform, tiny ring)."""

    @pytest.mark.parametrize("gate", sorted(PLAINTEXT_GATES))
    def test_gate_truth_table(self, tiny_keys_naive, tiny_evaluator, gate):
        secret, _ = tiny_keys_naive
        for a, b in ALL_INPUT_PAIRS:
            ca = encrypt_bit(secret, a, rng=100 + a)
            cb = encrypt_bit(secret, b, rng=200 + b)
            result = tiny_evaluator.gate(gate, ca, cb)
            assert decrypt_bit(secret, result) == PLAINTEXT_GATES[gate](a, b), (gate, a, b)


class TestGateTruthTablesDoubleFFT:
    """NAND/XOR/AND on the double-precision FFT backend (the TFHE-library path)."""

    @pytest.mark.parametrize("gate", ["nand", "xor", "and"])
    @pytest.mark.parametrize("inputs", ALL_INPUT_PAIRS)
    def test_gate(self, small_keys_double, small_evaluator_double, gate, inputs):
        secret, _ = small_keys_double
        a, b = inputs
        ca = encrypt_bit(secret, a, rng=300 + a)
        cb = encrypt_bit(secret, b, rng=400 + b)
        result = small_evaluator_double.gate(gate, ca, cb)
        assert decrypt_bit(secret, result) == PLAINTEXT_GATES[gate](a, b)


class TestGateTruthTablesMatchaBackend:
    """NAND/XNOR on MATCHA's approximate integer FFT with BKU m=2.

    This is the paper's core correctness claim: approximate multiplication-less
    FFT/IFFT kernels do not cause decryption errors.
    """

    @pytest.mark.parametrize("gate", ["nand", "xnor"])
    @pytest.mark.parametrize("inputs", ALL_INPUT_PAIRS)
    def test_gate(self, small_keys_approx_m2, small_evaluator_approx, gate, inputs):
        secret, _ = small_keys_approx_m2
        a, b = inputs
        ca = encrypt_bit(secret, a, rng=500 + a)
        cb = encrypt_bit(secret, b, rng=600 + b)
        result = small_evaluator_approx.gate(gate, ca, cb)
        assert decrypt_bit(secret, result) == PLAINTEXT_GATES[gate](a, b)


class TestLinearGates:
    def test_not_gate(self, tiny_keys_naive, tiny_evaluator):
        secret, _ = tiny_keys_naive
        for bit in (0, 1):
            ca = encrypt_bit(secret, bit, rng=700 + bit)
            assert decrypt_bit(secret, tiny_evaluator.not_(ca)) == 1 - bit

    def test_constant_gate(self, tiny_keys_naive, tiny_evaluator):
        secret, _ = tiny_keys_naive
        for bit in (0, 1):
            assert decrypt_bit(secret, tiny_evaluator.constant(bit)) == bit

    def test_copy_gate(self, tiny_keys_naive, tiny_evaluator):
        secret, _ = tiny_keys_naive
        ca = encrypt_bit(secret, 1, rng=702)
        assert decrypt_bit(secret, tiny_evaluator.copy(ca)) == 1

    def test_double_not_is_identity(self, tiny_keys_naive, tiny_evaluator):
        secret, _ = tiny_keys_naive
        ca = encrypt_bit(secret, 1, rng=703)
        assert decrypt_bit(secret, tiny_evaluator.not_(tiny_evaluator.not_(ca))) == 1


class TestMux:
    @pytest.mark.parametrize("sel", [0, 1])
    def test_mux_selects(self, tiny_keys_naive, sel):
        secret, cloud = tiny_keys_naive
        csel = encrypt_bit(secret, sel, rng=800 + sel)
        ct = encrypt_bit(secret, 1, rng=810)
        cf = encrypt_bit(secret, 0, rng=811)
        executor = CircuitExecutor.for_context(cloud.default_context(), 1)
        inputs = {"cond": [csel], "if_true": [ct], "if_false": [cf]}
        (result,) = executor.run_samples(select_netlist(1), inputs)["out"]
        assert decrypt_bit(secret, result) == (1 if sel else 0)


class TestEvaluatorBookkeeping:
    def test_unknown_gate_name_rejected(self, tiny_evaluator, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        ca = encrypt_bit(secret, 0, rng=900)
        with pytest.raises(ValueError):
            tiny_evaluator.gate("nandy", ca, ca)

    def test_counters_track_gates_and_bootstraps(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        ca = encrypt_bit(secret, 1, rng=901)
        cb = encrypt_bit(secret, 0, rng=902)
        evaluator.nand(ca, cb)
        evaluator.not_(ca)
        assert evaluator.counters.gates == 2
        assert evaluator.counters.bootstraps == 1
        evaluator.counters.reset()
        assert evaluator.counters.gates == 0

    def test_encrypt_decrypt_bits_helpers(self, tiny_keys_naive):
        secret, _ = tiny_keys_naive
        bits = [1, 0, 1, 1]
        samples = encrypt_bits(secret, bits, rng=903)
        assert decrypt_bits(secret, samples) == bits
