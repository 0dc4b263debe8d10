"""Integration tests: multi-gate encrypted circuits built on the public API.

These tests chain many bootstrapped gates (the scenario the paper's
introduction motivates with the TFHE RISC-V processor): ripple-carry addition,
comparison and multiplexing.  Gate outputs feed further gates, so they also
exercise the freshness of the bootstrapped noise across deep circuits.
"""

import pytest

from circuit_oracle import mux_oracle
from repro.tfhe.gates import TFHEGateEvaluator, decrypt_bits, encrypt_bits, decrypt_bit, encrypt_bit


def ripple_carry_add(evaluator, a_bits, b_bits):
    """Encrypted ripple-carry adder; returns sum bits plus the carry-out."""
    carry = evaluator.constant(0)
    total = []
    for ca, cb in zip(a_bits, b_bits):
        axb = evaluator.xor(ca, cb)
        total.append(evaluator.xor(axb, carry))
        carry = evaluator.or_(evaluator.and_(ca, cb), evaluator.and_(axb, carry))
    total.append(carry)
    return total


def equality_check(evaluator, a_bits, b_bits):
    """Encrypted equality comparator (AND of XNORs)."""
    result = evaluator.constant(1)
    for ca, cb in zip(a_bits, b_bits):
        result = evaluator.and_(result, evaluator.xnor(ca, cb))
    return result


def to_bits(value, width):
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits):
    return sum(bit << i for i, bit in enumerate(bits))


class TestEncryptedAdder:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (3, 3), (2, 3)])
    def test_two_bit_addition(self, tiny_keys_naive, a, b):
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        ca = encrypt_bits(secret, to_bits(a, 2), rng=1000 + a)
        cb = encrypt_bits(secret, to_bits(b, 2), rng=2000 + b)
        result = decrypt_bits(secret, ripple_carry_add(evaluator, ca, cb))
        assert from_bits(result) == a + b

    def test_three_bit_addition_on_double_fft_backend(self, small_keys_double):
        secret, cloud = small_keys_double
        evaluator = TFHEGateEvaluator(cloud)
        a, b = 5, 6
        ca = encrypt_bits(secret, to_bits(a, 3), rng=1)
        cb = encrypt_bits(secret, to_bits(b, 3), rng=2)
        result = decrypt_bits(secret, ripple_carry_add(evaluator, ca, cb))
        assert from_bits(result) == a + b


class TestEncryptedComparator:
    @pytest.mark.parametrize("a,b", [(2, 2), (1, 3), (0, 0), (3, 1)])
    def test_equality(self, tiny_keys_naive, a, b):
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        ca = encrypt_bits(secret, to_bits(a, 2), rng=3000 + a)
        cb = encrypt_bits(secret, to_bits(b, 2), rng=4000 + b)
        result = decrypt_bit(secret, equality_check(evaluator, ca, cb))
        assert result == int(a == b)


class TestDeepChains:
    def test_long_xor_chain_stays_correct(self, tiny_keys_naive):
        """Twelve chained bootstrapped gates: noise must not accumulate."""
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1]
        encrypted = encrypt_bits(secret, bits, rng=11)
        acc = encrypted[0]
        expected = bits[0]
        for bit, cipher in zip(bits[1:], encrypted[1:]):
            acc = evaluator.xor(acc, cipher)
            expected ^= bit
        assert decrypt_bit(secret, acc) == expected

    def test_mux_tree(self, tiny_keys_naive):
        secret, cloud = tiny_keys_naive
        evaluator = TFHEGateEvaluator(cloud)
        data = encrypt_bits(secret, [0, 1, 1, 0], rng=12)
        select = encrypt_bits(secret, [1, 0], rng=13)  # select index 1 -> data[1] = 1
        level0 = [
            mux_oracle(evaluator, select[0], data[1], data[0]),
            mux_oracle(evaluator, select[0], data[3], data[2]),
        ]
        top = mux_oracle(evaluator, select[1], level0[1], level0[0])
        assert decrypt_bit(secret, top) == 1

    def test_bku_backend_runs_the_same_circuit(self, tiny_keys_naive_m2):
        secret, cloud = tiny_keys_naive_m2
        evaluator = TFHEGateEvaluator(cloud)
        a, b = 3, 1
        ca = encrypt_bits(secret, to_bits(a, 2), rng=14)
        cb = encrypt_bits(secret, to_bits(b, 2), rng=15)
        result = decrypt_bits(secret, ripple_carry_add(evaluator, ca, cb))
        assert from_bits(result) == a + b
