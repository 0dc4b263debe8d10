"""Tests for the integer helpers and the word-level netlists run by the executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circuit_oracle import circuit_oracle
from repro.tfhe.circuits import (
    bits_to_int,
    decrypt_integer,
    decrypt_integers,
    encrypt_integer,
    int_to_bits,
)
from repro.tfhe.executor import CircuitExecutor
from repro.tfhe.gates import TFHEGateEvaluator, encrypt_bit_batch
from repro.tfhe import netlist

#: Two-operand word circuits with their output name and plaintext function.
BINARY = {
    "add": (netlist.adder_netlist, "sum", lambda a, b, w: a + b),
    "subtract": (netlist.subtractor_netlist, "diff", lambda a, b, w: (a - b) % 2**w),
    "equal": (netlist.equal_netlist, "eq", lambda a, b, w: int(a == b)),
    "greater_than": (netlist.greater_than_netlist, "gt", lambda a, b, w: int(a > b)),
    "maximum": (netlist.maximum_netlist, "max", lambda a, b, w: max(a, b)),
}


@pytest.fixture(scope="module")
def circuit_env(tiny_keys_naive):
    secret, cloud = tiny_keys_naive
    return secret, CircuitExecutor.for_context(cloud.default_context(), 1)


def _run(env, name, width, a, b, rng):
    secret, executor = env
    factory, output, _ = BINARY[name]
    inputs = {
        "a": encrypt_integer(secret, a, width, rng=rng),
        "b": encrypt_integer(secret, b, width, rng=rng + 1),
    }
    return decrypt_integer(secret, executor.run_samples(factory(width), inputs)[output])


class TestBitHelpers:
    def test_roundtrip(self):
        for value in (0, 1, 5, 12, 255):
            assert bits_to_int(int_to_bits(value, 8)) == value

    def test_width_truncates(self):
        assert bits_to_int(int_to_bits(9, 2)) == 1

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            int_to_bits(3, 0)

    def test_encrypt_decrypt_integer(self, circuit_env):
        secret, _ = circuit_env
        cipher = encrypt_integer(secret, 11, 4, rng=1)
        assert decrypt_integer(secret, cipher) == 11

    def test_decrypt_integers_refuses_planes_of_different_widths(self, circuit_env):
        secret, _ = circuit_env
        planes = [
            encrypt_bit_batch(secret, [1, 0], rng=2),
            encrypt_bit_batch(secret, [1, 1, 0], rng=3),
        ]
        with pytest.raises(ValueError, match=r"different batch widths \[2, 3\]"):
            decrypt_integers(secret, planes)
        assert decrypt_integers(secret, planes[:1]) == [1, 0]

    def test_decrypt_integers_refuses_no_planes(self, circuit_env):
        secret, _ = circuit_env
        with pytest.raises(ValueError, match="at least one bit plane"):
            decrypt_integers(secret, [])


class TestArithmetic:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (3, 3), (2, 1)])
    def test_addition(self, circuit_env, a, b):
        assert _run(circuit_env, "add", 2, a, b, rng=10 + 2 * a + b) == a + b

    def test_negate_is_twos_complement(self, circuit_env):
        secret, executor = circuit_env
        cipher = encrypt_integer(secret, 3, 3, rng=30)
        out = executor.run_samples(netlist.negate_netlist(3), {"a": cipher})["neg"]
        assert decrypt_integer(secret, out) == (-3) % 8

    @pytest.mark.parametrize("a,b", [(3, 1), (2, 2), (1, 3)])
    def test_subtraction_mod_width(self, circuit_env, a, b):
        assert _run(circuit_env, "subtract", 2, a, b, rng=40 + 2 * a + b) == (a - b) % 4

    def test_width_mismatch_rejected(self, circuit_env):
        secret, executor = circuit_env
        ca = encrypt_integer(secret, 1, 2, rng=60)
        cb = encrypt_integer(secret, 1, 3, rng=61)
        with pytest.raises(ValueError, match="input 'b' expects 2 bits, got 3"):
            executor.run_samples(netlist.adder_netlist(2), {"a": ca, "b": cb})

    def test_empty_operands_rejected(self, circuit_env):
        _, executor = circuit_env
        with pytest.raises(ValueError, match="input 'a' expects 2 bits, got 0"):
            executor.run_samples(netlist.adder_netlist(2), {"a": [], "b": []})


class TestComparisonsAndSelection:
    @pytest.mark.parametrize("a,b", [(0, 0), (2, 2), (1, 2), (3, 0)])
    def test_equality(self, circuit_env, a, b):
        assert _run(circuit_env, "equal", 2, a, b, rng=70 + 2 * a + b) == int(a == b)

    @pytest.mark.parametrize("a,b", [(0, 0), (2, 1), (1, 2), (3, 3)])
    def test_greater_than(self, circuit_env, a, b):
        assert _run(circuit_env, "greater_than", 2, a, b, rng=90 + 2 * a + b) == int(a > b)

    def test_select_picks_branch(self, circuit_env):
        secret, executor = circuit_env
        high = encrypt_integer(secret, 3, 2, rng=110)
        low = encrypt_integer(secret, 1, 2, rng=111)
        constant = TFHEGateEvaluator(executor.evaluator.context).constant
        for bit, expected in ((1, 3), (0, 1)):
            chosen = executor.run_samples(
                netlist.select_netlist(2),
                {"cond": [constant(bit)], "if_true": high, "if_false": low},
            )["out"]
            assert decrypt_integer(secret, chosen) == expected

    @pytest.mark.parametrize("a,b", [(2, 1), (1, 3), (2, 2)])
    def test_maximum(self, circuit_env, a, b):
        assert _run(circuit_env, "maximum", 2, a, b, rng=120 + 2 * a + b) == max(a, b)


class TestEdgeCases:
    """The executor's input check and degenerate (zero/one-bit) word shapes."""

    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_width_mismatch_rejected_everywhere(self, circuit_env, name):
        secret, executor = circuit_env
        ca = encrypt_integer(secret, 1, 2, rng=140)
        cb = encrypt_integer(secret, 1, 3, rng=141)
        with pytest.raises(ValueError, match="input 'b' expects 2 bits, got 3"):
            executor.run_samples(BINARY[name][0](2), {"a": ca, "b": cb})

    def test_select_width_mismatch_rejected(self, circuit_env):
        secret, executor = circuit_env
        ca = encrypt_integer(secret, 1, 2, rng=142)
        cb = encrypt_integer(secret, 1, 3, rng=143)
        cond = encrypt_integer(secret, 1, 1, rng=144)
        with pytest.raises(ValueError, match="input 'if_false' expects 2 bits, got 3"):
            executor.run_samples(
                netlist.select_netlist(2), {"cond": cond, "if_true": ca, "if_false": cb}
            )

    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_zero_bit_operands_rejected_everywhere(self, circuit_env, name):
        _, executor = circuit_env
        with pytest.raises(ValueError, match="input 'a' expects 2 bits, got 0"):
            executor.run_samples(BINARY[name][0](2), {"a": [], "b": []})
        with pytest.raises(ValueError, match="width must be positive"):
            BINARY[name][0](0)

    def test_negate_zero_bits_rejected(self, circuit_env):
        _, executor = circuit_env
        with pytest.raises(ValueError, match="input 'a' expects 2 bits, got 0"):
            executor.run_samples(netlist.negate_netlist(2), {"a": []})
        with pytest.raises(ValueError, match="width must be positive"):
            netlist.negate_netlist(0)

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_one_bit_operands(self, circuit_env, a, b):
        for name, (_, _, plain) in BINARY.items():
            if name != "subtract":
                assert _run(circuit_env, name, 1, a, b, rng=150 + 2 * a + b) == plain(a, b, 1)

    def test_one_bit_negate_is_identity_mod_two(self, circuit_env):
        secret, executor = circuit_env
        for value in (0, 1):
            cipher = encrypt_integer(secret, value, 1, rng=170 + value)
            out = executor.run_samples(netlist.negate_netlist(1), {"a": cipher})["neg"]
            assert decrypt_integer(secret, out) == value


class TestOracleEquivalence:
    """The level-parallel executor and the gate-by-gate oracle agree on
    random integers, output ciphertext for output ciphertext."""

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_oracle_matches_levelized_executor(self, tiny_keys_naive, data):
        secret, cloud = tiny_keys_naive
        width = data.draw(st.integers(1, 4))
        a = data.draw(st.integers(0, 2**width - 1))
        b = data.draw(st.integers(0, 2**width - 1))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        inputs = {
            "a": encrypt_integer(secret, a, width, rng=rng),
            "b": encrypt_integer(secret, b, width, rng=rng),
        }
        evaluator = TFHEGateEvaluator(cloud)
        executor = CircuitExecutor.for_context(cloud.default_context(), 1)
        for name, (factory, output, _) in BINARY.items():
            circuit = factory(width)
            eager = circuit_oracle(circuit, evaluator, inputs)[output]
            levelized = executor.run_samples(circuit, inputs)[output]
            assert len(eager) == len(levelized)
            for bit_eager, bit_level in zip(eager, levelized):
                assert np.array_equal(bit_eager.a, bit_level.a), (name, a, b)
                assert int(bit_eager.b) == int(bit_level.b), (name, a, b)
