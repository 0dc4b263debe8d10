"""Tests for TGSW: gadget decomposition, external product and CMux.

A single TLWE operand enters the batched kernels as a one-row batch.
"""

import numpy as np
import pytest

from tgsw_oracle import (
    gadget_decompose,
    gadget_recompose,
    poly_mul_by_xk,
    tlwe_batch_add,
    tlwe_batch_sub,
    tlwe_phase,
)
from repro.tfhe.params import TEST_TINY, TgswParams
from repro.tfhe.tgsw import (
    decomposition_offset,
    gadget_decompose_rows,
    gadget_values,
    tgsw_batch_cmux_rotate,
    tgsw_batch_external_product,
    tgsw_encrypt,
    tgsw_encrypt_zero,
    tgsw_identity,
    tgsw_transform,
)
from repro.tfhe.tlwe import (
    TlweBatch,
    tlwe_batch_trivial,
    tlwe_encrypt,
    tlwe_key_generate,
)
from repro.tfhe.torus import double_to_torus32, torus_distance
from repro.tfhe.transform import NaiveNegacyclicTransform

PARAMS = TEST_TINY


@pytest.fixture(scope="module")
def setup():
    transform = NaiveNegacyclicTransform(PARAMS.N)
    key = tlwe_key_generate(PARAMS.tlwe, rng=31)
    return transform, key


def message_poly(value=0.125):
    return np.full(PARAMS.N, double_to_torus32(value), dtype=np.int32)


def trivial(message) -> TlweBatch:
    """A one-row batch of the trivial encryption of ``message``."""
    return tlwe_batch_trivial(message, PARAMS.k, 1)


class TestGadgetDecomposition:
    def test_gadget_values_are_descending_powers(self):
        values = gadget_values(PARAMS.tgsw)
        assert len(values) == PARAMS.l
        for j in range(PARAMS.l):
            assert int(values[j]) == 2 ** (32 - PARAMS.tgsw.decomp_base_bits * (j + 1))

    def test_offset_is_half_base_in_every_level(self):
        offset = decomposition_offset(PARAMS.tgsw)
        assert offset > 0

    def test_digits_are_bounded(self):
        rng = np.random.default_rng(32)
        poly = rng.integers(-(2**31), 2**31, PARAMS.N).astype(np.int32)
        digits = gadget_decompose(poly, PARAMS.tgsw)
        half_base = PARAMS.Bg // 2
        assert digits.min() >= -half_base
        assert digits.max() < half_base

    def test_recomposition_error_is_bounded(self):
        rng = np.random.default_rng(33)
        poly = rng.integers(-(2**31), 2**31, PARAMS.N).astype(np.int32)
        digits = gadget_decompose(poly, PARAMS.tgsw)
        recomposed = gadget_recompose(digits, PARAMS.tgsw)
        max_error = torus_distance(recomposed, poly).max()
        # The decomposition drops the bits below the last digit (floor
        # semantics, like the reference library), so the error is below one
        # unit of the last digit.
        bound = float(PARAMS.Bg) ** (-PARAMS.l)
        assert max_error <= bound + 2.0**-31

    def test_decompose_shape(self):
        poly = np.zeros(PARAMS.N, dtype=np.int32)
        assert gadget_decompose(poly, PARAMS.tgsw).shape == (PARAMS.l, PARAMS.N)


#: ``(l, log2 Bg)`` gadget shapes, from one 31-bit digit to 32 one-bit digits.
GADGET_SHAPES = [(1, 31), (1, 8), (2, 10), (2, 16), (3, 7), (3, 10), (4, 8), (5, 6), (8, 4), (32, 1)]


@pytest.mark.parametrize("length,base_bits", GADGET_SHAPES)
class TestGadgetShapes:
    """The uint32 digit-stack kernel against the int64 reference, for every
    gadget shape with ``l · log2 Bg <= 32``."""

    @staticmethod
    def data(length, base_bits):
        rng = np.random.default_rng(length * 100 + base_bits)
        return rng.integers(-(2**31), 2**31, (2, PARAMS.k + 1, PARAMS.N)).astype(np.int32)

    def test_digit_stack_matches_the_reference(self, length, base_bits):
        params = TgswParams(decomp_length=length, decomp_base_bits=base_bits)
        data = self.data(length, base_bits)
        stack = gadget_decompose_rows(data, params)
        assert stack.shape == ((PARAMS.k + 1) * length, 2, PARAMS.N)
        for block in range(PARAMS.k + 1):
            digits = gadget_decompose(data[..., block, :], params)
            for j in range(length):
                assert np.array_equal(stack[block * length + j], digits[j])

    def test_digits_are_bounded_and_recompose(self, length, base_bits):
        params = TgswParams(decomp_length=length, decomp_base_bits=base_bits)
        poly = self.data(length, base_bits)[0, 0]
        digits = gadget_decompose(poly, params)
        assert digits.min() >= -(params.base // 2)
        assert digits.max() < params.base // 2
        error = torus_distance(gadget_recompose(digits, params), poly).max()
        assert error <= 2.0 ** (-length * base_bits) + 2.0**-31


class TestTgswStructure:
    def test_zero_encryption_shape(self, setup):
        transform, key = setup
        sample = tgsw_encrypt_zero(key, PARAMS.tgsw, transform, rng=34)
        assert sample.rows == (PARAMS.k + 1) * PARAMS.l
        assert sample.degree == PARAMS.N

    def test_identity_is_noiseless_gadget(self):
        identity = tgsw_identity(PARAMS.tlwe, PARAMS.tgsw)
        gadget = gadget_values(PARAMS.tgsw)
        for block in range(PARAMS.k + 1):
            for j in range(PARAMS.l):
                row = block * PARAMS.l + j
                assert identity.data[row, block, 0] == gadget[j]

    def test_transform_preserves_shape(self, setup):
        transform, key = setup
        sample = tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=35)
        transformed = tgsw_transform(sample, transform)
        assert transformed.rows == sample.rows
        assert transformed.mask_count == sample.mask_count


class TestExternalProduct:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_external_product_multiplies_message(self, setup, bit):
        transform, key = setup
        tgsw = tgsw_encrypt(key, bit, PARAMS.tgsw, transform, rng=36 + bit)
        message = message_poly()
        tlwe = TlweBatch(tlwe_encrypt(key, message, transform, rng=38).data[None])
        product = tgsw_batch_external_product(tgsw_transform(tgsw, transform), tlwe, transform)
        phase = tlwe_phase(key, product[0], transform)
        expected = message if bit else np.zeros_like(message)
        assert torus_distance(phase, expected).max() < 2e-2

    def test_external_product_with_identity_keeps_message(self, setup):
        transform, key = setup
        identity = tgsw_transform(tgsw_identity(PARAMS.tlwe, PARAMS.tgsw), transform)
        message = message_poly()
        product = tgsw_batch_external_product(identity, trivial(message), transform)
        phase = tlwe_phase(key, product[0], transform)
        assert torus_distance(phase, message).max() < 1e-3

    def test_incompatible_operands_raise(self, setup):
        transform, key = setup
        tgsw = tgsw_transform(tgsw_identity(PARAMS.tlwe, PARAMS.tgsw), transform)
        bad = trivial(np.zeros(PARAMS.N * 2, dtype=np.int32))
        with pytest.raises(ValueError):
            tgsw_batch_external_product(tgsw, bad, transform)


class TestCMux:
    @pytest.mark.parametrize("selector_bit", [0, 1])
    def test_cmux_selects_branch(self, setup, selector_bit):
        transform, key = setup
        selector = tgsw_transform(
            tgsw_encrypt(key, selector_bit, PARAMS.tgsw, transform, rng=40 + selector_bit),
            transform,
        )
        if_true, if_false = trivial(message_poly(0.25)), trivial(message_poly(-0.25))
        # CMux(C, d1, d0) = C ⊡ (d1 − d0) + d0
        product = tgsw_batch_external_product(
            selector, tlwe_batch_sub(if_true, if_false), transform
        )
        phase = tlwe_phase(key, tlwe_batch_add(product, if_false)[0], transform)
        expected = message_poly(0.25) if selector_bit else message_poly(-0.25)
        assert torus_distance(phase, expected).max() < 2e-2

    def test_cmux_on_rotated_accumulator(self, setup):
        """The exact CMux use of the blind rotation: select X^a * ACC or ACC."""
        transform, key = setup
        selector = tgsw_transform(
            tgsw_encrypt(key, 1, PARAMS.tgsw, transform, rng=42), transform
        )
        testv = message_poly(0.125)
        result = tgsw_batch_cmux_rotate(selector, trivial(testv), [5], transform)
        phase = tlwe_phase(key, result[0], transform)
        assert torus_distance(phase, poly_mul_by_xk(testv, 5)).max() < 2e-2
