"""Batch-equivalence property tests for the transform and polynomial layers.

The contract of the batch axis is *bit-identity*: transforming a stack of
polynomials in one call must produce exactly the result of looping the
single-polynomial path over the stack, for every engine.  These tests compare
raw array bits (``np.array_equal``), not tolerances.
"""

import numpy as np
import pytest

from tgsw_oracle import negacyclic_convolution, poly_mul_by_xk
from repro.core.integer_fft import ApproximateNegacyclicTransform, IntegerSpectrum
from repro.tfhe.polynomial import negacyclic_convolution_int64
from repro.tfhe.tlwe import TlweBatch, tlwe_batch_rotate
from repro.tfhe.transform import make_transform

ENGINES = ("naive", "double", "approx")
DEGREE = 64
BATCH = 7


def _random_int_polys(rng, shape, degree, magnitude=2**10):
    return rng.integers(-magnitude, magnitude, size=shape + (degree,)).astype(np.int64)


def _random_torus_polys(rng, shape, degree):
    return (
        rng.integers(-(2**31), 2**31, size=shape + (degree,))
        .astype(np.int64)
        .astype(np.int32)
    )


def _spectra_equal(engine_kind, batched, single, row):
    if engine_kind == "approx":
        scale = np.asarray(batched.scale_bits).reshape(-1)
        vals = batched.values.reshape(-1, batched.values.shape[-1])
        return np.array_equal(vals[row], single.values) and int(scale[row]) == int(
            single.scale_bits
        )
    return np.array_equal(
        np.asarray(batched).reshape(-1, np.asarray(batched).shape[-1])[row],
        np.asarray(single),
    )


@pytest.mark.parametrize("kind", ENGINES)
class TestBatchedTransformEquivalence:
    def test_forward_matches_loop(self, kind, rng):
        transform = make_transform(kind, DEGREE)
        polys = _random_int_polys(rng, (BATCH,), DEGREE)
        batched = transform.forward(polys)
        for i in range(BATCH):
            single = transform.forward(polys[i])
            assert _spectra_equal(kind, batched, single, i)

    def test_backward_matches_loop(self, kind, rng):
        transform = make_transform(kind, DEGREE)
        polys = _random_int_polys(rng, (BATCH,), DEGREE)
        batched = transform.backward(transform.forward(polys))
        assert batched.shape == (BATCH, DEGREE)
        for i in range(BATCH):
            single = transform.backward(transform.forward(polys[i]))
            assert np.array_equal(batched[i], single)

    def test_multiply_matches_loop(self, kind, rng):
        transform = make_transform(kind, DEGREE)
        ints = _random_int_polys(rng, (BATCH,), DEGREE, magnitude=128)
        torus = _random_torus_polys(rng, (BATCH,), DEGREE)
        batched = transform.multiply(ints, torus)
        for i in range(BATCH):
            single = transform.multiply(ints[i], torus[i])
            assert np.array_equal(batched[i], single)

    def test_multidimensional_stacks(self, kind, rng):
        """A (2, 3, N) stack behaves like the flattened (6, N) stack."""
        transform = make_transform(kind, DEGREE)
        polys = _random_int_polys(rng, (2, 3), DEGREE)
        nested = transform.backward(transform.forward(polys))
        flat = transform.backward(transform.forward(polys.reshape(6, DEGREE)))
        assert nested.shape == (2, 3, DEGREE)
        assert np.array_equal(nested.reshape(6, DEGREE), flat)

    def test_spectrum_mul_broadcasts_single_operand(self, kind, rng):
        """A batched operand multiplies with a single pre-transformed spectrum.

        This is the external-product access pattern: the decomposed
        accumulator rows are batched, the bootstrapping-key spectra are not.
        """
        transform = make_transform(kind, DEGREE)
        ints = _random_int_polys(rng, (BATCH,), DEGREE, magnitude=128)
        key_poly = _random_int_polys(rng, (), DEGREE, magnitude=128)
        key_spec = transform.forward(key_poly)
        batched = transform.backward(transform.spectrum_mul(transform.forward(ints), key_spec))
        for i in range(BATCH):
            single = transform.backward(
                transform.spectrum_mul(transform.forward(ints[i]), key_spec)
            )
            assert np.array_equal(batched[i], single)

    def test_spectrum_add_accumulate_matches_loop(self, kind, rng):
        transform = make_transform(kind, DEGREE)
        a = _random_int_polys(rng, (BATCH,), DEGREE, magnitude=128)
        b = _random_int_polys(rng, (BATCH,), DEGREE, magnitude=128)
        batched = transform.backward(
            transform.spectrum_add(transform.forward(a), transform.forward(b))
        )
        for i in range(BATCH):
            single = transform.backward(
                transform.spectrum_add(transform.forward(a[i]), transform.forward(b[i]))
            )
            assert np.array_equal(batched[i], single)


class TestApproxEngineBatchScales:
    """Per-polynomial fixed-point scales of the approximate integer engine."""

    def test_scales_are_chosen_per_row(self, rng):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        small = rng.integers(-4, 4, size=DEGREE).astype(np.int64)
        large = rng.integers(-(2**20), 2**20, size=DEGREE).astype(np.int64)
        batched = transform.forward(np.stack([small, large]))
        scales = np.asarray(batched.scale_bits)
        assert scales.shape == (2,)
        # A small-magnitude polynomial gets more fixed-point headroom.
        assert int(scales[0]) > int(scales[1])
        assert int(scales[0]) == transform.forward(small).scale_bits
        assert int(scales[1]) == transform.forward(large).scale_bits

    def test_zero_rows_do_not_degrade_the_sum(self, rng):
        """A zero spectrum row must leave the other operand's row untouched.

        In the scalar path an all-zero spectrum short-circuits
        ``spectrum_add``; the batched path must reproduce that per row, or a
        zero row's scale would drag down the precision of a live row.
        """
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        live = rng.integers(-(2**20), 2**20, size=(2, DEGREE)).astype(np.int64)
        mixed = live.copy()
        mixed[0] = 0
        spec_live = transform.forward(live[1])
        spec_mixed = transform.forward(mixed)
        spec_zero_row = IntegerSpectrum(
            np.zeros_like(spec_mixed.values), np.zeros(2, dtype=np.int64)
        )
        total = transform.spectrum_add(spec_mixed, spec_zero_row)
        # Row 1 (live) keeps its own scale and values bit-for-bit.
        assert int(np.asarray(total.scale_bits)[1]) == int(spec_live.scale_bits)
        assert np.array_equal(total.values[1], spec_live.values)
        # Row 0 (zero + zero) stays exactly zero.
        assert not np.any(total.values[0])

    def test_batched_mul_zero_row_is_exactly_zero(self, rng):
        transform = ApproximateNegacyclicTransform(DEGREE, twiddle_bits=64)
        polys = rng.integers(-128, 128, size=(3, DEGREE)).astype(np.int64)
        polys[1] = 0
        spec = transform.forward(polys)
        other = transform.forward(rng.integers(-128, 128, size=DEGREE).astype(np.int64))
        product = transform.spectrum_mul(spec, other)
        assert not np.any(product.values[1])


class TestBatchedPolynomialOps:
    def test_negacyclic_convolution_batched_matches_loop(self, rng):
        a = rng.integers(-128, 128, size=(BATCH, DEGREE)).astype(np.int64)
        b = _random_torus_polys(rng, (BATCH,), DEGREE)
        batched = negacyclic_convolution(a, b)
        for i in range(BATCH):
            assert np.array_equal(batched[i], negacyclic_convolution(a[i], b[i]))

    def test_negacyclic_convolution_broadcasts(self, rng):
        a = rng.integers(-128, 128, size=(BATCH, DEGREE)).astype(np.int64)
        b = rng.integers(-128, 128, size=DEGREE).astype(np.int64)
        batched = negacyclic_convolution_int64(a, b)
        for i in range(BATCH):
            assert np.array_equal(batched[i], negacyclic_convolution_int64(a[i], b))

    def test_poly_mul_by_xk_preserves_int64(self, rng):
        """Regression: int64 inputs used to be silently truncated to int32."""
        poly = rng.integers(-(2**40), 2**40, size=DEGREE).astype(np.int64)
        rotated = poly_mul_by_xk(poly, 5)
        assert rotated.dtype == np.int64
        # Rotating forward then back across the X^N = -1 boundary round-trips.
        assert np.array_equal(poly_mul_by_xk(rotated, 2 * DEGREE - 5), poly)
        # No truncation: magnitudes above 2^32 survive.
        assert np.array_equal(np.sort(np.abs(rotated)), np.sort(np.abs(poly)))

    def test_poly_mul_by_xk_rejects_unsupported_dtypes(self):
        with pytest.raises(TypeError):
            poly_mul_by_xk(np.zeros(DEGREE, dtype=np.float64), 1)

    def test_poly_mul_by_xk_batch_stack(self, rng):
        polys = _random_torus_polys(rng, (BATCH,), DEGREE)
        rotated = poly_mul_by_xk(polys, 9)
        assert rotated.dtype == np.int32
        for i in range(BATCH):
            assert np.array_equal(rotated[i], poly_mul_by_xk(polys[i], 9))

    @pytest.mark.parametrize("offset", [0, 1, DEGREE - 1, DEGREE, 2 * DEGREE - 1])
    def test_tlwe_batch_rotate_matches_loop(self, rng, offset):
        """Each ciphertext of a ``(B, 3, N)`` stack by its own power, all
        three of its polynomials alike."""
        batch = TlweBatch(_random_torus_polys(rng, (BATCH, 3), DEGREE))
        powers = (rng.integers(0, 2 * DEGREE, size=BATCH) + offset).astype(np.int64)
        rotated = tlwe_batch_rotate(batch, powers)
        for i in range(BATCH):
            assert np.array_equal(rotated.data[i], poly_mul_by_xk(batch.data[i], int(powers[i])))
