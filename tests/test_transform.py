"""Tests for the reference polynomial-multiplication engines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tgsw_oracle import negacyclic_convolution
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    NaiveNegacyclicTransform,
    TransformSpec,
    available_engines,
    engine_entry,
    make_transform,
    register_engine,
)

DEGREE = 64


def random_polys(seed=0, degree=DEGREE):
    rng = np.random.default_rng(seed)
    int_poly = rng.integers(-512, 512, degree)
    torus_poly = rng.integers(-(2**31), 2**31, degree).astype(np.int32)
    return int_poly, torus_poly


class TestNaiveTransform:
    def test_multiply_matches_ground_truth(self):
        a, b = random_polys()
        transform = NaiveNegacyclicTransform(DEGREE)
        assert np.array_equal(transform.multiply(a, b), negacyclic_convolution(a, b))

    def test_stats_count_polynomials(self):
        a, b = random_polys()
        transform = NaiveNegacyclicTransform(DEGREE)
        transform.multiply(a, b)
        assert transform.stats.forward_polys == 2
        assert transform.stats.backward_polys == 1
        transform.reset_stats()
        assert transform.stats.forward_polys == 0
        # A stack counts every polynomial in it, batch axes included.
        transform.backward(transform.forward(np.zeros((3, 2, DEGREE), dtype=np.int64)))
        assert (transform.stats.forward_polys, transform.stats.backward_polys) == (6, 6)

    def test_degree_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            NaiveNegacyclicTransform(100)

    def test_wrong_length_input_rejected(self):
        transform = NaiveNegacyclicTransform(DEGREE)
        with pytest.raises(ValueError):
            transform.forward(np.zeros(DEGREE * 2, dtype=np.int64))


class TestDoubleTransform:
    def test_multiply_matches_ground_truth_exactly(self):
        a, b = random_polys()
        transform = DoubleFFTNegacyclicTransform(DEGREE)
        assert np.array_equal(transform.multiply(a, b), negacyclic_convolution(a, b))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20)
    def test_forward_backward_roundtrip(self, fill):
        transform = DoubleFFTNegacyclicTransform(DEGREE)
        poly = np.full(DEGREE, np.int32(fill - 2**30), dtype=np.int32)
        recovered = transform.backward(transform.forward(poly))
        assert np.array_equal(recovered, poly.astype(np.int64))

    def test_spectrum_length_is_half_degree(self):
        transform = DoubleFFTNegacyclicTransform(DEGREE)
        spectrum = transform.forward(np.zeros(DEGREE, dtype=np.int32))
        assert spectrum.shape == (DEGREE // 2,)

    def test_spectrum_add_is_pointwise(self):
        a, b = random_polys()
        transform = DoubleFFTNegacyclicTransform(DEGREE)
        sa, sb = transform.forward(a), transform.forward(b)
        merged = transform.backward(transform.spectrum_add(sa, sb))
        assert np.array_equal(merged, a.astype(np.int64) + b.astype(np.int64))


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_transform("naive", DEGREE), NaiveNegacyclicTransform)
        assert isinstance(make_transform("double", DEGREE), DoubleFFTNegacyclicTransform)

    def test_approx_kind_builds_integer_transform(self):
        from repro.core.integer_fft import ApproximateNegacyclicTransform

        transform = make_transform("approx", DEGREE, twiddle_bits=32)
        assert isinstance(transform, ApproximateNegacyclicTransform)
        assert transform.twiddle_bits == 32

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_transform("ntt", DEGREE)


class TestEngineRegistry:
    def test_builtin_kinds_registered(self):
        assert available_engines() == ("approx", "double", "naive")

    def test_unknown_kind_error_lists_registered_engines(self):
        with pytest.raises(
            ValueError, match="registered engines:.*approx.*double.*naive"
        ):
            make_transform("ntt", DEGREE)

    def test_bogus_kwarg_rejected_with_valid_options(self):
        # The error names the offending engine and lists its accepted kwargs.
        with pytest.raises(
            ValueError,
            match=r"twiddel_bits.*engine 'approx' accepts:.*twiddle_bits",
        ):
            make_transform("approx", DEGREE, twiddel_bits=32)

    def test_engine_without_options_rejects_any_kwarg(self):
        # Historically silently-crashing deep in the constructor; now a
        # registry-level error naming the engine.
        with pytest.raises(ValueError, match="'double'"):
            make_transform("double", DEGREE, twiddle_bits=32)

    def test_register_custom_engine(self):
        register_engine(
            "naive-alias", NaiveNegacyclicTransform, description="test alias"
        )
        try:
            assert isinstance(
                make_transform("naive-alias", DEGREE), NaiveNegacyclicTransform
            )
            assert engine_entry("naive-alias").description == "test alias"
        finally:
            from repro.tfhe import transform as transform_module

            del transform_module._ENGINE_REGISTRY["naive-alias"]

    def test_spec_round_trip(self):
        engine = make_transform("approx", DEGREE, twiddle_bits=24)
        spec = engine.spec()
        assert spec == TransformSpec.from_options(
            "approx", twiddle_bits=24, target_msb=36
        )
        rebuilt = spec.create(DEGREE)
        assert type(rebuilt) is type(engine)
        assert rebuilt.twiddle_bits == 24
        assert TransformSpec.from_json(spec.to_json()) == spec

    def test_builtin_specs(self):
        assert NaiveNegacyclicTransform(DEGREE).spec() == TransformSpec("naive")
        assert DoubleFFTNegacyclicTransform(DEGREE).spec() == TransformSpec("double")


class TestContractAccumulate:
    @pytest.mark.parametrize("kind", ["naive", "double", "approx"])
    def test_one_stacked_pass_computes_the_sum_of_products(self, kind):
        rng = np.random.default_rng(5)
        transform = make_transform(kind, DEGREE)
        ints = [rng.integers(-64, 64, DEGREE) for _ in range(4)]
        toruses = [
            rng.integers(-(2**31), 2**31, DEGREE).astype(np.int32) for _ in range(4)
        ]
        # A packed (rows, columns=1, spectral) tensor, as a TGSW sample's is.
        tensor = transform.spectrum_expand(transform.forward(np.stack(toruses)), -2)
        transform.reset_stats()
        got = transform.contract_accumulate(np.stack(ints), tensor)[0]
        # One stacked forward of the four rows, one backward of the column.
        assert transform.stats.forward_polys == 4
        assert transform.stats.backward_polys == 1
        # The result still matches the per-term reference, folded from the
        # first product.
        reference = make_transform(kind, DEGREE)
        spectra = [
            reference.spectrum_mul(reference.forward(poly), reference.forward(torus))
            for poly, torus in zip(ints, toruses)
        ]
        acc = spectra[0]
        for product in spectra[1:]:
            acc = reference.spectrum_add(acc, product)
        from repro.tfhe.torus import torus32_from_int64

        assert np.array_equal(got, torus32_from_int64(reference.backward(acc)))
        if kind != "approx":  # ...and, where the engine is exact, the truth.
            truth = sum(
                negacyclic_convolution(i, t).astype(np.int64)
                for i, t in zip(ints, toruses)
            )
            assert np.array_equal(got, torus32_from_int64(truth))
