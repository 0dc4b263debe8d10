"""Tests for the analytic noise model (Table 3 / Section 4.3)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.runtime import FheContext
from repro.tfhe.gates import encrypt_bit_batch
from repro.tfhe.lwe import lwe_batch_phase, lwe_round_mask
from repro.tfhe.noise import (
    GATE_DECISION_MARGIN,
    REPLY_ROUNDING_SHARE,
    NoiseBudget,
    TfheNoiseModel,
    max_safe_fft_error,
)
from repro.tfhe.params import PAPER_110BIT, PARAMETER_SETS, TEST_SMALL
from repro.tfhe.torus import torus32_from_int64, torus32_to_double


class TestBudgetArithmetic:
    def test_total_is_sum_of_sources(self):
        budget = NoiseBudget(0.0, 1e-6, 2e-6, 3e-6, 4e-6)
        assert budget.total_variance == pytest.approx(1e-5)
        assert budget.total_stddev == pytest.approx(math.sqrt(1e-5))

    def test_failure_probability_monotone_in_noise(self):
        quiet = NoiseBudget(0, 1e-8, 1e-8, 0, 1e-8)
        loud = NoiseBudget(0, 1e-4, 1e-4, 0, 1e-4)
        assert quiet.failure_probability() < loud.failure_probability()

    def test_zero_noise_never_fails(self):
        assert NoiseBudget(0, 0, 0, 0, 0).failure_probability() == 0.0

    def test_expected_failures_scale_with_gate_count(self):
        budget = NoiseBudget(0, 1e-4, 1e-4, 0, 1e-4)
        assert budget.expected_failures(2e8) == pytest.approx(2 * budget.expected_failures(1e8))


class TestModelStructure:
    def test_iterations_shrink_with_m(self):
        assert TfheNoiseModel(PAPER_110BIT, 1).iterations == 630
        assert TfheNoiseModel(PAPER_110BIT, 2).iterations == 315
        assert TfheNoiseModel(PAPER_110BIT, 3).iterations == 210

    def test_keys_per_group_grow_exponentially(self):
        assert [TfheNoiseModel(PAPER_110BIT, m).keys_per_group for m in (1, 2, 3, 4, 5)] == [
            1,
            3,
            7,
            15,
            31,
        ]

    def test_invalid_unroll_rejected(self):
        with pytest.raises(ValueError):
            TfheNoiseModel(PAPER_110BIT, 0)

    def test_paper_parameters_decrypt_reliably(self):
        """Without FFT error the 110-bit parameters practically never fail."""
        for m in (1, 2, 3, 4):
            budget = TfheNoiseModel(PAPER_110BIT, m).gate_budget()
            assert budget.expected_failures(1.0e8) < 1e-3

    def test_total_noise_grows_with_m(self):
        """Table 3: the exponentially growing BK term dominates at large m."""
        sigmas = [TfheNoiseModel(PAPER_110BIT, m).gate_budget().total_stddev for m in (1, 2, 3, 4, 5)]
        assert sigmas == sorted(sigmas)

    def test_pre_bootstrap_margin_holds_for_gates(self):
        model = TfheNoiseModel(PAPER_110BIT, 2)
        assert model.pre_bootstrap_margin_ok(operand_count=2, scale=1)
        assert model.pre_bootstrap_margin_ok(operand_count=2, scale=2)

    def test_fft_variance_adds_to_budget(self):
        clean = TfheNoiseModel(PAPER_110BIT, 2).gate_budget().total_variance
        noisy = TfheNoiseModel(PAPER_110BIT, 2, fft_error_stddev=1e-5).gate_budget().total_variance
        assert noisy > clean


class TestTable3Metrics:
    def test_relative_scalings(self):
        metrics = TfheNoiseModel(PAPER_110BIT, 4).table3_relative_metrics()
        assert metrics["external_product_noise_scale"] == pytest.approx(0.25)
        assert metrics["rounding_noise_scale"] == pytest.approx(0.25)
        assert metrics["bootstrapping_keys_per_group"] == 15

    def test_fft_error_db_conversion(self):
        metrics = TfheNoiseModel(PAPER_110BIT, 2, fft_error_stddev=1e-7).table3_relative_metrics()
        assert metrics["fft_error_db"] == pytest.approx(-140.0, abs=0.1)

    def test_zero_fft_error_reports_minus_infinity(self):
        metrics = TfheNoiseModel(PAPER_110BIT, 2).table3_relative_metrics()
        assert metrics["fft_error_db"] == float("-inf")


class TestFftErrorBudget:
    def test_budget_shrinks_with_m(self):
        """Section 4.3: the exponentially growing bootstrapping-key noise eats
        the total error headroom left for the approximate FFT as m grows."""
        headrooms = []
        for m in (2, 3, 4, 5):
            per_product = max_safe_fft_error(PAPER_110BIT, m)
            model = TfheNoiseModel(PAPER_110BIT, m)
            headrooms.append(per_product**2 * model.iterations * (PAPER_110BIT.k + 1))
        assert all(h > 0 for h in headrooms)
        assert headrooms == sorted(headrooms, reverse=True)

    def test_budget_is_respected_by_model(self):
        budget = max_safe_fft_error(PAPER_110BIT, 2, target_failures=1.0, gates=1e8)
        model = TfheNoiseModel(PAPER_110BIT, 2, fft_error_stddev=budget * 0.99)
        assert model.gate_budget().expected_failures(1e8) <= 1.1

    def test_exceeding_budget_causes_failures(self):
        budget = max_safe_fft_error(PAPER_110BIT, 2, target_failures=1.0, gates=1e8)
        model = TfheNoiseModel(PAPER_110BIT, 2, fft_error_stddev=budget * 5.0)
        assert model.gate_budget().expected_failures(1e8) > 1.0

    def test_margin_constant(self):
        assert GATE_DECISION_MARGIN == pytest.approx(1.0 / 16.0)

    def test_small_parameters_have_budget_too(self):
        assert max_safe_fft_error(TEST_SMALL, 2) > 0


class TestReplyRounding:
    """Rounding a reply's mask to 16 bits, against the next bootstrap's own
    mod-switch rounding (which it must not noticeably add to)."""

    @pytest.mark.parametrize("name", sorted(PARAMETER_SETS))
    def test_every_shipped_set_can_afford_it(self, name):
        model = TfheNoiseModel(PARAMETER_SETS[name])
        assert model.reply_rounding_variance() <= (
            REPLY_ROUNDING_SHARE * model.modswitch_rounding_variance()
        )
        assert model.reply_rounding_fits()

    def test_the_shares_at_the_documented_sets(self):
        shares = {
            name: TfheNoiseModel(PARAMETER_SETS[name]).reply_rounding_variance()
            / TfheNoiseModel(PARAMETER_SETS[name]).modswitch_rounding_variance()
            for name in ("paper-110bit", "test-medium", "test-small")
        }
        assert shares["paper-110bit"] == pytest.approx(0.00097, rel=0.01)
        assert shares["test-medium"] == pytest.approx(0.00024, rel=0.02)
        assert shares["test-small"] == pytest.approx(0.000014, rel=0.03)

    def test_a_set_that_cannot_afford_it_is_refused(self):
        # The wider the ring, the finer the next mod switch rounds, and the
        # more a 16-bit reply adds to it: the share is ≈ 4·N²·2⁻³² whatever
        # n, so N = 4096 (1.6 %) is the first ring past 1 %.
        for degree, fits in ((2048, True), (4096, False)):
            wide = replace(TEST_SMALL, tlwe=replace(TEST_SMALL.tlwe, degree=degree))
            assert TfheNoiseModel(wide).reply_rounding_fits() is fits

    def test_measured_phase_error_of_rounded_bootstrap_outputs(self, small_keys_double):
        secret, cloud = small_keys_double
        rows = 1024
        rng = np.random.default_rng(41)
        ca = encrypt_bit_batch(secret, rng.integers(0, 2, rows), rng=42)
        cb = encrypt_bit_batch(secret, rng.integers(0, 2, rows), rng=43)
        outputs = FheContext(cloud).batch_evaluator(rows).gate_rows(["nand"] * rows, ca, cb)
        rounded = lwe_round_mask(outputs)
        assert np.array_equal(rounded.b, outputs.b)
        before = lwe_batch_phase(secret.lwe_key, outputs).astype(np.int64)
        after = lwe_batch_phase(secret.lwe_key, rounded).astype(np.int64)
        error = torus32_to_double(torus32_from_int64(after - before))
        ratio = float(np.var(error)) / TfheNoiseModel(TEST_SMALL).reply_rounding_variance()
        assert 0.5 <= ratio <= 2.0
