"""Tests for the table/figure generators in repro.analysis."""

import pytest

from repro.analysis.breakdown import (
    FIGURE1_GATES,
    gate_latency_breakdown,
    measure_gate_breakdown,
    render_figure1,
)
from repro.analysis.comparison import (
    platform_comparison,
    render_figure9,
    render_figure10,
    render_figure11,
    render_table2,
)
from repro.analysis.fft_sweep import (
    depth_first_comparison,
    fft_error_sweep,
    render_figure2,
    render_figure8,
)
from repro.analysis.noise_tables import (
    dvqtf_failure_study,
    render_dvqtf_study,
    render_table3,
    table3_rows,
)
from repro.analysis.schemes import (
    TABLE1_SCHEMES,
    bootstrapping_speedup_over,
    render_table1,
    table1_rows,
)
from repro.tfhe.params import TEST_MEDIUM


class TestTable1:
    def test_has_five_schemes(self):
        assert len(table1_rows()) == 5

    def test_tfhe_has_fastest_bootstrapping(self):
        fastest = min(TABLE1_SCHEMES, key=lambda e: e.bootstrapping_seconds)
        assert fastest.scheme == "TFHE"

    def test_speedup_over_bgv_is_large(self):
        assert bootstrapping_speedup_over("BGV") > 1e4

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            bootstrapping_speedup_over("RSA")

    def test_only_boolean_schemes_support_gates(self):
        for entry in TABLE1_SCHEMES:
            assert entry.supports_boolean_gates == (entry.data_type == "binary")

    def test_render_contains_all_schemes(self):
        text = render_table1()
        for entry in TABLE1_SCHEMES:
            assert entry.scheme in text


class TestFigure1:
    def test_bootstrapping_dominates_gate_latency(self):
        """The paper: the bootstrapping costs ~99 % of a TFHE gate."""
        for breakdown in gate_latency_breakdown():
            assert breakdown.bootstrap_fraction > 0.95

    def test_transforms_dominate_bootstrapping(self):
        """The paper: FFT+IFFT are ~80 % of the bootstrapping latency."""
        for breakdown in gate_latency_breakdown():
            assert 0.6 <= breakdown.transform_fraction_of_bootstrap <= 0.95

    def test_ifft_bucket_larger_than_fft_bucket(self):
        for breakdown in gate_latency_breakdown():
            assert breakdown.ifft_s > breakdown.fft_s

    def test_totals_near_cpu_anchor(self):
        nand = next(b for b in gate_latency_breakdown() if b.gate == "nand")
        assert nand.total_s == pytest.approx(13.1e-3, rel=0.15)

    def test_percentages_sum_to_100(self):
        for breakdown in gate_latency_breakdown():
            assert sum(breakdown.percentages().values()) == pytest.approx(100.0)

    def test_all_figure_gates_present(self):
        assert {b.gate for b in gate_latency_breakdown()} == set(FIGURE1_GATES)

    def test_measured_breakdown_matches_model_ordering(self):
        measured = measure_gate_breakdown(TEST_MEDIUM, gate="nand", rng=0)
        assert measured.bootstrap_fraction > 0.9
        assert measured.ifft_s > measured.fft_s

    def test_render_mentions_every_gate(self):
        text = render_figure1()
        for gate in FIGURE1_GATES:
            assert gate.upper() in text


class TestFigure2And8:
    def test_depth_first_comparison_properties(self):
        comparison = depth_first_comparison(transform_size=256)
        assert comparison.depth_first
        assert comparison.twiddle_read_reduction >= 2.0

    def test_render_figure2(self):
        assert "twiddle" in render_figure2().lower()

    def test_fft_error_sweep_shape(self):
        samples = fft_error_sweep(degree=256, twiddle_bits=(16, 32), trials=1)
        assert len(samples) == 3  # two approximate points + the double baseline
        assert samples[0].error_db > samples[1].error_db

    def test_render_figure8(self):
        text = render_figure8(fft_error_sweep(degree=256, twiddle_bits=(16, 32), trials=1))
        assert "double" in text


class TestTable3AndDvqtf:
    def test_rows_cover_requested_unroll_factors(self):
        rows = table3_rows(unroll_factors=(2, 3, 4))
        assert [r[0] for r in rows] == [2, 3, 4]

    def test_bk_column_is_exponential(self):
        rows = table3_rows(unroll_factors=(2, 3, 4, 5))
        assert [r[3] for r in rows] == ["3 BK", "7 BK", "15 BK", "31 BK"]

    def test_render_table3(self):
        assert "BK per group" in render_table3()

    def test_dvqtf_study_budget_shrinks_with_m(self):
        """The total error headroom (budget^2 x products per gate) shrinks with m."""
        from repro.tfhe.noise import TfheNoiseModel
        from repro.tfhe.params import PAPER_110BIT

        rows = dvqtf_failure_study(
            configurations=((2, 20), (5, 20)), degree=256, trials=1
        )
        headrooms = [
            row.max_safe_stddev**2
            * TfheNoiseModel(PAPER_110BIT, row.unroll_factor).iterations
            for row in rows
        ]
        assert headrooms[0] > headrooms[1]

    def test_dvqtf_study_error_depends_only_on_bits(self):
        rows = dvqtf_failure_study(
            configurations=((2, 20), (5, 20)), degree=256, trials=1
        )
        assert rows[0].fft_error_stddev == pytest.approx(rows[1].fft_error_stddev)

    def test_wide_dvqtfs_are_safe(self):
        rows = dvqtf_failure_study(configurations=((3, 64),), degree=256, trials=1)
        assert rows[0].safe

    def test_render_dvqtf_study(self):
        text = render_dvqtf_study(
            dvqtf_failure_study(configurations=((2, 64),), degree=256, trials=1)
        )
        assert "DVQTF" in text


class TestComparisonFigures:
    @pytest.fixture(scope="class")
    def result(self):
        return platform_comparison()

    def test_headline_throughput_ratio(self, result):
        """Paper: 2.3x over GPU; the model reproduces the win with margin."""
        assert result.matcha_vs_gpu_throughput > 1.5

    def test_headline_efficiency_ratio(self, result):
        """Paper: 6.3x over ASIC throughput/Watt."""
        assert result.matcha_vs_asic_throughput_per_watt > 3.0

    def test_cpu_latency_reduction_near_half(self, result):
        assert 0.4 <= result.cpu_bku_latency_reduction <= 0.55

    def test_cpu_best_at_m2(self, result):
        supported = [r for r in result.reports["CPU"] if r.supported]
        assert min(supported, key=lambda r: r.gate_latency_ms).unroll_factor == 2

    def test_matcha_best_latency_at_m3(self, result):
        assert result.matcha_best_latency_unroll == 3

    def test_renderers_mention_all_platforms(self, result):
        for render in (render_figure9, render_figure10, render_figure11):
            text = render(result)
            for name in ("CPU", "GPU", "MATCHA", "FPGA", "ASIC"):
                assert name in text

    def test_table2_render(self):
        text = render_table2()
        assert "39.98" in text or "39.99" in text
