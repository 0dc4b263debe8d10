"""Tests for the platform models and the paper's qualitative comparison claims."""

import math

import pytest

from repro.platforms import (
    AsicPlatform,
    CpuPlatform,
    FpgaPlatform,
    GpuPlatform,
    MatchaPlatform,
    all_platforms,
)
from repro.platforms import calibration as cal
from repro.tfhe.params import PAPER_110BIT


def best_report(platform, unroll_factors=(1, 2, 3, 4)):
    """The report with the highest throughput among supported factors."""
    supported = [r for r in platform.sweep(unroll_factors) if r.supported]
    return max(supported, key=lambda r: r.throughput_gates_per_s)


@pytest.fixture(scope="module")
def matcha():
    return MatchaPlatform(PAPER_110BIT)


class TestCpuModel:
    def test_m1_latency_matches_anchor(self):
        cpu = CpuPlatform()
        assert cpu.gate_latency_s(1) == pytest.approx(cal.CPU_NAND_LATENCY_M1_S, rel=1e-6)

    def test_m2_roughly_halves_latency(self):
        """The paper reports a 49 % latency reduction at m = 2."""
        cpu = CpuPlatform()
        reduction = 1 - cpu.gate_latency_s(2) / cpu.gate_latency_s(1)
        assert 0.40 <= reduction <= 0.55

    def test_aggressive_bku_hurts_cpu(self):
        """Figure 9: m = 3, 4 do not improve the CPU latency further."""
        cpu = CpuPlatform()
        assert cpu.gate_latency_s(3) > cpu.gate_latency_s(2)
        assert cpu.gate_latency_s(4) > cpu.gate_latency_s(3)

    def test_unsupported_factor_raises(self):
        with pytest.raises(ValueError):
            CpuPlatform().gate_latency_s(5)


class TestGpuModel:
    def test_m1_latency_matches_anchor(self):
        gpu = GpuPlatform()
        assert gpu.gate_latency_s(1) == pytest.approx(cal.GPU_NAND_LATENCY_M1_S, rel=1e-6)

    def test_latency_improves_monotonically_with_m(self):
        gpu = GpuPlatform()
        latencies = [gpu.gate_latency_s(m) for m in (1, 2, 3, 4)]
        assert latencies == sorted(latencies, reverse=True)

    def test_m4_latency_near_paper_value(self):
        """The paper reports 0.18 ms at m = 4."""
        assert GpuPlatform().gate_latency_s(4) == pytest.approx(0.18e-3, rel=0.25)

    def test_power_exceeds_200w(self):
        assert GpuPlatform().power_w(1) > 200.0


class TestTveBaselines:
    def test_only_m1_supported(self):
        for platform in (FpgaPlatform(), AsicPlatform()):
            assert platform.supports(1)
            assert not platform.supports(2)
            report = platform.report(2)
            assert not report.supported

    def test_asic_is_faster_and_cooler_than_fpga(self):
        assert AsicPlatform().gate_latency_s(1) < FpgaPlatform().gate_latency_s(1)
        assert AsicPlatform().power_w(1) < FpgaPlatform().power_w(1)

    def test_gate_latency_exceeds_gpu(self):
        assert FpgaPlatform().gate_latency_s(1) > GpuPlatform().gate_latency_s(1)


class TestMatchaModel:
    def test_power_is_table2_envelope(self, matcha):
        assert matcha.power_w(3) == pytest.approx(39.98)

    def test_best_latency_at_m3(self, matcha):
        """Figure 9: MATCHA's latency bottoms out at m = 3."""
        latencies = {m: matcha.gate_latency_s(m) for m in (1, 2, 3, 4)}
        assert min(latencies, key=latencies.get) == 3
        assert latencies[4] > latencies[3]

    def test_latency_in_gpu_regime(self, matcha):
        """MATCHA's m = 3 latency is in the same regime as the GPU's (sub-ms)."""
        gpu = GpuPlatform()
        ratio = matcha.gate_latency_s(3) / gpu.gate_latency_s(3)
        assert 0.5 <= ratio <= 1.6

    def test_schedule_is_cached(self, matcha):
        first = matcha.schedule(2)
        second = matcha.schedule(2)
        assert first is second

    def test_energy_per_gate_positive(self, matcha):
        assert matcha.energy_per_gate_j(3) > 0

    def test_utilisation_reports_all_units(self, matcha):
        util = matcha.utilisation(3)
        assert {"ifft_core", "fft_core", "tgsw_cluster", "ep_mac"}.issubset(util)


class TestComparativeClaims:
    """The paper's headline cross-platform orderings (Section 6)."""

    def test_matcha_throughput_beats_gpu(self, matcha):
        gpu_best = best_report(GpuPlatform()).throughput_gates_per_s
        matcha_best = best_report(matcha).throughput_gates_per_s
        assert matcha_best > 1.5 * gpu_best

    def test_matcha_efficiency_beats_asic(self, matcha):
        asic = best_report(AsicPlatform(), (1,)).throughput_per_watt
        assert best_report(matcha).throughput_per_watt > 3.0 * asic

    def test_cpu_with_bku_beats_tve_throughput(self):
        """Figure 10: CPU at m = 2 overtakes the FPGA/ASIC baselines."""
        cpu = CpuPlatform().report(2).throughput_gates_per_s
        fpga = FpgaPlatform().report(1).throughput_gates_per_s
        assert cpu > fpga

    def test_gpu_efficiency_below_asic(self):
        """Figure 11: the GPU's best throughput/W stays below the ASIC's."""
        gpu = best_report(GpuPlatform()).throughput_per_watt
        asic = best_report(AsicPlatform(), (1,)).throughput_per_watt
        assert gpu < asic

    def test_registry_contains_all_five(self):
        names = {p.name for p in all_platforms()}
        assert names == {"CPU", "GPU", "MATCHA", "FPGA", "ASIC"}

    def test_registry_lookup(self):
        """Figure order, with the parameter set handed to the models that take one."""
        from repro.tfhe.params import TEST_SMALL

        platforms = all_platforms(TEST_SMALL)
        assert [p.name for p in platforms] == ["CPU", "GPU", "MATCHA", "FPGA", "ASIC"]
        assert all(p.params is TEST_SMALL for p in platforms[:3])

    def test_reports_have_finite_values(self):
        for platform in all_platforms():
            report = platform.report(1)
            assert report.supported
            assert math.isfinite(report.gate_latency_ms)
            assert report.throughput_gates_per_s > 0
