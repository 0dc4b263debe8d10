"""Figures 9-11 (platform comparison) and Table 2 (power and area)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.arch.energy import matcha_area_power_table
from repro.platforms.base import Platform, PlatformReport
from repro.platforms.registry import all_platforms
from repro.tfhe.params import PAPER_110BIT, TFHEParameters
from repro.utils.tables import format_table

UNROLL_FACTORS = (1, 2, 3, 4)


@dataclass(frozen=True)
class ComparisonResult:
    """All platform reports plus the paper's headline ratios."""

    reports: Dict[str, List[PlatformReport]]

    def best(self, platform: str) -> PlatformReport:
        supported = [r for r in self.reports[platform] if r.supported]
        return max(supported, key=lambda r: r.throughput_gates_per_s)

    def at(self, platform: str, unroll_factor: int) -> PlatformReport:
        for report in self.reports[platform]:
            if report.unroll_factor == unroll_factor:
                return report
        raise KeyError(f"no report for {platform} at m={unroll_factor}")

    # -- headline ratios (Section 6) -----------------------------------------
    @property
    def matcha_vs_gpu_throughput(self) -> float:
        """MATCHA best throughput over GPU best throughput (paper: 2.3x)."""
        return (
            self.best("MATCHA").throughput_gates_per_s
            / self.best("GPU").throughput_gates_per_s
        )

    @property
    def matcha_vs_asic_throughput_per_watt(self) -> float:
        """MATCHA best throughput/W over ASIC throughput/W (paper: 6.3x)."""
        return self.best("MATCHA").throughput_per_watt / self.best("ASIC").throughput_per_watt

    @property
    def cpu_bku_latency_reduction(self) -> float:
        """Latency reduction of CPU m=2 over m=1 (paper: 49 %)."""
        m1 = self.at("CPU", 1).gate_latency_ms
        m2 = self.at("CPU", 2).gate_latency_ms
        return 1.0 - m2 / m1

    @property
    def matcha_best_latency_unroll(self) -> int:
        supported = [r for r in self.reports["MATCHA"] if r.supported]
        return min(supported, key=lambda r: r.gate_latency_ms).unroll_factor


def platform_comparison(
    params: TFHEParameters = PAPER_110BIT,
    unroll_factors: Sequence[int] = UNROLL_FACTORS,
    platforms: Iterable[Platform] | None = None,
) -> ComparisonResult:
    """Sweep every platform across the BKU factors (the Figure 9-11 data)."""
    platforms = list(platforms) if platforms is not None else all_platforms(params)
    reports = {p.name: p.sweep(unroll_factors) for p in platforms}
    return ComparisonResult(reports=reports)


def _metric_table(
    result: ComparisonResult,
    metric: str,
    title: str,
    formatter=lambda v: f"{v:.4g}",
) -> str:
    platforms = list(result.reports.keys())
    rows = []
    for m in UNROLL_FACTORS:
        row: List[object] = [m]
        for name in platforms:
            report = result.at(name, m)
            if not report.supported:
                row.append("n/a")
            else:
                row.append(formatter(getattr(report, metric)))
        rows.append(row)
    return format_table(["m"] + platforms, rows, title=title)


def render_figure9(result: ComparisonResult | None = None) -> str:
    """Figure 9: NAND gate latency (ms) per platform and BKU factor."""
    result = result or platform_comparison()
    return _metric_table(result, "gate_latency_ms", "Figure 9: NAND gate latency (ms).")


def render_figure10(result: ComparisonResult | None = None) -> str:
    """Figure 10: NAND gate throughput (gates/s)."""
    result = result or platform_comparison()
    return _metric_table(
        result, "throughput_gates_per_s", "Figure 10: NAND gate throughput (gates/s)."
    )


def render_figure11(result: ComparisonResult | None = None) -> str:
    """Figure 11: NAND gate throughput per Watt (gates/s/W)."""
    result = result or platform_comparison()
    return _metric_table(
        result, "throughput_per_watt", "Figure 11: NAND gate throughput per Watt."
    )


def render_table2() -> str:
    """Table 2: power and area of MATCHA at 2 GHz."""
    envelope = matcha_area_power_table()
    return format_table(
        ["Name", "Spec", "Power (W)", "Area (mm^2)"],
        envelope.as_rows(),
        title="Table 2: the power and area of MATCHA operating at 2 GHz.",
    )
