"""Modeled-vs-measured engine backends: closing the platforms/ loop.

The :mod:`repro.platforms` models predict what the paper's CPU, GPU and
MATCHA evaluations *should* deliver (Figure 10); the engine registry ships
runnable backends for two of those design points — ``"double"`` /
``"compiled"`` on the CPU, ``"approx"`` for MATCHA's integer FFT (the GPU
stays a model).  This module lines the two up: every registered engine is
mapped onto its modeled platform and the *relative* throughputs are compared
(measured bootstraps/sec on the reduced test rings are not comparable to the
modeled absolute numbers at the paper's 110-bit parameters, but the speedup
over the CPU baseline is the quantity Figure 10 actually argues about).

``benchmarks/bench_engines.py`` feeds its measured bootstraps/sec into
:func:`backend_comparison` and records the resulting table in
``results/BENCH_engines.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.platforms.registry import get_platform
from repro.tfhe.params import PAPER_110BIT, TFHEParameters
from repro.tfhe.transform import available_engines, engine_entry
from repro.utils.tables import format_table

#: Engine kind → the platform model it realises.  The CPU engines all map
#: onto the paper's CPU design point (they differ in software efficiency,
#: not hardware), the approximate integer FFT onto MATCHA itself.
ENGINE_PLATFORM: Dict[str, str] = {
    "naive": "CPU",
    "double": "CPU",
    "compiled": "CPU",
    "approx": "MATCHA",
}


@dataclass(frozen=True)
class BackendRow:
    """One engine backend lined up against its modeled platform."""

    engine: str
    error_model: str
    available: bool
    unavailable_reason: Optional[str]
    platform: str
    #: Modeled gate throughput of the mapped platform (paper parameters).
    modeled_bootstraps_per_sec: float
    #: Modeled throughput over the modeled CPU baseline (the Fig. 10 ratio).
    modeled_speedup: float
    #: Measured engine throughput (``None`` when the bench did not run it).
    measured_bootstraps_per_sec: Optional[float] = None
    #: Measured throughput over the measured baseline engine.
    measured_speedup: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "error_model": self.error_model,
            "available": self.available,
            "unavailable_reason": self.unavailable_reason,
            "platform": self.platform,
            "modeled_bootstraps_per_sec": self.modeled_bootstraps_per_sec,
            "modeled_speedup": self.modeled_speedup,
            "measured_bootstraps_per_sec": self.measured_bootstraps_per_sec,
            "measured_speedup": self.measured_speedup,
        }


def backend_comparison(
    measured: Optional[Mapping[str, float]] = None,
    params: TFHEParameters = PAPER_110BIT,
    unroll_factor: int = 1,
    baseline_engine: str = "double",
) -> List[BackendRow]:
    """Every registered engine against its modeled platform.

    ``measured`` maps engine kinds to measured bootstraps/sec (typically
    from ``bench_engines.py``); measured speedups are taken over
    ``baseline_engine``'s measurement.  Engines without a platform mapping
    (ad-hoc registrations) are skipped.
    """
    measured = dict(measured or {})
    baseline_measure = measured.get(baseline_engine)
    cpu_model = get_platform("CPU", params).report(unroll_factor)
    rows: List[BackendRow] = []
    for kind, reason in available_engines().items():
        platform_name = ENGINE_PLATFORM.get(kind)
        if platform_name is None:
            continue
        entry = engine_entry(kind)
        model = get_platform(platform_name, params).report(unroll_factor)
        measure = measured.get(kind)
        rows.append(
            BackendRow(
                engine=kind,
                error_model=entry.error_model,
                available=reason is None,
                unavailable_reason=reason,
                platform=platform_name,
                modeled_bootstraps_per_sec=model.throughput_gates_per_s,
                modeled_speedup=(
                    model.throughput_gates_per_s / cpu_model.throughput_gates_per_s
                ),
                measured_bootstraps_per_sec=measure,
                measured_speedup=(
                    measure / baseline_measure
                    if measure is not None and baseline_measure
                    else None
                ),
            )
        )
    return rows


def render_backend_comparison(rows: List[BackendRow]) -> str:
    """Aligned text table of the modeled-vs-measured backend line-up."""

    def _opt(value: Optional[float], fmt: str = "{:.1f}") -> str:
        return fmt.format(value) if value is not None else "-"

    return format_table(
        [
            "engine",
            "platform",
            "error model",
            "status",
            "modeled bs/s",
            "modeled x",
            "measured bs/s",
            "measured x",
        ],
        [
            (
                row.engine,
                row.platform,
                row.error_model,
                "ok" if row.available else row.unavailable_reason,
                f"{row.modeled_bootstraps_per_sec:.0f}",
                f"{row.modeled_speedup:.2f}",
                _opt(row.measured_bootstraps_per_sec),
                _opt(row.measured_speedup, "{:.2f}"),
            )
            for row in rows
        ],
        title="Engine backends: modeled platform throughput vs measured engines",
    )
