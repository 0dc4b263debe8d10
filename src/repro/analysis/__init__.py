"""Generators for every table and figure of the paper's evaluation.

Each module produces plain Python data (lists of rows / dictionaries of
series) plus a text rendering, so the benchmark harness can both assert on
the numbers and print paper-style tables:

* :mod:`repro.analysis.schemes` — Table 1 (HE scheme comparison);
* :mod:`repro.analysis.breakdown` — Figure 1 (gate latency breakdown);
* :mod:`repro.analysis.fft_sweep` — Figure 2 (depth-first FFT) and Figure 8
  (approximate FFT error vs twiddle bits);
* :mod:`repro.analysis.noise_tables` — Table 3 (noise comparison) and the
  DVQTF decryption-failure study of Section 4.3;
* :mod:`repro.analysis.comparison` — Figures 9, 10 and 11 (latency,
  throughput and throughput/Watt across platforms and BKU factors) and
  Table 2 (power and area).
"""

from repro.analysis.schemes import table1_rows, render_table1
from repro.analysis.breakdown import gate_latency_breakdown, render_figure1
from repro.analysis.fft_sweep import fft_error_sweep, render_figure8, depth_first_comparison
from repro.analysis.noise_tables import table3_rows, render_table3
from repro.analysis.comparison import (
    platform_comparison,
    render_figure9,
    render_figure10,
    render_figure11,
    render_table2,
)

__all__ = [
    "table1_rows",
    "render_table1",
    "gate_latency_breakdown",
    "render_figure1",
    "fft_error_sweep",
    "render_figure8",
    "depth_first_comparison",
    "table3_rows",
    "render_table3",
    "platform_comparison",
    "render_figure9",
    "render_figure10",
    "render_figure11",
    "render_table2",
]
