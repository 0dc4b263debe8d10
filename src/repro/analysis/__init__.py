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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".schemes": ("table1_rows", "render_table1"),
        ".breakdown": ("gate_latency_breakdown", "render_figure1"),
        ".fft_sweep": ("fft_error_sweep", "render_figure8", "depth_first_comparison"),
        ".noise_tables": ("table3_rows", "render_table3"),
        ".comparison": (
            "platform_comparison",
            "render_figure9",
            "render_figure10",
            "render_figure11",
            "render_table2",
        ),
    },
)
