"""Table 3 (noise comparison) and the Section 4.3 DVQTF failure study."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.fft_error import polynomial_product_error
from repro.core.integer_fft import ApproximateNegacyclicTransform
from repro.tfhe.noise import TfheNoiseModel, max_safe_fft_error
from repro.tfhe.params import PAPER_110BIT, TFHEParameters
from repro.utils.rng import SeedLike
from repro.utils.tables import format_table


def table3_rows(
    params: TFHEParameters = PAPER_110BIT,
    unroll_factors: Sequence[int] = (2, 3, 4, 5),
    fft_error_db: float = -141.0,
) -> List[List[object]]:
    """Rows of Table 3: per-source noise scaling of BKU (m = 2) vs MATCHA (m).

    The entries follow the paper's normalised notation: external-product and
    rounding noise scale as ``1/m`` (δ/m, RO/m), the bootstrapping-key count
    per group grows as ``2^m − 1`` and the FFT/IFFT error level is the
    configured dB figure (−150 dB for the double-precision baseline, the
    measured approximate-transform floor for MATCHA).
    """
    rows: List[List[object]] = []
    for m in unroll_factors:
        model = TfheNoiseModel(params, unroll_factor=m)
        metrics = model.table3_relative_metrics()
        rows.append(
            [
                m,
                f"delta/{m}",
                f"RO/{m}",
                f"{model.keys_per_group} BK",
                f"{fft_error_db:.0f} dB",
                f"{metrics['external_product_noise_scale']:.3f}",
                f"{model.gate_budget().total_stddev:.3e}",
            ]
        )
    return rows


def render_table3(
    params: TFHEParameters = PAPER_110BIT,
    unroll_factors: Sequence[int] = (2, 3, 4, 5),
) -> str:
    """Text rendering of Table 3 (extended with the absolute noise stddev)."""
    return format_table(
        ["m", "EP", "rounding", "BK per group", "I/FFT", "EP scale", "total stddev"],
        table3_rows(params, unroll_factors),
        title="Table 3: noise comparison, BKU (m = 2 baseline) vs MATCHA (general m).",
    )


@dataclass(frozen=True)
class DvqtfStudyRow:
    """One row of the Section 4.3 DVQTF / decryption-failure study."""

    unroll_factor: int
    twiddle_bits: int
    fft_error_stddev: float
    max_safe_stddev: float
    expected_failures_per_1e8_gates: float

    @property
    def safe(self) -> bool:
        return self.fft_error_stddev <= self.max_safe_stddev


def dvqtf_failure_study(
    params: TFHEParameters = PAPER_110BIT,
    configurations: Sequence[tuple] = (
        (2, 16),
        (2, 20),
        (2, 24),
        (2, 38),
        (2, 64),
        (5, 16),
        (5, 20),
        (5, 24),
        (5, 38),
        (5, 64),
    ),
    degree: int | None = None,
    trials: int = 2,
    rng: SeedLike = 0,
) -> List[DvqtfStudyRow]:
    """Reproduce the Section 4.3 DVQTF bit-width study.

    For every ``(m, twiddle_bits)`` configuration the per-product FFT error is
    measured on the actual approximate transform, compared with the largest
    error the noise budget can absorb at that ``m`` (fewer than one expected
    failure in 10^8 gates), and converted into an expected failure count.  The
    qualitative claim of Section 4.3 — the error budget shrinks as ``m`` grows
    because the bootstrapping-key noise grows exponentially, so wider DVQTFs
    are needed at larger ``m`` — appears as the ``max safe err`` column
    shrinking with ``m`` while the measured error only depends on the
    bit-width.  (The absolute bit-width at which the crossover happens differs
    from the paper's 38/64-bit boundary because our fixed-point headroom is
    not identical to MATCHA's RTL; see EXPERIMENTS.md.)
    """
    degree = degree or params.N
    rows: List[DvqtfStudyRow] = []
    error_cache: Dict[int, float] = {}
    for m, bits in configurations:
        if bits not in error_cache:
            transform = ApproximateNegacyclicTransform(degree, twiddle_bits=bits)
            error_cache[bits] = polynomial_product_error(
                transform, degree, trials=trials, int_bound=params.Bg // 2, rng=rng
            )
        measured = error_cache[bits]
        budget = max_safe_fft_error(params, m, target_failures=1.0, gates=1.0e8)
        model = TfheNoiseModel(params, m, fft_error_stddev=measured)
        rows.append(
            DvqtfStudyRow(
                unroll_factor=m,
                twiddle_bits=bits,
                fft_error_stddev=measured,
                max_safe_stddev=budget,
                expected_failures_per_1e8_gates=model.gate_budget().expected_failures(1.0e8),
            )
        )
    return rows


def render_dvqtf_study(rows: Sequence[DvqtfStudyRow] | None = None, **kwargs) -> str:
    """Text rendering of the DVQTF failure study."""
    rows = rows if rows is not None else dvqtf_failure_study(**kwargs)
    table_rows = [
        [
            r.unroll_factor,
            r.twiddle_bits,
            f"{r.fft_error_stddev:.2e}",
            f"{r.max_safe_stddev:.2e}",
            f"{r.expected_failures_per_1e8_gates:.2e}",
            "yes" if r.safe else "no",
        ]
        for r in rows
    ]
    return format_table(
        ["m", "DVQTF bits", "measured FFT err", "max safe err", "E[failures]/1e8 gates", "safe"],
        table_rows,
        title="Section 4.3: DVQTF bit-width vs decryption-failure budget.",
    )
