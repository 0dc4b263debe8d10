r"""Modeled vs measured: the telemetry traces read back as Figure 1.

:mod:`repro.analysis.breakdown` reproduces the paper's Figure-1 latency
taxonomy from an operation-count model.  This module closes the loop from
the *other* side: it aggregates the span timings the telemetry subsystem
records while the serving stack runs real jobs, folds them into the same
stage taxonomy, and prints the modeled and measured splits side by side.

The mapping from spans to Figure-1 buckets:

========================  ====================================================
span name                 Figure-1 bucket
========================  ====================================================
``engine_contract``       blind rotation (the model's IFFT + FFT + per-
                          iteration "other"; the spans cannot split the
                          transform out of the fused kernel, so the three
                          modeled buckets are summed for comparison)
``keyswitch``             epilogue (sample extract + key switch — the
                          model's ``CPU_EPILOGUE_SECONDS``)
``enqueue``,
``coalesce_wait``,
``flush``/\ ``worker_-
dispatch`` residue,
``reply``                 serving overhead — no modeled counterpart (the
                          paper's figure measures a bare gate); reported so
                          the batching cost is visible next to the crypto
========================  ====================================================

Spans can come from a live :class:`repro.telemetry.Tracer` or the JSON of a
server ``trace_export`` reply.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from repro.analysis.breakdown import (
    CPU_EPILOGUE_SECONDS,
    GateBreakdown,
    gate_latency_breakdown,
)
from repro.tfhe.params import TEST_TINY, TFHEParameters
from repro.utils.tables import format_table

__all__ = [
    "SERVING_STAGES",
    "stage_totals",
    "measure_serving_breakdown",
    "render_measured_vs_modeled",
]

#: Stage rows of the measured table, in presentation order.  ``blind_rotate``
#: and ``keyswitch`` have modeled counterparts; the rest are serving overhead.
SERVING_STAGES = (
    "coalesce_wait",
    "dispatch_overhead",
    "blind_rotate",
    "keyswitch",
    "reply",
)


def _span_fields(span: Any) -> tuple:
    """(name, duration) of a span dict, Span object, or mapping."""
    if isinstance(span, Mapping):
        return span["name"], float(span.get("duration", 0.0))
    return span.name, float(span.duration)


def stage_totals(spans: Iterable[Any]) -> Dict[str, float]:
    """Fold spans into Figure-1 stage buckets (seconds per stage).

    The ``flush`` and ``worker_dispatch`` spans *contain* the engine stages,
    so their own time is reported as the residue after subtracting the
    contained crypto — that residue is the scheduling/IPC overhead.  When
    both a flush and a worker_dispatch cover the same round (pool path),
    the dispatch is the inner one: the residue uses flush as the envelope.
    """
    raw: Dict[str, float] = {}
    for span in spans:
        name, duration = _span_fields(span)
        raw[name] = raw.get(name, 0.0) + duration
    blind_rotate = raw.get("engine_contract", 0.0)
    keyswitch = raw.get("keyswitch", 0.0)
    envelope = raw.get("flush", 0.0) or raw.get("worker_dispatch", 0.0)
    overhead = max(envelope - blind_rotate - keyswitch, 0.0)
    return {
        "coalesce_wait": raw.get("coalesce_wait", 0.0),
        "dispatch_overhead": overhead,
        "blind_rotate": blind_rotate,
        "keyswitch": keyswitch,
        "reply": raw.get("reply", 0.0),
    }


def measure_serving_breakdown(
    params: TFHEParameters = TEST_TINY,
    gates: int = 8,
    rng: int = 0,
) -> Dict[str, float]:
    """Run real gates through a traced scheduler; return stage totals.

    Builds a keypair, a telemetry-enabled :class:`BatchScheduler`, submits
    ``gates`` NAND gates and flushes once, then aggregates the recorded
    spans.  Pure in-process (inline dispatcher) so the numbers isolate
    scheduling + crypto without socket noise.
    """
    from repro.runtime.scheduler import BatchScheduler
    from repro.telemetry import Telemetry
    from repro.tfhe.gates import encrypt_bit
    from repro.tfhe.keys import generate_keys
    from repro.tfhe.transform import DoubleFFTNegacyclicTransform

    secret, cloud = generate_keys(
        params,
        DoubleFFTNegacyclicTransform(params.N),
        unroll_factor=1,
        rng=rng,
        eager=False,
    )
    telemetry = Telemetry()
    scheduler = BatchScheduler(telemetry=telemetry)
    scheduler.register_client("breakdown", cloud)
    session = scheduler.session("breakdown")
    ca, cb = encrypt_bit(secret, 1, rng), encrypt_bit(secret, 0, rng)
    for _ in range(gates):
        session.submit_gate("nand", ca, cb)
    scheduler.flush()
    return stage_totals(telemetry.tracer.spans())


def render_measured_vs_modeled(
    measured: Optional[Mapping[str, float]] = None,
    modeled: Optional[GateBreakdown] = None,
    rows_measured: int = 8,
) -> str:
    """Side-by-side table: paper's modeled split vs telemetry-measured split.

    ``measured`` holds stage totals over ``rows_measured`` bootstrapped rows
    (so per-gate values are totals / rows); ``modeled`` is one gate of the
    Figure-1 cost model.  Serving-only stages print ``—`` in the modeled
    column: the paper's figure times a bare gate with no batching front.
    """
    if measured is None:
        measured = measure_serving_breakdown(gates=rows_measured)
    if modeled is None:
        modeled = gate_latency_breakdown(gates=("nand",))[0]

    epilogue = min(modeled.other_s, CPU_EPILOGUE_SECONDS)
    modeled_per_stage = {
        "blind_rotate": modeled.ifft_s + modeled.fft_s + (modeled.other_s - epilogue),
        "keyswitch": epilogue,
    }
    measured_total = sum(measured.get(stage, 0.0) for stage in SERVING_STAGES)
    modeled_total = modeled.total_s

    rows = []
    for stage in SERVING_STAGES:
        measured_s = measured.get(stage, 0.0)
        measured_pct = 100.0 * measured_s / measured_total if measured_total else 0.0
        per_gate_ms = measured_s / max(rows_measured, 1) * 1e3
        if stage in modeled_per_stage:
            modeled_pct = 100.0 * modeled_per_stage[stage] / modeled_total
            modeled_cell = f"{modeled_pct:.1f}"
        else:
            modeled_cell = "—"
        rows.append([stage, modeled_cell, f"{measured_pct:.1f}", f"{per_gate_ms:.3f}"])
    return format_table(
        ["stage", "modeled %", "measured %", "measured ms/gate"],
        rows,
        title=(
            "Figure 1 revisited: cost-model split vs telemetry-measured split "
            f"({rows_measured} gates, one flush)."
        ),
    )


def main() -> None:  # pragma: no cover - exercised by the CI smoke job
    print(render_measured_vs_modeled())


if __name__ == "__main__":  # pragma: no cover
    main()
