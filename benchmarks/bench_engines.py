"""Engine backends: measured throughput of every usable transform engine.

The transform registry is pluggable for performance: ``"compiled"`` JITs the
double-FFT engine's glue loops (falling back to an in-place NumPy path
when Numba is absent).  It claims the ``fft64`` error-model family, so its
outputs are checked bit-identical against the ``"double"`` reference *before*
any timing.

Measured: one fixed mixed gate/LUT workload (test-small parameters) pushed
through ``execute_rows`` under every usable ``fft64``-family engine, with
``"double"`` as the baseline entry.  Each engine gets one untimed warm-up
pass (JIT compilation) and best-of-``BEST_OF`` wall clocks.
Registered-but-unavailable engines are skipped and their reasons recorded.

Acceptance gate: the compiled engine must reach
``COMPILED_ENGINE_SPEEDUP_MIN`` (default 2.0x over double) **when its Numba
tier actually compiled**.  Without Numba the fallback is plain NumPy with
a smaller temporary footprint — no JIT to gate — so the floor degrades to
``COMPILED_ENGINE_FALLBACK_MIN`` (default 0.7x): the fallback may not
*collapse*, but it is not asked to beat the engine it wraps.  Which gate
applied is recorded in the JSON ``extra`` block.

The ``extra`` block also carries the :mod:`repro.analysis.backend_comparison`
table lining the measured speedups up against the modeled CPU/GPU/MATCHA
platform throughputs (``src/repro/platforms/``) at the paper's parameters.

Results land in ``results/engines.txt`` and schema-consistent
``results/BENCH_engines.json`` (see ``tools/bench.py``).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_engines.py -q -s
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.backend_comparison import (
    backend_comparison,
    render_backend_comparison,
)
from repro.runtime.context import FheContext
from repro.runtime.scheduler import SchedulerStats, execute_rows
from repro.tfhe.gates import encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.params import TEST_SMALL
from repro.tfhe.transform import (
    DoubleFFTNegacyclicTransform,
    available_engines,
    make_transform,
)
from repro.utils.benchio import make_entry, write_bench_json

ROWS = 64
BEST_OF = 3
BASELINE = "double"
#: fft64-family engines this bench times, in reporting order.
CANDIDATES = ("double", "compiled")


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _workload(secret):
    """Mixed gate/LUT rows — the same shape the scheduler coalesces."""
    rows = []
    for i in range(ROWS):
        ca = encrypt_bit(secret, i & 1, rng=7000 + 2 * i)
        cb = encrypt_bit(secret, (i >> 1) & 1, rng=7001 + 2 * i)
        if i % 4 == 3:
            rows.append(("lut", 0b0110, (ca, cb)))  # XOR as a lookup row
        else:
            rows.append(("gate", "nand", ca, cb))
    return rows


def _bit_identical(xs, ys) -> bool:
    return all(
        np.array_equal(x.a, y.a) and int(x.b) == int(y.b) for x, y in zip(xs, ys)
    )


def run(record_result=None):
    """Check each engine against the double reference, then time it."""
    params = TEST_SMALL
    secret, cloud = generate_keys(
        params, DoubleFFTNegacyclicTransform(params.N), unroll_factor=1, rng=55
    )
    rows = _workload(secret)

    engines = available_engines()
    skipped = {
        kind: engines[kind] for kind in CANDIDATES if engines[kind] is not None
    }
    usable = [kind for kind in CANDIDATES if engines[kind] is None]

    reference = None
    seconds = {}
    jit_enabled = False
    for kind in usable:
        context = FheContext(cloud, engine=make_transform(kind, params.N))
        if kind == "compiled":
            jit_enabled = bool(getattr(context.engine, "jit_enabled", False))
        # Untimed warm-up: spectrum cache, JIT compilation.
        out = execute_rows(context, rows, stats=SchedulerStats())
        if kind == BASELINE:
            reference = out
        else:
            assert _bit_identical(out, reference), f"{kind} is not bit-identical"
        best = float("inf")
        for _ in range(BEST_OF):
            start = time.perf_counter()
            out = execute_rows(context, rows, stats=SchedulerStats())
            best = min(best, time.perf_counter() - start)
        seconds[kind] = best

    bs = {kind: ROWS / seconds[kind] for kind in usable}
    entries = [
        make_entry(
            label=kind,
            engine=kind,
            params=params.name,
            batch_width=ROWS,
            bootstraps_per_sec=bs[kind],
            baseline_bootstraps_per_sec=bs[BASELINE],
        )
        for kind in usable
    ]

    compiled_speedup = bs["compiled"] / bs[BASELINE]
    floor = (
        float(os.environ.get("COMPILED_ENGINE_SPEEDUP_MIN", "2.0"))
        if jit_enabled
        else float(os.environ.get("COMPILED_ENGINE_FALLBACK_MIN", "0.7"))
    )
    comparison = backend_comparison(measured=bs, baseline_engine=BASELINE)
    extra = {
        "rows_per_flush": ROWS,
        "best_of": BEST_OF,
        "usable_cpus": _usable_cpus(),
        "compiled_jit_enabled": jit_enabled,
        "compiled_speedup": compiled_speedup,
        "compiled_floor": floor,
        "compiled_floor_kind": "jit" if jit_enabled else "numpy_fallback",
        "skipped_engines": skipped,
        "seconds": seconds,
        "backend_comparison": [row.to_json() for row in comparison],
    }

    lines = [
        f"Engine backends, {ROWS} mixed gate/LUT rows, {params.name} "
        f"(n={params.n}, N={params.N}), {extra['usable_cpus']} usable CPU(s)",
        "",
        f"{'engine':>10} {'seconds':>8} {'bs/sec':>8} {'vs double':>10}",
    ]
    lines += [
        f"{kind:>10} {seconds[kind]:>8.3f} {bs[kind]:>8.1f} "
        f"{bs[kind] / bs[BASELINE]:>9.2f}x"
        for kind in usable
    ]
    lines += [f"{kind:>10} {'skipped:':>9} {reason}" for kind, reason in skipped.items()]
    lines += [
        "",
        f"compiled engine {compiled_speedup:.2f}x over double "
        f"(floor {floor}x, {extra['compiled_floor_kind']} gate; "
        f"numba {'active' if jit_enabled else 'absent'})",
        "",
        render_backend_comparison(comparison),
        "",
        "every engine's output checked bit-identical to the double reference "
        f"before timing; warm-up pass untimed; best-of-{BEST_OF} timings.",
    ]
    if record_result is not None:
        record_result("engines", "\n".join(lines))
    else:
        print("\n".join(lines))

    path = write_bench_json("engines", entries, extra=extra)
    print(f"[written to {path}]")
    return entries, extra


def test_engine_backend_throughput(record_result):
    entries, extra = run(record_result)
    floor = extra["compiled_floor"]
    assert extra["compiled_speedup"] >= floor, (
        f"compiled engine reached only {extra['compiled_speedup']:.2f}x the "
        f"double engine (required {floor}x, {extra['compiled_floor_kind']} gate)"
    )
    by_label = {entry["label"]: entry for entry in entries}
    assert by_label["double"]["speedup"] == 1.0
    assert by_label["compiled"]["speedup"] == extra["compiled_speedup"]
