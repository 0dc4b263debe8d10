"""Telemetry overhead: the observability tax on scheduler throughput.

The PR-10 tentpole threads a metrics registry and a span tracer through the
hot flush path (``BatchScheduler.flush`` → ``execute_rows`` → the batched
bootstrapping).  The design contract is *zero cost when disabled and noise
when enabled*: every instrumentation site is guarded by a ``telemetry is
None`` check, and the enabled path only touches dict counters and a bounded
deque — microseconds against the milliseconds one bootstrapped row costs.

This bench holds the contract to a number.  The same gate workload is
flushed through

* a **bare** scheduler (``telemetry=None`` — every guard short-circuits),
* a **full** one (metrics + tracing, every job carrying a trace id, the
  exact configuration ``tools/serve.py`` runs with),

and the full path must keep at least ``1 - TELEMETRY_OVERHEAD_MAX`` of the
bare throughput (default floor: 5% overhead, env-overridable).  Timings
are best-of-``BEST_OF`` over a freshly filled queue each round, so the
comparison sees identical rows either way.

Results land in ``results/telemetry.txt``, the measured overhead fraction
among them.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py -q -s
"""

from __future__ import annotations

import gc
import os
import time

from repro.runtime.scheduler import BatchScheduler
from repro.telemetry import Telemetry
from repro.tfhe.gates import encrypt_bit
from repro.tfhe.keys import generate_keys
from repro.tfhe.params import TEST_MEDIUM
from repro.tfhe.transform import DoubleFFTNegacyclicTransform

#: TEST_MEDIUM (not tiny): each flush must be dominated by real bootstrap
#: work — the production ratio the 5% contract is about — or GC-cycle and
#: timing noise on a milliseconds-long flush swamps the microseconds being
#: measured.  (Telemetry's per-job cost is fixed; the paper's 110-bit
#: parameters make it proportionally ~30x smaller still.)
JOBS = 32
BEST_OF = 8
#: Maximum tolerated throughput loss with telemetry fully on (fraction).
TELEMETRY_OVERHEAD_MAX = float(os.environ.get("TELEMETRY_OVERHEAD_MAX", "0.05"))


def _one_round(scheduler, operands, traced: bool, round_no: int) -> float:
    """Wall clock of one fill-and-flush round of ``JOBS`` gates.

    Each timed round starts from a freshly collected heap: a generational
    GC pass landing inside one config's round but not the other's would
    read as milliseconds of phantom overhead.  (The *steady* allocation
    cost of telemetry still shows — only the collection-schedule luck is
    normalised away.)
    """
    session = scheduler.session("bench")
    gc.collect()
    start = time.perf_counter()
    for i, (ca, cb) in enumerate(operands):
        if traced:
            session.submit_gate("nand", ca, cb, trace_id=f"r{round_no}-{i}")
        else:
            session.submit_gate("nand", ca, cb)
    scheduler.flush()
    return time.perf_counter() - start


def run(record_result=None):
    params = TEST_MEDIUM
    secret, cloud = generate_keys(
        params,
        DoubleFFTNegacyclicTransform(params.N),
        unroll_factor=1,
        rng=42,
        eager=False,
    )
    operands = [
        (encrypt_bit(secret, i & 1, rng=7000 + 2 * i),
         encrypt_bit(secret, (i >> 1) & 1, rng=7001 + 2 * i))
        for i in range(JOBS)
    ]

    bare = BatchScheduler()
    bare.register_client("bench", cloud)
    telemetry = Telemetry()
    full = BatchScheduler(telemetry=telemetry)
    full.register_client("bench", cloud)

    # Interleaved rounds (bare, full, bare, full, ...) so slow machine
    # phases — CI noisy neighbours, thermal dips — hit both configs alike
    # instead of masquerading as telemetry overhead; best-of compares the
    # cleanest round of each.
    _one_round(bare, operands, False, 0)  # warm-ups: spectrum caches, JIT-warm numpy
    _one_round(full, operands, True, 0)
    bare_best = full_best = float("inf")
    for round_no in range(1, BEST_OF + 1):
        bare_best = min(bare_best, _one_round(bare, operands, False, round_no))
        full_best = min(full_best, _one_round(full, operands, True, round_no))

    bare_bs = JOBS / bare_best
    full_bs = JOBS / full_best
    overhead = 1.0 - full_bs / bare_bs

    extra = {
        "overhead_fraction": overhead,
        "overhead_max": TELEMETRY_OVERHEAD_MAX,
        "spans_recorded": len(telemetry.tracer.spans()),
        "metric_families": len(telemetry.registry.snapshot()),
    }

    lines = [
        f"Telemetry overhead, {JOBS} NAND jobs per flush, double-FFT engine, "
        f"{params.name} (n={params.n}, N={params.N})",
        "",
        f"{'config':>14} {'seconds':>8} {'bs/sec':>8} {'vs off':>8}",
        f"{'telemetry-off':>14} {bare_best:>8.3f} {bare_bs:>8.1f} {'-':>8}",
        f"{'telemetry-on':>14} {full_best:>8.3f} {full_bs:>8.1f} "
        f"{full_bs / bare_bs:>7.2f}x",
        "",
        f"overhead {overhead * 100.0:+.1f}% with metrics + per-job tracing on "
        f"(floor: <= {TELEMETRY_OVERHEAD_MAX * 100.0:.0f}%)",
        f"{extra['spans_recorded']} spans in the ring, "
        f"{extra['metric_families']} metric families after the run; "
        f"best-of-{BEST_OF}, warm-up round untimed.",
    ]
    if record_result is not None:
        record_result("telemetry", "\n".join(lines))
    else:
        print("\n".join(lines))
    return extra


def test_telemetry_overhead(record_result):
    extra = run(record_result)
    assert extra["overhead_fraction"] <= extra["overhead_max"], (
        f"telemetry costs {extra['overhead_fraction'] * 100.0:.1f}% of scheduler "
        f"throughput (floor {extra['overhead_max'] * 100.0:.0f}%) — an "
        "instrumentation site is on the hot path without a guard"
    )


if __name__ == "__main__":
    run()
