#!/usr/bin/env python3
"""``top`` for the serving front: a plain-text live telemetry dashboard.

Polls a running server's ``metrics_prom`` op (Prometheus text, the
server's one read-out) and redraws a compact status block: throughput
(bootstraps/sec, jobs completed), flush latency quantiles estimated from
the ``fhe_flush_seconds`` histogram, worker-pool health (workers alive,
breaker state, restarts, retries), engine failovers, and the requests
the server answered without running (deduped) or refused up front
(shed).  No curses — just ANSI clear-screen between refreshes, so it
works in any terminal and in CI logs (``--once`` prints a single frame
and exits).

Run:  PYTHONPATH=src python tools/top.py --port 8470 --interval 2
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.telemetry import parse_prometheus_text  # noqa: E402


def _series(families, name):
    """{frozenset(labels.items()): value} for one family (empty if absent)."""
    family = families.get(name)
    if family is None:
        return {}
    out = {}
    for sample_name, labels, value in family["samples"]:
        if sample_name == name:
            out[frozenset(labels.items())] = value
    return out


def _scalar(families, name, default=0.0):
    values = _series(families, name)
    return sum(values.values()) if values else default


def histogram_quantile(families, name, q):
    """Estimate quantile ``q`` from a family's cumulative buckets.

    Linear interpolation inside the bucket that crosses the target rank —
    the same estimate ``histogram_quantile()`` makes in PromQL.  Returns
    ``None`` when the histogram is absent or empty.
    """
    family = families.get(name)
    if family is None:
        return None
    buckets = []
    count = 0.0
    for sample_name, labels, value in family["samples"]:
        if sample_name == name + "_bucket":
            le = labels.get("le", "+Inf")
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.append((bound, value))
        elif sample_name == name + "_count":
            count = value
    if not buckets or count <= 0:
        return None
    buckets.sort(key=lambda item: item[0])
    rank = q * count
    previous_bound, previous_cum = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return previous_bound
            width = bound - previous_bound
            inside = cumulative - previous_cum
            if inside <= 0:
                return bound
            return previous_bound + width * (rank - previous_cum) / inside
    return buckets[-1][0]


def render_frame(families):
    """One dashboard frame as a list of lines."""
    uptime = _scalar(families, "fhe_server_uptime_seconds")
    busy = _scalar(families, "fhe_server_busy_seconds_total")
    rows = _scalar(families, "fhe_rows_bootstrapped_total")
    flushes = _scalar(families, "fhe_flushes_total")
    submitted = _scalar(families, "fhe_jobs_submitted_total")
    completed = _scalar(families, "fhe_jobs_completed_total")
    p50 = histogram_quantile(families, "fhe_flush_seconds", 0.50)
    p99 = histogram_quantile(families, "fhe_flush_seconds", 0.99)
    workers = _scalar(families, "fhe_pool_workers_alive", default=-1.0)
    breaker = _scalar(families, "fhe_pool_breaker_open", default=0.0)
    restarts = _scalar(families, "fhe_pool_worker_restarts_total")
    retried = _scalar(families, "fhe_pool_tasks_retried_total")
    failovers = _scalar(families, "fhe_engine_failovers_total")
    deduped = _scalar(families, "fhe_jobs_deduped_total")
    shed = _scalar(families, "fhe_jobs_shed_total")

    bps = rows / busy if busy > 0 else 0.0
    busy_pct = 100.0 * busy / uptime if uptime > 0 else 0.0

    def fmt_latency(value):
        return f"{value * 1e3:8.2f}ms" if value is not None else "       --"

    lines = [
        f"fhe-top  up {uptime:8.1f}s  busy {busy_pct:5.1f}%  "
        f"conns {int(_scalar(families, 'fhe_connections')):4d}  "
        f"sessions {int(_scalar(families, 'fhe_sessions_active')):4d}  "
        f"draining {'yes' if _scalar(families, 'fhe_server_draining') else 'no':3s}",
        f"work     bootstraps/sec {bps:10.1f}   rows {int(rows):10d}   "
        f"flushes {int(flushes):8d}   jobs {int(completed)}/{int(submitted)}",
        f"latency  flush p50 {fmt_latency(p50)}   p99 {fmt_latency(p99)}   "
        f"queue {int(_scalar(families, 'fhe_queue_depth')):4d}   "
        f"awaiting {int(_scalar(families, 'fhe_awaiting_results')):4d}",
        f"pool     workers {int(workers) if workers >= 0 else '--':>4}   "
        f"breaker {'OPEN' if breaker else 'closed':6s}   "
        f"restarts {int(restarts):4d}   task retries {int(retried):4d}   "
        f"failovers {int(failovers):3d}",
        f"shield   deduped {int(deduped):6d}   shed {int(shed):6d}",
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1", help="serving front address")
    parser.add_argument("--port", type=int, default=8470, help="serving front port")
    parser.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    parser.add_argument(
        "--once", action="store_true", help="print one frame and exit (CI mode)"
    )
    args = parser.parse_args(argv)

    from repro.runtime.protocol import ServingClient  # noqa: E402

    with ServingClient(args.host, args.port, timeout=30.0) as client:
        while True:
            _, body = client.call("metrics_prom")
            frame = render_frame(parse_prometheus_text(body.decode("utf-8")))
            if not args.once:
                sys.stdout.write("\x1b[2J\x1b[H")
            print("\n".join(frame), flush=True)
            if args.once:
                return 0
            time.sleep(args.interval)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(0)
