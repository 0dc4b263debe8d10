#!/usr/bin/env python3
"""Start the repro-tfhe serving front: asyncio sockets + bootstrap workers.

Binds an :class:`repro.runtime.server.FheServer` and (optionally) a
:class:`repro.runtime.workers.WorkerPool` that shards every flush's
bootstrapping rows across worker processes sharing the cloud-key spectrum
cache via shared memory.  Clients connect with
:class:`repro.runtime.protocol.ServingClient`, upload their cloud key, and
exchange serialized artifacts over length-prefixed frames — see
``examples/serving_clients.py`` for the client side.  Each key is evaluated
on the transform engine recorded in it (chosen at keygen, ``tools/keygen.py``).

Run:  PYTHONPATH=src python tools/serve.py --port 8470 --workers 4
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.runtime.protocol import DEFAULT_MAX_FRAME  # noqa: E402
from repro.runtime.server import serve  # noqa: E402
from repro.runtime.workers import WorkerPool  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument("--port", type=int, default=8470, help="listen port (0 = pick free)")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="bootstrap worker processes (0 = execute flushes inline)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=60.0,
        help="seconds before a hung worker is killed and its task requeued",
    )
    parser.add_argument(
        "--max-pending-jobs",
        type=int,
        default=1024,
        help="scheduler queue bound; submissions past it get 'busy' errors",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="per-connection concurrent-request bound (TCP backpressure past it)",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.002,
        help="ceiling (s) of the coalescing window between the first queued job "
        "and its flush; the window closes early once every job request seen "
        "in flight at the end of the previous flush is queued",
    )
    parser.add_argument(
        "--max-rows-per-call",
        type=int,
        default=None,
        help="chunk bound for one batched bootstrapping call",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=DEFAULT_MAX_FRAME,
        help=(
            "largest request frame accepted, in bytes; a paper-110bit cloud "
            "key is a ~108 MiB register_key frame, above the default"
        ),
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help=(
            "graceful-drain bound (s) on SIGTERM/SIGINT: accepted jobs are "
            "flushed and clients notified before exit; a second signal "
            "force-stops immediately"
        ),
    )
    args = parser.parse_args(argv)

    pool = (
        WorkerPool(args.workers, task_timeout=args.task_timeout)
        if args.workers > 0
        else None
    )
    try:
        asyncio.run(
            serve(
                dispatcher=pool,
                host=args.host,
                port=args.port,
                max_pending_jobs=args.max_pending_jobs,
                max_inflight=args.max_inflight,
                flush_interval=args.flush_interval,
                max_rows_per_call=args.max_rows_per_call,
                max_frame=args.max_frame,
                drain_timeout=args.drain_timeout,
            )
        )
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        if pool is not None:
            pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
