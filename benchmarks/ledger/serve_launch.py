#!/usr/bin/env python3
"""The ledger's server child: ``tools/serve.py``'s server with a larger frame.

``tools/serve.py`` has no flag for ``max_frame`` and the ``paper-110bit``
cloud key (108.4 MiB) exceeds ``DEFAULT_MAX_FRAME`` (64 MiB), so the ledger
starts the server through this launcher.  It passes ``serve()`` nothing but
the host, port 0, ``max_frame`` and — for the pool workload — the
``WorkerPool`` exactly as ``tools/serve.py`` builds it; every other setting
is ``FheServer``'s own default, which is what ``tools/serve.py``'s flags
default to, so the benchmark cannot drift from the shipped configuration.
Prints the same ``listening on host:port`` line and drains on SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

#: Frame ceiling of the ledger's server and clients (the paper key needs >64 MiB).
MAX_FRAME = 512 * 1024 * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument(
        "--cpus", default="", help="comma-separated CPUs to pin this process tree to"
    )
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})

    from repro.runtime.server import serve
    from repro.runtime.workers import WorkerPool

    pool = WorkerPool(args.workers, task_timeout=60.0) if args.workers > 0 else None
    try:
        asyncio.run(serve(dispatcher=pool, host=args.host, port=0, max_frame=MAX_FRAME))
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        if pool is not None:
            pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
