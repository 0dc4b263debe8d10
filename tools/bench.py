#!/usr/bin/env python3
"""Runner for the benchmarks that write machine-readable results.

Two benchmarks write ``results/BENCH_<name>.json`` in the shared
``repro-bench/1`` schema (engine, batch width, bootstraps/sec, speedup, git
rev — see :mod:`repro.utils.benchio`): the compiler corpus table and the
telemetry-overhead gate.  The system's speed is measured end to end by the
declared benchmark, ``benchmarks/ledger/run.py``.

Run:      PYTHONPATH=src python tools/bench.py [name ...]   # default: all
List:     python tools/bench.py --list
Validate: python tools/bench.py --validate                  # each BENCH_<name>.json
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.utils import benchio  # noqa: E402


def _load_benchmark_module(filename: str):
    path = ROOT / "benchmarks" / filename
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: name -> benchmark script whose ``run()`` writes results/BENCH_<name>.json.
BENCHES = {
    "compiler": "bench_compiler.py",
    "telemetry": "bench_telemetry_overhead.py",
}


def validate_all() -> int:
    status = 0
    for name in sorted(BENCHES):
        path = ROOT / "results" / f"BENCH_{name}.json"
        try:
            benchio.validate_file(path)
            print(f"ok      {path.relative_to(ROOT)}")
        except (ValueError, KeyError, OSError) as error:
            print(f"INVALID {path.relative_to(ROOT)}: {error}", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="benchmarks to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list registered benchmarks")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="validate each registered results/BENCH_<name>.json against the schema",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(BENCHES):
            print(name)
        return 0
    if args.validate:
        return validate_all()

    names = args.names or sorted(BENCHES)
    for name in names:
        if name not in BENCHES:
            print(
                f"unknown benchmark {name!r} (known: {', '.join(sorted(BENCHES))})",
                file=sys.stderr,
            )
            return 2
        print(f"== {name} ==")
        _load_benchmark_module(BENCHES[name]).run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
