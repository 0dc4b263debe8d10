#!/usr/bin/env python3
"""Unified benchmark runner for the machine-readable perf trajectory.

Every registered benchmark measures bootstraps/sec against a baseline and
writes ``results/BENCH_<name>.json`` in the shared ``repro-bench/1`` schema
(engine, batch width, bootstraps/sec, speedup, git rev — see
:mod:`repro.utils.benchio`), so the perf trajectory stays diffable across
PRs regardless of which bench produced a number.

Run:      PYTHONPATH=src python tools/bench.py [name ...]   # default: all
List:     python tools/bench.py --list
Validate: python tools/bench.py --validate                  # existing BENCH_*.json
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


def _run_external_product() -> None:
    _load_benchmark_module("bench_external_product.py").run()


def _run_compiler() -> None:
    _load_benchmark_module("bench_compiler.py").run()


def _run_pbs() -> None:
    _load_benchmark_module("bench_programmable_bootstrap.py").run()


def _run_batch_throughput() -> None:
    _load_benchmark_module("bench_batch_throughput.py").run()


def _run_circuit_levels() -> None:
    _load_benchmark_module("bench_circuit_levels.py").run()


def _run_serving() -> None:
    _load_benchmark_module("bench_serving.py").run()


def _run_telemetry() -> None:
    _load_benchmark_module("bench_telemetry_overhead.py").run()


#: name -> zero-argument runner writing results/BENCH_<name>.json.
#: (`runtime` is produced by the pytest-driven scheduler bench; it is
#: validated here but executed through pytest because it needs fixtures.)
BENCHES = {
    "batch_throughput": _run_batch_throughput,
    "circuit_levels": _run_circuit_levels,
    "compiler": _run_compiler,
    "external_product": _run_external_product,
    "pbs": _run_pbs,
    "serving": _run_serving,
    "telemetry": _run_telemetry,
}


def validate_all() -> int:
    results = ROOT / "results"
    paths = sorted(results.glob("BENCH_*.json"))
    if not paths:
        print("no results/BENCH_*.json files found", file=sys.stderr)
        return 1
    status = 0
    for path in paths:
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
        help="validate existing results/BENCH_*.json files against the schema",
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
        BENCHES[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
