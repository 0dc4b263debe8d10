#!/usr/bin/env python3
"""Same-code noise study: two interleaved sets of full runs on one commit.

    python3 benchmarks/ledger/noise.py --runs-per-set 5

Calibrate the instrument before trusting what it reads: every workload
``BENCHMARK.json`` lists is run ``runs-per-set`` times for set A and as often for set
B, the sets interleaved (A B A B ...) and every run on its own seed, exactly as
``BENCHMARK.json``'s command runs it.  For every workload × end-to-end metric
the study reports each set's median and quartiles, the relative difference of
the two medians, and the spread of all runs together (interquartile distance ÷
median, the number the benchmark's acceptance looks at).  A bound in
``BENCHMARK.json`` must be at least twice the observed difference and no
smaller than the spread.  Writes ``noise.json`` beside this file and prints the
README's table.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import machine  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {line['failed']} failed ops")
    calib = json.loads(
        (HERE / "out" / f"result_{workload}_trace0_seed{seed}.json").read_text()
    )["detail"]["calib_fft_ms"]
    return {
        "metrics": {name: entry["value"] for name, entry in line["metrics"].items()},
        "calib_fft_ms": calib,
    }


def quartiles(values: List[float]) -> List[float]:
    return list(statistics.quantiles(values, n=4))


def summarise(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sets = {
                label: [r["metrics"][name] for r in runs
                        if r["workload"] == workload and r["set"] == label]
                for label in ("A", "B")
            }
            pooled = sets["A"] + sets["B"]
            q1, _, q3 = quartiles(pooled)
            medians = {label: statistics.median(values) for label, values in sets.items()}
            summary[workload][name] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "median_A": medians["A"],
                "median_B": medians["B"],
                "relative_difference": abs(medians["B"] - medians["A"]) / medians["A"],
                "quartiles_A": quartiles(sets["A"]),
                "quartiles_B": quartiles(sets["B"]),
                "spread_all_runs": (q3 - q1) / statistics.median(pooled),
            }
    return summary


def table(summary: Dict[str, Any]) -> str:
    lines = [
        "| workload | metric | median A | median B | difference | spread | bound |",
        "| --- | --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            lines.append(
                f"| `{workload}` | `{name}` | {row['median_A']:.4g} {row['unit']} | "
                f"{row['median_B']:.4g} | {row['relative_difference']:.2%} | "
                f"{row['spread_all_runs']:.2%} | {row['bound']:.0%} |"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs-per-set", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=str(HERE / "noise.json"))
    args = parser.parse_args(argv)
    if args.runs_per_set < 3:
        parser.error("a set needs at least three runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs: List[Dict[str, Any]] = []
    begin = time.time()
    for index in range(args.runs_per_set):
        for offset, label in enumerate(("A", "B")):
            seed = 101 + 2 * index + offset
            for workload in (entry["name"] for entry in spec["workloads"]):
                started = time.time()
                run = one_run(workload, seed, seconds)
                runs.append({"workload": workload, "set": label, "seed": seed,
                             "wall_s": time.time() - started, **run})
                print(f"[{time.time() - begin:7.1f} s] set {label} run {index + 1} "
                      f"{workload} seed {seed} calib {run['calib_fft_ms']['before']:.3f}/"
                      f"{run['calib_fft_ms']['after']:.3f} ms: "
                      + "  ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)
    summary = summarise(runs, spec)
    pathlib.Path(args.out).write_text(json.dumps({
        "machine": machine.fingerprint(),
        "run_seconds": seconds,
        "runs_per_set": args.runs_per_set,
        "runs": runs,
        "summary": summary,
    }, indent=2) + "\n")
    print(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
