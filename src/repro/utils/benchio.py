"""Schema-consistent benchmark result files (``results/BENCH_*.json``).

The compiler corpus benchmark and the telemetry-overhead gate write their
machine-readable results through :func:`write_bench_json`, so tooling can
diff them between revisions.  The system's own speed is measured end to end
by the declared benchmark (``benchmarks/ledger/``), not here.  The schema
(``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "name": "<bench name>",
      "git_rev": "<short rev or 'unknown'>",
      "entries": [
        {
          "label": "<measurement point>",
          "engine": "<transform engine kind>",
          "params": "<parameter-set name>",
          "batch_width": <int>,
          "bootstraps_per_sec": <float>,
          "baseline_bootstraps_per_sec": <float>,
          "speedup": <float>
        },
        ...
      ],
      "extra": { ... free-form per-bench detail ... }
    }

``tools/bench.py`` is the CLI runner around this module: it executes the
registered benchmarks and validates their result files against the schema
(what CI does after the compiler benchmark).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
from typing import Any, Dict, List, Optional

SCHEMA = "repro-bench/1"

#: Keys every entry must carry (the cross-PR comparable core).
ENTRY_KEYS = (
    "label",
    "engine",
    "params",
    "batch_width",
    "bootstraps_per_sec",
    "baseline_bootstraps_per_sec",
    "speedup",
)


def repo_root() -> pathlib.Path:
    """The repository root (two levels above ``src/repro/utils``)."""
    return pathlib.Path(__file__).resolve().parents[3]


def results_dir() -> pathlib.Path:
    path = repo_root() / "results"
    path.mkdir(exist_ok=True)
    return path


def git_rev() -> str:
    """The short git revision of the working tree (``"unknown"`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def make_entry(
    label: str,
    engine: str,
    params: str,
    batch_width: int,
    bootstraps_per_sec: float,
    baseline_bootstraps_per_sec: float,
) -> Dict[str, Any]:
    """One schema entry; the speedup is derived, never hand-written."""
    return {
        "label": label,
        "engine": engine,
        "params": params,
        "batch_width": int(batch_width),
        "bootstraps_per_sec": float(bootstraps_per_sec),
        "baseline_bootstraps_per_sec": float(baseline_bootstraps_per_sec),
        "speedup": float(bootstraps_per_sec) / float(baseline_bootstraps_per_sec),
    }


def write_bench_json(
    name: str,
    entries: List[Dict[str, Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Write ``results/BENCH_<name>.json`` and return the path."""
    payload = {
        "schema": SCHEMA,
        "name": name,
        "git_rev": git_rev(),
        "entries": entries,
        "extra": extra or {},
    }
    validate_payload(payload)
    path = results_dir() / f"BENCH_{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def validate_payload(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` when a payload does not match ``repro-bench/1``."""
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema: {payload.get('schema')!r}")
    for key in ("name", "git_rev", "entries"):
        if key not in payload:
            raise ValueError(f"missing top-level key: {key!r}")
    if not isinstance(payload["entries"], list) or not payload["entries"]:
        raise ValueError("entries must be a non-empty list")
    for i, entry in enumerate(payload["entries"]):
        missing = [key for key in ENTRY_KEYS if key not in entry]
        if missing:
            raise ValueError(f"entry {i} is missing keys: {missing}")


def validate_file(path: pathlib.Path) -> None:
    """Validate one ``BENCH_*.json`` file against the schema."""
    with open(path) as handle:
        validate_payload(json.load(handle))
