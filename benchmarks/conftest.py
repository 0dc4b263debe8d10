"""Shared helpers for the benchmark harness.

Every benchmark here regenerates a table or figure of the paper, the DVQTF
failure study, the compiler corpus table, the cycle-model ablation or the
telemetry-overhead gate; the system's own speed is measured by the ledger
(``benchmarks/ledger/``).  Each bench writes its rendered table to
``results/<name>.txt`` (and prints it), so the output survives the run.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write a rendered table to results/<name>.txt and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record
