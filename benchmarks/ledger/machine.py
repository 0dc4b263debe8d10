"""What the ledger records about the machine beside every number it prints.

The fingerprint says which box and which optional fast paths produced a
result; the calibration probe — a fixed NumPy FFT, timed before and after
every workload — shows machine drift next to every run, so a shifted number
can be told apart from a shifted machine.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import platform
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The CPUs this process may use, read before any pinning narrows them.
ALL_CPUS = sorted(os.sched_getaffinity(0))


def calib_fft_ms(repetitions: int = 150, discard: int = 30) -> float:
    """Median wall time (ms) of one fixed (64, 1024) complex128 ``np.fft.fft``.

    The first ``discard`` calls only wake the core up (a probe taken straight
    after a sleep reads up to 40 % slow) and are dropped.
    """
    probe = np.exp(1j * np.arange(64 * 1024, dtype=np.float64)).reshape(64, 1024)
    samples = []
    for _ in range(repetitions):
        begin = time.perf_counter()
        np.fft.fft(probe, axis=-1)
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples[discard:]) * 1e3


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    """Short HEAD of this checkout, or ``unknown`` (the driver's copy has no .git)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def fingerprint() -> Dict[str, Any]:
    """CPU, core count, interpreter/NumPy versions, optional fast paths, git rev."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": ALL_CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pocketfft_gufuncs": importlib.util.find_spec("numpy.fft._pocketfft_umath")
        is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_rev": _git_rev(),
    }


def plan_pinning(pool: bool) -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """``(generator CPUs, server CPUs)``; ``None`` leaves that side unpinned.

    With two or more CPUs the generator takes the first and the server the
    rest, so neither steals the other's time slices (README finding 4).  A
    pool server's tree stays unpinned: its workers are the parallelism being
    measured.
    """
    if len(ALL_CPUS) < 2:
        return None, None
    return ALL_CPUS[:1], (None if pool else ALL_CPUS[1:])
