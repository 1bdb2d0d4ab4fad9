"""Helpers shared by the workloads: paths, percentiles, memory, stamps."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Checkout root: the directory holding ``repobench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles tried, highest first, for the tail metric.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"repobench: no program source at {SRC}/repro; run from a full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts (program on the path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def work_dir() -> Path:
    """A fresh scratch directory inside the checkout (removed by the caller)."""
    base = ROOT / ".repobench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=str(base)))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values: Sequence[float]) -> Tuple[float, str, int]:
    """The tail value, which percentile it is, and the samples beyond it.

    The tail is p99 when at least :data:`TAIL_MIN_BEYOND` samples lie
    beyond it; a shorter run steps down the ladder.  With too few samples
    for any of it (a handful of offline passes), the tail is the
    second-slowest sample: the slowest alone moved by a third between runs
    on a noisy 2-vCPU guest.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= TAIL_MIN_BEYOND:
            return percentile(ordered, pct), f"p{pct:g}", beyond(n, pct)
    return ordered[max(0, n - 2)], "second-slowest", min(1, n - 1)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def install_stamp() -> Dict[str, Any]:
    """What this run measured: native tier, picked engines, versions, cores.

    A run with the compiled extension must never be silently compared with
    one without it, so every result carries this stamp.
    """
    import numpy

    from repro import native
    from repro.baselines.ltb import resolve_ltb_engine
    from repro.core.solver import solve
    from repro.core.mapping import BankMapping
    from repro.patterns.library import benchmark_pattern
    from repro.sim.memsim import resolve_engine

    pattern = benchmark_pattern("log")
    mapping = BankMapping(solution=solve(pattern).solution, shape=(640, 480))
    return {
        "native_available": native.available(),
        "sim_engine": resolve_engine(mapping, "auto"),
        "ltb_engine": resolve_ltb_engine("auto"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartile spread (as a share of the median) of k values."""
    if len(values) < 2:
        return {"median": values[0] if values else float("nan"), "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "spread": (q3 - q1) / q2 if q2 else float("inf")}
