"""The ``offline_repro`` workload: the paper reproduction, in process, serial.

One pass does what the offline CLIs do by default:

* ``build_table()`` exactly as ``repro-table1`` runs it;
* ``simulate_sweep(engine="auto", verify=True)`` of every 2-D Table 1
  kernel's partition at SD (640x480) -- Sobel3D is left out, one sweep of
  its 640x480x400 volume takes minutes;
* a seeded ``run_suite(jobs=None, shrink=False)``, as ``repro-verify``.
  Each pass checks the next slice of the run's seeded case stream: the
  cost of a slice depends on its cases (one seed's 200 cases took 0.81 s,
  another's 1.03 s), so a run whose passes all re-checked one slice would
  carry that slice's cost in every pass.

The process-wide solve cache and canonicalization memo are emptied before
every pass, so each pass does the work of a fresh CLI invocation.

    python3 repobench/offline.py --setup-probe

runs only the set-up (imports and a small warm-up) in a fresh interpreter;
``setup_s`` is the median of several such probes.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, mode
from typing import Any, Dict, Iterator, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import child_env, require_source, self_peak_rss_mb, tail  # noqa: E402

#: Verify cases per pass.
SUITE_CASES = 200

#: Passes per run per second of ``--seconds`` (one pass takes 4-6 s on a
#: 2-core box, so 24 s give six); at least one pass runs.
PASSES_PER_SECOND = 1 / 4.0

#: ``setup_s`` is the median of this many fresh-interpreter probes.
SETUP_REPEATS = 5

SIM_RESOLUTION = "SD"


def two_d_kernels() -> List[str]:
    from repro.patterns.library import BENCHMARKS

    return [name for name, factory in BENCHMARKS.items() if factory().ndim == 2]


def warm_up() -> None:
    """Import every offline layer and touch each once on small inputs."""
    from repro.core.mapping import BankMapping
    from repro.core.solver import solve
    from repro.eval.table1 import build_table
    from repro.patterns.library import benchmark_pattern
    from repro.sim import memsim
    from repro.verify.runner import run_suite

    build_table(["se"], time_repetitions=1)
    mapping = BankMapping(solution=solve(benchmark_pattern("se")).solution, shape=(32, 24))
    memsim.simulate_sweep(mapping, engine="auto", verify=True)
    run_suite(8, seed=0, jobs=None, shrink=False)


def _reset_caches() -> None:
    from repro.core import cache as solve_cache

    solve_cache.clear()
    memo = getattr(solve_cache, "_canon_memo", None)
    if memo is not None:
        memo.clear()


@contextlib.contextmanager
def _part(recorder: Any, name: str) -> Iterator[None]:
    span = recorder.open(name) if recorder is not None else None
    try:
        yield
    finally:
        if span is not None:
            recorder.close(span)


def one_pass(seed: int, slice_index: int, recorder: Any = None) -> Dict[str, Any]:
    """Run one pass, checking verify cases ``slice_index * SUITE_CASES``
    onwards of ``seed``'s stream; returns part times, checks and counts."""
    from repro.core.mapping import BankMapping
    from repro.core.solver import solve
    from repro.eval import table1
    from repro.eval.paper_data import PAPER_TABLE1
    from repro.patterns.library import benchmark_pattern, benchmark_shape
    from repro.sim import memsim
    from repro.verify import runner

    _reset_caches()
    failed = attempted = 0
    with _part(recorder, "offline.pass"):
        began = time.perf_counter()
        with _part(recorder, "offline.table1"):
            table = table1.build_table()
        table_done = time.perf_counter()
        with _part(recorder, "offline.sim"):
            sims = []
            for kernel in two_d_kernels():
                solution = solve(benchmark_pattern(kernel)).solution
                mapping = BankMapping(
                    solution=solution, shape=benchmark_shape(kernel, SIM_RESOLUTION)
                )
                sims.append((solution, memsim.simulate_sweep(mapping, engine="auto", verify=True)))
        sim_done = time.perf_counter()
        with _part(recorder, "offline.verify"):
            suite = runner.run_suite(
                SUITE_CASES, seed=seed, jobs=None, shrink=False,
                start=slice_index * SUITE_CASES,
            )
        ended = time.perf_counter()

    matched = 0
    for row in table.rows:
        paper = PAPER_TABLE1[row.benchmark]
        attempted += 1
        failed += any(
            getattr(row, algorithm).n_banks != paper[algorithm].n_banks
            for algorithm in ("ours", "ltb")
        )
        for algorithm in ("ours", "ltb"):
            matched += sum(
                got == want
                for got, want in zip(row.storage[algorithm], paper[algorithm].storage_blocks)
            )
    accesses = 0
    for solution, report in sims:
        attempted += 1
        accesses += report.iterations * solution.pattern.size
        if solution.delta_ii == 0 and (
            report.measured_delta_ii != 0 or report.total_cycles != report.iterations
        ):
            failed += 1
    attempted += suite.cases
    failed += len(suite.failing_records)
    return {
        "pass_s": ended - began,
        "table1_s": table_done - began,
        "sim_s": sim_done - table_done,
        "verify_s": ended - sim_done,
        "accesses": accesses,
        "cases": suite.cases,
        "cells_matched": matched,
        "attempted": attempted,
        "failed": failed,
    }


def _probe_setup() -> float:
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - began


def _summary(results: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    pass_ms = [r["pass_s"] * 1000.0 for r in results]
    tail_value, tail_pct, tail_beyond = tail(pass_ms)
    sim_s = sum(r["sim_s"] for r in results)
    verify_s = sum(r["verify_s"] for r in results)
    return {
        "latency_ms": median(pass_ms),
        "tail_latency_ms": tail_value,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "throughput_per_s": len(results) / sum(r["pass_s"] for r in results),
        "samples": len(results),
        "table1_ms": median([r["table1_s"] * 1000.0 for r in results]),
        "sim_accesses_per_s": sum(r["accesses"] for r in results) / sim_s,
        "verify_cases_per_s": sum(r["cases"] for r in results) / verify_s,
        "table1_cells_matched": mode(r["cells_matched"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def run(
    seed: int,
    seconds: float,
    trace: bool,
    inject: Sequence[str] = (),
) -> Dict[str, Any]:
    """One offline run.  Untraced: end-to-end metrics.  Traced: as many
    passes, half untraced and half traced in ABBA order (so a drift in the
    machine's speed lands on both sides of the overhead comparison);
    per-layer metrics, the untraced passes' Table 1 / simulation / verify
    rates, and the trace overhead.  ``inject`` delays go to the traced
    passes only (the self-test's baseline is the untraced half of the same
    run)."""
    if inject and not trace:
        raise ValueError("delays are injected into traced runs only")
    passes = max(1, round(seconds * PASSES_PER_SECOND))
    warm_up()
    if not trace:
        setups = [_probe_setup() for _ in range(SETUP_REPEATS)]
        out = _summary([one_pass(seed, p) for p in range(passes)])
        out.update(
            setup_s=median(setups),
            setup_samples_s=setups,
            peak_rss_mb=self_peak_rss_mb(),
        )
        return out

    from analysis import offline_layers
    from tracing import OFFLINE_POINTS, Recorder, install, parse_inject

    recorder = Recorder()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    # Passes 2k and 2k+1 (one untraced, one traced) check the same slice.
    for i in range(2 * max(1, passes // 2)):
        if i % 4 not in (1, 2):
            plain.append(one_pass(seed, i // 2))
            continue
        installed = install(recorder, OFFLINE_POINTS, parse_inject(inject), oracles=True)
        try:
            traced.append(one_pass(seed, i // 2, recorder))
        finally:
            installed.restore()
    base, traced_summary = _summary(plain), _summary(traced)
    layers = offline_layers(recorder.rows(), len(traced))
    layers.update({
        "eval.table1.table_ms": base["table1_ms"],
        "sim.accesses_per_s": base["sim_accesses_per_s"],
        "verify.cases_per_s": base["verify_cases_per_s"],
        "eval.table1.cells_matched": base["table1_cells_matched"],
        "trace_overhead_pct": (
            (traced_summary["latency_ms"] - base["latency_ms"]) / base["latency_ms"] * 100.0
        ),
    })
    return {
        "layers": layers,
        "untraced": base,
        "traced": traced_summary,
        "attempted": base["attempted"] + traced_summary["attempted"],
        "failed": base["failed"] + traced_summary["failed"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args != ["--setup-probe"]:
        sys.stderr.write("usage: offline.py --setup-probe\n")
        return 2
    require_source()
    warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
