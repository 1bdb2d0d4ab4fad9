"""Layer-injection self-test: each layer metric measures the layer it names.

A fixed delay is injected, through the benchmark's own wrappers, into one
entry point.  In short runs the predicted layer metric and end-to-end
metric must move on the workload that exercises the layer, and stay put on
the workload that bypasses it:

* ``SolutionStore.get`` (delayed on hits, i.e. on an artifact read):
  moves ``serve.store.get_ms`` and ``latency_ms`` on ``serve_warm``; on
  ``serve_cold`` every lookup misses, so neither moves.
* ``simulate_sweep``: moves ``sim.simulate_ms.<kernel>`` and the pass
  latency on ``offline_repro``; ``/solve`` never simulates, so
  ``serve_warm`` stays put.

Every run here is traced, and a traced run interleaves an untraced and a
traced half in ABBA order.  The delay goes to the traced half only, so the
end-to-end metric is compared between the two halves of one run, which see
the same machine speed.  Layer metrics are compared with a traced run
without a delay.

Run from the checkout root (takes about two minutes on a 2-core box)::

    python3 -m pytest repobench -q
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402

require_source()

import offline  # noqa: E402
import serving  # noqa: E402

SECONDS = 3.0
STORE_DELAY_MS = 5.0
SIM_DELAY_MS = 1500.0

#: On a bypassed workload the traced half may differ from the untraced half
#: by the trace's own overhead plus noise, at most this share.  Where the
#: layer is exercised, the delay is several times the latency.
BYPASS_TOLERANCE = 0.3


@functools.lru_cache(maxsize=None)
def _serve(workload: str, inject: str = ""):
    """A traced serving run, shared by the tests that need it."""
    return serving.run(
        workload, seed=3, seconds=SECONDS, trace=True, inject=[inject] if inject else []
    )


@functools.lru_cache(maxsize=None)
def _offline(inject: str = ""):
    return offline.run(seed=3, seconds=10.0, trace=True, inject=[inject] if inject else [])


def _moved_ms(result) -> float:
    """Traced half's latency minus the untraced half's, in ms."""
    return result["traced"]["latency_ms"] - result["untraced"]["latency_ms"]


def _ratio(result) -> float:
    return result["traced"]["latency_ms"] / result["untraced"]["latency_ms"]


def _clean(result) -> None:
    assert result["failed"] == 0 and result["attempted"] > 0


def test_store_delay_moves_warm_serving():
    base = _serve("serve_warm")
    slow = _serve("serve_warm", f"serve.store.get={STORE_DELAY_MS}")
    _clean(base), _clean(slow)
    assert slow["layers"]["serve.store.hit_ratio"] == 1.0
    moved = slow["layers"]["serve.store.get_ms"] - base["layers"]["serve.store.get_ms"]
    assert moved > 0.8 * STORE_DELAY_MS
    assert _moved_ms(slow) > 0.8 * STORE_DELAY_MS


def test_store_delay_leaves_cold_serving():
    base = _serve("serve_cold")
    slow = _serve("serve_cold", f"serve.store.get={STORE_DELAY_MS}")
    _clean(base), _clean(slow)
    assert slow["layers"]["serve.store.hit_ratio"] == 0.0
    moved = slow["layers"]["serve.store.get_ms"] - base["layers"]["serve.store.get_ms"]
    assert abs(moved) < 0.1 * STORE_DELAY_MS
    assert abs(_ratio(slow) - 1) < BYPASS_TOLERANCE


def test_sim_delay_moves_offline():
    base = _offline()
    slow = _offline(f"sim.simulate={SIM_DELAY_MS}")
    _clean(base), _clean(slow)
    kernels = offline.two_d_kernels()
    for kernel in kernels:
        key = f"sim.simulate_ms.{kernel}"
        assert slow["layers"][key] - base["layers"][key] > 0.8 * SIM_DELAY_MS
        rate = f"sim.accesses_per_s.{kernel}"
        assert slow["layers"][rate] < base["layers"][rate]
    assert _moved_ms(slow) > 0.8 * len(kernels) * SIM_DELAY_MS


def test_sim_delay_leaves_serving():
    base = _serve("serve_warm")
    slow = _serve("serve_warm", f"sim.simulate={SIM_DELAY_MS}")
    _clean(base), _clean(slow)
    assert abs(_ratio(slow) - 1) < BYPASS_TOLERANCE
    for layer in ("serve.coalesce.hop_ms", "serve.store.get_ms"):
        assert slow["layers"][layer] < base["layers"][layer] + 1.0


@pytest.mark.parametrize("workload", ["serve_warm", "serve_cold"])
def test_traced_run_reports_every_layer(workload):
    layers = _serve(workload)["layers"]
    for name in ("serve.http.read_ms", "serve.protocol.parse_ms",
                 "core.cache.canonicalize_ms", "serve.coalesce.hop_ms",
                 "serve.residual_ms", "trace_overhead_pct"):
        assert name in layers
    solves = layers["core.solver.solves_per_request"]
    assert solves == (0.0 if workload == "serve_warm" else 1.0)
