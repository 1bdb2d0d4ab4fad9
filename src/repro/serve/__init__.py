"""repro.serve — the partitioning library as a long-lived service.

Everything before this package is a one-shot pipeline: a CLI starts, the
caches warm, the answer prints, the process — and every warmed cache —
dies.  ``repro.serve`` keeps the fast paths resident and puts an HTTP API
in front of them:

* :class:`~repro.serve.server.PartitionServer` — stdlib-asyncio HTTP
  server exposing ``/solve``, ``/simulate``, ``/table1``, ``/healthz``,
  and Prometheus ``/metrics``; per-request deadlines, structured errors,
  and 429 backpressure.
* :class:`~repro.serve.coalesce.Coalescer` — request coalescing (identical
  canonical solves share one in-flight job) and micro-batching into the
  solve tier (:func:`repro.eval.parallel.run_parallel`).
* :class:`~repro.serve.store.SolutionStore` — content-addressed on-disk
  artifacts keyed by :func:`repro.core.cache.stable_digest`, LRU-bounded,
  layered under the in-memory solve cache so a restarted server serves
  its old working set with zero new solves.
* :class:`~repro.serve.client.ServeClient` — blocking client speaking the
  same protocol, with optional bounded-jittered retries on 429/503 and
  transport errors; ``repro-serve`` (:mod:`repro.serve.cli`) runs the
  server.

One process serves every request, with one lookup path: the in-memory
solve cache, then the local store, then a solve.

Protocol, batching, and store semantics are documented in
``docs/SERVING.md``.
"""

from .client import (
    DeadlineExceededError,
    InfeasibleRequestError,
    ServeClient,
    ServeError,
    ServerBusyError,
)
from .coalesce import Coalescer, QueueFullError
from .protocol import (
    TRACE_HEADER,
    BadRequestError,
    SimulateSpec,
    SolveSpec,
    parse_simulate_spec,
    parse_solve_spec,
)
from .server import PartitionServer, ThreadedServer, serve_in_thread
from .store import SolutionStore

__all__ = [
    "BadRequestError",
    "Coalescer",
    "DeadlineExceededError",
    "InfeasibleRequestError",
    "PartitionServer",
    "QueueFullError",
    "ServeClient",
    "ServeError",
    "ServerBusyError",
    "SimulateSpec",
    "SolutionStore",
    "SolveSpec",
    "TRACE_HEADER",
    "ThreadedServer",
    "parse_simulate_spec",
    "parse_solve_spec",
    "serve_in_thread",
]
