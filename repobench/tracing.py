"""Spans recorded from outside the program, around calls into its layers.

Nothing under ``src/`` knows about these spans: :func:`install` swaps a
module attribute (a function, a method, or an ``ORACLES`` entry) for a thin
wrapper that times the original call and keeps the span in memory.  The
same wrappers can also add a fixed delay to one entry point, which is how
the benchmark's self-test checks that each layer metric measures the layer
it names.

A span is ``[name, start, end, parent, request, attrs]``: ``start``/``end``
are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so the
client's and the server's timestamps share one clock), ``parent`` is the
enclosing span on the same thread, and ``request`` is the benchmark's own
request id (the ``X-Bench-Id`` header) on the server's event loop, else
``None``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Request id of the work running in this context (set by the HTTP read
#: wrapper on the connection's task).
REQUEST: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repobench_request", default=None
)

#: Header carrying the benchmark's request id; the server ignores it.
REQUEST_HEADER = "X-Bench-Id"


class Recorder:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> list:
        stack = self._stack()
        span = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            REQUEST.get(),
            attrs or {},
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request: Optional[str],
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span that is not on a thread's stack (async spans)."""
        self.spans.append([name, start, end, None, request, attrs or {}])

    def rows(self) -> List[list]:
        """Spans with parents replaced by list indices (JSON-serializable)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [name, start, end, index.get(id(parent)) if parent else None, rid, attrs]
            for name, start, end, parent, rid, attrs in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.rows(), handle)


# -- entry points ------------------------------------------------------------

#: Layer entry points of the serving path: ``(target, span name, attrs)``.
#: ``attrs(args, kwargs, result)`` returns span attributes.  Functions that
#: a module imported by name are patched where they are looked up.
SERVE_POINTS: List[Tuple[str, str, Optional[Callable]]] = [
    ("repro.serve.server:write_http_response", "serve.http.write", None),
    ("repro.serve.server:parse_solve_spec", "serve.protocol.parse", None),
    ("repro.serve.server:solution_payload", "serve.protocol.payload", None),
    ("repro.serve.protocol:SolveSpec.canonicalized", "core.cache.canonicalized", None),
    ("repro.serve.protocol:canonicalize", "core.cache.canonicalize", None),
    ("repro.core.cache:canonicalize", "core.cache.canonicalize", None),
    (
        "repro.serve.protocol:SolveSpec.canonical_digest",
        "core.cache.digest",
        lambda a, k, r: {"digest": r},
    ),
    ("repro.core.cache:SymmetryOp.solution_to_caller", "core.cache.to_caller", None),
    (
        "repro.serve.coalesce:_execute_batch",
        "serve.coalesce.batch",
        lambda a, k, r: {"digests": [item[0] for item in a[0]]},
    ),
    (
        "repro.serve.store:SolutionStore.get",
        "serve.store.get",
        lambda a, k, r: {"digest": a[1], "hit": r is not None},
    ),
    (
        "repro.serve.store:SolutionStore.put",
        "serve.store.put",
        lambda a, k, r: {"digest": a[1]},
    ),
    ("repro.serve.coalesce:map_tasks", "sched.map_tasks", None),
    (
        "repro.serve.coalesce:_solve_task",
        "sched.task",
        lambda a, k, r: {"digest": a[0][0]},
    ),
    ("repro.serve.coalesce:solve", "core.solver.solve", None),
    ("repro.core.solver:minimize_nf", "core.solver.minimize_nf", None),
    ("repro.core.solver:same_size_sweep", "core.solver.sweep", None),
    # Not on the /solve path; patched so a delay injected here must leave
    # the serving workloads unchanged (the self-test's bypass arm).
    ("repro.sim.memsim:simulate_sweep", "sim.simulate", None),
]


def _ltb_name(args: tuple, kwargs: dict) -> str:
    return (
        "baselines.ltb.scalar_timing"
        if kwargs.get("engine") == "scalar"
        else "baselines.ltb.search"
    )


def _sim_attrs(args: tuple, kwargs: dict, report: Any) -> Dict[str, Any]:
    pattern = args[0].solution.pattern
    return {
        "kernel": pattern.name,
        "accesses": report.iterations * pattern.size,
    }


#: Layer entry points of the offline reproduction pass.
OFFLINE_POINTS: List[Tuple[str, Any, Optional[Callable]]] = [
    (
        "repro.eval.table1:build_row",
        "eval.table1.row",
        lambda a, k, r: {"kernel": a[0]},
    ),
    ("repro.eval.metrics:partition", "core.partition", None),
    (
        "repro.eval.metrics:ltb_partition",
        _ltb_name,
        lambda a, k, r: {"vectors": r.vectors_tried},
    ),
    ("repro.sim.memsim:simulate_sweep", "sim.simulate", _sim_attrs),
    ("repro.verify.gen:generate_case", "verify.gen", None),
    ("repro.verify.runner:map_tasks", "sched.map_tasks", None),
    ("repro.verify.runner:_run_payload", "verify.case", None),
]


def _lookup(owner: Any, attr: str) -> Any:
    """The attribute as stored (a class's own function, not a bound one)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _sync_wrapper(
    recorder: Recorder,
    original: Callable,
    name: Any,
    attrs: Optional[Callable],
    delay_s: float,
    delay_when: Callable[[Any], bool],
) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name(args, kwargs) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
            if delay_s and delay_when(result):
                time.sleep(delay_s)
        finally:
            recorder.close(span)
        if attrs is not None:
            span[5] = attrs(args, kwargs, result)
        return result

    return wrapper


def _always(_result: Any) -> bool:
    return True


def _hit(result: Any) -> bool:
    return result is not None


#: Injection predicates: a store lookup only reads an artifact from disk on
#: a hit (a miss is answered from the in-memory index), so a delay injected
#: into ``SolutionStore.get`` models a slower artifact read.
DELAY_WHEN: Dict[str, Callable[[Any], bool]] = {"serve.store.get": _hit}


class Installed:
    """Handle on patched entry points; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, _lookup(owner, attr), False))
            setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()


def install(
    recorder: Recorder,
    points: Iterable[Tuple[str, Any, Optional[Callable]]],
    inject: Optional[Dict[str, float]] = None,
    oracles: bool = False,
) -> Installed:
    """Wrap every entry point; ``inject`` maps span names to delays in ms."""
    inject = inject or {}
    installed = Installed()
    for target, name, attrs in points:
        key = name if isinstance(name, str) else target
        delay_s = inject.get(key, 0.0) / 1000.0
        owner, attr = _resolve(target)
        original = _lookup(owner, attr)
        installed.patch(
            owner,
            attr,
            _sync_wrapper(
                recorder, original, name, attrs, delay_s,
                DELAY_WHEN.get(key, _always),
            ),
        )
    if oracles:
        from repro.verify import oracles as oracle_module

        for oracle_name, fn in list(oracle_module.ORACLES.items()):
            installed.patch(
                oracle_module.ORACLES,
                oracle_name,
                _sync_wrapper(
                    recorder, fn, f"verify.oracle.{oracle_name}", None, 0.0, _always
                ),
            )
    return installed


def install_server(recorder: Recorder, inject: Optional[Dict[str, float]] = None) -> Installed:
    """Wrap the serving layers, plus the two async boundaries.

    ``serve.http.read`` starts when the server begins waiting for the next
    request on a keep-alive connection; the analysis clips it to the
    client's send time.  It also sets :data:`REQUEST` on the connection's
    task, which every later span of that request inherits.
    ``serve.coalesce.hop`` runs from ``Coalescer.submit_traced`` until the
    shared future resolves.
    """
    installed = install(recorder, SERVE_POINTS, inject)
    from repro.obs.metrics import registry
    from repro.serve import coalesce, server

    original_read = server.read_http_request

    async def read_http_request(reader: Any) -> Any:
        started = time.perf_counter()
        request = await original_read(reader)
        if request is not None:
            rid = request[2].get(REQUEST_HEADER.lower())
            REQUEST.set(rid)
            recorder.add("serve.http.read", started, time.perf_counter(), rid)
        return request

    installed.patch(server, "read_http_request", read_http_request)

    original_submit = coalesce.Coalescer.submit_traced
    attached = registry().counter("serve.coalesce.attached")

    def submit_traced(self: Any, spec: Any, trace_id: Any = None) -> Any:
        started = time.perf_counter()
        before = attached.value
        future, leader = original_submit(self, spec, trace_id)
        rid = REQUEST.get()
        joined = attached.value != before

        def done(_future: Any) -> None:
            recorder.add(
                "serve.coalesce.hop",
                started,
                time.perf_counter(),
                rid,
                {"attached": joined},
            )

        future.add_done_callback(done)
        return future, leader

    installed.patch(coalesce.Coalescer, "submit_traced", submit_traced)
    return installed


def parse_inject(values: Iterable[str]) -> Dict[str, float]:
    """``["serve.store.get=2"]`` -> ``{"serve.store.get": 2.0}`` (ms)."""
    out: Dict[str, float] = {}
    for value in values:
        name, _, ms = value.partition("=")
        out[name] = float(ms)
    return out
