"""Per-layer self times from the spans of a traced run.

A span's self time is its duration minus the durations of its child spans.
Serving: each request's time is split into the layers its spans belong to;
work done on the executor thread for a micro-batch is attributed to the
requests by canonical digest (the batch's shared overhead is split evenly
among its digests), and ``serve.residual_ms`` is the client's latency
minus every layer's self time.  Offline: each pass's time is split the
same way, the remainder being ``offline.residual_ms``.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

#: Span name -> layer it is charged to.
SERVE_LAYER = {
    "serve.http.read": "serve.http.read",
    "serve.http.write": "serve.http.write",
    "serve.protocol.parse": "serve.protocol.parse",
    "serve.protocol.payload": "serve.protocol.payload",
    "core.cache.canonicalized": "core.cache.canonicalize",
    "core.cache.canonicalize": "core.cache.canonicalize",
    "core.cache.digest": "core.cache.digest",
    "core.cache.to_caller": "core.cache.to_caller",
    "serve.coalesce.hop": "serve.coalesce.hop",
    "serve.coalesce.batch": "serve.coalesce.hop",
    "serve.store.get": "serve.store.get",
    "serve.store.put": "serve.store.put",
    "sched.map_tasks": "sched.map_tasks_overhead",
    "sched.task": "sched.map_tasks_overhead",
    "core.solver.solve": "core.solver.solve",
    "core.solver.minimize_nf": "core.solver.minimize_nf",
    "core.solver.sweep": "core.solver.sweep",
    "sim.simulate": "sim.simulate",
}

SERVE_LAYERS = sorted(set(SERVE_LAYER.values()) - {"sim.simulate"})


def _self_times(spans: Sequence[list]) -> List[float]:
    """Self time of every span, in ms."""
    own = [(s[2] - s[1]) * 1000.0 for s in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= (span[2] - span[1]) * 1000.0
    return own


def _digest_of(spans: Sequence[list], i: int) -> Optional[str]:
    while i is not None:
        digest = spans[i][5].get("digest")
        if digest is not None:
            return digest
        i = spans[i][3]
    return None


def _root_of(spans: Sequence[list], i: int) -> int:
    while spans[i][3] is not None:
        i = spans[i][3]
    return i


def serve_layers(spans: Sequence[list], samples: Sequence[Any]) -> Dict[str, float]:
    """Mean per-request self time of each serving layer (ms) and counts."""
    own = _self_times(spans)

    # Executor side: per batch, per digest -> layer -> ms (+ call counts).
    batches: Dict[int, Dict[str, Any]] = {}
    for i, span in enumerate(spans):
        if span[4] is not None or span[0] == "sim.simulate":
            continue
        root = _root_of(spans, i)
        if spans[root][0] != "serve.coalesce.batch":
            continue
        batch = batches.setdefault(
            root,
            {"per": defaultdict(lambda: defaultdict(float)),
             "shared": defaultdict(float),
             "counts": defaultdict(lambda: defaultdict(int))},
        )
        digest = _digest_of(spans, i)
        layer = SERVE_LAYER[span[0]]
        if digest is None:
            batch["shared"][layer] += own[i]
        else:
            batch["per"][digest][layer] += own[i]
            batch["counts"][digest][span[0]] += 1
            if span[0] == "serve.store.get" and span[5].get("hit"):
                batch["counts"][digest]["hit"] += 1

    # Batches per digest, by end time (spans are stored as they close).
    by_digest: Dict[str, List[int]] = defaultdict(list)
    for root in sorted(batches):
        for digest in spans[root][5].get("digests", []):
            by_digest[digest].append(root)
    ends = {d: [spans[r][2] for r in roots] for d, roots in by_digest.items()}

    # Event-loop side: spans tagged with the request id.
    per_request: Dict[str, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] is not None:
            per_request[span[4]].append(i)

    totals: Dict[str, float] = defaultdict(float)
    canon_calls = solves = attached = counted = gets = hits = 0
    used_batches = set()
    residual = 0.0
    for sample in samples:
        rid = str(sample.rid)
        mine = per_request.get(rid, [])
        hop = next((i for i in mine if spans[i][0] == "serve.coalesce.hop"), None)
        digest = next(
            (spans[i][5]["digest"] for i in mine if spans[i][0] == "core.cache.digest"),
            None,
        )
        if hop is None or digest is None:
            continue
        counted += 1
        layers: Dict[str, float] = defaultdict(float)
        hop_start, hop_end = spans[hop][1], spans[hop][2]
        inside_hop = 0.0
        for i in mine:
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            if name == "serve.coalesce.hop":
                continue
            if name == "serve.http.read":
                layers["serve.http.read"] += max(0.0, end - max(start, sample.sent)) * 1000.0
                continue
            layers[SERVE_LAYER[name]] += own[i]
            if name == "core.cache.canonicalize":
                canon_calls += 1
            if spans[i][3] is None and start >= hop_start and end <= hop_end:
                inside_hop += (end - start) * 1000.0
        batch_ms = 0.0
        # The batch that resolved this request ends inside its hop.
        at = bisect.bisect_left(ends.get(digest, []), hop_start)
        root = by_digest[digest][at] if at < len(ends.get(digest, [])) else None
        if root is not None and spans[root][2] <= hop_end:
            batch = batches[root]
            share = 1.0 / max(1, len(spans[root][5].get("digests", [])))
            for layer, ms in batch["per"].get(digest, {}).items():
                if layer != "serve.coalesce.hop":
                    layers[layer] += ms
                    batch_ms += ms
            for layer, ms in batch["shared"].items():
                if layer != "serve.coalesce.hop":
                    layers[layer] += ms * share
                    batch_ms += ms * share
            counts = batch["counts"].get(digest, {})
            canon_calls += counts.get("core.cache.canonicalize", 0)
            solves += counts.get("core.solver.solve", 0)
            if root not in used_batches:
                used_batches.add(root)
                gets += counts.get("serve.store.get", 0)
                hits += counts.get("hit", 0)
        layers["serve.coalesce.hop"] += max(
            0.0, (hop_end - hop_start) * 1000.0 - batch_ms - inside_hop
        )
        attached += bool(spans[hop][5].get("attached"))
        latency = (sample.done - sample.sent) * 1000.0
        residual += latency - sum(layers.values())
        for layer, ms in layers.items():
            totals[layer] += ms

    n = max(1, counted)
    out = {f"{layer}_ms": totals.get(layer, 0.0) / n for layer in SERVE_LAYERS}
    out.update({
        "serve.residual_ms": residual / n,
        "core.cache.canonicalize_calls_per_request": canon_calls / n,
        "core.solver.solves_per_request": solves / n,
        "serve.coalesce.attached_share": attached / n,
        "serve.coalesce.batch_size": (
            sum(len(spans[r][5].get("digests", [])) for r in used_batches)
            / max(1, len(used_batches))
        ),
        "serve.store.hit_ratio": hits / gets if gets else 0.0,
        "traced_requests": counted,
    })
    return out


#: Offline span name -> layer it is charged to (kernel-keyed ones apart).
OFFLINE_LAYER = {
    "eval.table1.row": "eval.table1.self",
    "core.partition": "core.partition",
    "baselines.ltb.search": "baselines.ltb.search",
    "baselines.ltb.scalar_timing": "baselines.ltb.scalar_timing",
    "sim.simulate": "sim.simulate",
    "verify.gen": "verify.gen",
    "verify.case": "verify.case",
    "sched.map_tasks": "sched.suite_overhead",
}


def offline_layers(spans: Sequence[list], passes: int) -> Dict[str, float]:
    """Mean per-pass self time of each offline layer (ms), plus rates.

    Per-kernel rows (``eval.table1.row_ms.<kernel>``) and simulations
    (``sim.simulate_ms.<kernel>``) are whole-call times, not self times.
    """
    own = _self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    kernels: Dict[str, float] = defaultdict(float)
    accesses: Dict[str, float] = defaultdict(float)
    vectors = 0
    for i, span in enumerate(spans):
        name, attrs = span[0], span[5]
        duration = (span[2] - span[1]) * 1000.0
        if name.startswith("offline."):
            totals["offline.residual"] += own[i]
        elif name.startswith("verify.oracle."):
            totals[name] += own[i]
        else:
            totals[OFFLINE_LAYER[name]] += own[i]
        if name == "eval.table1.row":
            kernels[f"eval.table1.row_ms.{attrs['kernel']}"] += duration
        elif name == "sim.simulate":
            kernels[f"sim.simulate_ms.{attrs['kernel']}"] += duration
            accesses[attrs["kernel"]] += attrs["accesses"]
        elif name == "baselines.ltb.search":
            vectors += attrs["vectors"]
    n = max(1, passes)
    out = {f"{layer}_ms": ms / n for layer, ms in totals.items()}
    out.update({key: ms / n for key, ms in kernels.items()})
    for kernel, count in accesses.items():
        out[f"sim.accesses_per_s.{kernel}"] = count / (
            kernels[f"sim.simulate_ms.{kernel}"] / 1000.0
        )
    search_ms = totals.get("baselines.ltb.search", 0.0)
    out["baselines.ltb.vectors_per_s"] = vectors / (search_ms / 1000.0) if search_ms else 0.0
    return out
