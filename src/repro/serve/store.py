"""Content-addressed on-disk store of canonical partitioning solutions.

The in-memory solve cache (:mod:`repro.core.cache`) dies with the process;
a serving tier restarts — deploys, crashes, autoscaling — and re-solving
the whole working set after every restart is exactly the latency cliff a
warm store avoids.  The :class:`SolutionStore` persists each canonical
:class:`~repro.core.partition.PartitionSolution` as one small JSON artifact
named by the :func:`~repro.core.cache.stable_digest` of its solve key:

``<root>/<digest>.json`` — ``{"format": "repro/serve-solution", "digest",
"solution": <repro/partition-solution document>, "meta": {...}}``

Properties the server relies on:

* **Content-addressed** — the digest *is* the identity, so concurrent
  writers of the same key write the same bytes and a half-updated
  directory can never alias two different solutions.
* **Atomic writes** — artifacts land via ``os.replace`` of a temp file, so
  a crash mid-write leaves either the old artifact or none.
* **LRU-bounded** — at most ``max_entries`` artifacts; access order is
  tracked in memory and persisted via file mtimes, so the LRU order
  survives restarts (coarsely — mtime granularity — which is fine for an
  eviction heuristic).
* **Self-healing** — a corrupt or hand-edited artifact fails
  :func:`~repro.io.solution_from_dict` validation, is deleted, and counts
  as a miss; the server then just re-solves.

Hits, misses, writes, and evictions are mirrored into the metrics registry
under ``serve.store.*``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.partition import PartitionSolution
from ..core.pattern import Pattern
from ..io import SerializationError, solution_from_dict, solution_to_dict
from ..obs.metrics import registry as obs_registry

_FORMAT = "repro/serve-solution"
_VERSION = 1

#: Default artifact cap; ~1 KiB each, so the default store stays small.
DEFAULT_MAX_ENTRIES = 4096


class SolutionStore:
    """A directory of solved partitioning decisions, keyed by solve digest."""

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        # Least-recently-used first; rebuilt from mtimes so eviction order
        # survives restarts.  Sizes are tracked incrementally so the
        # ``bytes`` stat never needs a directory walk.
        self._index: "OrderedDict[str, Path]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        for path in sorted(
            self.root.glob("*.json"), key=lambda p: (p.stat().st_mtime, p.name)
        ):
            self._index[path.stem] = path
            try:
                self._sizes[path.stem] = path.stat().st_size
            except OSError:  # pragma: no cover - racing deleters
                self._sizes[path.stem] = 0
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        """Mirror occupancy into gauges on every mutation, not just when
        ``/metrics`` polls, so a registry dump (``--emit-metrics``, a
        benchmark reading the registry) carries current entry/byte counts."""
        with self._lock:
            entries = len(self._index)
            size = sum(self._sizes.values())
        registry = obs_registry()
        registry.gauge("serve.store.entries").set(entries)
        registry.gauge("serve.store.bytes").set(size)
        registry.gauge("serve.store.max_entries").set(self.max_entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    # -- lookup ------------------------------------------------------------

    def get(
        self, digest: str, pattern: Optional[Pattern] = None
    ) -> Optional[PartitionSolution]:
        """Load the solution stored under ``digest``, or ``None``.

        On a hit the artifact's access time advances (both in the in-memory
        LRU and on disk) and, when ``pattern`` is given, the caller's own
        pattern is re-attached — mirroring the in-memory cache's behaviour
        for translated requests.  Lookup latency (hit or miss) lands in
        the ``serve.store.get_ms`` log histogram.
        """
        started = time.perf_counter()
        try:
            with self._lock:
                path = self._index.get(digest)
            if path is None:
                self._miss()
                return None
            try:
                payload = json.loads(path.read_text())
                solution = self._validate(digest, payload)
            except (OSError, ValueError, SerializationError):
                # Corrupt, truncated, or foreign file: drop it and re-solve.
                self._discard(digest, path)
                self._miss()
                return None
            with self._lock:
                if digest in self._index:
                    self._index.move_to_end(digest)
                self.hits += 1
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - mtime refresh is best-effort
                pass
            obs_registry().counter("serve.store.hits").inc()
            if pattern is not None and solution.pattern != pattern:
                solution = dataclasses.replace(solution, pattern=pattern)
            return solution
        finally:
            obs_registry().log_histogram("serve.store.get_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    def _validate(self, digest: str, payload: Any) -> PartitionSolution:
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise SerializationError(f"not a {_FORMAT} artifact")
        if payload.get("digest") != digest:
            raise SerializationError("artifact digest does not match its filename")
        return solution_from_dict(payload["solution"])

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1
        obs_registry().counter("serve.store.misses").inc()

    def _discard(self, digest: str, path: Path) -> None:
        with self._lock:
            self._index.pop(digest, None)
            self._sizes.pop(digest, None)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deleters are fine
            pass
        self._publish_gauges()

    # -- insertion ---------------------------------------------------------

    def put(
        self,
        digest: str,
        solution: PartitionSolution,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``solution`` under ``digest``; evict LRU entries over cap."""
        path = self.root / f"{digest}.json"
        document = {
            "format": _FORMAT,
            "version": _VERSION,
            "digest": digest,
            "solution": solution_to_dict(solution),
            "meta": meta or {},
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:  # pragma: no cover - clean up the temp file
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        evicted: List[Path] = []
        with self._lock:
            self._index[digest] = path
            self._index.move_to_end(digest)
            self._sizes[digest] = len(text.encode("utf-8"))
            while len(self._index) > self.max_entries:
                old_digest, old = self._index.popitem(last=False)
                self._sizes.pop(old_digest, None)
                evicted.append(old)
            self.writes += 1
            self.evictions += len(evicted)
        for old in evicted:
            try:
                old.unlink()
            except OSError:  # pragma: no cover
                pass
        registry = obs_registry()
        registry.counter("serve.store.writes").inc()
        if evicted:
            registry.counter("serve.store.evictions").inc(len(evicted))
        self._publish_gauges()
        return path

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Health-endpoint view: occupancy, traffic tallies, location."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "root": str(self.root),
                "entries": len(self._index),
                "max_entries": self.max_entries,
                "bytes": sum(self._sizes.values()),
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else None,
            }
