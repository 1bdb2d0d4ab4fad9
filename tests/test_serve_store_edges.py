"""SolutionStore edge behavior: eviction boundaries, collisions, recovery.

``tests/test_serve.py`` covers the happy paths; this module pins down the
corners a content-addressed LRU can silently get wrong — off-by-one at the
capacity boundary, refresh-vs-insert at capacity, same-digest rewrites,
digest collisions between *different* payloads, and the guarantee that an
evicted artifact is fully reconstructible by re-solving.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cache import solve_key, stable_digest
from repro.core.solver import solve
from repro.io import solution_to_dict
from repro.obs import registry
from repro.patterns import log_pattern
from repro.serve import SolutionStore


def _entry(n_max):
    """A (digest, solution) pair; distinct per ``n_max``."""
    solution = solve(log_pattern(), n_max=n_max, cache=False).solution
    digest = stable_digest(solve_key(log_pattern(), None, n_max, "latency", 0))
    return digest, solution


class TestEvictionBoundary:
    def test_exactly_at_capacity_nothing_evicted(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        digests = []
        for n_max in (5, 6, 7):
            digest, solution = _entry(n_max)
            digests.append(digest)
            store.put(digest, solution)
        assert len(store) == 3
        assert all(store.get(d) is not None for d in digests)

    def test_one_past_capacity_evicts_exactly_the_oldest(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        digests = []
        for n_max in (5, 6, 7, 8):
            digest, solution = _entry(n_max)
            digests.append(digest)
            store.put(digest, solution)
        assert len(store) == 3
        on_disk = [d for d in digests if (tmp_path / f"{d}.json").exists()]
        assert on_disk == digests[1:]

    def test_rewrite_at_capacity_is_refresh_not_insert(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        entries = [_entry(n_max) for n_max in (5, 6, 7)]
        for digest, solution in entries:
            store.put(digest, solution)
        # Re-putting an existing digest must not push anything out...
        store.put(entries[0][0], entries[0][1])
        assert len(store) == 3
        # ...but it must move that digest to most-recently-used, so the
        # next insert evicts the runner-up instead.
        store.put(*_entry(8))
        assert (tmp_path / f"{entries[0][0]}.json").exists()
        assert not (tmp_path / f"{entries[1][0]}.json").exists()

    def test_get_refreshes_lru_order(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        entries = [_entry(n_max) for n_max in (5, 6, 7)]
        for digest, solution in entries:
            store.put(digest, solution)
        assert store.get(entries[0][0]) is not None  # touch the oldest
        overflow_digest, overflow_solution = _entry(8)
        store.put(overflow_digest, overflow_solution)
        # The touched entry survives; the untouched runner-up is evicted.
        assert store.get(entries[0][0]) is not None
        assert store.get(entries[1][0]) is None

    def test_eviction_metrics_advance(self, tmp_path):
        counter = registry().counter("serve.store.evictions")
        before = counter.value
        store = SolutionStore(tmp_path, max_entries=1)
        for n_max in (5, 6, 7):
            store.put(*_entry(n_max))
        assert counter.value - before == 2

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SolutionStore(tmp_path, max_entries=0)


class TestDigestCollisions:
    def test_same_digest_rewrite_is_one_entry_last_write_wins(self, tmp_path):
        # A forged collision: two different solutions under one digest.
        # Content addressing makes this one file, so last write wins and
        # the store can never alias two payloads under one identity.
        store = SolutionStore(tmp_path, max_entries=8)
        digest, first = _entry(5)
        _, second = _entry(9)
        assert solution_to_dict(first) != solution_to_dict(second)
        store.put(digest, first)
        store.put(digest, second)
        assert len(store) == 1
        assert solution_to_dict(store.get(digest)) == solution_to_dict(second)

    def test_internal_digest_mismatch_is_dropped(self, tmp_path):
        # An artifact whose embedded digest disagrees with its filename is
        # a collision/tamper signal: reject, delete, count as a miss.
        store = SolutionStore(tmp_path)
        digest, solution = _entry(5)
        path = store.put(digest, solution)
        document = json.loads(path.read_text())
        document["digest"] = "0" * 64
        path.write_text(json.dumps(document))
        misses = store.misses
        assert store.get(digest) is None
        assert not path.exists()
        assert store.misses == misses + 1


class TestEvictedRecovery:
    def test_evicted_artifact_resolves_bit_identical(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=1)
        digest, solution = _entry(5)
        original = solution_to_dict(solution)
        original_text = store.put(digest, solution).read_text()
        store.put(*_entry(6))  # evicts the first artifact
        assert store.get(digest) is None
        # Re-solving the same spec reconstructs the identical solution,
        # and re-storing it reproduces the identical artifact bytes.
        resolved = solve(log_pattern(), n_max=5, cache=False).solution
        assert solution_to_dict(resolved) == original
        store2 = SolutionStore(tmp_path / "fresh", max_entries=1)
        assert store2.put(digest, resolved).read_text() == original_text
        assert solution_to_dict(store2.get(digest)) == original
