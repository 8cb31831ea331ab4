"""Caching primitives for the query engine.

Two caches back the engine (both instances of :class:`LRUCache`):

* the **containment memo** memoizes ``contain`` / ``minimal``
  / ``minimum`` outcomes per (query fingerprint, selection policy,
  ``definitions_version``) -- the paper's Theorem 3 check is quadratic
  in ``|Q|`` and linear in ``card(V)``, so a deployment answering the
  same query shapes repeatedly should pay it once, and extension
  refreshes never re-trigger it;
* the **answer cache** memoizes full :class:`MatchResult` objects keyed
  by the **per-view version vector** of exactly the views the plan
  reads (:meth:`ViewSet.version_vector`) -- or the graph's mutation
  version for direct plans.

A maintenance update (Section I: "incremental methods ... maintain
cached pattern views") bumps only the stamps of the views it actually
changed, so the stale entries it strands -- unreachable by
construction, aging out of the LRU (or dropped outright: the serving
layer calls :meth:`LRUCache.purge` at the epoch swap that stranded
them) -- are exactly the answers that depended on a changed view;
everything else keeps hitting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy for reports and the CLI."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency and records a hit or miss; ``put``
    inserts/overwrites and evicts the oldest entry when over capacity.
    ``maxsize <= 0`` disables caching entirely (every ``get`` misses),
    which keeps the engine code free of conditionals.

    Every operation holds a leaf lock of the cache's own (nothing is
    called while it is held), so a cache may be shared between threads
    that share no other lock -- the engine's containment memo is read
    by the server's reader pool while a maintenance thread plans.
    """

    __slots__ = ("_maxsize", "_data", "_lock", "stats")

    def __init__(self, maxsize: int = 128) -> None:
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def maxsize(self) -> int:
        """Capacity; ``<= 0`` means caching is disabled."""
        return self._maxsize

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts hit/miss."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return self._data[key]
            self.stats.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting the LRU entry if needed."""
        if self._maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def purge(self, stale: Callable[[Hashable, Any], bool]) -> int:
        """Drop every entry ``stale(key, value)`` holds for, counting
        each as an eviction; recency of the survivors is untouched.
        For owners that know when entries became unreachable (the
        serving layer at an epoch swap) and would rather free them
        than wait for them to age out.  Returns the number dropped."""
        with self._lock:
            entries = list(self._data.items())
        doomed = [key for key, value in entries if stale(key, value)]
        with self._lock:
            dropped = sum(
                self._data.pop(key, self) is not self for key in doomed
            )
            self.stats.evictions += dropped
        return dropped

    def values(self) -> List[Any]:
        """A snapshot of the cached values, least recently used first
        (no recency refresh, no hit/miss accounting)."""
        with self._lock:
            return list(self._data.values())

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        return f"LRUCache(size={len(self._data)}/{self._maxsize})"
