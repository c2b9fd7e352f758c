"""Keyed result cache for the online release service.

The serving pattern is normalize-query -> key -> cached answer: the service
canonicalises every request (corner tuples for a point query, corner bytes
for a batch) and prefixes the key with the release version, so a re-release
can never serve a stale answer even before the explicit invalidation runs.

The cache itself is a plain LRU map: the least-recently-used entry is
evicted once ``maxsize`` is reached, every entry is dropped when the service
re-releases, and every interesting event (hit, miss, eviction, invalidation)
is counted for the stats endpoint.  Entries need no expiry: an answer is
fixed for the life of its release version.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

__all__ = ["CacheStats", "QueryCache"]

#: Sentinel distinguishing "not cached" from a cached falsy answer (0.0).
MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time view of the cache counters."""

    hits: int
    misses: int
    evictions: int        #: entries dropped by the LRU size bound
    invalidations: int    #: whole-cache clears (one per re-release)
    insertions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "lookups": self.lookups, "hit_rate": self.hit_rate}


class QueryCache:
    """Bounded LRU map from normalized query keys to answers.

    Parameters
    ----------
    maxsize:
        Maximum number of cached answers; the least-recently-used entry is
        evicted when a new answer would exceed it.  ``0`` disables caching
        (every lookup is a miss, nothing is stored).

    All operations are O(1) under one lock, so the cache is safe to share
    between serving threads.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self._maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()   # key -> value
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._insertions = 0

    def get(self, key):
        """The cached answer for ``key``, or the :data:`MISSING` sentinel."""
        with self._lock:
            value = self._entries.get(key, MISSING)
            if value is MISSING:
                self._misses += 1
                return MISSING
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value) -> None:
        """Cache ``value`` under ``key``, evicting LRU entries as needed."""
        if self._maxsize == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self._insertions += 1
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self) -> None:
        """Drop every cached answer (called by the service on re-release)."""
        with self._lock:
            self._entries.clear()
            self._invalidations += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                insertions=self._insertions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )
