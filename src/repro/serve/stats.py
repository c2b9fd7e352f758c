"""Counters for the online release service.

Serving a DP release is free post-processing, so the only operational
questions are throughput and cache behaviour.  :class:`ServiceStats` keeps
the service-level counters (queries answered, point vs batch split, releases
published, queries/sec since start); the cache keeps its own hit/miss/
eviction counters (:class:`repro.serve.cache.CacheStats`) and the service
merges both into one snapshot.

The point-query count is derived, not counted: every ``query``,
``query_batch`` and ``query_workload`` call makes exactly one cache lookup,
so the point count is the cache's lookups minus the answered batch/workload
calls minus the calls rejected after their lookup (an out-of-bounds query
that missed the cache).  The cached point path therefore never touches this
object.  Lookups made directly on ``service.cache`` count as point queries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

from .cache import QueryCache

__all__ = ["ServiceStats", "StatsSnapshot"]


@dataclass(frozen=True)
class StatsSnapshot:
    """Point-in-time view of the service counters."""

    queries: int            #: individual queries answered (batch rows count each)
    point_queries: int      #: single-rectangle calls answered
    batch_queries: int      #: batched calls (one per request, however large)
    releases: int           #: releases published (re-releases included)
    uptime_seconds: float   #: seconds since the service was constructed
    qps: float              #: queries / uptime

    def as_dict(self) -> dict:
        return asdict(self)


class ServiceStats:
    """Thread-safe service counters with an injectable clock.

    ``cache`` is the service's result cache, whose lookup count the point
    count is derived from.  ``clock`` is any zero-argument callable returning
    seconds (defaults to :func:`time.monotonic`); tests inject a fake clock
    to pin uptime and qps deterministically.
    """

    def __init__(self, cache: QueryCache, clock=time.monotonic):
        self._cache = cache
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self._batch_rows = 0
        self._batch_queries = 0
        self._rejected = 0
        self._releases = 0

    def record_batch(self, n_queries: int) -> None:
        with self._lock:
            self._batch_rows += int(n_queries)
            self._batch_queries += 1

    def record_rejected(self) -> None:
        """A query call raised after its cache lookup: it answered nothing."""
        with self._lock:
            self._rejected += 1

    def record_release(self) -> None:
        with self._lock:
            self._releases += 1

    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            batch_rows = self._batch_rows
            batch_queries = self._batch_queries
            rejected = self._rejected
            releases = self._releases
            elapsed = max(self._clock() - self._started, 1e-12)
        # Read after the counters above: every batch call or rejection they
        # count has made its lookup by now, so under concurrent callers the
        # derived count never goes negative (and is exact once they finish).
        point_queries = self._cache.stats().lookups - batch_queries - rejected
        queries = point_queries + batch_rows
        return StatsSnapshot(
            queries=queries,
            point_queries=point_queries,
            batch_queries=batch_queries,
            releases=releases,
            uptime_seconds=elapsed,
            qps=queries / elapsed,
        )
