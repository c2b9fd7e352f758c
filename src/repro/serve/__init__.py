"""repro.serve: a long-lived query-answering service over private releases.

A DP release is post-processing-free — once an algorithm has spent its
epsilon, the noisy histogram can be queried forever at zero additional
privacy cost.  This package exploits exactly that:

* :class:`ReleaseService` — run a registered algorithm once, then answer any
  number of 1-D range / 2-D rectangle queries (single, batched, or whole
  workloads) from the release;
* :class:`Release` / :class:`ReleaseStore` — the versioned published
  histogram with its precomputed prefix-sum cube (point queries are O(2^d)
  table lookups; batches ride the ``QueryMatrix.matvec`` path);
* :class:`QueryCache` — the keyed result cache in front (normalize-query ->
  key -> answer) with TTL, LRU bounds, invalidation-on-re-release and
  hit/miss/eviction counters;
* :class:`ServiceStats` — throughput and usage counters (the point-query
  count is derived from the cache's lookups, so a cached point query never
  touches it).

Query corners are integers, as :func:`operator.index` defines them (Python
or numpy ints, or sequences of them); floats, strings and float or object
batches raise ``TypeError``.  A cached point query is O(1) pure-Python work
— one store read, one canonicalisation per corner, one cache lookup — and
costs about three bare cache lookups.

Quick start::

    from repro.serve import ReleaseService

    service = ReleaseService("DAWA", epsilon=0.1, workload=workload)
    service.release(dataset.counts, rng=0)      # the only privacy-spending call
    service.query(100, 200)                     # single range, cached
    service.query_batch(los, his)               # bulk rectangles, one matvec
    service.stats()                             # qps, hit rate, evictions, ...
"""

from .cache import CacheStats, QueryCache
from .service import ReleaseService
from .stats import ServiceStats, StatsSnapshot
from .store import Release, ReleaseStore

__all__ = [
    "CacheStats",
    "QueryCache",
    "Release",
    "ReleaseService",
    "ReleaseStore",
    "ServiceStats",
    "StatsSnapshot",
]
