"""The online release service.

The whole point of a DP histogram release is that it is post-processing-free:
once an algorithm has spent its epsilon, any number of range queries can be
answered from the reconstruction forever at zero additional privacy cost.
:class:`ReleaseService` packages that as a long-lived serving layer:

* **release once** — run a registered algorithm (resolved by name through the
  algorithm registry) on the data, stamp the result with its
  :class:`~repro.core.plan.ReleaseMetadata` (true ``epsilon_spent`` and
  measurement count for plan algorithms) and publish it under a fresh version;
* **query forever** — a point query is O(2^d) lookups in the precomputed
  prefix-sum cube; a batch of rectangles goes through the
  :class:`~repro.workload.linops.QueryMatrix` matvec path against the same
  cube; a whole :class:`~repro.workload.rangequery.Workload` reuses its cached
  operator;
* **cache in front** — every request is normalized to a canonical key
  (version-prefixed, so re-releases can never serve stale answers), answered
  from a bounded LRU :class:`~repro.serve.cache.QueryCache`, and counted
  by :class:`~repro.serve.stats.ServiceStats`.

Corners are integers, as :func:`operator.index` defines them: Python and
numpy ints (or sequences of them) are accepted, while floats, strings and
float or object batches raise ``TypeError`` instead of being truncated.  A
cached point query is O(1) pure-Python work: one store read, one
canonicalisation per corner and one cache lookup — no numpy call and no
stats lock (about 2 µs on a 2-core x86-64 host, against 0.6 µs for the bare
cache lookup).

Every path returns exactly ``QueryMatrix.matvec`` of the released histogram,
bitwise — caching and prefix-table reuse are pure implementation details.
"""

from __future__ import annotations

import time
from operator import index
from typing import Sequence

import numpy as np

from ..algorithms.base import Algorithm, PlanAlgorithm
from ..core.plan import ReleaseMetadata
from ..core.registry import make_algorithm
from ..workload.rangequery import Workload
from .cache import MISSING, QueryCache
from .stats import ServiceStats
from .store import Release, ReleaseStore

__all__ = ["ReleaseService"]


def _as_corner(value, ndim: int) -> tuple[int, ...]:
    """Canonicalise one query corner to a tuple of plain ints.

    A corner is an integer or a sequence of integers, as :func:`operator.index`
    defines them (Python and numpy ints; not floats, strings or numpy bools).
    Equal corners map to equal tuples, so ``3``, ``(3,)`` and
    ``(np.intp(3),)`` share one cache entry.
    """
    if type(value) is int:
        corner = (value,)
    else:
        try:
            corner = tuple(map(index, value))
        except TypeError:
            try:
                corner = (index(value),)
            except TypeError:
                raise TypeError(f"corner {value!r} is not an integer or a "
                                f"sequence of integers") from None
    if len(corner) != ndim:
        raise ValueError(
            f"corner {corner} has {len(corner)} coordinates, domain has {ndim}")
    return corner


def _as_corner_array(values, ndim: int) -> np.ndarray:
    """Canonicalise a batch of corners to a contiguous ``(q, ndim)`` array.

    Integer dtypes only: a float, bool or object batch raises rather than
    being truncated by the ``intp`` cast.  An empty batch is ``(0, ndim)`` in
    every dimension; a bare length-q vector is q corners on a 1-D domain and
    one corner otherwise.
    """
    array = np.asarray(values)
    if array.size == 0:
        return np.empty((0, ndim), dtype=np.intp)
    if array.dtype.kind not in "iu":
        raise TypeError(f"corners must be integers, got dtype {array.dtype}")
    if array.ndim < 2:      # a bare vector of q 1-D corners, or one corner
        array = array.reshape((-1, 1) if ndim == 1 else (1, -1))
    if array.ndim != 2 or array.shape[1] != ndim:
        raise ValueError(
            f"corner batch must have shape (q, {ndim}), got {array.shape}")
    return np.ascontiguousarray(array, dtype=np.intp)


class ReleaseService:
    """Long-lived query answering over a private release.

    Parameters
    ----------
    algorithm:
        A registered algorithm name (resolved through
        :func:`repro.core.registry.make_algorithm`) or an
        :class:`~repro.algorithms.base.Algorithm` instance.
    epsilon:
        Privacy budget spent per release (re-releases spend it again).
    workload:
        Optional target workload handed to workload-aware algorithms at
        release time.
    cache_size:
        Result-cache bound; ``cache_size=0`` disables caching.
    clock:
        Injectable time source of the stats counters' uptime and qps.
    """

    def __init__(
        self,
        algorithm: str | Algorithm,
        epsilon: float,
        workload: Workload | None = None,
        *,
        cache_size: int = 4096,
        clock=time.monotonic,
    ):
        if isinstance(algorithm, str):
            algorithm = make_algorithm(algorithm)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self._algorithm = algorithm
        self._epsilon = float(epsilon)
        self._workload = workload
        self._cache = QueryCache(maxsize=cache_size)
        self._stats = ServiceStats(self._cache, clock=clock)
        self._store = ReleaseStore()

    # -- the privacy-spending stage ----------------------------------------------
    def release(
        self,
        data: np.ndarray,
        rng: np.random.Generator | int | None = None,
        epsilon: float | None = None,
    ) -> Release:
        """Run the algorithm once on ``data`` and publish the result.

        This is the only call that touches the true data or spends privacy
        budget.  Re-releasing (fresh data, fresh noise) bumps the version and
        invalidates every cached answer; queries issued afterwards are
        answered from the new histogram.

        For plan algorithms the private stages are run explicitly
        (``plan_and_measure`` then ``infer`` — bitwise-identical to ``run``,
        as pinned by the registry-wide post-processing test), so the metadata
        records the true budget spent and the number of noisy measurements
        backing the release.  Other algorithms record the release's epsilon
        as spent; the registry-wide budget test checks that every one of
        them charges exactly that to the budget ``run`` hands it.
        """
        epsilon = self._epsilon if epsilon is None else float(epsilon)
        algorithm = self._algorithm
        if isinstance(algorithm, PlanAlgorithm):
            plan, measurements = algorithm.plan_and_measure(
                data, epsilon, rng=rng, workload=self._workload)
            histogram = np.asarray(algorithm.infer(measurements, plan), dtype=float)
            spent = float(measurements.epsilon_spent)
            n_measurements = int(measurements.measured_mask.sum())
        else:
            histogram = algorithm.run(data, epsilon,
                                      workload=self._workload, rng=rng)
            spent = epsilon
            n_measurements = 0
        metadata = ReleaseMetadata(
            algorithm=algorithm.name,
            epsilon=epsilon,
            epsilon_spent=spent,
            domain_shape=tuple(histogram.shape),
            n_measurements=n_measurements,
        )
        release = self._store.publish(Release(histogram, metadata))
        self._cache.invalidate()
        self._stats.record_release()
        return release

    # -- the free query paths ------------------------------------------------------
    @property
    def current_release(self) -> Release:
        """The release queries are currently answered from."""
        return self._store.current()

    @property
    def version(self) -> int:
        return self._store.version

    @property
    def history(self) -> list[ReleaseMetadata]:
        return self._store.history

    def query(self, lo, hi) -> float:
        """One inclusive range/rectangle sum (cached; O(2^d) lookups on miss).

        Corners are integers or sequences of integers, as
        :func:`operator.index` defines them; 1-D corners may be plain ints:
        ``service.query(100, 200)``.  A cache hit is one store read, two
        corner canonicalisations and one cache lookup, all pure Python.
        """
        release = self._store.current()
        ndim = len(release.domain_shape)
        lo = _as_corner(lo, ndim)
        hi = _as_corner(hi, ndim)
        key = (release.version, "point", lo, hi)
        value = self._cache.get(key)
        if value is MISSING:
            try:
                value = release.answer(lo, hi)
            except BaseException:
                self._stats.record_rejected()
                raise
            self._cache.put(key, value)
        return value

    def query_batch(self, los, his) -> np.ndarray:
        """A batch of rectangle sums through ``QueryMatrix.matvec``.

        ``los``/``his`` are ``(q, ndim)`` integer corner arrays (a bare
        length-q vector is accepted for 1-D domains; an empty batch answers
        an empty array).  The returned array is read-only: cache hits share
        one stored array across callers.
        """
        release = self._store.current()
        ndim = len(release.domain_shape)
        los = _as_corner_array(los, ndim)
        his = _as_corner_array(his, ndim)
        key = (release.version, "batch", los.shape[0],
               los.tobytes(), his.tobytes())
        return self._cached_array(key, los.shape[0], release.answer_batch, los, his)

    def query_workload(self, workload: Workload) -> np.ndarray:
        """Every query of a workload, through its cached sparse operator."""
        release = self._store.current()
        operator = workload.operator
        key = (release.version, "workload", workload.name, len(workload),
               operator.los.tobytes(), operator.his.tobytes())
        return self._cached_array(key, len(workload), release.answer_workload, workload)

    def _cached_array(self, key, n_queries: int, answer, *args) -> np.ndarray:
        """The cached answers under ``key``, or ``answer(*args)`` frozen and
        cached; counts one batch call of ``n_queries`` once it is answered."""
        answers = self._cache.get(key)
        if answers is MISSING:
            try:
                answers = answer(*args)
            except BaseException:
                self._stats.record_rejected()
                raise
            answers.setflags(write=False)
            self._cache.put(key, answers)
        self._stats.record_batch(n_queries)
        return answers

    def warm(self, queries: Sequence[tuple]) -> int:
        """Pre-answer ``(lo, hi)`` pairs into the cache; returns the count."""
        for lo, hi in queries:
            self.query(lo, hi)
        return len(queries)

    # -- operations ----------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Explicitly drop every cached answer (stats counters survive)."""
        self._cache.invalidate()

    @property
    def cache(self) -> QueryCache:
        return self._cache

    def stats(self) -> dict:
        """One merged snapshot: service counters + cache counters."""
        merged = self._stats.snapshot().as_dict()
        merged["cache"] = self._cache.stats().as_dict()
        merged["version"] = self._store.version
        return merged
