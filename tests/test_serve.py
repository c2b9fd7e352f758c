"""Tests for the online release service (repro.serve).

The correctness contract: every serve answer — point or batch, cached or
uncached — is exactly ``QueryMatrix.matvec`` of the released histogram
(bitwise, not approximately), because serving is pure post-processing of the
release.  The cache-semantics tests pin TTL expiry, LRU eviction,
invalidation-on-re-release and the consistency of the stats counters, all
under an injected fake clock.
"""

import sys
import threading

import numpy as np
import pytest

import repro
from repro import QueryMatrix
from repro.serve import QueryCache, ReleaseService, ReleaseStore
from repro.serve.cache import MISSING


class FakeClock:
    """A manually advanced clock for deterministic TTL / qps tests."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _random_rectangles(rng, domain_shape, n):
    """Uniformly random in-bounds inclusive rectangles over the domain."""
    shape = np.asarray(domain_shape, dtype=np.intp)
    a = rng.integers(0, shape, (n, shape.size))
    b = rng.integers(0, shape, (n, shape.size))
    return np.minimum(a, b), np.maximum(a, b)


def _released_service(domain_shape, seed, **kwargs):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, domain_shape).astype(float)
    service = ReleaseService("Identity", epsilon=1.0, **kwargs)
    service.release(x, rng=seed)
    return service


class TestAnswersAreExactPostProcessing:
    @pytest.mark.parametrize("domain_shape", [(257,), (31, 47)],
                             ids=["1d", "2d"])
    def test_point_and_batch_match_matvec_bitwise(self, domain_shape):
        """Random releases, random rectangles: every path is bitwise-exact."""
        for trial in range(3):
            service = _released_service(domain_shape, seed=100 + trial)
            histogram = service.current_release.histogram
            rng = np.random.default_rng(1000 + trial)
            los, his = _random_rectangles(rng, domain_shape, 200)
            reference = QueryMatrix(los, his, domain_shape).matvec(histogram)

            uncached = service.query_batch(los, his)
            cached = service.query_batch(los, his)
            assert uncached.tobytes() == reference.tobytes()
            assert cached.tobytes() == reference.tobytes()

            for i in range(0, 200, 7):
                point = service.query(tuple(los[i]), tuple(his[i]))
                again = service.query(tuple(los[i]), tuple(his[i]))   # cache hit
                assert point == reference[i] and again == reference[i]
                # ... and equality here is bitwise: both sides are float64.
                assert np.float64(point).tobytes() == reference[i:i + 1].tobytes()

    def test_workload_path_matches_matvec_bitwise(self):
        service = _released_service((128,), seed=5)
        workload = repro.prefix_workload(128)
        reference = workload.operator.matvec(service.current_release.histogram)
        assert service.query_workload(workload).tobytes() == reference.tobytes()
        assert service.query_workload(workload).tobytes() == reference.tobytes()

    def test_scalar_corners_and_tuple_corners_share_a_cache_entry(self):
        service = _released_service((64,), seed=6)
        first = service.query(3, 9)
        assert service.query((3,), (np.intp(9),)) == first
        stats = service.stats()["cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_out_of_bounds_queries_raise(self):
        service = _released_service((64,), seed=7)
        with pytest.raises(ValueError):
            service.query(-1, 3)
        with pytest.raises(ValueError):
            service.query(3, 64)
        with pytest.raises(ValueError):
            service.query_batch([[0], [5]], [[63], [64]])

    @pytest.mark.parametrize("domain_shape, lo, hi", [
        ((64,), 3.7, 9), ((64,), "3", 9), ((64,), (3.7,), 9),
        ((64,), 3, np.float64(9.0)), ((64,), np.True_, 9), ((64,), [[3]], 9),
        ((16, 16), (1.5, 2), (3, 4)), ((16, 16), ("1", 2), (3, 4)),
    ], ids=["float", "str", "float-tuple", "numpy-float", "numpy-bool", "nested",
            "2d-float", "2d-str"])
    def test_non_integer_corners_raise(self, domain_shape, lo, hi):
        """Corners are what operator.index accepts: no silent truncation."""
        service = _released_service(domain_shape, seed=7)
        with pytest.raises(TypeError):
            service.query(lo, hi)

    @pytest.mark.parametrize("corner", [
        3, (3,), [3], np.intp(3), np.int32(3), np.uint8(3), np.array(3),
        np.array([3]), (np.int64(3),),
    ])
    def test_integer_corners_share_one_key(self, corner):
        service = _released_service((64,), seed=6)
        first = service.query(3, 9)
        assert service.query(corner, 9) == first
        stats = service.stats()["cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    @pytest.mark.parametrize("domain_shape, los, his", [
        ((64,), [[3.7]], [[9.9]]), ((64,), [[3.0]], [[9.0]]),
        ((64,), [["3"]], [["9"]]),
        ((64,), np.array([[3]], dtype=object), np.array([[9]], dtype=object)),
        ((64,), [[True]], [[True]]), ((16, 16), [[1.5, 2.0]], [[3.0, 4.0]]),
    ], ids=["float", "integral-float", "str", "object", "bool", "2d-float"])
    def test_non_integer_batches_raise(self, domain_shape, los, his):
        service = _released_service(domain_shape, seed=7)
        with pytest.raises(TypeError):
            service.query_batch(los, his)

    @pytest.mark.parametrize("domain_shape", [(64,), (16, 16)], ids=["1d", "2d"])
    def test_empty_batch_answers_empty(self, domain_shape):
        service = _released_service(domain_shape, seed=7)
        for empty in ([], np.empty((0, len(domain_shape)), dtype=np.intp)):
            answers = service.query_batch(empty, empty)
            assert answers.shape == (0,)

    def test_batch_shapes(self):
        """A bare vector is q corners in 1-D and one corner in 2-D; a 2-D
        array is never reshaped into more 1-D corners than it has rows."""
        one_d = _released_service((64,), seed=7)
        assert one_d.query_batch([1, 2], [5, 6]).tolist() == \
            [one_d.query(1, 5), one_d.query(2, 6)]
        with pytest.raises(ValueError, match="shape"):
            one_d.query_batch([[1, 2]], [[5, 6]])
        two_d = _released_service((16, 16), seed=7)
        assert two_d.query_batch([1, 2], [5, 6]).tolist() == \
            [two_d.query((1, 2), (5, 6))]

    def test_query_before_release_raises(self):
        service = ReleaseService("Identity", epsilon=1.0)
        with pytest.raises(RuntimeError, match="no release"):
            service.query(0, 1)

    def test_released_histogram_is_frozen(self):
        service = _released_service((32,), seed=8)
        with pytest.raises(ValueError):
            service.current_release.histogram[0] = 1.0
        with pytest.raises(ValueError):
            service.query_batch([[0]], [[3]])[0] = 1.0


class TestCacheSemantics:
    def test_ttl_expiry(self):
        clock = FakeClock()
        service = _released_service((64,), seed=9, ttl=10.0, clock=clock)
        service.query(0, 5)
        clock.advance(9.999)
        service.query(0, 5)                      # still fresh: hit
        clock.advance(0.002)
        service.query(0, 5)                      # past the TTL: recomputed
        stats = service.stats()["cache"]
        assert stats["hits"] == 1
        assert stats["expirations"] == 1
        assert stats["misses"] == 2              # initial miss + expired miss

    def test_lru_eviction_order(self):
        cache = QueryCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1               # "a" is now most-recent
        cache.put("c", 3)                        # evicts "b", the LRU entry
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1 and stats.size == 2

    def test_eviction_counter_under_pressure(self):
        service = _released_service((64,), seed=10, cache_size=8)
        for lo in range(32):
            service.query(lo, lo + 1)
        stats = service.stats()["cache"]
        assert stats["evictions"] == 32 - 8
        assert stats["size"] == 8

    def test_cache_size_zero_disables_caching(self):
        service = _released_service((64,), seed=11, cache_size=0)
        assert service.query(0, 5) == service.query(0, 5)
        stats = service.stats()["cache"]
        assert stats["hits"] == 0 and stats["misses"] == 2 and stats["size"] == 0

    def test_re_release_invalidates_and_serves_fresh_answers(self):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 100, 64).astype(float)
        service = ReleaseService("Identity", epsilon=1.0)
        service.release(x, rng=1)
        v1 = service.query(0, 63)
        first = service.current_release.histogram

        service.release(x, rng=2)                # fresh noise, same data
        second = service.current_release.histogram
        assert not np.array_equal(first, second)
        v2 = service.query(0, 63)
        reference = float(QueryMatrix([[0]], [[63]], (64,)).matvec(second)[0])
        assert v2 == reference and v2 != v1
        stats = service.stats()["cache"]
        assert stats["invalidations"] == 2       # one per release() call
        assert stats["hits"] == 0                # the v1 entry was unreachable

    def test_explicit_invalidation(self):
        service = _released_service((64,), seed=13)
        service.query(0, 5)
        service.invalidate_cache()
        service.query(0, 5)
        stats = service.stats()["cache"]
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_purge_expired(self):
        clock = FakeClock()
        cache = QueryCache(maxsize=8, ttl=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(3)
        cache.put("b", 2)
        clock.advance(3)                         # "a" expired, "b" fresh
        assert cache.purge_expired() == 1
        assert cache.get("b") == 2
        assert cache.stats().expirations == 1

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            QueryCache(maxsize=-1)
        with pytest.raises(ValueError):
            QueryCache(ttl=0.0)
        with pytest.raises(ValueError):
            ReleaseService("Identity", epsilon=0.0)


class TestStatsCounters:
    def test_counters_consistent_with_hits_plus_misses(self):
        clock = FakeClock()
        service = _released_service((64,), seed=14, clock=clock)
        rng = np.random.default_rng(0)
        lookups = 0
        for _ in range(50):
            lo = int(rng.integers(0, 32))
            service.query(lo, lo + 8)
            lookups += 1
        los, his = _random_rectangles(rng, (64,), 30)
        service.query_batch(los, his)
        service.query_batch(los, his)
        lookups += 2

        clock.advance(2.0)
        stats = service.stats()
        cache = stats["cache"]
        assert cache["lookups"] == cache["hits"] + cache["misses"] == lookups
        assert cache["insertions"] == cache["misses"]        # every miss cached
        assert stats["queries"] == 50 + 2 * 30
        assert stats["point_queries"] == 50
        assert stats["batch_queries"] == 2
        assert stats["qps"] == pytest.approx(stats["queries"] / 2.0)
        assert 0.0 < cache["hit_rate"] < 1.0

    def test_rejected_queries_are_not_counted_as_answered(self):
        service = _released_service((64,), seed=14)
        service.query(0, 5)
        for lo, hi in ((3, 64), (-1, 3), (9, 2)):
            with pytest.raises(ValueError):
                service.query(lo, hi)                # a lookup, then rejected
        with pytest.raises(ValueError):
            service.query_batch([[0], [5]], [[63], [64]])
        with pytest.raises(ValueError):
            service.query_workload(repro.prefix_workload(32))
        with pytest.raises(TypeError):
            service.query(1.5, 3)                    # rejected before lookup
        service.query_batch([[0]], [[3]])
        stats = service.stats()
        assert stats["point_queries"] == 1
        assert stats["batch_queries"] == 1
        assert stats["queries"] == 2
        assert stats["cache"]["lookups"] == 7

    def test_release_metadata_and_history(self):
        workload = repro.prefix_workload(64)
        service = ReleaseService("DAWA", epsilon=0.5, workload=workload)
        rng = np.random.default_rng(15)
        x = rng.integers(0, 100, 64).astype(float)
        release = service.release(x, rng=3)
        meta = release.metadata
        assert meta.algorithm == "DAWA"
        assert meta.epsilon == 0.5
        assert meta.epsilon_spent == pytest.approx(0.5)
        assert meta.domain_shape == (64,)
        assert meta.n_measurements > 0
        # plan-path release is bitwise-identical to Algorithm.run
        direct = repro.make_algorithm("DAWA").run(x, 0.5, workload=workload, rng=3)
        assert release.histogram.tobytes() == direct.tobytes()

        service.release(x, rng=4, epsilon=0.2)
        history = service.history
        assert [m.epsilon for m in history] == [0.5, 0.2]
        assert service.version == 2

    def test_store_rejects_reads_before_publish(self):
        store = ReleaseStore()
        assert store.version == 0
        with pytest.raises(RuntimeError):
            store.current()


class TestConcurrentServing:
    N_THREADS = 8
    ROUNDS = 150

    def test_threads_share_one_service_exactly(self, rng):
        """Eight threads interleave cached and uncached point queries,
        batches and rejected queries on one 2-D service: every answer is
        bitwise ``QueryMatrix.matvec``, and the derived counters are exact."""
        domain_shape = (48, 40)
        service = _released_service(domain_shape, seed=30, cache_size=256)
        histogram = service.current_release.histogram
        hot_los, hot_his = _random_rectangles(rng, domain_shape, 16)
        hot = [(tuple(map(int, lo)), tuple(map(int, hi)))
               for lo, hi in zip(hot_los, hot_his)]
        barrier = threading.Barrier(self.N_THREADS, timeout=30)
        results = [None] * self.N_THREADS
        client_rngs = rng.spawn(self.N_THREADS)

        def client(index):
            rng = client_rngs[index]
            points, batches, rejected = [], [], 0
            barrier.wait()
            for round_ in range(self.ROUNDS):
                kind = round_ % 5
                if kind in (0, 1):                   # cached: a hot rectangle
                    lo, hi = hot[int(rng.integers(len(hot)))]
                elif kind == 2:                      # most likely uncached
                    los, his = _random_rectangles(rng, domain_shape, 1)
                    lo, hi = tuple(los[0]), tuple(his[0])
                elif kind == 3:
                    los, his = _random_rectangles(rng, domain_shape, 5)
                    batches.append((los, his, service.query_batch(los, his)))
                    continue
                else:                                # out of bounds
                    with pytest.raises(ValueError):
                        service.query((0, 0), (domain_shape[0], 0))
                    rejected += 1
                    continue
                points.append((lo, hi, service.query(lo, hi)))
            results[index] = (points, batches, rejected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None for result in results), "a client raised"

        n_points = n_batches = n_rows = n_rejected = 0
        for points, batches, rejected in results:
            los = np.array([lo for lo, _, _ in points])
            his = np.array([hi for _, hi, _ in points])
            reference = QueryMatrix(los, his, domain_shape).matvec(histogram)
            answers = np.array([answer for _, _, answer in points])
            assert answers.tobytes() == reference.tobytes()
            for los, his, answer in batches:
                reference = QueryMatrix(los, his, domain_shape).matvec(histogram)
                assert answer.tobytes() == reference.tobytes()
                n_rows += len(los)
            n_points += len(points)
            n_batches += len(batches)
            n_rejected += rejected

        stats = service.stats()
        cache = stats["cache"]
        assert stats["point_queries"] == n_points
        assert stats["batch_queries"] == n_batches
        assert stats["queries"] == n_points + n_rows
        assert cache["lookups"] == cache["hits"] + cache["misses"] \
            == n_points + n_batches + n_rejected
        assert cache["hits"] > 0
