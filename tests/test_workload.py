"""Unit tests for range queries, workloads and prefix-sum evaluation."""

import pickle

import numpy as np
import pytest

from repro.algorithms.mechanisms import as_rng
from repro.workload import (
    PrefixSum,
    RangeQuery,
    Workload,
    all_range_workload,
    default_workload,
    identity_workload,
    prefix_workload,
    random_range_workload,
)


class TestPrefixSum:
    def test_1d_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 10, size=50).astype(float)
        table = PrefixSum(x)
        for lo, hi in [(0, 0), (0, 49), (10, 20), (49, 49), (3, 40)]:
            assert table.range_sum((lo,), (hi,)) == pytest.approx(x[lo:hi + 1].sum())

    def test_2d_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 10, size=(12, 9)).astype(float)
        table = PrefixSum(x)
        for (r0, c0), (r1, c1) in [((0, 0), (11, 8)), ((2, 3), (5, 7)), ((4, 4), (4, 4))]:
            assert table.range_sum((r0, c0), (r1, c1)) == pytest.approx(
                x[r0:r1 + 1, c0:c1 + 1].sum())

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(2)
        x = rng.random((8, 8))
        table = PrefixSum(x)
        los = np.array([[0, 0], [1, 2], [3, 3]])
        his = np.array([[7, 7], [4, 6], [3, 3]])
        vectorised = table.range_sums(los, his)
        scalars = [table.range_sum(tuple(lo), tuple(hi)) for lo, hi in zip(los, his)]
        assert np.allclose(vectorised, scalars)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            PrefixSum(np.zeros((2, 2, 2)))

    def test_mismatched_bounds_rejected(self):
        table = PrefixSum(np.zeros(4))
        with pytest.raises(ValueError):
            table.range_sums(np.zeros((2, 1), dtype=int), np.zeros((3, 1), dtype=int))

    def test_negative_lo_rejected_not_wrapped(self):
        """Regression: lo = -1 used to wrap onto the last table entry and
        return a silently wrong (often negative) sum."""
        x = np.arange(1.0, 9.0)
        table = PrefixSum(x)
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            table.range_sum((-1,), (3,))
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            table.range_sums(np.array([[-1]]), np.array([[3]]))

    def test_past_the_end_hi_rejected(self):
        x = np.arange(1.0, 9.0)
        table = PrefixSum(x)
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            table.range_sum((0,), (8,))
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            table.range_sums(np.array([[0]]), np.array([[8]]))

    def test_inverted_corners_rejected(self):
        table = PrefixSum(np.ones((4, 4)))
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            table.range_sum((2, 0), (1, 3))
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            table.range_sums(np.array([[2, 0]]), np.array([[1, 3]]))

    def test_2d_wrap_cases_rejected(self):
        table = PrefixSum(np.ones((4, 6)))
        for lo, hi in [((-1, 0), (2, 2)), ((0, -2), (2, 2)),
                       ((0, 0), (4, 2)), ((0, 0), (2, 6))]:
            with pytest.raises(ValueError, match="0 <= lo <= hi"):
                table.range_sum(lo, hi)
            with pytest.raises(ValueError, match="0 <= lo <= hi"):
                table.range_sums(np.array([lo]), np.array([hi]))

    def test_wrong_corner_arity_rejected(self):
        table = PrefixSum(np.ones((4, 6)))
        with pytest.raises(ValueError, match="per axis"):
            table.range_sum((0,), (2,))
        with pytest.raises(ValueError, match=r"\(q, 2\)"):
            table.range_sums(np.array([[0]]), np.array([[2]]))


class TestRangeQuery:
    def test_size(self):
        assert RangeQuery((2, 3), (4, 5)).size == 9

    def test_evaluate_1d(self):
        x = np.arange(10, dtype=float)
        assert RangeQuery((2,), (5,)).evaluate(x) == pytest.approx(2 + 3 + 4 + 5)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            RangeQuery((5,), (2,))
        with pytest.raises(ValueError):
            RangeQuery((-1,), (2,))
        with pytest.raises(ValueError):
            RangeQuery((0,), (1, 2))
        with pytest.raises(ValueError):
            RangeQuery((0, 0, 0), (1, 1, 1))

    def test_dimension_mismatch_on_evaluate(self):
        with pytest.raises(ValueError):
            RangeQuery((0,), (1,)).evaluate(np.zeros((3, 3)))


class TestWorkload:
    def test_evaluate_matches_matrix(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 5, size=16).astype(float)
        workload = random_range_workload((16,), n_queries=30, rng=rng)
        via_prefix = workload.evaluate(x)
        via_matrix = workload.to_matrix() @ x
        assert np.allclose(via_prefix, via_matrix)

    def test_evaluate_matches_matrix_2d(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 5, size=(6, 7)).astype(float)
        workload = random_range_workload((6, 7), n_queries=25, rng=rng)
        assert np.allclose(workload.evaluate(x), workload.to_matrix() @ x.ravel())

    def test_rejects_query_outside_domain(self):
        with pytest.raises(ValueError):
            Workload([RangeQuery((0,), (10,))], domain_shape=(5,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Workload([], domain_shape=(5,))

    def test_rejects_wrong_data_shape(self):
        workload = prefix_workload(8)
        with pytest.raises(ValueError):
            workload.evaluate(np.zeros(9))

    def test_sensitivity_prefix(self):
        # Cell 0 is in every prefix query, so sensitivity equals n.
        workload = prefix_workload(16)
        assert workload.sensitivity() == 16

    def test_sensitivity_identity(self):
        assert identity_workload((10,)).sensitivity() == 1

    def test_container_protocol(self):
        workload = prefix_workload(4)
        assert len(workload) == 4
        assert workload[0] == RangeQuery((0,), (0,))
        assert all(isinstance(q, RangeQuery) for q in workload)


class TestOneRepresentation:
    """``Workload(queries)`` and ``Workload.from_bounds`` build the same
    workload: one :class:`QueryMatrix` and a name."""

    CASES = (((1,), 1), ((7,), 9), ((1, 17), 12), ((17, 1), 12), ((37, 53), 40))

    @staticmethod
    def _pair(shape, n_queries, seed):
        bounds = random_range_workload(shape, n_queries=n_queries, rng=seed)
        los, his = bounds.operator.los, bounds.operator.his
        queries = [RangeQuery(tuple(lo), tuple(hi))
                   for lo, hi in zip(los.tolist(), his.tolist())]
        return (Workload(queries, shape, name="w"),
                Workload.from_bounds(los, his, shape, name="w"))

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a.operator.los, b.operator.los)
        assert np.array_equal(a.operator.his, b.operator.his)
        assert a.operator.los.dtype == b.operator.los.dtype == np.intp
        assert (a.name, a.domain_shape, len(a)) == (b.name, b.domain_shape, len(b))
        assert list(a) == list(b) == a.queries == b.queries
        assert all(a[i] == b[i] for i in (0, -1, len(a) // 2))

    @pytest.mark.parametrize("shape, n_queries", CASES)
    def test_constructors_agree(self, shape, n_queries):
        self._assert_same(*self._pair(shape, n_queries, seed=3))

    @pytest.mark.parametrize("shape, n_queries", CASES)
    def test_pickle_round_trip(self, shape, n_queries):
        for workload in self._pair(shape, n_queries, seed=4):
            workload.to_sparse()
            clone = pickle.loads(pickle.dumps(workload))
            self._assert_same(clone, workload)
            x = np.arange(np.prod(shape), dtype=float).reshape(shape) % 7
            assert np.array_equal(clone.evaluate(x), workload.evaluate(x))
            assert clone.sensitivity() == workload.sensitivity()

    def test_queries_built_on_demand_from_the_bounds(self):
        workload = prefix_workload(5)
        assert workload[-1] == RangeQuery((0,), (4,))
        assert all(type(v) is int for q in workload for v in q.lo + q.hi)
        with pytest.raises(IndexError):
            workload[5]

    def test_one_dimensional_bounds_shorthand(self):
        workload = Workload.from_bounds(np.array([0, 2]), np.array([1, 3]), (4,))
        assert workload.queries == [RangeQuery((0,), (1,)), RangeQuery((2,), (3,))]

    def test_invalid_bounds_rejected_by_both_constructors(self):
        with pytest.raises(ValueError, match="exceed domain"):
            Workload([RangeQuery((0, 0), (1, 4))], (4, 4))
        with pytest.raises(ValueError, match="exceed domain"):
            Workload.from_bounds(np.array([[0, 0]]), np.array([[1, 4]]), (4, 4))
        with pytest.raises(ValueError, match="matching the domain"):
            Workload([RangeQuery((0, 0), (1, 1))], (4,))
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            Workload.from_bounds(np.array([[2]]), np.array([[1]]), (4,))
        with pytest.raises(ValueError, match="at least one query"):
            Workload.from_bounds(np.zeros((0, 2)), np.zeros((0, 2)), (4, 4))


class TestBuilders:
    def test_prefix_workload_definition(self):
        workload = prefix_workload(5)
        assert [q.hi[0] for q in workload] == [0, 1, 2, 3, 4]
        assert all(q.lo == (0,) for q in workload)

    def test_any_range_from_two_prefix_queries(self):
        x = np.arange(10, dtype=float)
        workload = prefix_workload(10)
        answers = workload.evaluate(x)
        # range [3, 7] = prefix[7] - prefix[2]
        assert answers[7] - answers[2] == pytest.approx(x[3:8].sum())

    def test_identity_workload_counts(self):
        assert len(identity_workload((7,))) == 7
        assert len(identity_workload((3, 4))) == 12

    def test_all_range_count(self):
        n = 8
        assert len(all_range_workload(n)) == n * (n + 1) // 2

    def test_all_range_truncation(self):
        assert len(all_range_workload(10, max_queries=17)) == 17

    @pytest.mark.parametrize("n, max_queries", [(1, None), (6, None), (10, 17),
                                                 (10, 1), (5, 15), (5, 100)])
    def test_all_range_order_matches_nested_loop(self, n, max_queries):
        want = [((lo,), (hi,)) for lo in range(n) for hi in range(lo, n)]
        workload = all_range_workload(n, max_queries=max_queries)
        assert [(q.lo, q.hi) for q in workload] == want[:max_queries]
        assert workload.name == f"allrange[{n}]"

    @pytest.mark.parametrize("max_queries", [0, -1])
    def test_all_range_rejects_non_positive_truncation(self, max_queries):
        """Regression: the loop appended before checking the limit, so
        ``max_queries=0`` (or negative) returned the one query ``[0, 0]``."""
        with pytest.raises(ValueError, match="max_queries"):
            all_range_workload(10, max_queries=max_queries)

    @pytest.mark.parametrize("shape", [(1,), (7,), (64,), (1, 17), (17, 1), (3, 5), (37, 53)])
    def test_random_range_keeps_the_generator_stream(self, shape):
        """Same bounds and same final generator state as the historical
        per-query draw loop."""
        rng = as_rng(20160626)
        want = []
        for _ in range(50):
            bounds = [sorted(rng.integers(0, d, size=2).tolist()) for d in shape]
            want.append((tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)))
        fresh = as_rng(20160626)
        workload = random_range_workload(shape, n_queries=50, rng=fresh)
        assert [(q.lo, q.hi) for q in workload] == want
        assert fresh.bit_generator.state == rng.bit_generator.state

    def test_random_range_within_domain(self):
        workload = random_range_workload((20, 30), n_queries=200, rng=0)
        assert len(workload) == 200
        for query in workload:
            assert 0 <= query.lo[0] <= query.hi[0] < 20
            assert 0 <= query.lo[1] <= query.hi[1] < 30

    def test_random_range_reproducible(self):
        w1 = random_range_workload((16,), 50, rng=9)
        w2 = random_range_workload((16,), 50, rng=9)
        assert [ (q.lo, q.hi) for q in w1 ] == [ (q.lo, q.hi) for q in w2 ]

    def test_default_workload_dispatch(self):
        assert default_workload((32,)).name.startswith("prefix")
        assert default_workload((8, 8), n_queries=10).name.startswith("random-range")

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            prefix_workload(0)
        with pytest.raises(ValueError):
            random_range_workload((8,), n_queries=0)
