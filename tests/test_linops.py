"""Unit tests for the sparse query-matrix linear operator."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.workload import (
    QueryMatrix,
    Workload,
    all_range_workload,
    identity_workload,
    prefix_workload,
    random_range_workload,
)
from repro.workload.linops import rectangle_cells
from repro.workload.prefix_sum import PrefixSum
from reference.summed_area import overlap_sums_reference, range_sums_reference


def _operator(workload: Workload) -> QueryMatrix:
    return workload.operator


def _brute_force_counts(workload: Workload) -> np.ndarray:
    counts = np.zeros(workload.domain_shape, dtype=np.int64)
    for q in workload:
        slices = tuple(slice(a, b + 1) for a, b in zip(q.lo, q.hi))
        counts[slices] += 1
    return counts


WORKLOAD_CASES = [
    prefix_workload(33),
    all_range_workload(12),
    identity_workload((17,)),
    identity_workload((5, 7)),
    random_range_workload((40,), n_queries=60, rng=0),
    random_range_workload((9, 13), n_queries=80, rng=1),
]


class TestQueryMatrix:
    @pytest.mark.parametrize("workload", WORKLOAD_CASES, ids=lambda w: w.name)
    def test_csr_matches_dense_definition(self, workload):
        dense = np.zeros((len(workload), workload.domain_size))
        for row, q in enumerate(workload):
            indicator = np.zeros(workload.domain_shape)
            slices = tuple(slice(a, b + 1) for a, b in zip(q.lo, q.hi))
            indicator[slices] = 1.0
            dense[row] = indicator.ravel()
        assert np.array_equal(_operator(workload).to_sparse().toarray(), dense)
        assert np.array_equal(workload.to_matrix(), dense)

    @pytest.mark.parametrize("workload", WORKLOAD_CASES, ids=lambda w: w.name)
    def test_matvec_matches_csr(self, workload):
        rng = np.random.default_rng(3)
        x = rng.random(workload.domain_shape)
        operator = _operator(workload)
        assert np.allclose(operator.matvec(x), operator.to_sparse() @ x.ravel())
        # Raveled operands are accepted too (LinearOperator protocol).
        assert np.allclose(operator.matvec(x.ravel()), operator.matvec(x))

    @pytest.mark.parametrize("workload", WORKLOAD_CASES, ids=lambda w: w.name)
    def test_rmatvec_is_adjoint(self, workload):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(workload.domain_shape)
        y = rng.standard_normal(len(workload))
        operator = _operator(workload)
        lhs = float(y @ operator.matvec(x))
        rhs = float((operator.rmatvec(y) * x).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert np.allclose(operator.rmatvec(y).ravel(),
                           operator.to_sparse().T @ y)

    @pytest.mark.parametrize("workload", WORKLOAD_CASES, ids=lambda w: w.name)
    def test_cell_counts_and_sensitivity(self, workload):
        counts = _brute_force_counts(workload)
        assert np.array_equal(_operator(workload).cell_counts(), counts)
        assert _operator(workload).cell_counts().dtype == np.int64   # exact counts
        assert workload.sensitivity() == counts.max()

    @pytest.mark.parametrize("workload", WORKLOAD_CASES, ids=lambda w: w.name)
    def test_overlap_sums(self, workload):
        rng = np.random.default_rng(5)
        x = rng.random(workload.domain_shape)
        operator = _operator(workload)
        region = workload[rng.integers(len(workload))]
        expected = []
        for q in workload:
            a = tuple(max(qa, ra) for qa, ra in zip(q.lo, region.lo))
            b = tuple(min(qb, rb) for qb, rb in zip(q.hi, region.hi))
            if any(ai > bi for ai, bi in zip(a, b)):
                expected.append(0.0)
            else:
                slices = tuple(slice(ai, bi + 1) for ai, bi in zip(a, b))
                expected.append(float(x[slices].sum()))
        got = operator.overlap_sums(x, region.lo, region.hi)
        assert got.tobytes() == overlap_sums_reference(
            operator, x, region.lo, region.hi).tobytes()
        assert np.allclose(got, expected)

    def test_overlap_sums_rejects_bad_regions(self):
        operator = _operator(prefix_workload(8))
        x = np.ones(8)
        for lo, hi in [((-2,), (3,)), ((2,), (1,)), ((0, 0), (3,)),
                       ((0,), (0, 3)), ((0,), (8,)), ((), ())]:
            with pytest.raises(ValueError, match="corners"):
                operator.overlap_sums(x, lo, hi)
        operator_2d = _operator(random_range_workload((4, 5), n_queries=10, rng=0))
        x_2d = np.ones((4, 5))
        for lo, hi in [((-1, 0), (2, 2)), ((0, 0), (4, 2)), ((0, 3), (2, 2)),
                       ((0,), (2,))]:
            with pytest.raises(ValueError, match="corners"):
                operator_2d.overlap_sums(x_2d, lo, hi)

    def test_row_subset(self):
        operator = _operator(prefix_workload(16))
        subset = operator[np.array([0, 5, 9])]
        assert subset.n_queries == 3
        assert np.array_equal(subset.to_sparse().toarray(),
                              operator.to_sparse().toarray()[[0, 5, 9]])

    def test_query_sizes(self):
        operator = _operator(prefix_workload(8))
        assert np.array_equal(operator.query_sizes(), np.arange(1, 9))

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryMatrix(np.array([[0]]), np.array([[5]]), (4,))
        with pytest.raises(ValueError):
            QueryMatrix(np.array([[3]]), np.array([[1]]), (8,))
        with pytest.raises(ValueError):
            QueryMatrix(np.array([[0, 0]]), np.array([[1, 1]]), (4,))
        operator = _operator(prefix_workload(8))
        with pytest.raises(ValueError):
            operator.matvec(np.zeros(9))
        with pytest.raises(ValueError):
            operator.rmatvec(np.zeros(9))


#: 1-D and 2-D shapes with the degenerate sides a domain may have: one
#: cell, 1xN and Nx1 strips, prime sides.
RECTANGLE_SHAPES = [(1,), (2,), (13,), (64,), (1, 1), (1, 17), (17, 1),
                    (3, 5), (7, 11), (13, 13), (8, 16)]


@st.composite
def _rectangles(draw):
    """A domain shape and rectangles inside it, always including one
    single-cell and one full-domain rectangle."""
    shape = draw(st.sampled_from(RECTANGLE_SHAPES))
    los, his = [], []
    for _ in range(draw(st.integers(0, 12))):
        bounds = [sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2)))
                  for d in shape]
        los.append([b[0] for b in bounds])
        his.append([b[1] for b in bounds])
    cell = [draw(st.integers(0, d - 1)) for d in shape]
    los += [cell, [0] * len(shape)]
    his += [cell, [d - 1 for d in shape]]
    order = draw(st.permutations(range(len(los))))
    return (shape, np.array(los, dtype=np.intp)[order],
            np.array(his, dtype=np.intp)[order])


class TestRectangleCells:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_rectangles())
    def test_matches_per_rectangle_slices(self, case):
        shape, los, his = case
        flat = np.arange(int(np.prod(shape))).reshape(shape)
        blocks = [flat[tuple(slice(a, b + 1) for a, b in zip(lo, hi))].ravel()
                  for lo, hi in zip(los, his)]
        cells, sizes = rectangle_cells(los, his, shape)
        assert np.array_equal(cells, np.concatenate(blocks))
        assert sizes.tolist() == [block.size for block in blocks]


@st.composite
def _region(draw, shape):
    """A region inside ``shape``, often flush with one or both borders."""
    lo, hi = [], []
    for d in shape:
        a, b = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2)))
        lo.append(0 if draw(st.booleans()) else a)
        hi.append(d - 1 if draw(st.booleans()) else b)
    return tuple(lo), tuple(hi)


@st.composite
def _values(draw, shape, special):
    """Cell values from 0 to 1e12 at a drawn scale, with ``special`` (inf,
    nan, ...) in one or two cells when it is not None."""
    x = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1e12)))
    if special is not None:
        cells = draw(st.lists(st.integers(0, x.size - 1), min_size=1, max_size=2))
        x.flat[cells] = special
    return x * 10.0 ** draw(st.integers(-15, 0))


class TestSummedAreaGathersMatchReference:
    """The flat-index gathers are bitwise the historical fancy-index ones
    (``tests/reference/summed_area.py``), non-finite tables included."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_rectangles(), data=st.data(),
           special=st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_overlap_sums_bitwise(self, case, data, special):
        shape, los, his = case
        lo, hi = data.draw(_region(shape))
        operator = QueryMatrix(los, his, shape)
        x = data.draw(_values(shape, special))
        with np.errstate(invalid="ignore"):
            got = operator.overlap_sums(x, lo, hi)
            want = overlap_sums_reference(operator, x, lo, hi)
        # Rows with a non-empty intersection match the oracle bit for bit;
        # empty ones read exactly +0.0 (the 1-D oracle reads inf - inf = nan
        # for a query right of a region holding inf).
        empty = np.any(np.maximum(los, lo) > np.minimum(his, hi), axis=1)
        assert got[~empty].tobytes() == want[~empty].tobytes()
        assert np.all(got[empty] == 0.0) and not np.signbit(got[empty]).any()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_rectangles(), data=st.data(),
           special=st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_range_sums_2d_bitwise(self, case, data, special):
        shape, los, his = case
        if len(shape) != 2:
            shape = (1, *shape)
            los = np.hstack([np.zeros_like(los), los])
            his = np.hstack([np.zeros_like(his), his])
        prefix = PrefixSum(data.draw(_values(shape, special)))
        with np.errstate(invalid="ignore"):
            got = prefix.range_sums(los, his)
            want = range_sums_reference(prefix, los, his)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_1d_query_right_of_an_infinite_region_is_zero(self):
        """Regression: the 1-D path subtracted two equal prefix sums for a
        query wholly right of the region, ``inf - inf = nan`` (with a
        RuntimeWarning) where the 2-D path reads ``0.0``."""
        x = np.ones(8)
        x[3] = np.inf
        got = QueryMatrix([[0], [2], [6]], [[1], [4], [7]], (8,)).overlap_sums(
            x, (2,), (4,))
        assert got.tolist() == [0.0, np.inf, 0.0]
        assert not np.signbit(got[[0, 2]]).any()

    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_empty_intersections_are_positive_zero(self, special):
        """Row-only and column-only empty intersections read exactly +0.0,
        sign bit included, though the region's table holds ``special``."""
        los = np.array([[0, 2], [2, 5], [4, 0], [5, 3], [2, 0], [0, 0]])
        his = np.array([[1, 4], [3, 6], [5, 1], [5, 4], [3, 1], [5, 6]])
        operator = QueryMatrix(los, his, (6, 7))
        x = np.ones((6, 7))
        x[2, 2] = special
        with np.errstate(invalid="ignore"):
            got = operator.overlap_sums(x, (2, 2), (3, 4))
            want = overlap_sums_reference(operator, x, (2, 2), (3, 4))
        # rows-only empty: 0 (above), 3 (below); columns-only empty: 1
        # (right), 4 (left); 2 is empty in both, 5 covers the region.
        empty = [0, 1, 2, 3, 4]
        assert np.all(got[empty] == 0.0)
        assert not np.signbit(got[empty]).any()
        assert not np.isfinite(got[5])
        assert got.tobytes() == want.tobytes()


class TestWorkloadOperatorIntegration:
    def test_evaluate_routes_through_cached_operator(self):
        workload = prefix_workload(32)
        first = workload.operator
        assert workload.operator is first          # cached, one per workload
        x = np.arange(32, dtype=float)
        assert np.allclose(workload.evaluate(x), first.matvec(x))

    def test_to_sparse_cached(self):
        workload = prefix_workload(16)
        assert workload.to_sparse() is workload.to_sparse()


class TestPartitionMappings:
    """Cell <-> bucket query mappings over a contiguous 1-D partition."""

    EDGES = np.array([0, 3, 4, 9, 16])

    def test_on_partition_brute_force(self):
        workload = random_range_workload((16,), n_queries=50, rng=3)
        coarse = workload.operator.on_partition(self.EDGES)
        assert coarse.domain_shape == (4,)
        cell_bucket = np.searchsorted(self.EDGES, np.arange(16), side="right") - 1
        for q in range(len(workload)):
            covered = cell_bucket[workload.operator.los[q, 0]:
                                  workload.operator.his[q, 0] + 1]
            assert coarse.los[q, 0] == covered.min()
            assert coarse.his[q, 0] == covered.max()

    def test_through_partition_expands_bucket_ranges(self):
        buckets = QueryMatrix(np.array([[0], [1], [0]]),
                              np.array([[1], [3], [3]]), (4,))
        cells = buckets.through_partition(self.EDGES)
        assert cells.domain_shape == (16,)
        assert cells.los[:, 0].tolist() == [0, 3, 0]
        assert cells.his[:, 0].tolist() == [3, 15, 15]

    def test_roundtrip_bucket_aligned_queries(self):
        # Bucket-aligned cell queries coarsen and expand back to themselves.
        cells = QueryMatrix(np.array([[0], [4], [3]]),
                            np.array([[2], [8], [15]]), (16,))
        again = cells.on_partition(self.EDGES).through_partition(self.EDGES)
        assert np.array_equal(again.los, cells.los)
        assert np.array_equal(again.his, cells.his)

    def test_answers_preserved_on_expansion(self):
        # A bucket-domain query answers identically over bucket totals and,
        # expanded, over the underlying cells.
        rng = np.random.default_rng(0)
        x = rng.integers(0, 20, size=16).astype(float)
        totals = np.add.reduceat(x, self.EDGES[:-1])
        buckets = QueryMatrix(np.array([[0], [2]]), np.array([[1], [3]]), (4,))
        assert np.allclose(buckets.matvec(totals),
                           buckets.through_partition(self.EDGES).matvec(x))

    def test_validation(self):
        op = QueryMatrix(np.array([[0]]), np.array([[3]]), (4,))
        with pytest.raises(ValueError, match="strictly increasing"):
            op.on_partition(np.array([0, 2]))            # does not reach n
        with pytest.raises(ValueError, match="strictly increasing"):
            op.through_partition(np.array([0, 2, 2, 4, 6]))
        with pytest.raises(ValueError, match="one edge per bucket"):
            op.through_partition(np.array([0, 4]))
        op2d = QueryMatrix(np.array([[0, 0]]), np.array([[1, 1]]), (2, 2))
        with pytest.raises(ValueError, match="1-D only"):
            op2d.on_partition(np.array([0, 2]))

    def test_workload_on_partition(self):
        workload = prefix_workload(16)
        coarse = workload.on_partition(self.EDGES)
        assert coarse.domain_shape == (4,)
        assert len(coarse) == 16                 # multiplicities preserved
        assert coarse[0].hi == (0,)
        assert coarse[15].hi == (3,)


class TestDistinct:
    """``QueryMatrix.distinct``: the distinct rows in sorted corner order and
    each row's multiplicity, built once."""

    @staticmethod
    def _with_repeats(workload: Workload, rng) -> QueryMatrix:
        operator = workload.operator
        return operator[rng.integers(0, len(operator), 3 * len(operator))]

    @pytest.mark.parametrize("workload", WORKLOAD_CASES, ids=lambda w: w.name)
    def test_sorted_rows_and_multiplicities(self, workload, rng):
        for operator in (workload.operator, self._with_repeats(workload, rng)):
            los, his, counts = operator.distinct()
            rows = [tuple(r) for r in np.hstack([los, his]).tolist()]
            assert rows == sorted(set(rows))     # sorted, each row once
            assert counts.dtype == np.int64
            assert counts.sum() == len(operator)
            occurrences = {}
            for row in np.hstack([operator.los, operator.his]).tolist():
                occurrences[tuple(row)] = occurrences.get(tuple(row), 0) + 1
            assert counts.tolist() == [occurrences[r] for r in rows]
            assert operator.distinct() is operator.distinct()    # cached

    def test_empty_operator(self):
        operator = prefix_workload(8).operator[np.zeros(8, dtype=bool)]
        los, his, counts = operator.distinct()
        assert los.shape == his.shape == (0, 1)
        assert counts.shape == (0,)

    def test_survives_pickling(self, rng):
        import pickle

        operator = self._with_repeats(
            random_range_workload((9, 13), n_queries=30, rng=2), rng)
        fresh = pickle.loads(pickle.dumps(operator))
        expected = operator.distinct()
        for clone in (fresh, pickle.loads(pickle.dumps(operator))):
            for got, want in zip(clone.distinct(), expected):
                np.testing.assert_array_equal(got, want)
            assert clone.distinct() is clone.distinct()


class TestConcurrentLazyCaches:
    """The serving layer shares one QueryMatrix across reader threads, so the
    lazy caches must build exactly once and never expose a half-built value."""

    @staticmethod
    def _hammer(n_threads, fn):
        import threading

        barrier = threading.Barrier(n_threads)
        results, errors = [None] * n_threads, []

        def worker(i):
            try:
                barrier.wait()
                results[i] = fn()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        return results

    def test_to_sparse_builds_once_under_contention(self, monkeypatch):
        """Regression: the unsynchronized check-then-set let two threads race
        and rebuild the CSR cache; a widened build window makes the race
        deterministic without the lock."""
        import time

        import repro.workload.linops as linops

        original = linops._expand_runs

        def slow_expand(*args):
            time.sleep(0.02)                     # widen the race window
            return original(*args)

        monkeypatch.setattr(linops, "_expand_runs", slow_expand)
        operator = random_range_workload((64,), n_queries=40, rng=7).operator
        results = self._hammer(8, operator.to_sparse)
        assert all(csr is results[0] for csr in results)   # built exactly once
        dense = np.zeros((40, 64))
        for q, (lo, hi) in enumerate(zip(operator.los[:, 0], operator.his[:, 0])):
            dense[q, lo:hi + 1] = 1.0
        assert np.array_equal(results[0].toarray(), dense)

    def test_cell_counts_and_matvec_under_contention(self):
        workload = random_range_workload((50, 30), n_queries=120, rng=8)
        operator = workload.operator
        x = np.random.default_rng(0).random((50, 30))
        expected = operator.matvec(x)
        counts = _brute_force_counts(workload)

        def reader():
            return operator.cell_counts(), operator.matvec(x), operator.to_sparse()

        results = self._hammer(12, reader)
        first_counts, _, first_csr = results[0]
        for got_counts, got_answers, got_csr in results:
            assert got_counts is first_counts    # one published cache
            assert got_csr is first_csr
            assert np.array_equal(got_counts, counts)
            assert np.array_equal(got_answers, expected)

    def test_distinct_builds_once_under_contention(self, monkeypatch):
        import time

        original, calls = np.lexsort, []

        def slow_lexsort(keys):
            calls.append(1)
            time.sleep(0.02)                     # widen the race window
            return original(keys)

        monkeypatch.setattr(np, "lexsort", slow_lexsort)
        operator = random_range_workload((64,), n_queries=40, rng=7).operator
        results = self._hammer(8, operator.distinct)
        assert len(calls) == 1
        assert all(rows is results[0] for rows in results)

    def test_workload_operator_builds_once_under_contention(self):
        workload = random_range_workload((64,), n_queries=30, rng=9)
        results = self._hammer(8, lambda: workload.operator)
        assert all(op is results[0] for op in results)

    def test_operator_with_built_caches_survives_pickling(self):
        """Locks are excluded from the pickled state and recreated on load
        (ParallelExecutor ships workloads to worker processes)."""
        import pickle

        workload = random_range_workload((32,), n_queries=20, rng=10)
        operator = workload.operator
        operator.to_sparse()
        operator.cell_counts()
        x = np.random.default_rng(1).random(32)

        clone = pickle.loads(pickle.dumps(workload))
        assert np.array_equal(clone.evaluate(x), workload.evaluate(x))
        op_clone = pickle.loads(pickle.dumps(operator))
        assert np.array_equal(op_clone.matvec(x), operator.matvec(x))
        assert op_clone.to_sparse() is op_clone.to_sparse()
