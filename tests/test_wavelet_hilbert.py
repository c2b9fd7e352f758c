"""Unit tests for the Haar wavelet and Hilbert curve substrates."""

import numpy as np
import pytest

from repro.algorithms.hilbert import flatten_2d, hilbert_order, unflatten_2d
from repro.algorithms.wavelet import (
    haar_forward,
    haar_inverse,
    haar_sensitivity,
    next_power_of_two,
)


class TestNextPowerOfTwo:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 4), (5, 8), (1024, 1024), (1025, 2048)])
    def test_values(self, n, expected):
        assert next_power_of_two(n) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)


class TestHaar:
    def test_roundtrip_power_of_two(self):
        rng = np.random.default_rng(0)
        x = rng.random(64)
        assert np.allclose(haar_inverse(haar_forward(x), 64), x)

    def test_roundtrip_non_power_of_two(self):
        rng = np.random.default_rng(1)
        x = rng.random(37)
        assert np.allclose(haar_inverse(haar_forward(x), 37), x)

    def test_total_coefficient(self):
        x = np.arange(16, dtype=float)
        coefficients = haar_forward(x)
        assert coefficients[0][0] == pytest.approx(x.sum())

    def test_single_record_changes_one_coefficient_per_level(self):
        # The L1 sensitivity argument behind Privelet: a unit change in one
        # cell changes the total and exactly one difference per level, each by 1.
        n = 32
        x = np.zeros(n)
        y = x.copy()
        y[13] += 1.0
        cx = np.concatenate(haar_forward(x))
        cy = np.concatenate(haar_forward(y))
        diff = np.abs(cy - cx)
        assert diff.sum() == pytest.approx(haar_sensitivity(n))
        assert np.count_nonzero(diff) == int(np.log2(n)) + 1

    def test_sensitivity_values(self):
        assert haar_sensitivity(1) == 1.0
        assert haar_sensitivity(2) == 2.0
        assert haar_sensitivity(1024) == 11.0
        assert haar_sensitivity(1000) == 11.0   # padded to 1024

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            haar_forward(np.zeros((4, 4)))

    def test_inverse_rejects_empty(self):
        with pytest.raises(ValueError):
            haar_inverse([])


class TestHilbert:
    def test_order_is_permutation(self):
        for side in (1, 2, 4, 16):
            order = hilbert_order(side)
            assert sorted(order.tolist()) == list(range(side * side))

    def test_order_visits_neighbours(self):
        # Consecutive Hilbert positions are adjacent cells (locality property).
        side = 8
        order = hilbert_order(side)
        rows, cols = np.divmod(order, side)
        steps = np.abs(np.diff(rows)) + np.abs(np.diff(cols))
        assert np.all(steps == 1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hilbert_order(6)

    def test_flatten_roundtrip_square(self):
        rng = np.random.default_rng(2)
        x = rng.random((16, 16))
        flat, ordering = flatten_2d(x)
        assert np.allclose(unflatten_2d(flat, ordering, x.shape), x)

    def test_flatten_roundtrip_rectangular_fallback(self):
        rng = np.random.default_rng(3)
        x = rng.random((5, 9))
        flat, ordering = flatten_2d(x)
        assert np.allclose(unflatten_2d(flat, ordering, x.shape), x)

    def test_flatten_preserves_mass(self):
        x = np.random.default_rng(4).random((8, 8))
        flat, _ = flatten_2d(x)
        assert flat.sum() == pytest.approx(x.sum())

    def test_flatten_rejects_1d(self):
        with pytest.raises(ValueError):
            flatten_2d(np.zeros(8))


class TestFlattenWorkload:
    def test_spans_cover_query_cells(self):
        from repro.algorithms.hilbert import flatten_workload
        from repro.workload import random_range_workload

        x = np.arange(64, dtype=float).reshape(8, 8)
        _, ordering = flatten_2d(x)
        position = np.empty(64, dtype=int)
        position[ordering] = np.arange(64)
        workload = random_range_workload((8, 8), n_queries=40, rng=2)
        flat = flatten_workload(workload, ordering, (8, 8))
        assert flat.domain_shape == (64,)
        assert len(flat) == len(workload)
        for q2d, q1d in zip(workload, flat):
            block = position.reshape(8, 8)[q2d.lo[0]:q2d.hi[0] + 1,
                                           q2d.lo[1]:q2d.hi[1] + 1]
            # the mapped span is the tightest range containing the cells
            assert q1d.lo[0] == block.min() and q1d.hi[0] == block.max()

    def test_full_domain_query_maps_to_full_range(self):
        from repro.algorithms.hilbert import flatten_workload
        from repro.workload import RangeQuery, Workload

        workload = Workload([RangeQuery((0, 0), (7, 7))], (8, 8))
        _, ordering = flatten_2d(np.zeros((8, 8)))
        flat = flatten_workload(workload, ordering, (8, 8))
        assert flat[0].lo == (0,) and flat[0].hi == (63,)


class TestHilbertOrderVectorised:
    """Satellite pin: the vectorised curve builder is bitwise-identical to
    the historical pure-Python ``_d2xy`` loop."""

    @pytest.mark.parametrize("side", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_bitwise_identical_to_reference(self, side):
        from reference.hilbert_curve import hilbert_order_reference

        fast = hilbert_order(side)
        reference = hilbert_order_reference(side)
        assert fast.dtype == reference.dtype
        assert fast.tobytes() == reference.tobytes()

    def test_reference_rejects_non_power_of_two(self):
        from reference.hilbert_curve import hilbert_order_reference

        with pytest.raises(ValueError):
            hilbert_order_reference(6)


class TestRectangleSpansVectorised:
    """Satellite regression: the boundary-run span computation matches the
    slice-based reference on random rectangle workloads."""

    def _position_table(self, shape, ordering):
        position = np.empty(shape[0] * shape[1], dtype=np.intp)
        position[ordering] = np.arange(shape[0] * shape[1], dtype=np.intp)
        return position.reshape(shape)

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (13, 7), (1, 9),
                                       (9, 1)])
    def test_matches_reference_on_supported_orderings(self, shape):
        from repro.algorithms.hilbert import (
            _rectangle_spans,
            _rectangle_spans_reference,
            hilbert_ordering_for,
        )
        from repro.workload import random_range_workload

        ordering = hilbert_ordering_for(shape)      # Hilbert or row-major
        table = self._position_table(shape, ordering)
        workload = random_range_workload(shape, 300, rng=6)
        los, his = workload.operator.los, workload.operator.his
        fast = _rectangle_spans(table, los, his)
        reference = _rectangle_spans_reference(table, los, his)
        np.testing.assert_array_equal(fast[0], reference[0])
        np.testing.assert_array_equal(fast[1], reference[1])

    def test_arbitrary_ordering_falls_back_to_reference(self):
        """A scrambled ordering is neither curve-continuous nor row-major:
        boundary extrema would be wrong, so the exact reference path runs."""
        from repro.algorithms.hilbert import (
            _rectangle_spans,
            _rectangle_spans_reference,
        )
        from repro.workload import random_range_workload

        shape = (12, 9)
        ordering = np.random.default_rng(5).permutation(108)
        table = self._position_table(shape, ordering)
        workload = random_range_workload(shape, 150, rng=7)
        los, his = workload.operator.los, workload.operator.his
        fast = _rectangle_spans(table, los, his)
        reference = _rectangle_spans_reference(table, los, his)
        np.testing.assert_array_equal(fast[0], reference[0])
        np.testing.assert_array_equal(fast[1], reference[1])

    def test_curve_endpoints_inside_interior(self):
        """The curve's start/end may realise the extremum strictly inside a
        rectangle; the endpoint correction catches both."""
        from repro.algorithms.hilbert import _rectangle_spans, hilbert_order
        from repro.workload import RangeQuery, Workload

        side = 8
        table = self._position_table((side, side), hilbert_order(side))
        start = np.argwhere(table == 0)[0]
        end = np.argwhere(table == side * side - 1)[0]
        queries = []
        for r, c in (start, end):
            lo = (max(int(r) - 1, 0), max(int(c) - 1, 0))
            hi = (min(int(r) + 1, side - 1), min(int(c) + 1, side - 1))
            queries.append(RangeQuery(lo, hi))
        workload = Workload(queries, (side, side))
        los, his = workload.operator.los, workload.operator.his
        span_lo, span_hi = _rectangle_spans(table, los, his)
        assert span_lo[0] == 0
        assert span_hi[1] == side * side - 1
