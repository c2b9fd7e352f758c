"""Unit tests for the Haar wavelet and Hilbert curve substrates."""

import numpy as np
import pytest

from reference.flatten_workload import position_table, rectangle_spans_reference
from repro.algorithms.hilbert import (
    flatten_workload,
    hilbert_order,
    hilbert_ordering_for,
)
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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 9),
                                       (8, 8), (16, 16), (12, 16)])
    def test_ordering_for_is_permutation(self, shape):
        ordering = hilbert_ordering_for(shape)
        assert ordering.dtype == np.intp
        assert np.array_equal(np.sort(ordering),
                              np.arange(shape[0] * shape[1]))


class TestFlattenWorkload:
    def test_spans_cover_query_cells(self):
        from repro.workload import random_range_workload

        position = position_table(hilbert_ordering_for((8, 8)), (8, 8))
        workload = random_range_workload((8, 8), n_queries=40, rng=2)
        flat = flatten_workload(workload, (8, 8))
        assert flat.domain_shape == (64,)
        assert len(flat) == len(workload)
        for q2d, q1d in zip(workload, flat):
            block = position[q2d.lo[0]:q2d.hi[0] + 1, q2d.lo[1]:q2d.hi[1] + 1]
            # the mapped span is the tightest range containing the cells
            assert q1d.lo[0] == block.min() and q1d.hi[0] == block.max()

    def test_full_domain_query_maps_to_full_range(self):
        from repro.workload import RangeQuery, Workload

        workload = Workload([RangeQuery((0, 0), (7, 7))], (8, 8))
        flat = flatten_workload(workload, (8, 8))
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
    """The boundary-run span computation matches the slice-based reference
    on random rectangle workloads, for Hilbert and row-major shapes."""

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (13, 7), (1, 9),
                                       (9, 1)])
    def test_matches_reference_on_supported_orderings(self, shape):
        from repro.workload import random_range_workload

        ordering = hilbert_ordering_for(shape)      # Hilbert or row-major
        workload = random_range_workload(shape, 300, rng=6)
        flat = flatten_workload(workload, shape).operator
        reference = rectangle_spans_reference(position_table(ordering, shape),
                                              workload.operator.los,
                                              workload.operator.his)
        np.testing.assert_array_equal(flat.los[:, 0], reference[0])
        np.testing.assert_array_equal(flat.his[:, 0], reference[1])

    def test_curve_endpoints_inside_interior(self):
        """The curve's start/end may realise the extremum strictly inside a
        rectangle; the endpoint correction catches both."""
        from repro.workload import RangeQuery, Workload

        side = 8
        table = position_table(hilbert_order(side), (side, side))
        start = np.argwhere(table == 0)[0]
        end = np.argwhere(table == side * side - 1)[0]
        queries = []
        for r, c in (start, end):
            lo = (max(int(r) - 1, 0), max(int(c) - 1, 0))
            hi = (min(int(r) + 1, side - 1), min(int(c) + 1, side - 1))
            queries.append(RangeQuery(lo, hi))
        flat = flatten_workload(Workload(queries, (side, side)), (side, side))
        assert flat.operator.los[0, 0] == 0
        assert flat.operator.his[1, 0] == side * side - 1
