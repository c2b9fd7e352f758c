"""Unit tests for the Haar wavelet and Hilbert curve substrates, and Privelet's
per-axis transform against its historical dense-matrix path."""

import math

import numpy as np
import pytest

from reference.flatten_workload import position_table, rectangle_spans_reference
from reference.privelet_dense import dense_coefficients, dense_privelet_2d
from repro.algorithms.hilbert import (
    flatten_workload,
    hilbert_order,
    hilbert_ordering_for,
)
from repro.algorithms.mechanisms import PrivacyBudget, as_rng
from repro.algorithms.privelet import Privelet
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
        assert np.allclose(haar_inverse(haar_forward(x)), x)

    def test_roundtrip_2d(self):
        rng = np.random.default_rng(1)
        x = rng.random((8, 32))
        assert np.allclose(haar_inverse(haar_forward(x)), x)

    def test_layout(self):
        # Total first, then the difference levels coarsest to finest, nodes
        # left to right.
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        assert haar_forward(x).tolist() == [36.0, -16.0, -4.0, -4.0,
                                            -1.0, -1.0, -1.0, -1.0]

    def test_2d_is_the_1d_transform_along_each_axis(self):
        x = as_rng(2).integers(0, 50, (4, 8)).astype(float)
        rows_done = np.array([haar_forward(row) for row in x])
        both = np.array([haar_forward(col) for col in rows_done.T]).T
        assert haar_forward(x).tobytes() == both.tobytes()

    def test_total_coefficient(self):
        x = np.arange(16, dtype=float)
        coefficients = haar_forward(x)
        assert coefficients[0] == pytest.approx(x.sum())

    def test_single_record_changes_one_coefficient_per_level(self):
        # The L1 sensitivity argument behind Privelet: a unit change in one
        # cell changes the total and exactly one difference per level, each by 1.
        n = 32
        x = np.zeros(n)
        y = x.copy()
        y[13] += 1.0
        diff = np.abs(haar_forward(y) - haar_forward(x))
        assert diff.sum() == pytest.approx(haar_sensitivity(n))
        assert np.count_nonzero(diff) == int(np.log2(n)) + 1

    @pytest.mark.parametrize("shape", [(16,), (13,), (4, 4), (3, 5), (1, 7), (8, 2)])
    def test_impulse_norm_is_the_product_of_axis_sensitivities(self, shape):
        # Privelet's noise calibration: a unit impulse in any cell of the
        # zero-padded domain has a transform of L1 norm prod(haar_sensitivity).
        padding = [(0, next_power_of_two(n) - n) for n in shape]
        expected = math.prod(haar_sensitivity(n) for n in shape)
        for cell in np.ndindex(*shape):
            impulse = np.zeros(shape)
            impulse[cell] = 1.0
            coefficients = haar_forward(np.pad(impulse, padding))
            assert np.abs(coefficients).sum() == expected, cell

    def test_sensitivity_values(self):
        assert haar_sensitivity(1) == 1.0
        assert haar_sensitivity(2) == 2.0
        assert haar_sensitivity(1024) == 11.0
        assert haar_sensitivity(1000) == 11.0   # padded to 1024

    @pytest.mark.parametrize("shape", [(37,), (4, 6), (3, 4)])
    def test_rejects_non_power_of_two_sides(self, shape):
        with pytest.raises(ValueError, match="power-of-two"):
            haar_forward(np.zeros(shape))
        with pytest.raises(ValueError, match="power-of-two"):
            haar_inverse(np.zeros(shape))


DENSE_SHAPES = [(1, 1), (1, 7), (7, 1), (3, 5), (13, 11), (16, 16), (64, 64)]


def _counts(shape, kind):
    rng = as_rng(0)
    if kind == "integer":
        return rng.poisson(20.0, shape).astype(float)
    return rng.gamma(0.5, 400.0, shape)


class TestPriveletDenseReference:
    """The per-axis transform against the historical dense Haar matrices."""

    @pytest.mark.parametrize("shape", DENSE_SHAPES)
    def test_integer_coefficients_bitwise(self, shape):
        x = _counts(shape, "integer")
        padded = np.pad(x, [(0, next_power_of_two(n) - n) for n in shape])
        assert haar_forward(padded).tobytes() == dense_coefficients(padded).tobytes()

    @pytest.mark.parametrize("kind", ["integer", "gamma"])
    @pytest.mark.parametrize("shape", DENSE_SHAPES)
    def test_release_matches_dense_solves(self, shape, kind):
        x = _counts(shape, kind)
        got = Privelet().run(x, 0.5, rng=7)
        want = dense_privelet_2d(x, PrivacyBudget(0.5), as_rng(7))
        # Same noise, different inverse (exact halving vs LU): the last bits
        # move, so cells near zero are held to 1e-12 of the largest cell.
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


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
