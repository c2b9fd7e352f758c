"""Behavioural tests for the 2-D spatial algorithms
(QuadTree, HybridTree, UGrid, AGrid, DPCube in 2-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGrid,
    DPCube,
    HybridTree,
    Identity,
    QuadTree,
    UGrid,
    random_range_workload,
    scaled_average_per_query_error,
)
from repro.algorithms.grids import _grid_edges
from repro.algorithms.mechanisms import PrivacyBudget


def _mean_error(algorithm, x, workload, epsilon, trials=5, seed=0):
    truth = workload.evaluate(x)
    errors = []
    for t in range(trials):
        estimate = algorithm.run(x, epsilon, workload=workload, rng=seed + t)
        errors.append(scaled_average_per_query_error(truth, workload.evaluate(estimate), x.sum()))
    return float(np.mean(errors))


@pytest.fixture(scope="module")
def clustered_2d():
    rng = np.random.default_rng(10)
    shape = np.zeros((32, 32))
    shape[4:8, 4:8] = 5.0
    shape[20:26, 20:26] = 1.0
    shape = shape / shape.sum()
    x = rng.multinomial(50_000, shape.ravel()).astype(float).reshape(32, 32)
    workload = random_range_workload((32, 32), 200, rng=rng)
    return x, workload


class TestGridEdges:
    def test_covers_domain(self):
        edges = _grid_edges(10, 3)
        assert edges[0] == 0 and edges[-1] == 10
        assert np.all(np.diff(edges) >= 1)

    def test_clipped_to_length(self):
        edges = _grid_edges(4, 100)
        assert len(edges) == 5

    def test_single_piece(self):
        assert list(_grid_edges(7, 1)) == [0, 7]

    @given(length=st.integers(1, 5000), pieces=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_widths_differ_by_at_most_one(self, length, pieces):
        """Property (grid-edges bugfix): integer-arithmetic edges partition
        the domain into blocks whose widths differ by at most one."""
        edges = _grid_edges(length, pieces)
        widths = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == length
        assert np.all(widths >= 1)
        assert widths.max() - widths.min() <= 1

    def test_balanced_where_linspace_truncation_drifted(self):
        """Regression: ``np.linspace(0, 30, 23).astype(int)`` truncates the
        float intermediates and drifts off the balanced grid (its eleventh
        edge lands on 14 instead of 15); the exact integer edges match
        ``floor(i * length / pieces)`` everywhere.

        The UGrid/AGrid golden pins in ``test_registry_workloads.py`` were
        checked against a pre-fix capture: at the goldens' 16x16 setting the
        old and new edges coincide, so those outputs are bitwise-unchanged.
        """
        edges = _grid_edges(30, 22)
        expected = np.arange(23) * 30 // 22
        assert np.array_equal(edges, expected)
        assert edges[11] == 15


class TestUGrid:
    def test_grid_size_grows_with_scale(self, clustered_2d):
        x, _ = clustered_2d
        small = x / 50      # scale down
        # UGrid at a tiny scale uses a coarse grid -> a flat-ish estimate;
        # at large scale the grid refines and recovers structure.
        est_small = UGrid().run(np.round(small), 0.1, rng=0)
        est_large = UGrid().run(x, 100.0, rng=0)
        assert np.unique(np.round(est_small, 6)).size < np.unique(np.round(est_large, 6)).size

    def test_consistent_at_huge_epsilon(self, clustered_2d):
        x, _ = clustered_2d
        estimate = UGrid().run(x, 1e7, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)

    def test_mass_approximately_preserved(self, clustered_2d):
        x, _ = clustered_2d
        estimate = UGrid().run(x, 1.0, rng=0)
        assert estimate.sum() == pytest.approx(x.sum(), rel=0.05)


class TestAGrid:
    def test_consistent_at_huge_epsilon(self, clustered_2d):
        x, _ = clustered_2d
        estimate = AGrid().run(x, 1e7, rng=0)
        assert np.allclose(estimate, x, atol=5e-2)

    def test_beats_identity_at_low_signal(self, clustered_2d):
        x, workload = clustered_2d
        assert _mean_error(AGrid(), x, workload, 0.01) < _mean_error(Identity(), x, workload, 0.01)

    def test_mass_approximately_preserved(self, clustered_2d):
        x, _ = clustered_2d
        estimate = AGrid().run(x, 1.0, rng=0)
        assert estimate.sum() == pytest.approx(x.sum(), rel=0.1)


class TestQuadTree:
    def test_cell_leaves_on_small_domain(self, clustered_2d):
        # Domain 32x32 is smaller than 2^10 per side, so leaves are cells and
        # the algorithm is effectively data-independent and near-exact at huge epsilon.
        x, _ = clustered_2d
        estimate = QuadTree().run(x, 1e7, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)

    def test_aggregated_leaves_introduce_bias(self):
        # Force a shallow tree: the leaves aggregate cells, so non-uniform data
        # keeps a bias at huge epsilon (Theorem 5).
        rng = np.random.default_rng(1)
        x = rng.pareto(1.0, size=(16, 16)) * 10
        estimate = QuadTree(max_height=2).run(x, 1e8, rng=0)
        assert not np.allclose(estimate, x, atol=1.0)

    def test_error_within_small_factor_of_identity(self, clustered_2d):
        # With cell-level leaves the quadtree spreads its budget over the tree
        # levels; on a workload of mostly small ranges it should stay within a
        # small constant factor of the Laplace baseline.
        x, workload = clustered_2d
        assert _mean_error(QuadTree(), x, workload, 0.01) <= \
            _mean_error(Identity(), x, workload, 0.01) * 3.0


class TestHybridTree:
    def test_output_shape(self, clustered_2d):
        x, _ = clustered_2d
        estimate = HybridTree().run(x, 1.0, rng=0)
        assert estimate.shape == x.shape

    def test_kd_blocks_partition_domain(self):
        x = np.random.default_rng(2).random((16, 16)) * 10
        blocks = HybridTree._kd_blocks(x, 3, PrivacyBudget(10.0), 0.1,
                                       np.random.default_rng(0))
        covered = np.zeros((16, 16), dtype=int)
        for block in blocks:
            covered[block] += 1
        assert np.all(covered == 1)
        assert len(blocks) == 8


class TestDPCube2D:
    def test_partition_covers_2d_domain(self):
        noisy = np.random.default_rng(3).random((8, 8))
        blocks = DPCube._kd_partition(noisy, 6)
        covered = np.zeros((8, 8), dtype=int)
        for block in blocks:
            covered[block] += 1
        assert np.all(covered == 1)
        assert len(blocks) <= 6

    def test_consistent_at_huge_epsilon(self, clustered_2d):
        x, _ = clustered_2d
        estimate = DPCube().run(x, 1e8, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)
