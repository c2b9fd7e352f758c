"""Unit tests for the closed-form least-squares solves of
:mod:`repro.core.gls`: the two-measurement reconciliation shift and the
two-pass consistency solve on hierarchical trees."""

import numpy as np
import pytest

from repro.algorithms.mechanisms import as_rng
from repro.algorithms.tree import HierarchicalTree
from repro.core.gls import reconcile_shift, tree_least_squares


def _combined(totals, total_variances, sums, member_variance, sizes):
    """The reconciled group total: the member sum plus every member's shift."""
    shift = reconcile_shift(totals, total_variances, sums, member_variance, sizes)
    return sums + shift * sizes


class TestReconcileShift:
    def test_equal_variances_average(self):
        combined = _combined(np.array([2.0]), 1.0, np.array([4.0]), 1.0, 1)
        assert combined.shape == (1,)
        assert combined[0] == pytest.approx(3.0)

    def test_prefers_precise_measurement(self):
        combined = _combined(np.array([0.0]), 100.0, np.array([10.0]), 0.01, 1)
        assert combined[0] == pytest.approx(10.0, abs=0.1)

    def test_sum_variance_grows_with_group_size(self):
        # Four members of variance 1 sum with variance 4: the direct total
        # (variance 1) gets weight 4/5.
        combined = _combined(np.array([0.0]), 1.0, np.array([10.0]), 1.0, 4)
        assert combined[0] == pytest.approx(2.0)

    def test_all_infinite_variances_fall_back_to_mean(self):
        combined = _combined(np.array([1.0]), np.inf, np.array([3.0]), np.inf, 2)
        assert combined[0] == pytest.approx(2.0)

    def test_shift_spreads_residual_evenly(self):
        shift = reconcile_shift(np.array([10.0]), 1.0, np.array([6.0]), 0.25, 4)
        # The member sum has variance 1 too, so the combined total is 8.
        assert shift[0] == pytest.approx(0.5)

    def test_groups_reconcile_independently(self):
        totals = np.array([2.0, 0.0, 1.0])
        sums = np.array([4.0, 10.0, 3.0])
        combined = _combined(totals, np.array([1.0, 1.0, np.inf]), sums,
                             np.array([1.0, 2.0, np.inf]), np.array([1, 2, 5]))
        np.testing.assert_allclose(combined, [3.0, 2.0, 2.0])


class TestTreeLeastSquares:
    def _measure(self, tree, x, noise=0.0, rng=0):
        rng = as_rng(rng)
        totals = tree.node_totals(x)
        if noise:
            totals = totals + rng.normal(0, noise, size=totals.shape)
        variances = np.full(tree.n_nodes, max(noise, 1e-12) ** 2 * 2 + 1e-12)
        return totals, variances

    def test_exact_measurements_recovered(self):
        x = np.arange(16, dtype=float)
        tree = HierarchicalTree((16,), branching=2)
        totals, variances = self._measure(tree, x)
        consistent = tree_least_squares(tree, totals, variances)
        leaf_values = np.zeros(16)
        lo, hi = tree.node_bounds()
        for leaf in tree.leaf_indices():
            leaf_values[lo[leaf, 0]:hi[leaf, 0] + 1] = consistent[leaf]
        assert np.allclose(leaf_values, x, atol=1e-6)

    def test_output_is_consistent(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 20, size=32).astype(float)
        tree = HierarchicalTree((32,), branching=2)
        totals, variances = self._measure(tree, x, noise=3.0, rng=1)
        consistent = tree_least_squares(tree, totals, variances)
        offsets = tree.child_offsets()
        for i in range(tree.n_nodes):
            first, last = int(offsets[i]), int(offsets[i + 1])
            if first == last:
                continue
            child_sum = consistent[first + 1:last + 1].sum()
            assert consistent[i] == pytest.approx(child_sum, abs=1e-6)

    def test_reduces_leaf_error_vs_raw(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 50, size=64).astype(float)
        tree = HierarchicalTree((64,), branching=2)
        raw_errors, ls_errors = [], []
        for seed in range(20):
            trial_rng = np.random.default_rng(seed)
            noisy = tree.node_totals(x) + trial_rng.laplace(0, 5.0, size=tree.n_nodes)
            variances = np.full(tree.n_nodes, 2 * 5.0 ** 2)
            consistent = tree_least_squares(tree, noisy, variances)
            leaves = tree.leaf_indices()
            leaf_ls = consistent[leaves]
            leaf_raw = noisy[leaves]
            truth = tree.node_totals(x)[leaves]
            raw_errors.append(np.mean((leaf_raw - truth) ** 2))
            ls_errors.append(np.mean((leaf_ls - truth) ** 2))
        assert np.mean(ls_errors) < np.mean(raw_errors)

    def test_unmeasured_nodes_are_reconstructed(self):
        x = np.arange(8, dtype=float)
        tree = HierarchicalTree((8,), branching=2)
        totals = tree.node_totals(x)
        variances = np.full(tree.n_nodes, 1e-12)
        # Drop the root measurement entirely.
        totals[0] = np.nan
        variances[0] = np.inf
        consistent = tree_least_squares(tree, totals, variances)
        assert consistent[0] == pytest.approx(x.sum(), rel=1e-6)

    def test_shape_validation(self):
        tree = HierarchicalTree((8,), branching=2)
        with pytest.raises(ValueError):
            tree_least_squares(tree, np.zeros(3), np.zeros(3))

    def test_weighted_levels_favor_precise_level(self):
        # Give the root a very precise measurement and the leaves a very noisy
        # one; the consistent root should stay near the precise measurement.
        x = np.full(16, 10.0)
        tree = HierarchicalTree((16,), branching=2)
        totals = tree.node_totals(x).astype(float)
        variances = np.full(tree.n_nodes, 1e6)
        totals[0] = 170.0            # true total is 160
        variances[0] = 1e-6
        consistent = tree_least_squares(tree, totals, variances)
        assert consistent[0] == pytest.approx(170.0, abs=0.1)
