"""Unit tests for the hierarchical-tree substrate."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.level_usage import canonical_decomposition, level_usage_reference
from repro.workload import Workload, prefix_workload, random_range_workload
from repro.algorithms.tree import (HierarchicalTree, IrregularTreeLevels,
                                   optimal_branching)
from repro.workload.selection import greedy_tree_strategy

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def node_slices(tree, index):
    """The block of node ``index`` as a tuple of slices."""
    lo, hi = tree.node_bounds()
    return tuple(slice(int(a), int(b) + 1) for a, b in zip(lo[index], hi[index]))


def leaf_coverage(tree):
    """How many leaves cover each cell of the domain."""
    covered = np.zeros(tree.domain_shape, dtype=int)
    for leaf in tree.leaf_indices():
        covered[node_slices(tree, leaf)] += 1
    return covered


class TestTreeStructure:
    def test_leaves_partition_domain_1d(self):
        tree = HierarchicalTree((16,), branching=2)
        assert np.all(leaf_coverage(tree) == 1)
        assert np.all(tree.node_sizes()[tree.leaf_indices()] == 1)

    def test_leaves_partition_domain_2d(self):
        tree = HierarchicalTree((8, 8), branching=2)
        assert np.all(leaf_coverage(tree) == 1)

    def test_non_power_of_two_domain(self):
        tree = HierarchicalTree((13,), branching=2)
        assert np.all(leaf_coverage(tree) == 1)

    def test_height_binary(self):
        tree = HierarchicalTree((16,), branching=2)
        assert tree.height == 4
        assert tree.n_levels == 5

    def test_branching_factor_respected(self):
        tree = HierarchicalTree((27,), branching=3)
        offsets = tree.child_offsets()
        assert offsets[1] - offsets[0] == 3

    def test_max_height_produces_aggregated_leaves(self):
        tree = HierarchicalTree((64,), branching=2, max_height=3)
        assert tree.height == 3
        assert np.all(tree.node_sizes()[tree.leaf_indices()] == 8)

    def test_parent_equals_union_of_children(self):
        tree = HierarchicalTree((32,), branching=2)
        offsets, sizes = tree.child_offsets(), tree.node_sizes()
        for i in range(tree.n_nodes):
            first, last = int(offsets[i]), int(offsets[i + 1])
            if first < last:
                assert sizes[first + 1:last + 1].sum() == sizes[i]

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            HierarchicalTree((8,), branching=1)

    def test_node_totals(self):
        x = np.arange(8, dtype=float)
        tree = HierarchicalTree((8,), branching=2)
        totals = tree.node_totals(x)
        assert totals[0] == pytest.approx(x.sum())


class TestRangeDecomposition:
    """The oracle's canonical decomposition is exact and logarithmic."""

    @pytest.mark.parametrize("lo,hi", [(0, 15), (0, 0), (3, 11), (7, 8), (5, 5)])
    def test_decomposition_covers_exactly_1d(self, lo, hi):
        tree = HierarchicalTree((16,), branching=2)
        x = np.random.default_rng(0).random(16)
        nodes = canonical_decomposition(tree, (lo,), (hi,))
        total = sum(x[node_slices(tree, i)].sum() for i in nodes)
        assert total == pytest.approx(x[lo:hi + 1].sum())

    def test_decomposition_is_logarithmic(self):
        tree = HierarchicalTree((1024,), branching=2)
        nodes = canonical_decomposition(tree, (1,), (1022,))
        # A classic result: at most 2 * log2(n) nodes per range.
        assert len(nodes) <= 2 * 10

    def test_decomposition_2d(self):
        tree = HierarchicalTree((8, 8), branching=2)
        x = np.random.default_rng(1).random((8, 8))
        nodes = canonical_decomposition(tree, (1, 2), (6, 5))
        total = sum(x[node_slices(tree, i)].sum() for i in nodes)
        assert total == pytest.approx(x[1:7, 2:6].sum())

    def test_level_usage_prefix(self):
        tree = HierarchicalTree((64,), branching=2)
        usage = tree.level_usage(prefix_workload(64))
        assert usage.sum() > 0
        assert usage.shape == (tree.n_levels,)

    def test_level_usage_random_2d(self):
        tree = HierarchicalTree((16, 16), branching=2)
        usage = tree.level_usage(random_range_workload((16, 16), 20, rng=0))
        assert usage.sum() >= 20     # every query uses at least one node


class TestLevelUsage:
    """``level_usage(workload, measured)`` against the per-query oracle in
    ``tests/reference/level_usage.py``, and its input checks."""

    @staticmethod
    def _measured(tree, flags):
        """Measured-level mask from drawn flags; leaf levels always measured."""
        measured = np.array(flags[:tree.n_levels], dtype=bool)
        measured[tree.node_levels()[tree.leaf_indices()]] = True
        return measured

    @SETTINGS
    @given(n=st.one_of(st.sampled_from([1, 2, 3, 5, 7, 61, 127, 257, 509, 1021]),
                       st.integers(1, 1024)),
           branching=st.sampled_from([2, 3, 4, 16]),
           max_height=st.one_of(st.none(), st.integers(1, 3)),
           seed=st.integers(0, 2**16),
           flags=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_matches_oracle_1d(self, n, branching, max_height, seed, flags):
        tree = HierarchicalTree((n,), branching=branching,
                                max_height=max_height)
        workload = random_range_workload((n,), 15, rng=seed)
        np.testing.assert_array_equal(tree.level_usage(workload),
                                      level_usage_reference(tree, workload))
        measured = self._measured(tree, flags)
        np.testing.assert_array_equal(
            tree.level_usage(workload, measured),
            level_usage_reference(tree, workload, measured))

    @SETTINGS
    @given(shape=st.one_of(
               st.sampled_from([(1, 29), (29, 1), (3, 5), (37, 53), (31, 17)]),
               st.tuples(st.integers(1, 40), st.integers(1, 40))),
           branching=st.sampled_from([2, 3, 4]),
           split_axes=st.sampled_from([None, (0, 1), (1, 0), (0,), (1,)]),
           max_height=st.one_of(st.none(), st.integers(1, 4)),
           seed=st.integers(0, 2**16),
           flags=st.lists(st.booleans(), min_size=16, max_size=16))
    def test_matches_oracle_2d(self, shape, branching, split_axes, max_height,
                               seed, flags):
        tree = HierarchicalTree(shape, branching=branching,
                                max_height=max_height, split_axes=split_axes)
        workload = random_range_workload(shape, 15, rng=seed)
        np.testing.assert_array_equal(tree.level_usage(workload),
                                      level_usage_reference(tree, workload))
        measured = self._measured(tree, flags)
        np.testing.assert_array_equal(
            tree.level_usage(workload, measured),
            level_usage_reference(tree, workload, measured))

    @pytest.mark.parametrize("shape", [(16,), (7, 5)])
    def test_bad_measured_flags_raise(self, shape):
        tree = HierarchicalTree(shape, branching=2)
        workload = random_range_workload(shape, 5, rng=0)
        with pytest.raises(ValueError, match="one measured flag per"):
            tree.level_usage(workload, np.ones(tree.n_levels + 1, dtype=bool))
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[tree.node_levels()[tree.leaf_indices()[-1]]] = False
        with pytest.raises(ValueError, match="leaf level"):
            tree.level_usage(workload, measured)

    def test_mismatched_workload_raises_1d(self):
        tree = HierarchicalTree((16,))
        with pytest.raises(ValueError, match="outside the tree's domain"):
            tree.level_usage(prefix_workload(32))
        measured = np.ones(tree.n_levels, dtype=bool)
        with pytest.raises(ValueError, match="outside the tree's domain"):
            tree.level_usage(prefix_workload(32), measured)
        with pytest.raises(ValueError, match="2-D workload queries on a 1-D"):
            tree.level_usage(random_range_workload((4, 4), 5, rng=0))

    def test_mismatched_workload_raises_2d(self):
        tree = HierarchicalTree((8, 8))
        with pytest.raises(ValueError, match="outside the tree's domain"):
            tree.level_usage(random_range_workload((16, 16), 5, rng=0))
        with pytest.raises(ValueError, match="1-D workload queries on a 2-D"):
            tree.level_usage(prefix_workload(8))
        irregular = HierarchicalTree((3, 5), split_axes=(0, 1))
        with pytest.raises(ValueError, match="outside the tree's domain"):
            irregular.level_usage(random_range_workload((5, 5), 20, rng=0))

    def test_greedy_tree_strategy_rejects_queries_outside_domain(self):
        with pytest.raises(ValueError, match="outside the tree's domain"):
            greedy_tree_strategy(16, prefix_workload(64))
        with pytest.raises(ValueError, match="outside the tree's domain"):
            greedy_tree_strategy((8, 8),
                                 random_range_workload((16, 16), 10, rng=0))


def _pruned(tree):
    """Every other internal level dropped; the leaf levels stay measured."""
    measured = np.ones(tree.n_levels, dtype=bool)
    measured[1::2] = False
    measured[tree.node_levels()[tree.leaf_indices()]] = True
    return measured


class TestUsageOverDistinctQueries:
    """``level_usage`` counts each distinct query once, weighted by how often
    it occurs (``QueryMatrix.distinct``); every count path must apply the
    weights to each of its terms."""

    # One tree per count path: 1-D rank tables (aggregated leaves included),
    # 2-D grid tables, and the walk over an irregular kd tree.
    PATHS = {
        "rank-1d": ((61,), dict(branching=3, max_height=3)),
        "grid-2d": ((13, 9), dict(branching=2, max_height=3)),
        "walk-2d": ((3, 8), dict(branching=2, split_axes=(0, 1))),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_repeated_shuffled_queries_count_k_times(self, path, rng):
        shape, kwargs = self.PATHS[path]
        tree = HierarchicalTree(shape, **kwargs)
        if path == "walk-2d":
            with pytest.raises(IrregularTreeLevels):
                tree._level_tables_2d()
        elif path == "grid-2d":
            tree._level_tables_2d()              # regular: no fallback
        los, his, _ = random_range_workload(shape, 40, rng=rng).operator.distinct()
        distinct = Workload.from_bounds(los, his, shape)
        k = 3
        shuffled = rng.permutation(np.repeat(np.arange(len(los)), k))
        repeated = Workload.from_bounds(los[shuffled], his[shuffled], shape)
        for measured in (None, _pruned(tree)):
            usage = tree.level_usage(repeated, measured)
            np.testing.assert_array_equal(
                usage, k * tree.level_usage(distinct, measured))
            np.testing.assert_array_equal(
                usage, level_usage_reference(tree, repeated, measured))

    def test_uneven_multiplicities_match_oracle(self):
        """DAWA's stage-two input: a prefix workload on a partition, where
        each bucket's query occurs once per cell of the bucket."""
        edges = np.array([0, 1, 4, 5, 11, 12, 30, 31, 64])
        workload = prefix_workload(64).on_partition(edges)
        tree = HierarchicalTree((edges.size - 1,), branching=2)
        np.testing.assert_array_equal(workload.operator.distinct()[2],
                                      np.diff(edges))
        for measured in (None, _pruned(tree)):
            np.testing.assert_array_equal(
                tree.level_usage(workload, measured),
                level_usage_reference(tree, workload, measured))

    def test_corners_a_packed_key_would_merge(self):
        """On 2**40 cells, ``lo * (n + 1) + hi`` wraps around int64 and
        gives these two queries one key; they use different nodes."""
        n = 2 ** 40
        tree = HierarchicalTree((n,), branching=2, max_height=3)
        a, b = (2 ** 39 - 9, n - 2), (2 ** 39 - 9 + 2 ** 37, n - 2 - 2 ** 37)
        los = np.array([a[0], b[0], a[0]])
        his = np.array([a[1], b[1], a[1]])
        packed = los * (n + 1) + his
        assert packed[0] == packed[1]
        workload = Workload.from_bounds(los, his, (n,))
        d_los, d_his, counts = workload.operator.distinct()
        np.testing.assert_array_equal(d_los[:, 0], [a[0], b[0]])
        np.testing.assert_array_equal(d_his[:, 0], [a[1], b[1]])
        np.testing.assert_array_equal(counts, [2, 1])
        usage = tree.level_usage(workload)
        np.testing.assert_array_equal(usage, [0, 0, 2, 9])
        np.testing.assert_array_equal(usage,
                                      level_usage_reference(tree, workload))


class TestOptimalBranching:
    def test_small_domain(self):
        assert optimal_branching(2) == 2

    def test_returns_within_bounds(self):
        for n in (16, 256, 4096, 100_000):
            b = optimal_branching(n)
            assert 2 <= b <= 16

    def test_larger_domain_prefers_larger_branching(self):
        assert optimal_branching(4096) > 2
