"""Tests for native 2-D workload-aware selection.

Covers the kd/marginal split schedules of :class:`HierarchicalTree`, the
per-level 2-D grid tables and their vectorised rank-query usage counts
(pinned exactly against the per-query recursion in
``tests/reference/level_usage.py``), the greedy 2-D strategy
search, the exact dense-GLS cross-checks of the scoring model, and GreedyW's
native 2-D entry point (the Hilbert-flattened path remains its fallback and
GreedyH/DAWA's prescription).
"""

import numpy as np
import pytest

import repro
from reference.level_usage import canonical_decomposition, level_usage_reference
from repro.algorithms.greedy_h import greedy_budget_allocation
from repro.algorithms.hilbert import flatten_workload, hilbert_ordering_for
from repro.algorithms.tree import HierarchicalTree, IrregularTreeLevels
from repro.workload.builders import random_range_workload
from repro.workload.rangequery import RangeQuery, Workload
from repro.workload.selection import (
    candidate_trees,
    greedy_tree_strategy,
    predicted_workload_variance,
)


def leaf_coverage(tree):
    """How many leaves cover each cell of the domain."""
    lo, hi = tree.node_bounds()
    covered = np.zeros(tree.domain_shape, dtype=int)
    for leaf in tree.leaf_indices():
        covered[lo[leaf, 0]:hi[leaf, 0] + 1, lo[leaf, 1]:hi[leaf, 1] + 1] += 1
    return covered


class TestSplitSchedules:
    """kd-style trees: one axis split per level, alternating."""

    @pytest.mark.parametrize("shape", [(8, 8), (13, 7), (3, 8), (16, 4)])
    @pytest.mark.parametrize("axes", [(0, 1), (1, 0)])
    def test_leaves_partition_domain_into_cells(self, shape, axes):
        tree = HierarchicalTree(shape, branching=2, split_axes=axes)
        assert np.all(leaf_coverage(tree) == 1)
        assert np.all(tree.node_sizes()[tree.leaf_indices()] == 1)

    def test_schedule_respected_on_square_domain(self):
        tree = HierarchicalTree((8, 8), branching=2, split_axes=(0, 1))
        offsets = tree.child_offsets()
        assert offsets[1] - offsets[0] == 2     # one axis split, not four
        lo, hi = tree.node_bounds()
        for child in range(int(offsets[0]) + 1, int(offsets[1]) + 1):
            assert hi[child, 1] - lo[child, 1] == 7     # axis 1 untouched
            assert hi[child, 0] - lo[child, 0] == 3     # axis 0 halved

    def test_exhausted_axis_falls_back(self):
        """Once the scheduled axis is down to single cells the other axis is
        split instead, so the tree still bottoms out at cells."""
        tree = HierarchicalTree((2, 16), branching=2, split_axes=(0, 1))
        assert np.all(tree.node_sizes()[tree.leaf_indices()] == 1)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match="split_axes"):
            HierarchicalTree((8, 8), split_axes=(2,))
        with pytest.raises(ValueError, match="split_axes"):
            HierarchicalTree((8,), split_axes=(1,))

    def test_default_behaviour_unchanged(self):
        """No schedule: every axis splits per level, exactly the historical
        quadtree construction."""
        default = HierarchicalTree((8, 8), branching=2)
        explicit = HierarchicalTree((8, 8), branching=2, split_axes=None)
        for a, b in zip(default.node_bounds(), explicit.node_bounds()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(default.node_levels(),
                                      explicit.node_levels())
        assert default.child_offsets()[1] == 4


def _random_measured(tree, rng):
    leaf_levels = set(tree.node_levels()[tree.leaf_indices()].tolist())
    measured = np.ones(tree.n_levels, dtype=bool)
    for level in range(tree.n_levels):
        if level not in leaf_levels and rng.random() < 0.4:
            measured[level] = False
    return measured


class TestSubsetUsage2D:
    """The vectorised grid-table usage counts against the exact recursion."""

    TREES = [
        dict(branching=2),
        dict(branching=4),
        dict(branching=3),
        dict(branching=2, split_axes=(0, 1)),
        dict(branching=2, split_axes=(1, 0)),
        dict(branching=2, max_height=3),            # aggregated leaves
    ]

    @pytest.mark.parametrize("shape", [(16, 16), (13, 7), (9, 9), (1, 17),
                                       (17, 1), (3, 5), (37, 53)])
    @pytest.mark.parametrize("kwargs", TREES)
    def test_matches_recursion_exactly(self, shape, kwargs):
        rng = np.random.default_rng(hash((shape, str(kwargs))) % 2**32)
        tree = HierarchicalTree(shape, **kwargs)
        workload = random_range_workload(shape, 40, rng=rng)
        for _ in range(4):
            measured = _random_measured(tree, rng)
            fast = tree.level_usage(workload, measured)
            reference = level_usage_reference(tree, workload, measured)
            np.testing.assert_array_equal(fast, reference)

    @pytest.mark.parametrize("kwargs", TREES)
    def test_full_level_usage_matches_recursion(self, kwargs):
        """`level_usage` now rides the same 2-D grid tables."""
        tree = HierarchicalTree((16, 16), **kwargs)
        workload = random_range_workload((16, 16), 60, rng=7)
        np.testing.assert_array_equal(
            tree.level_usage(workload),
            level_usage_reference(tree, workload))

    def test_irregular_levels_fall_back_to_recursion(self):
        """Ragged kd trees can break the grid-product level structure; the
        tables refuse and the usage count walks the node arrays instead."""
        tree = HierarchicalTree((3, 8), branching=2, split_axes=(0, 1))
        with pytest.raises(IrregularTreeLevels):
            tree._level_tables_2d()
        workload = random_range_workload((3, 8), 30, rng=1)
        measured = np.ones(tree.n_levels, dtype=bool)
        np.testing.assert_array_equal(
            tree.level_usage(workload, measured),
            level_usage_reference(tree, workload, measured))

    def test_leaf_level_must_stay_measured(self):
        tree = HierarchicalTree((8, 8), branching=2)
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[-1] = False
        with pytest.raises(ValueError, match="leaf level"):
            tree.level_usage(random_range_workload((8, 8), 5, rng=0),
                             measured)

    def test_dropped_level_reroutes_to_children(self):
        tree = HierarchicalTree((8, 8), branching=2)
        # the whole top-left quadrant: answered by one level-1 node
        workload = Workload([RangeQuery((0, 0), (3, 3))], (8, 8), name="q")
        full = tree.level_usage(workload)
        assert full[1] == 1
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[1] = False
        dropped = tree.level_usage(workload, measured)
        assert dropped[1] == 0
        assert dropped[2] == 4                  # its four level-2 children


class TestGreedyStrategy2D:
    def test_candidate_set_includes_kd_trees(self):
        trees = candidate_trees((16, 16), (2, 4))
        schedules = [t.split_axes for t in trees]
        assert schedules.count(None) == 2
        assert (0, 1) in schedules and (1, 0) in schedules

    def test_never_worse_than_full_quadtree(self):
        workload = random_range_workload((16, 16), 100, rng=2)
        strategy = greedy_tree_strategy((16, 16), workload, branchings=(2,))
        quadtree = HierarchicalTree((16, 16), branching=2)
        full_score = predicted_workload_variance(quadtree.level_usage(workload))
        assert strategy.score <= full_score

    def test_deterministic(self):
        workload = random_range_workload((16, 16), 80, rng=4)
        a = greedy_tree_strategy((16, 16), workload)
        b = greedy_tree_strategy((16, 16), workload)
        assert a.tree.branching == b.tree.branching
        assert a.tree.split_axes == b.tree.split_axes
        np.testing.assert_array_equal(a.measured, b.measured)
        assert a.score == b.score

    def test_1d_signature_still_accepts_plain_size(self):
        workload = repro.prefix_workload(64)
        by_int = greedy_tree_strategy(64, workload, branchings=(2, 4))
        by_shape = greedy_tree_strategy((64,), workload, branchings=(2, 4))
        assert by_int.score == by_shape.score

    def test_model_variance_matches_dense_decomposition(self):
        """The scoring model `sum_l usage_l * 2 / eps_l**2` equals the
        canonical-decomposition estimator variance accumulated node by node
        through an independent dense walk, to 1e-8."""
        rng = np.random.default_rng(11)
        workload = random_range_workload((12, 12), 50, rng=rng)
        for kwargs in [dict(branching=2), dict(branching=2, split_axes=(0, 1))]:
            tree = HierarchicalTree((12, 12), **kwargs)
            measured = _random_measured(tree, rng)
            usage = tree.level_usage(workload, measured)
            eps_levels = greedy_budget_allocation(usage, 1.0)
            eps_levels[~measured] = 0.0
            # model: per-level usage times per-level Laplace variance
            level_variance = np.zeros(tree.n_levels)
            level_variance[eps_levels > 0] = 2.0 / eps_levels[eps_levels > 0] ** 2
            model = float(np.sum(usage * level_variance))
            # dense walk: decompose every query over the measured levels and
            # accumulate each used node's variance
            levels = tree.node_levels()
            dense = 0.0
            for query in workload:
                for node in canonical_decomposition(tree, query.lo, query.hi,
                                                    measured):
                    dense += 2.0 / eps_levels[levels[node]] ** 2
            assert abs(model - dense) <= 1e-8 * max(1.0, abs(dense))

    def test_native_selection_beats_hilbert_span_in_exact_gls_variance(self):
        """On a small 2-D domain the exact dense GLS workload variance of the
        natively selected strategy is lower than both the Hilbert-span-
        selected strategy's (the retired GreedyW 2-D path) and the full
        quadtree with GreedyH-style allocation — the model's ranking is
        real, not an artefact of the proxy."""
        n = 16
        workload = random_range_workload((n, n), 150, rng=3)
        w_dense = workload.operator.to_dense()

        def exact_variance(design, eps_rows):
            mask = eps_rows > 0
            weighted = design[mask] * (eps_rows[mask] ** 2 / 2.0)[:, None]
            covariance = np.linalg.pinv(design[mask].T @ weighted)
            return float(np.einsum("qi,ij,qj->", w_dense, covariance, w_dense))

        strategy = greedy_tree_strategy((n, n), workload)
        eps = greedy_budget_allocation(strategy.usage, 1.0)
        levels = strategy.tree.node_levels()
        native = exact_variance(strategy.tree.as_query_matrix().to_dense(),
                                eps[levels])

        ordering = hilbert_ordering_for((n, n))
        flat = flatten_workload(workload, ordering, (n, n))
        flat_strategy = greedy_tree_strategy(n * n, flat)
        flat_eps = greedy_budget_allocation(flat_strategy.usage, 1.0)
        flat_levels = flat_strategy.tree.node_levels()
        flat_lo, flat_hi = flat_strategy.tree.node_bounds()
        rows = np.zeros((flat_strategy.tree.n_nodes, n * n))
        for k in range(flat_strategy.tree.n_nodes):
            rows[k, ordering[flat_lo[k, 0]: flat_hi[k, 0] + 1]] = 1.0
        hilbert = exact_variance(rows, flat_eps[flat_levels])

        quadtree = HierarchicalTree((n, n), branching=2)
        quad_eps = greedy_budget_allocation(quadtree.level_usage(workload), 1.0)
        quad_levels = quadtree.node_levels()
        full = exact_variance(quadtree.as_query_matrix().to_dense(),
                              quad_eps[quad_levels])

        assert native < hilbert
        assert native < full


class TestGreedyWNative2D:
    @pytest.fixture(scope="class")
    def data_2d(self):
        rng = np.random.default_rng(8)
        x = rng.multinomial(20_000, rng.dirichlet(np.ones(256))) \
            .astype(float).reshape(16, 16)
        return x, random_range_workload((16, 16), 120, rng=rng)

    def test_native_plan_is_tree_tagged_2d(self, data_2d):
        x, workload = data_2d
        algorithm = repro.make_algorithm("GreedyW")
        plan, mset = algorithm.plan_and_measure(x, 0.5, rng=1,
                                                workload=workload)
        assert plan.tree is not None
        assert plan.tree.domain_shape == (16, 16)
        assert plan.ordering is None            # no Hilbert flattening
        assert mset.epsilon_spent == pytest.approx(0.5)
        estimate = algorithm.infer(mset, plan)
        assert estimate.shape == x.shape and np.isfinite(estimate).all()

    def test_native_switch_off_restores_hilbert_path(self, data_2d):
        x, workload = data_2d
        plan, _ = repro.make_algorithm("GreedyW", native_2d=False) \
            .plan_and_measure(x, 0.5, rng=1, workload=workload)
        assert plan.tree.domain_shape == (256,)
        assert plan.ordering is not None

    def test_missing_or_mismatched_workload_falls_back(self, data_2d):
        x, _ = data_2d
        algorithm = repro.make_algorithm("GreedyW")
        for workload in (None, random_range_workload((8, 8), 20, rng=0),
                         repro.prefix_workload(64)):
            plan, _ = algorithm.plan_and_measure(x, 0.5, rng=2,
                                                 workload=workload)
            assert plan.tree.domain_shape == (256,)   # flattened fallback
            estimate = algorithm.run(x, 0.5, workload=workload, rng=2)
            assert estimate.shape == x.shape and np.isfinite(estimate).all()

    def test_native_beats_hilbert_variant_on_benchmark_workload(self):
        """A miniature of the CI-gated bench: on a 32x32 random-range
        workload at fixed epsilon, the native selection achieves lower mean
        scaled error than the span-based variant it replaces."""
        n = 32
        workload = random_range_workload((n, n), 400, rng=20160626)
        rng = np.random.default_rng(9)
        x = rng.multinomial(200_000, rng.dirichlet(np.ones(n * n))) \
            .astype(float).reshape(n, n)
        truth = workload.evaluate(x)

        def mean_error(algorithm):
            errors = []
            for trial in range(6):
                estimate = algorithm.run(x, 0.1, workload=workload,
                                         rng=300 + trial)
                errors.append(repro.scaled_average_per_query_error(
                    truth, workload.evaluate(estimate), 200_000))
            return float(np.mean(errors))

        native = mean_error(repro.make_algorithm("GreedyW"))
        spans = mean_error(repro.make_algorithm("GreedyW", native_2d=False))
        assert native < spans
