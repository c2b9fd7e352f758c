"""Tests for the Select -> Measure -> Reconstruct plan pipeline.

Covers the pipeline currency itself (MeasurementPlan, the shared noise stage,
the reconstruction closed forms), the registry-wide privacy-budget accounting
property, the registry-wide release-is-post-processing property, the
registry-wide rejection of a non-finite epsilon, and the GreedyW
workload-aware selection.
"""

import numpy as np
import pytest

import repro
from repro import (
    ALGORITHM_REGISTRY,
    BenchmarkGrid,
    ReleaseService,
    SideInformationRepair,
    benchmark_1d,
)
from repro.algorithms.base import PlanAlgorithm, validate_input
from repro.algorithms.greedy_h import greedy_budget_allocation
from repro.algorithms.mechanisms import BudgetExceededError, PrivacyBudget, as_rng
from repro.algorithms.tree import HierarchicalTree
from repro.core.plan import MeasurementPlan, measure_plan, reconstruct
from repro.workload import QueryMatrix, prefix_workload, random_range_workload
from repro.workload.rangequery import RangeQuery, Workload
from repro.workload.selection import (
    greedy_tree_strategy,
    predicted_workload_variance,
)

PLAN_NAMES = sorted(name for name, cls in ALGORITHM_REGISTRY.items()
                    if issubclass(cls, PlanAlgorithm))
PLAN_NAMES_1D = [n for n in PLAN_NAMES
                 if 1 in ALGORITHM_REGISTRY[n].properties.supported_dims]
PLAN_NAMES_2D = [n for n in PLAN_NAMES
                 if 2 in ALGORITHM_REGISTRY[n].properties.supported_dims]
#: Every registry entry in every dimension it supports, plus the scale repair
#: wrapped around SF, the side-information algorithm it serves.
BUDGET_CASES = [(name, ndim) for name, cls in sorted(ALGORITHM_REGISTRY.items())
                for ndim in cls.properties.supported_dims] \
    + [("SF+noisy-scale", 1)]


def _make(name):
    inner, repaired, _ = name.partition("+noisy-scale")
    algorithm = repro.make_algorithm(inner)
    return SideInformationRepair(algorithm) if repaired else algorithm


@pytest.fixture(scope="module")
def data_1d():
    rng = np.random.default_rng(3)
    x = rng.multinomial(6000, rng.dirichlet(np.ones(64))).astype(float)
    return x, prefix_workload(64)


@pytest.fixture(scope="module")
def data_2d():
    rng = np.random.default_rng(4)
    x = rng.multinomial(6000, rng.dirichlet(np.ones(64))).astype(float).reshape(8, 8)
    return x, random_range_workload((8, 8), 60, rng=rng)


class TestMeasurementPlan:
    def test_validation(self):
        queries = QueryMatrix(np.array([[0]]), np.array([[3]]), (4,))
        with pytest.raises(ValueError, match="one epsilon share"):
            MeasurementPlan(queries, np.ones(2), (4,))
        with pytest.raises(ValueError, match="come together"):
            MeasurementPlan(queries, np.ones(1), (4,), values=np.ones(1))
        with pytest.raises(ValueError, match="both pre-measured and budgeted"):
            MeasurementPlan(queries, np.ones(1), (4,),
                            values=np.ones(1), variances=np.ones(1))

    @pytest.mark.parametrize("edges", [[0, 3, 3, 8],     # zero-width bucket
                                       [2, 5, 8],        # does not start at 0
                                       [0, 5, 3, 8],     # decreasing
                                       [0, 5, 7]])       # stops short of 8
    def test_malformed_partition_rejected_before_any_spend(self, edges):
        """A plan whose buckets cannot be measured or expanded is refused at
        construction: no budget spent, no noise drawn."""
        n_buckets = len(edges) - 1
        buckets = np.arange(n_buckets)[:, None]
        budget = PrivacyBudget(1.0)
        rng = np.random.default_rng(0)  # privlint: disable=PL001
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="strictly increasing"):
            plan = MeasurementPlan(QueryMatrix(buckets, buckets, (n_buckets,)),
                                   np.full(n_buckets, 1.0), (8,),
                                   partition=np.array(edges))
            measure_plan(np.arange(8.0), plan, rng, budget)
        assert budget.spent == 0.0
        assert rng.bit_generator.state == state

    def test_epsilon_required_parallel_composition(self):
        # Two disjoint queries at eps each cost eps; two overlapping cost 2 eps.
        disjoint = MeasurementPlan(
            QueryMatrix(np.array([[0], [2]]), np.array([[1], [3]]), (4,)),
            np.array([0.5, 0.5]), (4,))
        assert disjoint.epsilon_required() == pytest.approx(0.5)
        overlapping = MeasurementPlan(
            QueryMatrix(np.array([[0], [1]]), np.array([[2], [3]]), (4,)),
            np.array([0.5, 0.5]), (4,))
        assert overlapping.epsilon_required() == pytest.approx(1.0)

    def test_measure_plan_draws_match_scalar_loop(self):
        """The vectorised noise draw consumes the stream exactly like the
        historical per-query scalar draws."""
        queries = QueryMatrix(np.zeros((3, 1), dtype=np.intp),
                              np.full((3, 1), 3, dtype=np.intp), (4,))
        plan = MeasurementPlan(queries, np.array([0.5, 0.0, 0.25]), (4,))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        mset = measure_plan(x, plan, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        expected0 = 10.0 + float(rng.laplace(0.0, 1.0 / 0.5))
        expected2 = 10.0 + float(rng.laplace(0.0, 1.0 / 0.25))
        assert mset.values[0] == expected0
        assert np.isnan(mset.values[1]) and np.isinf(mset.variances[1])
        assert mset.values[2] == expected2

    def test_measure_plan_meters_budget(self):
        queries = QueryMatrix(np.array([[0]]), np.array([[3]]), (4,))
        plan = MeasurementPlan(queries, np.array([1.0]), (4,))
        budget = PrivacyBudget(1.0)
        mset = measure_plan(np.ones(4), plan, np.random.default_rng(0), budget)
        assert budget.spent == pytest.approx(1.0)
        assert mset.epsilon_spent == pytest.approx(1.0)
        with pytest.raises(BudgetExceededError):
            measure_plan(np.ones(4), plan, np.random.default_rng(0), budget)

    def test_disjoint_reconstruction_is_exact_gls(self):
        """The direct-scatter closed form equals dense min-norm lstsq."""
        rng = np.random.default_rng(5)
        queries = QueryMatrix(np.array([[0], [4], [9]]),
                              np.array([[3], [7], [11]]), (12,))
        plan = MeasurementPlan(queries, np.full(3, 0.4), (12,))
        mset = measure_plan(rng.integers(0, 20, 12).astype(float), plan, rng)
        estimate = reconstruct(plan, mset)
        design = mset.queries.to_dense() / np.sqrt(mset.variances)[:, None]
        dense = np.linalg.lstsq(design, mset.values / np.sqrt(mset.variances),
                                rcond=None)[0]
        np.testing.assert_allclose(estimate, dense, atol=1e-10)

    def test_partition_and_ordering_inverted(self):
        # Bucket measurements over a permuted domain expand and unpermute.
        ordering = np.array([3, 0, 2, 1], dtype=np.intp)
        queries = QueryMatrix(np.array([[0], [1]]), np.array([[0], [1]]), (2,))
        plan = MeasurementPlan(queries, np.full(2, 1e9), (4,),
                               ordering=ordering,
                               partition=np.array([0, 2, 4]))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # vector = x[ordering] = [4, 1, 3, 2]; buckets sum to 5 and 5.
        mset = measure_plan(x, plan, np.random.default_rng(0))
        np.testing.assert_allclose(mset.values, [5.0, 5.0], atol=1e-5)
        estimate = reconstruct(plan, mset)
        # each cell gets its bucket mean, read back through the ordering
        np.testing.assert_allclose(estimate, [2.5, 2.5, 2.5, 2.5], atol=1e-5)


class TestRegistryBudgetAccounting:
    """Every algorithm charges its whole budget to the one PrivacyBudget
    ``Algorithm.run`` hands it, and overdraw raises BudgetExceededError
    before any noise is drawn."""

    @pytest.mark.parametrize("name,ndim", BUDGET_CASES)
    def test_run_spends_whole_budget(self, name, ndim, data_1d, data_2d):
        x, workload = data_1d if ndim == 1 else data_2d
        budget = PrivacyBudget(0.7)
        _make(name)._run(x.copy(), budget, workload, as_rng(11))
        assert budget.spent == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("name,ndim", BUDGET_CASES)
    def test_exhausted_budget_raises_before_any_draw(self, name, ndim,
                                                      data_1d, data_2d):
        x, workload = data_1d if ndim == 1 else data_2d
        budget = PrivacyBudget(0.7)
        budget.spend_all()
        rng = as_rng(13)
        state = rng.bit_generator.state
        with pytest.raises(BudgetExceededError):
            _make(name)._run(x.copy(), budget, workload, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("name,params", [
        ("DAWA", {"rho": 1.0}), ("DPCube", {"rho": 1.0}),
        ("AHP", {"rho": 1.0}), ("PHP", {"rho": 1.0}),
        ("SF", {"rho": 1.0}),
    ])
    def test_selection_consuming_whole_budget_raises(self, name, params, data_1d):
        """A selection stage that leaves nothing for the noise stage raises
        instead of silently releasing garbage (regression: SF with rho=1.0
        used to return all-NaN)."""
        x, workload = data_1d
        with pytest.raises((BudgetExceededError, ValueError)):
            repro.make_algorithm(name, **params).run(
                x, 1.0, workload=workload, rng=0)

    @pytest.mark.parametrize("name", PLAN_NAMES_1D)
    def test_overdrawn_plan_raises(self, name, data_1d):
        """Inflating a plan's budget shares past the remaining budget must
        raise before any noise is drawn."""
        x, workload = data_1d
        algorithm = repro.make_algorithm(name)
        budget = PrivacyBudget(0.7)
        rng = np.random.default_rng(13)
        plan = algorithm.select(x, workload, budget, rng)
        assert budget.spent + plan.epsilon_required() == pytest.approx(0.7)
        if plan.epsilon_required() == 0:        # fully pre-measured (MWEM)
            pytest.skip("selection measures everything itself")
        plan.epsilons = plan.epsilons * 1.5
        if plan.epsilon_measure is not None:
            plan.epsilon_measure = plan.epsilon_measure * 1.5
        with pytest.raises(BudgetExceededError):
            measure_plan(x, plan, rng, budget=budget)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_epsilon_outside_open_interval_rejected(epsilon, data_1d, data_2d):
    """Regression: the ``epsilon <= 0`` checks let NaN through, and H, Hb,
    GreedyH and QuadTree then released all zeros without drawing noise (SF
    released all-NaN at inf).  Every registry entry, the budget, the
    release service and the benchmark grid now require 0 < epsilon < inf,
    and reject it before touching the generator."""
    for name, ndim in BUDGET_CASES:
        x, workload = data_1d if ndim == 1 else data_2d
        rng = as_rng(17)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="epsilon"):
            _make(name).run(x, epsilon, workload=workload, rng=rng)
        assert rng.bit_generator.state == state, name
    with pytest.raises(ValueError, match="epsilon"):
        PrivacyBudget(epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        ReleaseService("Identity", epsilon)
    rng = as_rng(17)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="epsilon"):
        ReleaseService("Identity", 1.0).release(data_1d[0], rng=rng, epsilon=epsilon)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="epsilon"):
        BenchmarkGrid(scales=[100], domain_shapes=[(8,)], epsilons=[0.1, epsilon])


class TestReleaseIsPostProcessing:
    """Satellite: for every plan algorithm the released estimate is
    reproducible from its plan and MeasurementSet alone (extends the PR 3
    DAWA privacy regression to the whole suite)."""

    @pytest.mark.parametrize("name", PLAN_NAMES_1D)
    def test_release_reproducible_1d(self, name, data_1d):
        x, workload = data_1d
        release = repro.make_algorithm(name).run(
            x, 0.5, workload=workload, rng=np.random.default_rng(21))
        plan, mset = repro.make_algorithm(name).plan_and_measure(
            x, 0.5, rng=np.random.default_rng(21), workload=workload)
        assert mset.epsilon_spent == pytest.approx(0.5)
        plan.extras.pop("estimate", None)       # force MWEM's genuine replay
        rebuilt = repro.make_algorithm(name).infer(mset, plan)
        assert np.array_equal(np.asarray(rebuilt), release)

    @pytest.mark.parametrize("name", PLAN_NAMES_2D)
    def test_release_reproducible_2d(self, name, data_2d):
        x, workload = data_2d
        release = repro.make_algorithm(name).run(
            x, 0.5, workload=workload, rng=np.random.default_rng(22))
        plan, mset = repro.make_algorithm(name).plan_and_measure(
            x, 0.5, rng=np.random.default_rng(22), workload=workload)
        assert mset.epsilon_spent == pytest.approx(0.5)
        plan.extras.pop("estimate", None)
        rebuilt = repro.make_algorithm(name).infer(mset, plan)
        assert np.array_equal(np.asarray(rebuilt), release)

    @pytest.mark.parametrize("name", PLAN_NAMES_1D)
    def test_measurements_are_noisy(self, name, data_1d):
        """The measurement values differ from the true answers — nothing
        unnoised reaches the measurement set."""
        x, workload = data_1d
        plan, mset = repro.make_algorithm(name).plan_and_measure(
            x, 0.5, rng=np.random.default_rng(23), workload=workload)
        mask = mset.measured_mask
        assert mask.any()
        truth = mset.queries.matvec(plan.measurement_vector(x))
        residual = mset.values[mask] - truth[mask]
        assert not np.allclose(residual, 0.0)


class TestValidateInputCopies:
    """Satellite: the double copy in validate_input is gone — the result
    never aliases the input and float inputs are copied exactly once."""

    def test_float_input_copied_not_aliased(self):
        x = np.arange(6, dtype=float)
        out = validate_input(x, 1.0, (1,))
        assert not np.shares_memory(out, x)
        out[0] = 99.0
        assert x[0] == 0.0

    def test_non_float_input_converted_without_second_copy(self):
        x = np.arange(6)
        out = validate_input(x, 1.0, (1,))
        assert out.dtype == float
        assert not np.shares_memory(out, x)
        # the conversion product is returned directly: a fresh base array,
        # not a copy of a copy
        assert out.base is None

    def test_view_input_not_aliased(self):
        backing = np.arange(12, dtype=float)
        view = backing[2:8]
        out = validate_input(view, 1.0, (1,))
        assert not np.shares_memory(out, backing)

    def test_list_input_accepted(self):
        out = validate_input([1.0, 2.0, 3.0], 1.0, (1,))
        assert out.dtype == float and out.shape == (3,)


class TestGreedyWSelection:
    def _skewed_workload(self, n=128, seed=0):
        rng = np.random.default_rng(seed)
        queries = [RangeQuery((int(i),), (int(i),))
                   for i in rng.integers(0, n, 300)]
        for _ in range(40):
            length = int(rng.integers(n // 8, n // 3))
            lo = int(rng.integers(0, n - length))
            queries.append(RangeQuery((lo,), (lo + length - 1,)))
        return Workload(queries, (n,), name="skewed")

    def test_subset_usage_matches_full_usage(self):
        workload = self._skewed_workload()
        for branching in (2, 3, 4):
            tree = HierarchicalTree((128,), branching=branching)
            full = tree.level_usage(workload)
            subset = tree.level_usage(workload,
                                      np.ones(tree.n_levels, dtype=bool))
            np.testing.assert_array_equal(subset, full)

    def test_subset_usage_reroutes_dropped_levels(self):
        tree = HierarchicalTree((16,), branching=2)
        workload = Workload([RangeQuery((0,), (7,))], (16,), name="half")
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[1] = False                      # the level that answers [0,7]
        usage = tree.level_usage(workload, measured)
        assert usage[1] == 0
        # the query reroutes to its two level-2 children
        assert usage[2] == 2

    def test_leaf_level_must_stay_measured(self):
        tree = HierarchicalTree((16,), branching=2)
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[-1] = False
        with pytest.raises(ValueError, match="leaf level"):
            tree.level_usage(prefix_workload(16), measured)

    def test_greedy_strategy_never_worse_than_full_binary_tree(self):
        workload = self._skewed_workload()
        strategy = greedy_tree_strategy(128, workload, branchings=(2,))
        tree = HierarchicalTree((128,), branching=2)
        full_score = predicted_workload_variance(tree.level_usage(workload))
        assert strategy.score <= full_score

    def test_selection_beats_greedyh_in_exact_gls_variance(self):
        """On a small domain, the exact GLS workload variance of GreedyW's
        chosen strategy is lower than GreedyH's full binary hierarchy —
        the model's ranking is real, not an artefact of the proxy."""
        n = 32
        workload = self._skewed_workload(n=n, seed=1)

        def exact_variance(tree, level_epsilons):
            levels = tree.node_levels()
            eps = np.asarray(level_epsilons)[levels]
            measured = eps > 0
            design = tree.as_query_matrix().to_dense()[measured]
            weights = eps[measured] ** 2 / 2.0     # 1 / variance
            normal = design.T @ (design * weights[:, None])
            covariance = np.linalg.pinv(normal)
            w_matrix = workload.operator.to_dense()
            return float(np.einsum("qi,ij,qj->", w_matrix, covariance, w_matrix))

        greedyh_tree = HierarchicalTree((n,), branching=2)
        greedyh_eps = greedy_budget_allocation(
            greedyh_tree.level_usage(workload), 1.0)
        strategy = greedy_tree_strategy(n, workload)
        greedyw_eps = greedy_budget_allocation(strategy.usage, 1.0)
        assert exact_variance(strategy.tree, greedyw_eps) < \
            exact_variance(greedyh_tree, greedyh_eps)

    def test_greedyw_runs_in_benchmark_grid(self):
        bench = benchmark_1d(datasets=["ADULT"], algorithms=["GreedyW"],
                             scales=[1_000], domain_shapes=[(64,)],
                             n_data_samples=1, n_trials=2)
        results = bench.run(rng=5)
        assert len(results) == 1
        assert not results.records[0].failed
        assert results.records[0].errors.size == 2

    def test_greedyw_2d_shape(self, data_2d):
        x, workload = data_2d
        estimate = repro.make_algorithm("GreedyW").run(
            x, 0.5, workload=workload, rng=0)
        assert estimate.shape == x.shape and np.isfinite(estimate).all()


class TestDisjointEstimate2D:
    """The vectorised 2-D disjoint scatter must reproduce the historical
    per-rectangle slice-assignment loop bit-for-bit."""

    @staticmethod
    def _reference_loop(measured):
        queries = measured.queries
        per_cell = measured.values / queries.query_sizes()
        estimate = np.zeros(queries.domain_shape)
        for value, lo, hi in zip(per_cell, queries.los, queries.his):
            estimate[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1] = value
        return estimate

    @staticmethod
    def _random_disjoint_rectangles(rng, shape):
        """A random grid partition of the domain: guaranteed disjoint."""
        rows = np.sort(rng.choice(np.arange(1, shape[0]), size=3, replace=False))
        cols = np.sort(rng.choice(np.arange(1, shape[1]), size=4, replace=False))
        row_edges = np.concatenate([[0], rows, [shape[0]]])
        col_edges = np.concatenate([[0], cols, [shape[1]]])
        los, his = [], []
        for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
            for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
                los.append((r0, c0))
                his.append((r1 - 1, c1 - 1))
        return np.array(los), np.array(his)

    def test_bitwise_identical_to_slice_loop(self):
        from repro.core.measurement import MeasurementSet
        from repro.core.plan import _disjoint_estimate

        for trial in range(10):
            rng = np.random.default_rng(200 + trial)
            shape = (int(rng.integers(6, 20)), int(rng.integers(7, 25)))
            los, his = self._random_disjoint_rectangles(rng, shape)
            # drop a few blocks so uncovered cells stay at the min-norm zero
            keep = rng.random(len(los)) < 0.8
            keep[0] = True
            queries = QueryMatrix(los[keep], his[keep], shape)
            measured = MeasurementSet(
                queries=queries,
                values=rng.normal(0.0, 100.0, queries.n_queries),
                variances=np.full(queries.n_queries, 2.0),
            )
            fast = _disjoint_estimate(measured)
            assert fast.tobytes() == self._reference_loop(measured).tobytes()

    def test_single_cell_queries_exact_scatter(self):
        from repro.core.measurement import MeasurementSet
        from repro.core.plan import _disjoint_estimate

        rng = np.random.default_rng(3)
        shape = (5, 6)
        cells = np.array([(r, c) for r in range(5) for c in range(6)])
        queries = QueryMatrix(cells, cells, shape)
        values = rng.normal(0.0, 10.0, len(cells))
        measured = MeasurementSet(queries=queries, values=values,
                                  variances=np.ones(len(cells)))
        assert _disjoint_estimate(measured).ravel().tobytes() == values.tobytes()
