"""Tests for the measurement/inference core: MeasurementSet, the generic
sparse GLS solver, its agreement with the tree fast path and with dense
``np.linalg.lstsq``, and the golden-value pins that protect the refactor."""

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import MeasurementSet, solve_gls
from repro.algorithms.dpcube import DPCube
from repro.algorithms.greedy_h import greedy_budget_allocation
from repro.algorithms.hier import tree_plan
from repro.algorithms.tree import HierarchicalTree
from repro.core import gls
from repro.core.plan import measure_plan
from repro.workload import QueryMatrix, prefix_workload, random_range_workload

GOLDEN = Path(__file__).parent / "golden" / "algorithm_outputs.npz"


def _relative_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(1.0, np.abs(a).max()))


def _dense_min_norm(measurements: MeasurementSet) -> np.ndarray:
    """Reference solution: min-norm weighted least squares via dense lstsq."""
    measured = measurements.measured()
    scales = 1.0 / np.sqrt(measured.variances)
    design = measured.queries.to_dense() * scales[:, None]
    solution = np.linalg.lstsq(design, measured.values * scales, rcond=None)[0]
    return solution.reshape(measurements.domain_shape)


def _untagged(measurements: MeasurementSet) -> MeasurementSet:
    """The same measurements without the tree tag: ``solve_gls`` runs LSMR."""
    return dataclasses.replace(measurements, tree=None)


class TestMeasurementSet:
    def test_tree_tag_and_metadata(self):
        tree = HierarchicalTree((8,), branching=2)
        x = np.arange(8, dtype=float)
        mset = measure_plan(x, tree_plan(tree, np.full(tree.n_levels, 0.1)),
                            np.random.default_rng(0))
        assert len(mset) == tree.n_nodes
        assert mset.tree is tree
        assert mset.epsilon_spent == pytest.approx(0.1 * tree.n_levels)
        assert mset.measured_mask.all()
        # A hand-built node measurement set is tagged through the constructor.
        by_hand = MeasurementSet(tree.as_query_matrix(), mset.values,
                                 mset.variances, epsilon_spent=0.4, tree=tree)
        assert by_hand.tree is tree
        assert solve_gls(by_hand).tobytes() == solve_gls(mset).tobytes()

    def test_unmeasured_levels_masked(self):
        tree = HierarchicalTree((8,), branching=2)
        budgets = np.full(tree.n_levels, 0.1)
        budgets[1] = 0.0
        mset = measure_plan(np.arange(8, dtype=float), tree_plan(tree, budgets),
                            np.random.default_rng(0))
        unmeasured = np.flatnonzero(tree.node_levels() == 1)
        assert not mset.measured_mask[unmeasured].any()
        measured = mset.measured()
        assert len(measured) == tree.n_nodes - len(unmeasured)
        assert measured.tree is None            # rows no longer align with nodes

    def test_validation(self):
        queries = QueryMatrix(np.array([[0]]), np.array([[3]]), (4,))
        with pytest.raises(ValueError, match="one value"):
            MeasurementSet(queries, np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="strictly positive"):
            MeasurementSet(queries, np.zeros(1), -np.ones(1))
        with pytest.raises(ValueError, match="strictly positive"):
            # Zero-variance exact measurements would poison the whitened
            # solvers with infinite weights; they must be rejected up front.
            MeasurementSet(queries, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="infinite variance"):
            MeasurementSet(queries, np.array([np.nan]), np.ones(1))

    def test_combined_with(self):
        a = MeasurementSet(QueryMatrix(np.array([[0]]), np.array([[3]]), (4,)),
                           np.array([10.0]), np.array([1.0]), epsilon_spent=0.1)
        b = MeasurementSet(QueryMatrix(np.array([[1]]), np.array([[2]]), (4,)),
                           np.array([4.0]), np.array([2.0]), epsilon_spent=0.2)
        both = a.combined_with(b)
        assert len(both) == 2
        assert both.epsilon_spent == pytest.approx(0.3)
        assert np.allclose(both.queries.matvec(np.ones(4)), [4.0, 2.0])

    def test_residual(self):
        queries = QueryMatrix(np.array([[0], [2]]), np.array([[1], [3]]), (4,))
        mset = MeasurementSet(queries, np.array([5.0, 1.0]), np.ones(2))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(mset.residual(x), [5.0 - 3.0, 1.0 - 7.0])


class TestGLSAgainstDense:
    """Cross-checks of the generic solver against dense np.linalg.lstsq."""

    @pytest.mark.parametrize("seed,branching,n", [
        *(pytest.param(seed, None, None, id=str(seed)) for seed in range(5)),
        # Wide and ragged trees: the tree solve at branching 4, 9 and 16.
        (5, 4, 256), (6, 4, 100), (7, 9, 243), (8, 16, 256), (9, 16, 37),
    ])
    def test_randomized_trees_match_dense(self, seed, branching, n):
        rng = np.random.default_rng(seed)
        if n is None:
            n = int(rng.integers(12, 40))
            branching = int(rng.integers(2, 4))
        tree = HierarchicalTree((n,), branching=branching)
        x = rng.integers(0, 50, size=n).astype(float)
        budgets = rng.uniform(0.05, 0.5, size=tree.n_levels)
        mset = measure_plan(x, tree_plan(tree, budgets), rng)
        dense = _dense_min_norm(mset)
        for measurements in (mset, _untagged(mset)):      # tree solve, LSMR
            assert _relative_diff(dense, solve_gls(measurements)) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_random_measurement_sets_match_dense(self, seed):
        """Arbitrary (non-tree) measurement sets: random ranges with random
        heteroscedastic variances, solved to the min-norm LS solution."""
        rng = np.random.default_rng(100 + seed)
        n = 24
        workload = random_range_workload((n,), n_queries=40, rng=rng)
        operator = workload.operator
        x = rng.integers(0, 30, size=n).astype(float)
        values = operator.matvec(x) + rng.normal(0, 2.0, size=len(workload))
        variances = rng.uniform(0.5, 8.0, size=len(workload))
        mset = MeasurementSet(operator, values, variances)
        assert _relative_diff(_dense_min_norm(mset), solve_gls(mset)) < 1e-8

    def test_empty_measured_set(self):
        queries = QueryMatrix(np.array([[0]]), np.array([[1]]), (2,))
        mset = MeasurementSet(queries, np.array([np.nan]), np.array([np.inf]))
        with pytest.raises(ValueError, match="no measured query"):
            solve_gls(mset)

    def test_solve_gls_takes_only_the_measurements(self):
        assert list(inspect.signature(solve_gls).parameters) == ["measurements"]


class TestTagPicksSolver:
    """The tree tag is the only solver switch: tagged sets take the two-pass
    solve, untagged copies take LSMR, and both land on the dense min-norm
    solution — in 1-D, in 2-D and on 2-D trees with aggregated leaves."""

    @pytest.mark.parametrize("shape,max_height,seed", [
        ((64,), None, 11), ((6, 5), None, 7), ((16, 16), 2, 13)],
        ids=["1d", "2d", "2d-aggregated-leaves"])
    def test_tagged_and_untagged_match_dense(self, monkeypatch, shape, max_height, seed):
        rng = np.random.default_rng(seed)
        tree = HierarchicalTree(shape, branching=2, max_height=max_height)
        if max_height is not None:
            assert np.any(tree.node_sizes()[tree.leaf_indices()] > 1)
        x = rng.integers(0, 40, size=shape).astype(float)
        mset = measure_plan(x, tree_plan(tree, rng.uniform(0.05, 0.5, tree.n_levels)),
                            rng)
        dense = _dense_min_norm(mset)

        def forbidden(measurements):
            raise AssertionError("solve_gls took the solver the tag rules out")

        with monkeypatch.context() as patch:
            patch.setattr(gls, "_solve_lsmr", forbidden)
            tagged = solve_gls(mset)
        with monkeypatch.context() as patch:
            patch.setattr(gls, "_solve_tree", forbidden)
            untagged = solve_gls(_untagged(mset))
        assert _relative_diff(dense, tagged) < 1e-8
        assert _relative_diff(dense, untagged) < 1e-8


class TestGLSReproducesTreeFastPath:
    """The acceptance pin: the generic solver reproduces tree_least_squares
    on the measurements of every hierarchical algorithm."""

    def _assert_generic_matches_tree(self, mset):
        assert mset.tree is not None
        fast = solve_gls(mset)
        assert _relative_diff(fast, solve_gls(_untagged(mset))) < 1e-8

    def test_h_measurements(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 100, size=64).astype(float)
        tree = HierarchicalTree((64,), branching=2)
        mset = measure_plan(x, tree_plan(tree, np.full(tree.n_levels, 0.1)), rng)
        self._assert_generic_matches_tree(mset)

    def test_hb_measurements(self):
        from repro.algorithms.tree import optimal_branching

        rng = np.random.default_rng(1)
        x = rng.integers(0, 100, size=100).astype(float)
        tree = HierarchicalTree((100,), branching=optimal_branching(100))
        mset = measure_plan(x, tree_plan(tree, np.full(tree.n_levels, 0.1)), rng)
        self._assert_generic_matches_tree(mset)

    def test_greedyh_measurements(self):
        """GreedyH's non-uniform allocation, including unmeasured levels."""
        rng = np.random.default_rng(2)
        x = rng.integers(0, 100, size=64).astype(float)
        tree = HierarchicalTree((64,), branching=2)
        usage = tree.level_usage(prefix_workload(64))
        usage[2] = 0.0                          # force an unmeasured level
        budgets = greedy_budget_allocation(usage, 1.0)
        budgets[2] = 0.0
        mset = measure_plan(x, tree_plan(tree, budgets), rng)
        assert not mset.measured_mask.all()
        self._assert_generic_matches_tree(mset)

    def test_quadtree_measurements(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 50, size=(8, 8)).astype(float)
        tree = HierarchicalTree((8, 8), branching=2, max_height=10)
        mset = measure_plan(x, tree_plan(tree, np.full(tree.n_levels, 0.2)), rng)
        self._assert_generic_matches_tree(mset)

    def test_quadtree_aggregated_leaves_singular_system(self):
        """Height-capped quadtree: leaves aggregate cells, the system is
        rank-deficient, and the min-norm LSMR solution must equal the tree
        path's uniform within-leaf expansion."""
        rng = np.random.default_rng(4)
        x = rng.integers(0, 50, size=(16, 16)).astype(float)
        tree = HierarchicalTree((16, 16), branching=2, max_height=2)
        assert np.any(tree.node_sizes()[tree.leaf_indices()] > 1)
        mset = measure_plan(x, tree_plan(tree, np.full(tree.n_levels, 0.3)), rng)
        fast = solve_gls(mset)
        assert _relative_diff(fast, solve_gls(_untagged(mset))) < 1e-8
        assert _relative_diff(fast, _dense_min_norm(mset)) < 1e-8

    def test_dpcube_measurements(self):
        """DPCube's closed-form reconciliation equals the generic GLS solve
        of its cells-plus-partitions measurement set."""
        x = np.random.default_rng(99).integers(0, 40, size=32).astype(float)
        algorithm = DPCube()
        plan, mset = algorithm.plan_and_measure(x, 1.0, rng=5)
        closed_form = algorithm.infer(mset, plan)
        # plan_and_measure consumes the same noise draws as run, so the closed
        # form equals the algorithm's actual output for the same seed.
        assert np.array_equal(closed_form, DPCube().run(x, 1.0, rng=5))
        assert mset.tree is None                            # solve_gls -> LSMR
        assert _relative_diff(closed_form, solve_gls(mset)) < 1e-8
        assert _relative_diff(closed_form, _dense_min_norm(mset)) < 1e-8


class TestGoldenValues:
    """Outputs captured before the measurement/inference refactor.

    The hierarchical algorithms and DPCube must stay *bitwise* identical
    (inference is deterministic post-processing and the noise-draw order is
    preserved); MWEM's incremental answer updates are algebraically exact but
    regroup floating-point sums, so it is pinned to machine precision instead.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return np.load(GOLDEN)

    @pytest.fixture(scope="class")
    def workload_1d(self):
        return prefix_workload(256)

    @pytest.fixture(scope="class")
    def workload_2d(self):
        return random_range_workload((16, 16), n_queries=200, rng=5)

    @pytest.mark.parametrize("name", ["H", "Hb", "GreedyH", "DPCube"])
    def test_1d_bitwise(self, golden, workload_1d, name):
        estimate = repro.make_algorithm(name).run(
            golden["x1"], 0.1, workload=workload_1d, rng=42)
        assert estimate.tobytes() == golden[f"{name}_1d"].tobytes()

    @pytest.mark.parametrize("name", ["Hb", "QuadTree", "DPCube", "HybridTree"])
    def test_2d_bitwise(self, golden, workload_2d, name):
        estimate = repro.make_algorithm(name).run(
            golden["x2"], 0.5, workload=workload_2d, rng=43)
        assert estimate.tobytes() == golden[f"{name}_2d"].tobytes()

    def test_dawa_1d_bitwise(self, golden):
        """DAWA pinned against its pre-refactor output (default-workload
        path: the old stage two always allocated for the bucket prefix
        workload, which is what workload=None still does)."""
        estimate = repro.make_algorithm("DAWA").run(golden["x1"], 0.1, rng=42)
        assert estimate.tobytes() == golden["DAWA_1d"].tobytes()

    def test_dawa_2d_bitwise(self, golden):
        estimate = repro.make_algorithm("DAWA").run(golden["x2"], 0.5, rng=43)
        assert estimate.tobytes() == golden["DAWA_2d"].tobytes()

    def test_mwem_machine_precision(self, golden, workload_1d, workload_2d):
        est_1d = repro.make_algorithm("MWEM").run(
            golden["x1"], 0.1, workload=workload_1d, rng=42)
        np.testing.assert_allclose(est_1d, golden["MWEM_1d"], rtol=1e-12, atol=1e-10)
        est_2d = repro.make_algorithm("MWEM").run(
            golden["x2"], 0.5, workload=workload_2d, rng=43)
        np.testing.assert_allclose(est_2d, golden["MWEM_2d"], rtol=1e-12, atol=1e-10)


class TestMWEMSparseLoop:
    """The vectorised MWEM round loop against a dense-mask reference."""

    @staticmethod
    def _dense_mwem(x, epsilon, workload, rng, rounds, scale):
        """The pre-refactor dense round loop, kept as an executable spec."""
        from repro.algorithms.mechanisms import (as_rng, exponential_mechanism,
                                                 laplace_noise)
        from reference.mwem_dense import multiplicative_weights_update, query_mask

        rng = as_rng(rng)
        estimate = np.full(x.shape, scale / x.size)
        average = np.zeros(x.shape)
        true_answers = workload.evaluate(x)
        eps_round = epsilon / rounds
        for _ in range(rounds):
            approx_answers = workload.evaluate(estimate)
            errors = np.abs(true_answers - approx_answers)
            chosen = exponential_mechanism(errors, eps_round / 2.0,
                                           sensitivity=1.0, rng=rng)
            measured = true_answers[chosen] + float(laplace_noise(2.0 / eps_round, (), rng))
            mask = query_mask(workload[chosen], x.shape)
            estimate = multiplicative_weights_update(estimate, mask, measured, scale)
            average += estimate
        return average / rounds

    @pytest.mark.parametrize("shape,seed", [((128,), 0), ((128,), 1), ((12, 12), 2)])
    def test_matches_dense_reference(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.multinomial(5000, rng.dirichlet(np.ones(int(np.prod(shape))))).reshape(shape)
        x = x.astype(float)
        workload = (prefix_workload(shape[0]) if len(shape) == 1
                    else random_range_workload(shape, n_queries=150, rng=seed))
        rounds = 12
        dense = self._dense_mwem(x, 1.0, workload, 99, rounds, scale=float(x.sum()))
        sparse = repro.MWEM(rounds=rounds).run(x, 1.0, workload=workload,
                                               rng=np.random.default_rng(99))
        np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-9)


class TestDAWAFusion:
    """DAWA emits the shared currency: its bucket-tree measurements, read
    over the cells through the plan's partition, compose with any other
    mechanism's via combined_with + solve_gls."""

    @staticmethod
    def _cell_measurements(x, epsilon, seed):
        from repro.algorithms.dawa import DAWA

        plan, measurements = DAWA().plan_and_measure(x, epsilon, rng=seed)
        return measurements.through_partition(plan.partition)

    @pytest.mark.parametrize("epsilon", [0.4, 0.5, 1.0])
    def test_cell_measurements_account_both_stages(self, epsilon):
        x = np.arange(64, dtype=float) % 7
        cells = self._cell_measurements(x, epsilon, seed=5)
        assert cells.domain_shape == x.shape and cells.tree is None
        assert cells.epsilon_spent == epsilon     # partition + bucket tree

    def test_fusion_with_precise_cell_measurements(self):
        from repro.workload import identity_workload

        rng = np.random.default_rng(0)
        x = rng.integers(0, 40, size=64).astype(float)
        dawa_mset = self._cell_measurements(x, 0.5, seed=1)
        precise = MeasurementSet(identity_workload((64,)).operator,
                                 x.copy(), np.full(64, 1e-6))
        combined = dawa_mset.combined_with(precise)
        assert combined.epsilon_spent == pytest.approx(0.5)
        estimate = solve_gls(combined)
        # near-exact side measurements dominate the weighted solve
        np.testing.assert_allclose(estimate, x, atol=1e-2)

    def test_fusion_with_hierarchical_measurements(self):
        rng = np.random.default_rng(2)
        x = rng.multinomial(4000, rng.dirichlet(np.ones(64))).astype(float)
        dawa_mset = self._cell_measurements(x, 0.4, seed=3)
        tree = HierarchicalTree((64,), branching=2)
        tree_mset = measure_plan(
            x, tree_plan(tree, np.full(tree.n_levels, 0.4 / tree.n_levels)),
            np.random.default_rng(4))
        combined = dawa_mset.combined_with(tree_mset)      # drops the tag
        assert combined.epsilon_spent == pytest.approx(0.8)
        fused = solve_gls(combined)
        alone = solve_gls(dawa_mset)
        assert fused.shape == x.shape and np.all(np.isfinite(fused))
        # pooling two independent 0.4-budget views beats either one alone
        assert np.linalg.norm(fused - x) < np.linalg.norm(alone - x)
