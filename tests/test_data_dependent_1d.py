"""Behavioural tests for the 1-D data-dependent algorithms
(MWEM/MWEM*, AHP/AHP*, DAWA, PHP, EFPA, SF, DPCube)."""

import numpy as np
import pytest

from repro import (
    AHP,
    AHPStar,
    DAWA,
    DPCube,
    EFPA,
    Identity,
    MWEM,
    MWEMStar,
    PHP,
    StructureFirst,
    prefix_workload,
    scaled_average_per_query_error,
)
from repro.algorithms.ahp import greedy_value_clustering
from repro.algorithms.dawa import l1_partition
from repro.algorithms.mechanisms import as_rng
from repro.algorithms.mwem import default_mwem_rounds
from reference.mwem_dense import multiplicative_weights_update


def _mean_error(algorithm, x, workload, epsilon, trials=6, seed=0):
    truth = workload.evaluate(x)
    errors = []
    for t in range(trials):
        estimate = algorithm.run(x, epsilon, workload=workload, rng=seed + t)
        errors.append(scaled_average_per_query_error(truth, workload.evaluate(estimate), x.sum()))
    return float(np.mean(errors))


@pytest.fixture(scope="module")
def piecewise_uniform():
    """A shape that partitioning algorithms should exploit: two flat regions."""
    x = np.concatenate([np.full(64, 200.0), np.full(64, 2.0)])
    return x, prefix_workload(128)


@pytest.fixture(scope="module")
def sparse_small_scale():
    """Small-scale sparse data: the regime where data dependence wins."""
    rng = np.random.default_rng(9)
    shape = np.zeros(256)
    shape[rng.choice(256, 10, replace=False)] = rng.random(10)
    shape /= shape.sum()
    x = rng.multinomial(1000, shape).astype(float)
    return x, prefix_workload(256)


class TestMWEM:
    def test_rounds_rule_monotone_and_bounded(self):
        products = [10, 1e3, 1e5, 1e7, 1e9]
        rounds = [default_mwem_rounds(p) for p in products]
        assert rounds == sorted(rounds)
        assert all(2 <= r <= 100 for r in rounds)

    def test_rounds_rule_matches_paper_extremes(self):
        assert default_mwem_rounds(1e2) == 2          # smallest scale regime
        assert default_mwem_rounds(1e8) >= 80         # largest scale regime

    def test_mw_update_moves_toward_measurement(self):
        estimate = np.full(8, 10.0)
        mask = np.zeros(8)
        mask[:4] = 1.0
        updated = multiplicative_weights_update(estimate, mask, measured_answer=60.0, total=80.0)
        assert updated[:4].sum() > estimate[:4].sum()
        assert updated.sum() == pytest.approx(80.0)

    def test_mw_update_preserves_total(self):
        rng = np.random.default_rng(0)
        estimate = rng.random(16) * 5
        total = estimate.sum()
        mask = np.zeros(16)
        mask[3:9] = 1
        updated = multiplicative_weights_update(estimate, mask, 12.0, total)
        assert updated.sum() == pytest.approx(total)

    def test_estimate_total_close_to_scale(self, sparse_small_scale):
        x, workload = sparse_small_scale
        estimate = MWEM().run(x, 1.0, workload=workload, rng=0)
        assert estimate.sum() == pytest.approx(x.sum(), rel=0.05)

    def test_beats_uniform_start_on_sparse_data(self, sparse_small_scale):
        x, workload = sparse_small_scale
        uniform_start = np.full(x.shape, x.sum() / x.size)
        truth = workload.evaluate(x)
        start_error = scaled_average_per_query_error(truth, workload.evaluate(uniform_start), x.sum())
        assert _mean_error(MWEM(), x, workload, 1.0) < start_error

    def test_star_variant_does_not_use_exact_scale(self, sparse_small_scale):
        # MWEM* spends budget on a noisy scale; with a tiny budget the noisy
        # scale should differ from the true scale (checks the repair wiring).
        x, workload = sparse_small_scale
        estimate = MWEMStar(scale_budget_fraction=0.5).run(x, 0.01, workload=workload, rng=3)
        assert estimate.sum() != pytest.approx(x.sum(), abs=1e-6)

    def test_star_rounds_override(self):
        algorithm = MWEMStar(rounds=7)
        assert algorithm._resolve_rounds(0.1, 1e6) == 7

    @staticmethod
    def _overflowing_release():
        """The one input known to drive ``_mwem_rounds`` into its ``norm``
        refold: its iterates overflow at this tiny epsilon."""
        x = as_rng(1).poisson(2, 64).astype(float)
        plan, measurements = MWEM().plan_and_measure(x, 1e-3, rng=0)
        return MWEM().run(x, 1e-3, rng=0), plan, measurements

    def test_overflowing_run_replays_bit_for_bit(self):
        release, plan, measurements = self._overflowing_release()
        assert MWEM.replay(measurements, plan).tobytes() == release.tobytes()

    @pytest.mark.xfail(strict=True, reason="MWEM's lazy iterate averaging "
                       "cancels terms near 1e100 (ROADMAP item 1): 33 cells "
                       "come out negative, down to -2.6e107")
    def test_overflowing_release_is_finite_and_non_negative(self):
        release, _, _ = self._overflowing_release()
        assert np.isfinite(release).all()
        assert release.min() >= 0.0


class TestAHP:
    def test_clustering_groups_equal_values(self):
        values = np.array([0.0, 0.0, 5.0, 5.0, 9.0])
        edges = greedy_value_clustering(values, tolerance=0.0)
        assert np.diff(edges).tolist() == [2, 2, 1]

    def test_clustering_tolerance_merges(self):
        values = np.array([1.0, 1.4, 1.8, 5.0])
        edges = greedy_value_clustering(values, tolerance=1.0)
        assert edges.size - 1 == 2

    def test_clustering_empty(self):
        assert greedy_value_clustering(np.array([]), 1.0).tolist() == [0]

    def test_invalid_rho_rejected(self, piecewise_uniform):
        x, workload = piecewise_uniform
        with pytest.raises(ValueError):
            AHP(rho=1.5).run(x, 1.0, workload=workload, rng=0)

    def test_consistent_at_huge_epsilon(self, piecewise_uniform):
        x, workload = piecewise_uniform
        estimate = AHP().run(x, 1e7, workload=workload, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)

    def test_star_variant_uses_different_defaults(self):
        assert AHPStar().params["rho"] != AHP().params["rho"]

    def test_beats_identity_on_sparse_small_scale_data(self, sparse_small_scale):
        # The regime of Finding 1: at low signal on sparse data, partitioning
        # algorithms beat the Laplace-mechanism baseline.
        x, workload = sparse_small_scale
        assert _mean_error(AHP(), x, workload, 0.01) < _mean_error(Identity(), x, workload, 0.01)


class TestDAWA:
    def test_partition_covers_domain(self):
        noisy = np.random.default_rng(0).random(100)
        buckets = l1_partition(noisy, bucket_penalty=1.0)
        assert buckets[0][0] == 0 and buckets[-1][1] == 100
        for (a, b), (c, d) in zip(buckets[:-1], buckets[1:]):
            assert b == c and a < b

    def test_partition_merges_uniform_regions(self):
        # Perfectly uniform data with a high bucket penalty -> few buckets.
        noisy = np.full(64, 5.0)
        buckets = l1_partition(noisy, bucket_penalty=100.0)
        assert len(buckets) <= 4

    def test_partition_splits_distinct_regions(self):
        noisy = np.concatenate([np.zeros(32), np.full(32, 1000.0)])
        buckets = l1_partition(noisy, bucket_penalty=0.5)
        boundaries = {b for _, b in buckets}
        assert 32 in boundaries

    def test_penalty_controls_granularity(self):
        noisy = np.random.default_rng(1).random(128) * 10
        fine = l1_partition(noisy, bucket_penalty=0.01)
        coarse = l1_partition(noisy, bucket_penalty=1000.0)
        assert len(fine) > len(coarse)

    def test_beats_identity_on_sparse_small_scale_data(self, sparse_small_scale):
        x, workload = sparse_small_scale
        assert _mean_error(DAWA(), x, workload, 0.01) < _mean_error(Identity(), x, workload, 0.01)

    def test_near_exact_at_huge_epsilon(self, piecewise_uniform):
        x, workload = piecewise_uniform
        estimate = DAWA().run(x, 1e8, workload=workload, rng=0)
        truth = workload.evaluate(x)
        error = scaled_average_per_query_error(truth, workload.evaluate(estimate), x.sum())
        assert error < 1e-6

    def test_2d_input(self):
        x = np.random.default_rng(2).random((16, 16)) * 10
        estimate = DAWA().run(x, 1.0, rng=0)
        assert estimate.shape == (16, 16)

    def test_fast_partition_matches_reference_loop(self):
        from reference.dawa_partition import l1_partition_reference

        noisy = np.random.default_rng(8).random(257) * 40 - 5.0
        assert l1_partition(noisy, 0.7, noise_scale=2.0) == \
            l1_partition_reference(noisy, 0.7, noise_scale=2.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_partition_rejects_non_finite_input(self, bad):
        # A non-finite count made every pruning comparison false, and the
        # fast path returned ten singletons where the reference loop did not.
        noisy = np.array([1, 1, 1, 1, 5, 5, bad, 2, 2, 2], dtype=float)
        with pytest.raises(ValueError, match="finite"):
            l1_partition(noisy, bucket_penalty=1.0)
        finite = np.ones(10)
        with pytest.raises(ValueError, match="finite"):
            l1_partition(finite, bucket_penalty=bad)
        with pytest.raises(ValueError, match="finite"):
            l1_partition(finite, bucket_penalty=1.0, noise_scale=bad)

    def test_measurement_set_currency(self, sparse_small_scale):
        """DAWA's stage two is a MeasurementSet over the cell domain, and the
        generic solver applied to it reproduces the release (the tree solve
        plus uniform expansion is the min-norm solution of that system)."""
        from repro import solve_gls

        x, workload = sparse_small_scale
        release = DAWA().run(x, 1.0, workload=workload, rng=np.random.default_rng(3))
        plan, measurements = DAWA().plan_and_measure(
            x, 1.0, np.random.default_rng(3), workload=workload)
        edges = plan.partition
        mset = measurements.through_partition(edges)
        assert mset.domain_shape == x.shape
        assert mset.epsilon_spent == 1.0                  # both stages accounted
        assert mset.tree is None
        assert edges[0] == 0 and edges[-1] == x.size
        reconstructed = solve_gls(mset)
        np.testing.assert_allclose(reconstructed, release, rtol=1e-6, atol=1e-6)

    def test_release_is_postprocessing_of_noisy_measurements(self):
        """End-to-end privacy principle: the release must be a function of
        noisy quantities only.  Run DAWA's pipeline stages on a non-count
        input (negative entries, where the old code re-added the *true*
        clipped bucket mass without noise) and check the release is
        reproducible from the private plan and the noisy measurements alone."""
        from repro.algorithms.mechanisms import PrivacyBudget
        from repro.core.plan import measure_plan

        algorithm = DAWA()
        x = np.array([4.0, -9.0, 3.0, -2.5, 8.0, 0.0, -1.0, 5.0] * 8)
        release = algorithm._run(x, PrivacyBudget(1.0), None, np.random.default_rng(11))
        budget = PrivacyBudget(1.0)
        rng = np.random.default_rng(11)
        plan = algorithm.select(x, None, budget, rng)
        measurements = measure_plan(x, plan, rng, budget=budget)
        rebuilt = algorithm.infer(measurements, plan)
        assert np.array_equal(rebuilt, release)
        # the measurements are noisy answers over the *raw* (unclipped)
        # bucket totals — stage two touches the data only through them
        totals = np.add.reduceat(x, plan.partition[:-1])
        assert np.any(totals < 0)                        # clipping would bite here
        residual = measurements.residual(totals)
        assert residual.size > 0 and not np.allclose(residual, 0.0)

    def test_budget_accounting_rejects_overspend(self):
        from repro.algorithms.mechanisms import BudgetExceededError

        x = np.abs(np.random.default_rng(0).random(32)) * 10
        with pytest.raises((BudgetExceededError, ValueError)):
            DAWA(rho=1.0).run(x, 1.0, rng=0)
        with pytest.raises((BudgetExceededError, ValueError)):
            DAWA(rho=1.5).run(x, 1.0, rng=0)

    def test_2d_workload_awareness_beats_dropped_workload(self):
        """Regression for the 2-D path passing workload=None: on a skewed
        (point-query) workload, mapping the workload through the Hilbert
        ordering must beat the old dropped-workload behaviour."""
        from repro import scaled_average_per_query_error
        from repro.workload.rangequery import RangeQuery, Workload

        rng = np.random.default_rng(5)
        x = np.zeros((16, 16))
        x[rng.integers(0, 16, 30), rng.integers(0, 16, 30)] = \
            rng.integers(20, 80, 30).astype(float)
        qrng = np.random.default_rng(7)
        queries = [RangeQuery((i, j), (i, j))
                   for i, j in zip(qrng.integers(0, 16, 150),
                                   qrng.integers(0, 16, 150))]
        workload = Workload(queries, (16, 16), name="skewed-points")
        truth = workload.evaluate(x)

        def mean_error(workload_arg, trials=10):
            errors = []
            for t in range(trials):
                estimate = DAWA().run(x, 0.5, workload=workload_arg, rng=100 + t)
                errors.append(scaled_average_per_query_error(
                    truth, workload.evaluate(estimate), x.sum()))
            return float(np.mean(errors))

        aware = mean_error(workload)
        dropped = mean_error(None)            # the old 2-D behaviour
        assert aware < 0.7 * dropped


class TestPHP:
    def test_bucket_structure_bias_remains(self):
        # Strictly increasing data cannot be represented by log2(n)+1 buckets,
        # so PHP keeps a bias even at enormous epsilon (Theorem 6).
        x = np.arange(1, 129, dtype=float)
        workload = prefix_workload(128)
        error = _mean_error(PHP(), x, workload, 1e7, trials=2)
        assert error > 1e-6

    def test_recovers_two_level_histogram(self):
        x = np.concatenate([np.full(64, 100.0), np.zeros(64)])
        estimate = PHP().run(x, 1e6, rng=0)
        assert np.allclose(estimate, x, atol=1.0)

    def test_beats_identity_on_flat_sparse_data_low_signal(self):
        x = np.zeros(256)
        x[:4] = 50.0
        workload = prefix_workload(256)
        assert _mean_error(PHP(), x, workload, 0.01) < _mean_error(Identity(), x, workload, 0.01)

    @pytest.mark.xfail(strict=True, reason="PHP reads its exponential-mechanism "
                       "sensitivity from the true counts (2 * max(x) + 1), so "
                       "neighbouring histograms get different sensitivities")
    def test_bisection_sensitivity_is_data_independent(self, monkeypatch):
        import repro.algorithms.php as php_module

        def sensitivities(x):
            seen = []
            draw = php_module.exponential_mechanism

            def recording(scores, epsilon, sensitivity, rng):
                seen.append(sensitivity)
                return draw(scores, epsilon, sensitivity=sensitivity, rng=rng)

            monkeypatch.setattr(php_module, "exponential_mechanism", recording)
            PHP().run(x, 1.0, rng=0)
            monkeypatch.undo()
            return seen

        x = np.array([5.0, 1.0, 9.0, 2.0, 0.0, 3.0, 7.0, 4.0])
        neighbour = x.copy()
        neighbour[np.argmax(x)] += 1.0      # one more record in the largest cell
        assert sensitivities(x) == sensitivities(neighbour)


class TestEFPA:
    def test_near_exact_at_huge_epsilon(self, piecewise_uniform):
        x, workload = piecewise_uniform
        estimate = EFPA().run(x, 1e8, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)

    def test_compressible_data_beats_identity(self):
        # A constant vector is captured by a single frequency coefficient, so
        # EFPA's lossy compression wins decisively over per-cell noise.
        n = 256
        x = np.full(n, 50.0)
        workload = prefix_workload(n)
        assert _mean_error(EFPA(), x, workload, 0.05) < _mean_error(Identity(), x, workload, 0.05)


class TestSF:
    def test_default_bucket_count_rule(self):
        x = np.random.default_rng(3).random(200) * 10
        algorithm = StructureFirst()
        boundaries = algorithm._select_boundaries(x, 20, 1.0, 100.0, np.random.default_rng(0))
        assert boundaries[0] == 0 and boundaries[-1] == 200
        assert len(boundaries) <= 21 + 1

    def test_respects_explicit_bucket_count(self):
        x = np.random.default_rng(4).random(64) * 10
        estimate = StructureFirst(buckets=4).run(x, 1.0, rng=0)
        assert estimate.shape == x.shape

    def test_consistent_with_inner_hierarchy(self):
        x = np.arange(64, dtype=float)
        estimate = StructureFirst().run(x, 1e8, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)

    def test_count_bound_side_information_default(self):
        x = np.full(32, 3.0)
        algorithm = StructureFirst()
        algorithm.run(x, 1.0, rng=0)
        # default count_bound picks up the true scale lazily; the parameter
        # itself stays None so repairs can replace it.
        assert algorithm.params["count_bound"] is None


class TestDPCube1D:
    def test_near_exact_at_huge_epsilon(self, piecewise_uniform):
        x, workload = piecewise_uniform
        estimate = DPCube().run(x, 1e8, rng=0)
        assert np.allclose(estimate, x, atol=1e-2)

    def test_partition_count_respected(self):
        blocks = DPCube._kd_partition(np.random.default_rng(5).random(64), 10)
        assert len(blocks) <= 10
        covered = np.zeros(64, dtype=int)
        for block in blocks:
            covered[block] += 1
        assert np.all(covered == 1)
