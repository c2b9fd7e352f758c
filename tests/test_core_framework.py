"""Unit tests for the DPBench core framework: generator, error, results,
analysis, registry, repair and tuning."""

import numpy as np
import pytest

from repro import (
    DataGenerator,
    Dataset,
    ExperimentSetting,
    Identity,
    ParameterTuner,
    ReleaseService,
    ResultSet,
    RunRecord,
    SideInformationRepair,
    StructureFirst,
    Uniform,
    algorithm_names,
    baseline_comparison,
    bias_variance_decomposition,
    competitive_algorithms,
    competitive_counts,
    make_algorithm,
    mean_vs_p95_disagreements,
    regret,
    scaled_average_per_query_error,
    summarize_errors,
    TunedAlgorithm,
    table1_rows,
)
from repro.algorithms.mechanisms import PrivacyBudget, as_rng
from repro.core.error import workload_loss
from repro.workload import prefix_workload


# ---------------------------------------------------------------------------
# Data generator G
# ---------------------------------------------------------------------------
class TestDataGenerator:
    @pytest.fixture
    def source(self):
        rng = as_rng(0)
        return Dataset("src", rng.integers(0, 50, size=256).astype(float))

    def test_exact_scale(self, source):
        sample = DataGenerator(source).generate(12_345, rng=0)
        assert sample.scale == 12_345

    def test_domain_coarsening(self, source):
        sample = DataGenerator(source).generate(1000, domain_shape=(64,), rng=0)
        assert sample.domain_shape == (64,)

    def test_shape_preserved_at_large_scale(self, source):
        generator = DataGenerator(source)
        sample = generator.generate(1_000_000, rng=0)
        assert np.allclose(sample.shape_distribution, source.shape_distribution, atol=5e-3)

    def test_counts_are_integral(self, source):
        sample = DataGenerator(source).generate(997, rng=0)
        assert np.allclose(sample.counts, np.rint(sample.counts))

    def test_generate_many(self, source):
        samples = DataGenerator(source).generate_many(500, 4, rng=0)
        assert len(samples) == 4
        assert all(s.scale == 500 for s in samples)
        assert not np.allclose(samples[0].counts, samples[1].counts)

    def test_invalid_scale(self, source):
        with pytest.raises(ValueError):
            DataGenerator(source).generate(0)


# ---------------------------------------------------------------------------
# Error measurement EM
# ---------------------------------------------------------------------------
class TestErrorMeasures:
    def test_workload_loss_l2(self):
        assert workload_loss(np.array([1.0, 2.0]), np.array([4.0, 6.0])) == pytest.approx(5.0)

    def test_workload_loss_l1_linf(self):
        y, yhat = np.array([0.0, 0.0]), np.array([3.0, -4.0])
        assert workload_loss(y, yhat, "l1") == pytest.approx(7.0)
        assert workload_loss(y, yhat, "linf") == pytest.approx(4.0)

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            workload_loss(np.zeros(2), np.zeros(2), "huber")

    def test_scaled_error_definition(self):
        # ||diff||_2 = 5 over q=2 queries at scale 10 -> 5 / 20 = 0.25
        value = scaled_average_per_query_error(np.array([1.0, 2.0]), np.array([4.0, 6.0]), 10.0)
        assert value == pytest.approx(0.25)

    def test_scaled_error_distinguishes_scales(self):
        y, yhat = np.zeros(1), np.array([100.0])
        assert scaled_average_per_query_error(y, yhat, 1000) == pytest.approx(0.1)
        assert scaled_average_per_query_error(y, yhat, 100_000) == pytest.approx(0.001)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            scaled_average_per_query_error(np.zeros(2), np.zeros(2), 0.0)

    def test_summary_statistics(self):
        summary = summarize_errors(np.array([1.0, 2.0, 3.0, 4.0]))
        assert summary.mean == pytest.approx(2.5)
        assert summary.n_trials == 4
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.percentile95 == pytest.approx(np.percentile([1, 2, 3, 4], 95))

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_errors(np.array([]))

    def test_bias_variance_sums_to_mse(self):
        rng = as_rng(0)
        truth = np.array([10.0, 20.0, 30.0])
        trials = truth + 2.0 + rng.normal(0, 1, size=(500, 3))   # bias of 2
        decomposition = bias_variance_decomposition(trials, truth)
        assert decomposition["bias_squared"] == pytest.approx(4.0, rel=0.2)
        assert decomposition["variance"] == pytest.approx(1.0, rel=0.2)
        assert decomposition["mse"] == pytest.approx(
            decomposition["bias_squared"] + decomposition["variance"])

    def test_bias_variance_unbiased_estimator(self):
        rng = as_rng(1)
        truth = np.zeros(4)
        trials = rng.normal(0, 1, size=(400, 4))
        decomposition = bias_variance_decomposition(trials, truth)
        assert decomposition["bias_fraction"] < 0.05


# ---------------------------------------------------------------------------
# Results container
# ---------------------------------------------------------------------------
def _record(dataset="D", scale=1000, algorithm="A", errors=(1.0, 2.0), epsilon=0.1,
            failed=False):
    setting = ExperimentSetting(dataset, scale, (64,), epsilon, "prefix")
    return RunRecord(setting=setting, algorithm=algorithm,
                     errors=np.array(errors), failed=failed)


class TestResultSet:
    def test_add_and_filter(self):
        results = ResultSet([_record(algorithm="A"), _record(algorithm="B"),
                             _record(dataset="E", algorithm="A")])
        assert len(results) == 3
        assert len(results.filter(algorithm="A")) == 2
        assert len(results.filter(dataset="E")) == 1
        assert results.algorithms() == ["A", "B"]
        assert results.datasets() == ["D", "E"]

    def test_by_setting_groups_algorithms(self):
        results = ResultSet([_record(algorithm="A"), _record(algorithm="B")])
        grouped = results.by_setting()
        assert len(grouped) == 1
        assert set(next(iter(grouped.values()))) == {"A", "B"}

    def test_failed_records_excluded_from_successful(self):
        results = ResultSet([_record(), _record(algorithm="B", errors=(), failed=True)])
        assert len(results.successful()) == 1

    def test_to_rows_and_csv(self):
        results = ResultSet([_record()])
        rows = results.to_rows()
        assert rows[0]["mean_error"] == pytest.approx(1.5)
        text = results.to_csv()
        assert "mean_error" in text.splitlines()[0]

    def test_mean_error_aggregation(self):
        results = ResultSet([_record(errors=(1.0,)), _record(dataset="E", errors=(3.0,))])
        assert results.mean_error("A") == pytest.approx(2.0)
        assert np.isnan(results.mean_error("missing"))


# ---------------------------------------------------------------------------
# Interpretation standard EI: competitiveness, regret, baselines
# ---------------------------------------------------------------------------
class TestCompetitiveAnalysis:
    def test_clear_winner(self):
        samples = {
            "good": np.full(20, 1.0) + as_rng(0).normal(0, 0.01, 20),
            "bad": np.full(20, 5.0) + as_rng(1).normal(0, 0.01, 20),
        }
        assert competitive_algorithms(samples) == ["good"]

    def test_statistical_tie_keeps_both(self):
        rng = as_rng(2)
        samples = {
            "a": 1.0 + rng.normal(0, 0.5, 30),
            "b": 1.0 + rng.normal(0, 0.5, 30),
        }
        winners = competitive_algorithms(samples)
        assert set(winners) == {"a", "b"}

    def test_p95_measure(self):
        samples = {
            "steady": np.full(20, 4.0),
            "volatile": np.concatenate([np.full(19, 1.0), [10.0]]),
        }
        assert competitive_algorithms(samples, measure="mean") == ["volatile"]
        assert "steady" in competitive_algorithms(samples, measure="p95")

    def test_empty_input(self):
        assert competitive_algorithms({}) == []

    def test_bonferroni_correction_decides_the_boundary(self):
        """A Welch p-value between alpha/(k-1) and alpha: competitive among
        three algorithms (level 0.025), not in a head-to-head (level 0.05)."""
        from scipy import stats

        best = 1.0 + np.linspace(-0.5, 0.5, 10)
        close = 1.38 + np.linspace(-0.8, 0.8, 14)
        far = np.full(10, 9.0) + np.linspace(-0.1, 0.1, 10)
        p_value = stats.ttest_ind(close, best, equal_var=False).pvalue
        assert 0.05 / 2 < p_value < 0.05
        # The pooled-variance test would clear 0.05: the case also pins Welch.
        assert stats.ttest_ind(close, best).pvalue > 0.05

        three = {"best": best, "close": close, "far": far}
        assert competitive_algorithms(three, alpha=0.05) == ["best", "close"]
        pair = {"best": best, "close": close}
        assert competitive_algorithms(pair, alpha=0.05) == ["best"]

    def test_competitive_counts_table(self):
        records = []
        for dataset in ("D1", "D2"):
            records.append(_record(dataset=dataset, algorithm="good", errors=tuple(np.full(10, 1.0))))
            records.append(_record(dataset=dataset, algorithm="bad", errors=tuple(np.full(10, 9.0))))
        table = competitive_counts(ResultSet(records))
        assert table[1000]["good"] == 2
        assert "bad" not in table[1000]

    def test_regret_oracle_is_one(self):
        records = [
            _record(dataset="D1", algorithm="A", errors=(1.0, 1.0)),
            _record(dataset="D1", algorithm="B", errors=(2.0, 2.0)),
            _record(dataset="D2", algorithm="A", errors=(4.0, 4.0)),
            _record(dataset="D2", algorithm="B", errors=(2.0, 2.0)),
        ]
        regrets = regret(ResultSet(records))
        # A is best on D1 (ratio 1), twice worse on D2 (ratio 2): geomean sqrt(2).
        assert regrets["A"] == pytest.approx(np.sqrt(2.0))
        assert regrets["B"] == pytest.approx(np.sqrt(2.0))

    def test_baseline_comparison_rows(self):
        records = [
            _record(algorithm="Identity", errors=(2.0, 2.0)),
            _record(algorithm="DAWA", errors=(1.0, 1.0)),
        ]
        rows = baseline_comparison(ResultSet(records), baselines=("Identity",))
        dawa_row = next(r for r in rows if r["algorithm"] == "DAWA")
        assert dawa_row["beats_Identity"] == 1.0

    def test_mean_vs_p95_disagreement_detection(self):
        records = [
            _record(algorithm="volatile", errors=tuple([0.5] * 17 + [8.0] * 3)),
            _record(algorithm="steady", errors=tuple([2.0] * 20)),
        ]
        disagreements = mean_vs_p95_disagreements(ResultSet(records))
        assert len(disagreements) == 1
        assert disagreements[0]["best_by_mean"] == "volatile"
        assert disagreements[0]["best_by_p95"] == "steady"


# ---------------------------------------------------------------------------
# Registry and Table 1
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_dimension_filtering(self):
        assert "PHP" in algorithm_names(1)
        assert "PHP" not in algorithm_names(2)
        assert "AGrid" in algorithm_names(2)
        assert "AGrid" not in algorithm_names(1)

    def test_paper_algorithm_count(self):
        # Table 1's 18 evaluated entries (including the starred variants and
        # both baselines) plus this reproduction's GreedyW selection entry.
        assert len(algorithm_names(None)) == 19
        assert "GreedyW" in algorithm_names(1)

    def test_table1_lists_the_papers_18_rows(self):
        rows = table1_rows(include_extras=False)
        assert [row["algorithm"] for row in rows] == [
            "Identity", "Uniform", "Privelet", "H", "Hb", "GreedyH", "MWEM",
            "MWEM*", "AHP", "AHP*", "DPCube", "DAWA", "PHP", "EFPA", "SF",
            "QuadTree", "UGrid", "AGrid"]
        # The grids still run the GreedyW extra: 16 names in 1-D, 15 in 2-D.
        assert len(algorithm_names(1)) == 16 and "GreedyW" in algorithm_names(1)
        assert len(algorithm_names(2)) == 15 and "GreedyW" in algorithm_names(2)

    def test_table1_rows_cover_registry(self):
        rows = table1_rows(include_extras=True)
        assert len(rows) == 19
        by_name = {row["algorithm"]: row for row in rows}
        assert by_name["UGrid"]["side_information"] == ["scale"]
        assert by_name["PHP"]["consistent"] is False
        assert by_name["Hb"]["data_dependent"] is False


# ---------------------------------------------------------------------------
# Repair functions R
# ---------------------------------------------------------------------------
class TestSideInformationRepair:
    def test_wrapped_name_and_metadata(self):
        repaired = SideInformationRepair(StructureFirst())
        assert repaired.name == "SF+noisy-scale"
        assert repaired.properties.side_information == ()

    def test_runs_and_outputs_shape(self):
        x = as_rng(0).integers(0, 20, size=64).astype(float)
        repaired = SideInformationRepair(StructureFirst(), rho_total=0.05)
        estimate = repaired.run(x, 1.0, rng=0)
        assert estimate.shape == x.shape

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            SideInformationRepair(Uniform(), rho_total=1.5)

    def test_repaired_sf_is_sf_with_the_estimate_as_count_bound(self):
        """The repair hands SF its noisy scale as the count bound it would
        otherwise take from the data: bitwise SF run with that bound on the
        remaining budget and the same generator."""
        x = as_rng(3).poisson(40, 64).astype(float)
        for seed in range(5):
            rng = as_rng(seed)
            inner = PrivacyBudget(0.5).with_noisy_scale(x, 0.05, rng)
            expected = StructureFirst(count_bound=inner.scale(x)).run(
                x, inner.total, rng=rng)
            repaired = SideInformationRepair(StructureFirst()).run(x, 0.5, rng=seed)
            assert repaired.tobytes() == expected.tobytes()

    def test_run_leaves_wrapped_algorithm_untouched(self):
        """The noisy scale travels in the run's budget, never into the
        shared instance (regression: it was written into ``inner.params``
        and leaked into later unwrapped runs)."""
        x = np.repeat([0.0, 50.0, 0.0, 200.0, 5.0, 0.0, 80.0, 0.0], 8)
        inner = StructureFirst()
        params = dict(inner.params)
        SideInformationRepair(inner).run(x * 1000, 1.0, rng=0)
        assert inner.params == params
        for seed in range(20):
            assert np.array_equal(inner.run(x, 1.0, rng=seed),
                                  StructureFirst().run(x, 1.0, rng=seed))

    def test_costs_budget_relative_to_original(self):
        # With most of the budget diverted to the scale estimate, the repaired
        # algorithm must be noisier than the original.
        x = as_rng(1).integers(0, 50, size=128).astype(float)
        from repro import prefix_workload
        workload = prefix_workload(128)
        truth = workload.evaluate(x)

        def mean_error(algorithm, trials=10):
            errs = []
            for seed in range(trials):
                est = algorithm.run(x, 0.05, workload=workload, rng=seed)
                errs.append(scaled_average_per_query_error(truth, workload.evaluate(est), x.sum()))
            return np.mean(errs)

        assert mean_error(SideInformationRepair(Identity(), rho_total=0.9)) > \
            mean_error(Identity())


# ---------------------------------------------------------------------------
# Tuning (Rparam)
# ---------------------------------------------------------------------------
class TestParameterTuner:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ParameterTuner("MWEM", {})

    def test_training_picks_lowest_error_candidate(self):
        tuner = ParameterTuner("MWEM", {"rounds": [2, 40]}, domain_size=64)
        result = tuner.train([100.0, 100000.0], epsilon=0.1, n_trials=2, rng=0)
        # The learned choice at each signal level must be the candidate with
        # the lowest measured training error.
        for product, errors in result.errors_by_product.items():
            best_key = min(errors, key=errors.get)
            assert result.best_by_product[product] == dict(best_key)
        # The lookup resolves new settings to the nearest trained product.
        assert result.parameters_for(0.1, 1000) == result.best_by_product[100.0]
        assert result.parameters_for(0.1, 1_000_000) == result.best_by_product[100000.0]

    def test_parameters_for_requires_training(self):
        from repro.core.tuning import TuningResult
        empty = TuningResult(algorithm="MWEM", parameter_grid={"rounds": [2]})
        with pytest.raises(ValueError):
            empty.parameters_for(0.1, 1000)

    def test_zero_trained_product_does_not_poison_lookup(self):
        """Regression: an (accidentally) zero trained epsilon-scale product
        used to turn into log(0) = -inf, making every lookup distance nan and
        argmin latch onto the degenerate entry.  The trained side is clamped
        like the query side, so finite products still win the lookup."""
        from repro.core.tuning import TuningResult
        result = TuningResult(algorithm="MWEM", parameter_grid={"rounds": [2, 40]})
        result.best_by_product = {0.0: {"rounds": 2}, 100.0: {"rounds": 40}}
        with np.errstate(all="raise"):        # no log(0) warnings either
            assert result.parameters_for(1.0, 100.0) == {"rounds": 40}
            assert result.parameters_for(1.0, 5000.0) == {"rounds": 40}
            # the degenerate entry stays reachable for near-zero queries
            assert result.parameters_for(1e-9, 1e-9) == {"rounds": 2}

    @pytest.mark.parametrize("epsilon, scale", [
        (np.inf, 1.0), (np.nan, 1e6), (0.1, np.inf), (0.1, np.nan),
        (-np.inf, 1.0), (np.inf, 0.0)])
    def test_non_finite_lookup_raises(self, epsilon, scale):
        """Regression: a non-finite epsilon or scale used to resolve to the
        smallest trained product's parameters (its log-distance is inf or
        nan for every product, and argmin returns the first)."""
        from repro.core.tuning import TuningResult
        result = TuningResult(algorithm="MWEM", parameter_grid={"rounds": [2, 40]})
        result.best_by_product = {100.0: {"rounds": 2}, 1e5: {"rounds": 40}}
        with pytest.raises(ValueError, match="finite"):
            result.parameters_for(epsilon, scale)

    def test_overflowing_product_resolves_to_largest(self):
        from repro.core.tuning import TuningResult
        result = TuningResult(algorithm="MWEM", parameter_grid={"rounds": [2, 40]})
        result.best_by_product = {100.0: {"rounds": 2}, 1e5: {"rounds": 40}}
        with np.errstate(over="ignore"):
            assert result.parameters_for(1e300, 1e300) == {"rounds": 40}

    def test_tuned_algorithm_wraps_base(self):
        tuner = ParameterTuner("MWEM", {"rounds": [3, 9]}, domain_size=32)
        result = tuner.train([1000.0], epsilon=0.1, n_trials=1, rng=1)
        algorithm = TunedAlgorithm(result)
        assert algorithm.name == "MWEM+tuned"
        assert algorithm.properties.side_information == ("scale",)
        assert algorithm.supports(1) and algorithm.supports(2)

    def test_tuned_release_is_base_release_with_learned_parameters(self):
        """A TunedAlgorithm release is bitwise the base algorithm's release
        with the parameters looked up for (epsilon, x.sum()), and it serves
        like any other algorithm."""
        tuner = ParameterTuner("MWEM", {"rounds": [2, 9]}, domain_size=32)
        tuning = tuner.train([10.0, 10_000.0], epsilon=0.1, n_trials=1, rng=1)
        x = np.arange(32, dtype=float) * 10.0
        workload = prefix_workload(32)
        for epsilon in (0.005, 5.0):
            params = tuning.parameters_for(epsilon, x.sum())
            expected = make_algorithm("MWEM", **params).run(
                x, epsilon, workload=workload, rng=4)
            released = TunedAlgorithm(tuning).run(x, epsilon, workload=workload, rng=4)
            assert released.tobytes() == expected.tobytes()
        service = ReleaseService(TunedAlgorithm(tuning), 5.0, workload=workload)
        release = service.release(x, rng=4)
        assert release.metadata.algorithm == "MWEM+tuned"
        assert release.histogram.tobytes() == expected.tobytes()
        assert service.query((0,), (31,)) == pytest.approx(expected.sum())
