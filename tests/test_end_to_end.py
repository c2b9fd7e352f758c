"""End-to-end integration tests: the full DPBench loop on a miniature grid.

These tests run the framework exactly the way the benches do — datasets from
the substrate, the data generator, the benchmark runner, the error and
interpretation standards — and assert the paper's headline qualitative
findings on a grid small enough for the unit-test suite.
"""

import numpy as np
import pytest

import repro


@pytest.fixture(scope="module")
def mini_study():
    """A miniature 1-D study: 2 shapes x 2 scales x 5 algorithms."""
    bench = repro.benchmark_1d(
        datasets=["ADULT", "SEARCH"],
        algorithms=["Identity", "Uniform", "Hb", "DAWA", "AHP"],
        scales=[1_000, 1_000_000],
        domain_shapes=[(256,)],
        epsilons=[0.1],
        n_data_samples=1,
        n_trials=6,
    )
    return bench.run(rng=123)


class TestMiniStudyStructure:
    def test_every_cell_present(self, mini_study):
        # 2 datasets x 2 scales x 5 algorithms = 20 records, none failed.
        assert len(mini_study) == 20
        assert not any(record.failed for record in mini_study)

    def test_errors_positive_and_finite(self, mini_study):
        for record in mini_study:
            assert np.all(record.errors > 0)
            assert np.all(np.isfinite(record.errors))

    def test_csv_roundtrip_contains_all_rows(self, mini_study):
        text = mini_study.to_csv()
        assert len(text.strip().splitlines()) == 21      # header + 20 records


class TestHeadlineFindings:
    def test_error_decreases_with_scale_for_all_algorithms(self, mini_study):
        """Scaled error at scale 1e6 must be far below scale 1e3 for every
        consistent algorithm (more signal, less scaled error)."""
        for algorithm in ["Identity", "Hb", "DAWA", "AHP"]:
            small = mini_study.filter(algorithm=algorithm, scale=1_000)
            large = mini_study.filter(algorithm=algorithm, scale=1_000_000)
            assert large.mean_error(algorithm) < small.mean_error(algorithm) / 10

    def test_data_dependence_pays_at_small_scale_on_sparse_shape(self, mini_study):
        """Finding 1: on the sparse ADULT shape at scale 1e3, the best
        data-dependent algorithm beats the best data-independent one."""
        subset = mini_study.filter(dataset="ADULT", scale=1_000)
        dependent = min(subset.mean_error(a) for a in ("DAWA", "AHP", "Uniform"))
        independent = min(subset.mean_error(a) for a in ("Identity", "Hb"))
        assert dependent < independent

    def test_data_independence_catches_up_at_large_scale(self, mini_study):
        """Finding 2: at scale 1e6 the data-independent hierarchy is at least
        competitive with (within a small factor of) every data-dependent
        algorithm on the denser SEARCH shape."""
        subset = mini_study.filter(dataset="SEARCH", scale=1_000_000)
        hb = subset.mean_error("Hb")
        for algorithm in ("DAWA", "AHP", "Uniform"):
            assert hb <= subset.mean_error(algorithm) * 1.5

    def test_uniform_baseline_stops_being_useful_at_large_scale(self, mini_study):
        """Finding 10: Uniform's bias dominates at large scale."""
        subset = mini_study.filter(scale=1_000_000)
        assert subset.mean_error("Uniform") > subset.mean_error("Identity") * 10

    def test_competitive_sets_follow_the_same_story(self, mini_study):
        counts = repro.competitive_counts(mini_study)
        # At the large scale the biased Uniform baseline must not be competitive.
        assert counts[1_000_000].get("Uniform", 0) == 0
        # At least one data-dependent algorithm is competitive at the small scale.
        small = counts[1_000]
        assert any(small.get(name, 0) > 0 for name in ("DAWA", "AHP", "Uniform"))

    def test_regret_identifies_a_sensible_overall_choice(self, mini_study):
        regrets = repro.regret(mini_study)
        assert set(regrets) == {"Identity", "Uniform", "Hb", "DAWA", "AHP"}
        # The best single choice should not be one of the baselines.
        best = min(regrets, key=regrets.get)
        assert best not in ("Uniform",)
        assert all(value >= 1.0 for value in regrets.values())


class TestRepairIntegration:
    def test_side_information_repair_in_a_study(self):
        """The Rside-wrapped SF runs inside the benchmark like any algorithm."""
        repaired = repro.SideInformationRepair(repro.StructureFirst(), rho_total=0.05)
        bench = repro.benchmark_1d(
            datasets=["MEDCOST"],
            algorithms=[repro.make_algorithm("SF"), repaired],
            scales=[10_000],
            domain_shapes=[(128,)],
            n_data_samples=1,
            n_trials=4,
        )
        results = bench.run(rng=5)
        assert set(results.algorithms()) == {"SF", "SF+noisy-scale"}
        assert not any(record.failed for record in results)

    def test_tuned_algorithm_in_a_study(self):
        """A TunedAlgorithm (Rparam output) runs in the benchmark like any
        algorithm."""
        tuner = repro.ParameterTuner("MWEM", {"rounds": [2, 20]}, domain_size=64)
        tuning = tuner.train([1_000.0], epsilon=0.1, n_trials=1, rng=0)
        bench = repro.benchmark_1d(
            datasets=["ADULT"],
            algorithms=["Identity", repro.TunedAlgorithm(tuning)],
            scales=[10_000],
            domain_shapes=[(128,)],
            n_data_samples=1,
            n_trials=2,
        )
        results = bench.run(rng=6)
        assert results.algorithms() == ["Identity", "MWEM+tuned"]
        assert not any(record.failed for record in results)
