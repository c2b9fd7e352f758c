"""Integration tests for the DPBench benchmark runner and canned suites."""

import numpy as np
import pytest

from repro import (
    BenchmarkGrid,
    Dataset,
    DPBench,
    benchmark_1d,
    benchmark_2d,
    make_algorithm,
)
from repro.core.suite import default_domain_1d, default_scales_1d, full_mode


@pytest.fixture
def tiny_datasets():
    rng = np.random.default_rng(0)
    spiky = np.zeros(64)
    spiky[:4] = 100.0
    return [
        Dataset("SPIKY", spiky),
        Dataset("FLAT", rng.integers(5, 15, size=64).astype(float)),
    ]


class TestBenchmarkGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkGrid(scales=[], domain_shapes=[(8,)])
        with pytest.raises(ValueError):
            BenchmarkGrid(scales=[100], domain_shapes=[(8,)], n_trials=0)
        with pytest.raises(ValueError, match="scale"):
            BenchmarkGrid(scales=[100, 0], domain_shapes=[(8,)])

    def test_setting_count(self):
        grid = BenchmarkGrid(scales=[100, 1000], domain_shapes=[(8,), (16,)],
                             epsilons=[0.1, 1.0])
        assert grid.n_settings == 8


class TestDPBenchRunner:
    def _bench(self, datasets, algorithms, **grid_kwargs):
        grid = BenchmarkGrid(
            scales=grid_kwargs.pop("scales", [500]),
            domain_shapes=grid_kwargs.pop("domain_shapes", [(32,)]),
            epsilons=grid_kwargs.pop("epsilons", [0.5]),
            n_data_samples=grid_kwargs.pop("n_data_samples", 1),
            n_trials=grid_kwargs.pop("n_trials", 3),
        )
        return DPBench(task="test", datasets=datasets,
                       algorithms=algorithms, grid=grid, **grid_kwargs)

    def test_produces_record_per_dataset_algorithm(self, tiny_datasets):
        bench = self._bench(tiny_datasets, {
            "Identity": make_algorithm("Identity"),
            "Uniform": make_algorithm("Uniform"),
        })
        results = bench.run(rng=0)
        assert len(results) == 4                      # 2 datasets x 2 algorithms
        assert all(r.errors.size == 3 for r in results)
        assert set(results.algorithms()) == {"Identity", "Uniform"}

    def test_errors_are_positive_and_finite(self, tiny_datasets):
        bench = self._bench(tiny_datasets, {"Identity": make_algorithm("Identity")})
        results = bench.run(rng=0)
        for record in results:
            assert np.all(record.errors > 0)
            assert np.all(np.isfinite(record.errors))

    def test_skips_wrong_dimension_algorithms(self, tiny_datasets):
        bench = self._bench(tiny_datasets, {
            "Identity": make_algorithm("Identity"),
            "AGrid": make_algorithm("AGrid"),          # 2-D only, should be skipped
        })
        results = bench.run(rng=0)
        assert set(results.algorithms()) == {"Identity"}

    def test_uniform_wins_on_flat_loses_on_spiky(self, tiny_datasets):
        bench = self._bench(tiny_datasets, {
            "Identity": make_algorithm("Identity"),
            "Uniform": make_algorithm("Uniform"),
        }, epsilons=[0.05], n_trials=10, n_data_samples=2)
        results = bench.run(rng=1)
        flat_uniform = results.filter(dataset="FLAT", algorithm="Uniform").records[0].summary.mean
        flat_identity = results.filter(dataset="FLAT", algorithm="Identity").records[0].summary.mean
        spiky_uniform = results.filter(dataset="SPIKY", algorithm="Uniform").records[0].summary.mean
        spiky_identity = results.filter(dataset="SPIKY", algorithm="Identity").records[0].summary.mean
        assert flat_uniform < flat_identity
        assert spiky_uniform > spiky_identity

    def test_failure_recorded_not_raised(self, tiny_datasets):
        class Exploding:
            name = "Exploding"
            properties = make_algorithm("Identity").properties

            def supports(self, ndim):
                return True

            def run(self, *args, **kwargs):
                raise RuntimeError("boom")

        bench = self._bench(tiny_datasets[:1], {"Exploding": Exploding()})
        results = bench.run(rng=0)
        assert len(results) == 1
        assert results.records[0].failed
        assert "boom" in results.records[0].failure_message

    def test_failure_raised_when_requested(self, tiny_datasets):
        class Exploding:
            name = "Exploding"
            properties = make_algorithm("Identity").properties

            def supports(self, ndim):
                return True

            def run(self, *args, **kwargs):
                raise RuntimeError("boom")

        bench = self._bench(tiny_datasets[:1], {"Exploding": Exploding()})
        with pytest.raises(RuntimeError):
            bench.run(rng=0, on_error="raise")

    @pytest.mark.parametrize("value", [
        pytest.param(type(make_algorithm("Identity")), id="class"),
        pytest.param(lambda: make_algorithm("Identity"), id="callable"),
    ])
    def test_non_algorithm_values_rejected(self, tiny_datasets, value):
        """Every value of ``algorithms`` is an instance that can say which
        dimensions it supports; anything else fails at construction, by key."""
        with pytest.raises(TypeError, match="'Broken'"):
            self._bench(tiny_datasets, {"Identity": make_algorithm("Identity"),
                                        "Broken": value})

    @pytest.mark.parametrize("value", [
        pytest.param(type(make_algorithm("Identity")), id="class"),
        pytest.param(lambda: make_algorithm("Identity"), id="callable"),
    ])
    def test_non_algorithm_values_added_later_rejected(self, tiny_datasets, value):
        """An entry added after construction is checked before any job is
        built, and the error names its key."""
        bench = self._bench(tiny_datasets, {"Identity": make_algorithm("Identity")})
        bench.algorithms["Broken"] = value
        with pytest.raises(TypeError, match="'Broken'"):
            bench.jobs()
        with pytest.raises(TypeError, match="'Broken'"):
            bench.run(rng=0)

    def test_failing_algorithm_does_not_stop_the_sweep(self, tiny_datasets):
        """A failing algorithm is a failed record in every cell under
        on_error="record" while the others run, and its own exception under
        on_error="raise"."""
        class Broken:
            name = "Broken"
            properties = make_algorithm("Identity").properties

            def supports(self, ndim):
                return True

            def run(self, *args, **kwargs):
                raise ValueError("cannot release")

        bench = self._bench(tiny_datasets, {
            "Broken": Broken(),
            "Identity": make_algorithm("Identity"),
        })
        results = bench.run(rng=0)
        assert len(results) == 4
        broken = results.filter(algorithm="Broken").records
        assert [r.failed for r in broken] == [True, True]
        assert broken[0].failure_message == "ValueError: cannot release"
        assert not any(r.failed for r in results.filter(algorithm="Identity"))
        with pytest.raises(ValueError, match="cannot release"):
            bench.run(rng=0, on_error="raise")

    def test_progress_callback_invoked(self, tiny_datasets):
        messages = []
        bench = self._bench(tiny_datasets[:1], {"Identity": make_algorithm("Identity")})
        bench.run(rng=0, progress=messages.append)
        assert messages


class TestCannedSuites:
    def test_default_mode_is_reduced(self, monkeypatch):
        monkeypatch.delenv("DPBENCH_FULL", raising=False)
        assert not full_mode()
        assert default_domain_1d() == (1024,)

    def test_full_mode_env(self, monkeypatch):
        monkeypatch.setenv("DPBENCH_FULL", "1")
        assert full_mode()
        assert default_domain_1d() == (4096,)
        assert default_scales_1d() == (10 ** 3, 10 ** 5, 10 ** 7)

    def test_benchmark_1d_structure(self):
        bench = benchmark_1d(datasets=["ADULT"], algorithms=["Identity", "Uniform"],
                             scales=[1000], domain_shapes=[(128,)],
                             n_data_samples=1, n_trials=2)
        assert bench.task == "1D range queries"
        assert len(bench.datasets) == 1
        assert set(bench.algorithms) == {"Identity", "Uniform"}
        results = bench.run(rng=0)
        assert len(results) == 2

    def test_benchmark_2d_structure(self):
        bench = benchmark_2d(datasets=["STROKE"], algorithms=["Identity", "UGrid"],
                             scales=[10_000], domain_shapes=[(16, 16)],
                             n_data_samples=1, n_trials=2)
        results = bench.run(rng=0)
        assert set(results.algorithms()) == {"Identity", "UGrid"}

    def test_benchmark_1d_defaults_cover_all_datasets_and_algorithms(self):
        bench = benchmark_1d()
        assert len(bench.datasets) == 18
        # All 1-D algorithms from Table 1 plus the GreedyW selection entry.
        assert len(bench.algorithms) == 16
        assert "GreedyW" in bench.algorithms

    def test_benchmark_2d_defaults(self):
        bench = benchmark_2d()
        assert len(bench.datasets) == 9
        # All 2-D algorithms from Table 1 plus the GreedyW selection entry.
        assert len(bench.algorithms) == 15
        assert "GreedyW" in bench.algorithms
