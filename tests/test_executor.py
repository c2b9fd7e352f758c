"""Tests for the job-based execution engine: determinism, resume, seeding.

The heart of this file is the serial == parallel equivalence: per-job
``SeedSequence`` seeding (rather than a shared mutable generator threaded
through the sweep) makes the results of a grid independent of execution order,
so a process-pool run must be *bitwise* identical to a serial one.  If these
tests fail after a runner change, parallelism has silently changed scientific
results.
"""

import json

import numpy as np
import pytest

from repro import (
    BenchmarkGrid,
    Dataset,
    DPBench,
    Job,
    ParallelExecutor,
    ResultSet,
    SerialExecutor,
    scaled_average_per_query_error,
)
from repro.algorithms.base import Algorithm, AlgorithmProperties
from repro.core.executor import (
    data_seed_sequence,
    job_seed_sequence,
    root_entropy_from,
)
from repro.core.results import read_jsonl_entries


@pytest.fixture
def tiny_bench():
    """A 2-dataset x 2-scale x 2-algorithm grid (acceptance-criteria shape)."""
    rng = np.random.default_rng(0)
    spiky = np.zeros(32)
    spiky[:3] = 50.0
    datasets = [
        Dataset("SPIKY", spiky),
        Dataset("FLAT", rng.integers(5, 15, size=32).astype(float)),
    ]
    grid = BenchmarkGrid(scales=[500, 5_000], domain_shapes=[(32,)],
                         epsilons=[0.5], n_data_samples=1, n_trials=3)
    from repro import make_algorithm
    return DPBench(task="test", datasets=datasets, grid=grid, algorithms={
        "Identity": make_algorithm("Identity"),
        "Uniform": make_algorithm("Uniform"),
    })


def assert_identical_results(a: ResultSet, b: ResultSet):
    """Record-by-record, order-sensitive, bitwise equality of two runs."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.record_key() == rb.record_key()
        assert ra.setting == rb.setting
        assert ra.failed == rb.failed
        assert ra.errors.tobytes() == rb.errors.tobytes()


class CountingExecutor(SerialExecutor):
    """Serial executor that remembers which jobs it actually executed."""

    def __init__(self):
        self.jobs_run: list[Job] = []

    def execute(self, bench, jobs, root_entropy, on_error="record"):
        jobs = list(jobs)
        self.jobs_run.extend(jobs)
        yield from super().execute(bench, jobs, root_entropy, on_error)


class InterruptAfter(SerialExecutor):
    """Serial executor killed (KeyboardInterrupt) after ``n`` completed jobs."""

    def __init__(self, n: int):
        self.n = n

    def execute(self, bench, jobs, root_entropy, on_error="record"):
        for i, item in enumerate(super().execute(bench, jobs, root_entropy, on_error)):
            if i >= self.n:
                raise KeyboardInterrupt("simulated kill")
            yield item


# -- determinism equivalence ---------------------------------------------------------

class TestSerialParallelEquivalence:
    def test_parallel_is_bitwise_identical_to_serial(self, tiny_bench):
        serial = tiny_bench.run(rng=7, executor=SerialExecutor())
        parallel2 = tiny_bench.run(rng=7, executor=ParallelExecutor(workers=2))
        parallel4 = tiny_bench.run(rng=7, executor=ParallelExecutor(workers=4))
        assert len(serial) == 8                     # 2 datasets x 2 scales x 2 algos
        assert_identical_results(serial, parallel2)
        assert_identical_results(serial, parallel4)

    def test_same_seed_reproduces_serial_run(self, tiny_bench):
        assert_identical_results(tiny_bench.run(rng=11), tiny_bench.run(rng=11))

    def test_different_seeds_differ(self, tiny_bench):
        first = tiny_bench.run(rng=11)
        second = tiny_bench.run(rng=12)
        assert any(not np.array_equal(ra.errors, rb.errors)
                   for ra, rb in zip(first, second))

    def test_results_independent_of_job_execution_order(self, tiny_bench):
        class ReversedExecutor(SerialExecutor):
            def execute(self, bench, jobs, root_entropy, on_error="record"):
                yield from super().execute(bench, list(jobs)[::-1], root_entropy, on_error)

        assert_identical_results(tiny_bench.run(rng=3),
                                 tiny_bench.run(rng=3, executor=ReversedExecutor()))

    def test_parallel_executor_validates_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


# -- job decomposition and seeding ---------------------------------------------------

class TestJobsAndSeeding:
    def test_jobs_enumerate_grid_in_canonical_order(self, tiny_bench):
        jobs = tiny_bench.jobs()
        assert len(jobs) == 8
        assert jobs[0] == Job(dataset="SPIKY", domain_shape=(32,), scale=500,
                              epsilon=0.5, algorithm="Identity")
        # dataset-major, then scale, then algorithm
        assert [j.record_key() for j in jobs] == sorted(
            (j.record_key() for j in jobs),
            key=lambda k: (k[0] != "SPIKY", k[1], k[4]))

    def test_job_seeds_are_distinct_and_stable(self, tiny_bench):
        jobs = tiny_bench.jobs()
        states = [tuple(job_seed_sequence(7, j).generate_state(4)) for j in jobs]
        assert len(set(states)) == len(states)
        assert states == [tuple(job_seed_sequence(7, j).generate_state(4)) for j in jobs]

    def test_data_seed_shared_across_epsilon_and_algorithm(self):
        a = data_seed_sequence(1, "ADULT", (64,), 1000)
        b = data_seed_sequence(1, "ADULT", (64,), 1000)
        c = data_seed_sequence(1, "ADULT", (64,), 2000)
        assert tuple(a.generate_state(4)) == tuple(b.generate_state(4))
        assert tuple(a.generate_state(4)) != tuple(c.generate_state(4))

    def test_root_entropy_coercions(self):
        assert root_entropy_from(42) == 42
        assert isinstance(root_entropy_from(None), int)
        gen = np.random.default_rng(0)
        assert isinstance(root_entropy_from(gen), int)
        with pytest.raises(TypeError):
            root_entropy_from("not a seed")

    def test_distinct_seed_sequences_give_distinct_roots(self):
        # Multi-word entropy and spawn keys must not collapse to one word.
        a = root_entropy_from(np.random.SeedSequence([5, 7]))
        b = root_entropy_from(np.random.SeedSequence([5, 99]))
        c = root_entropy_from(np.random.SeedSequence(5))
        d = root_entropy_from(np.random.SeedSequence(5, spawn_key=(1,)))
        assert len({a, b, c, d}) == 4
        assert root_entropy_from(np.random.SeedSequence([5, 7])) == a

    def test_duplicate_dataset_names_rejected(self, tiny_bench):
        tiny_bench.datasets = list(tiny_bench.datasets) + [Dataset("SPIKY", np.ones(32))]
        with pytest.raises(ValueError, match="duplicate dataset name"):
            tiny_bench.jobs()


# -- checkpoint / resume -------------------------------------------------------------

class TestCheckpointResume:
    def test_checkpoint_streams_every_record(self, tiny_bench, tmp_path):
        path = tmp_path / "run.jsonl"
        results = tiny_bench.run(rng=7, checkpoint=path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(results) == 8
        assert_identical_results(results, ResultSet.from_jsonl(path))

    def test_interrupted_run_resumes_and_matches_uninterrupted(self, tiny_bench, tmp_path):
        path = tmp_path / "run.jsonl"
        uninterrupted = tiny_bench.run(rng=7)

        with pytest.raises(KeyboardInterrupt):
            tiny_bench.run(rng=7, checkpoint=path, executor=InterruptAfter(3))
        assert len(path.read_text().splitlines()) == 3

        counting = CountingExecutor()
        resumed = tiny_bench.run(rng=7, checkpoint=path, resume=True, executor=counting)
        assert len(counting.jobs_run) == 5           # only the remaining jobs execute
        done_keys = {r.record_key() for r in ResultSet.from_jsonl(
            "\n".join(path.read_text().splitlines()[:3]) + "\n")}
        assert all(j.record_key() not in done_keys for j in counting.jobs_run)
        assert_identical_results(uninterrupted, resumed)

    def test_resume_with_complete_log_executes_nothing(self, tiny_bench, tmp_path):
        path = tmp_path / "run.jsonl"
        first = tiny_bench.run(rng=7, checkpoint=path)
        counting = CountingExecutor()
        second = tiny_bench.run(rng=7, checkpoint=path, resume=True, executor=counting)
        assert counting.jobs_run == []
        assert_identical_results(first, second)

    def test_resume_tolerates_torn_final_line(self, tiny_bench, tmp_path):
        path = tmp_path / "run.jsonl"
        tiny_bench.run(rng=7, checkpoint=path)
        lines = path.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:40]   # mid-record, no \n
        path.write_text(torn)
        counting = CountingExecutor()
        resumed = tiny_bench.run(rng=7, checkpoint=path, resume=True, executor=counting)
        assert len(counting.jobs_run) == 1           # only the torn record re-runs
        assert_identical_results(tiny_bench.run(rng=7), resumed)

    def test_resume_after_torn_line_leaves_clean_log(self, tiny_bench, tmp_path):
        """The resume rewrite must not append onto a torn fragment — the log
        must be fully parseable (and complete) after resuming."""
        path = tmp_path / "run.jsonl"
        tiny_bench.run(rng=7, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:40])
        tiny_bench.run(rng=7, checkpoint=path, resume=True)
        reparsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(reparsed) == 8                    # every line valid JSON again
        counting = CountingExecutor()
        again = tiny_bench.run(rng=7, checkpoint=path, resume=True, executor=counting)
        assert counting.jobs_run == []
        assert_identical_results(tiny_bench.run(rng=7), again)

    def test_resume_after_torn_first_record(self, tiny_bench, tmp_path):
        """A run killed while writing its *first* record leaves only a torn
        fragment (zero parseable lines).  Resuming must truncate the fragment
        rather than append onto it, or the log is corrupted forever."""
        path = tmp_path / "run.jsonl"
        tiny_bench.run(rng=7, checkpoint=path)
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line[:40])             # only a fragment, no \n
        resumed = tiny_bench.run(rng=7, checkpoint=path, resume=True)
        assert_identical_results(tiny_bench.run(rng=7), resumed)
        reparsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(reparsed) == 8                    # every line valid JSON
        counting = CountingExecutor()
        again = tiny_bench.run(rng=7, checkpoint=path, resume=True, executor=counting)
        assert counting.jobs_run == []
        assert_identical_results(tiny_bench.run(rng=7), again)

    def test_unsupported_algorithm_not_rerun_on_resume(self, tiny_bench, tmp_path):
        """An algorithm that does not support the grid's ndim gets no jobs,
        so a complete run-log covers the grid and resuming runs nothing."""
        from repro import make_algorithm

        tiny_bench.algorithms = dict(tiny_bench.algorithms,
                                     AGrid=make_algorithm("AGrid"))  # 2-D only
        path = tmp_path / "run.jsonl"
        first = tiny_bench.run(rng=7, checkpoint=path)
        assert "AGrid" not in first.algorithms()
        assert len(path.read_text().splitlines()) == 8
        counting = CountingExecutor()
        resumed = tiny_bench.run(rng=7, checkpoint=path, resume=True, executor=counting)
        assert counting.jobs_run == []
        assert_identical_results(first, resumed)

    def test_resume_requires_checkpoint(self, tiny_bench):
        with pytest.raises(ValueError, match="requires a checkpoint"):
            tiny_bench.run(rng=7, resume=True)

    def test_parallel_resume_matches_uninterrupted(self, tiny_bench, tmp_path):
        path = tmp_path / "run.jsonl"
        uninterrupted = tiny_bench.run(rng=7)
        with pytest.raises(KeyboardInterrupt):
            tiny_bench.run(rng=7, checkpoint=path, executor=InterruptAfter(4))
        resumed = tiny_bench.run(rng=7, checkpoint=path, resume=True,
                                 executor=ParallelExecutor(workers=2))
        assert_identical_results(uninterrupted, resumed)

    def test_bench_level_knobs_used_as_defaults(self, tiny_bench, tmp_path):
        path = tmp_path / "run.jsonl"
        tiny_bench.checkpoint = path
        first = tiny_bench.run(rng=7)
        assert path.exists()
        tiny_bench.resume = True
        counting = CountingExecutor()
        tiny_bench.executor = counting
        second = tiny_bench.run(rng=7)
        assert counting.jobs_run == []
        assert_identical_results(first, second)


# -- run-log serialization -----------------------------------------------------------

class TestRunLogSerialization:
    def test_record_roundtrip_is_bitwise(self, tiny_bench):
        results = tiny_bench.run(rng=5)
        reloaded = ResultSet.from_jsonl(results.to_jsonl())
        assert_identical_results(results, reloaded)

    def test_failed_record_roundtrip(self, tiny_bench):
        class Exploding:
            name = "Exploding"

            def supports(self, ndim):
                return True

            def run(self, *args, **kwargs):
                raise RuntimeError("boom")

        tiny_bench.algorithms = {"Exploding": Exploding()}
        results = tiny_bench.run(rng=0)
        reloaded = ResultSet.from_jsonl(results.to_jsonl())
        assert all(r.failed for r in reloaded)
        assert "boom" in reloaded.records[0].failure_message
        assert reloaded.records[0].errors.size == 0

    def test_corrupt_interior_line_raises(self):
        record_line = json.dumps({
            "setting": {"dataset": "D", "scale": 10, "domain_shape": [4],
                        "epsilon": 0.1, "workload": "W"},
            "algorithm": "A", "errors": [1.0], "failed": False,
            "failure_message": "", "extra": {}})
        with pytest.raises(json.JSONDecodeError):
            ResultSet.from_jsonl("{corrupt\n" + record_line + "\n")

    def test_merge_prefers_other_on_duplicate_keys(self, tiny_bench):
        first = tiny_bench.run(rng=5)
        second = tiny_bench.run(rng=6)
        merged = first.merge(second)
        assert len(merged) == len(first)
        assert_identical_results(merged, second)


# -- the error standard is pinned ----------------------------------------------------

class TestErrorStandardGoldenValues:
    """Golden values for Definition 3, so runner refactors provably cannot
    shift the paper's metric."""

    def test_four_query_workload(self):
        y_true = np.array([1.0, 2.0, 3.0, 4.0])
        y_est = np.array([2.0, 2.0, 2.0, 6.0])
        assert scaled_average_per_query_error(y_true, y_est, 10.0, loss="l2") == \
            pytest.approx(0.06123724356957945, rel=1e-14)
        assert scaled_average_per_query_error(y_true, y_est, 10.0, loss="l1") == \
            pytest.approx(0.1, rel=1e-14)
        assert scaled_average_per_query_error(y_true, y_est, 10.0, loss="linf") == \
            pytest.approx(0.05, rel=1e-14)

    def test_eight_query_workload(self):
        y_true = np.arange(1, 9, dtype=float)
        y_est = y_true + np.array([0.5, -0.25, 0.0, 1.0, -1.0, 2.0, 0.125, -0.5])
        assert scaled_average_per_query_error(y_true, y_est, 1000.0, loss="l2") == \
            pytest.approx(0.0003205981957606749, rel=1e-14)
        assert scaled_average_per_query_error(y_true, y_est, 1000.0, loss="l1") == \
            pytest.approx(0.000671875, rel=1e-14)
        assert scaled_average_per_query_error(y_true, y_est, 1000.0, loss="linf") == \
            pytest.approx(0.00025, rel=1e-14)

    def test_zero_error_and_scale_validation(self):
        y = np.ones(5)
        assert scaled_average_per_query_error(y, y, 100.0) == 0.0
        with pytest.raises(ValueError):
            scaled_average_per_query_error(y, y, 0.0)


# -- algorithm instances in the runner ------------------------------------------------

class _RunCounter(Algorithm):
    """Identity-like 1-D algorithm that records every run on the instance."""

    properties = AlgorithmProperties(name="Counter", supported_dims=(1,),
                                     data_dependent=False)

    def __init__(self, **overrides):
        super().__init__(**overrides)
        self.runs: list[float] = []

    def _run(self, x, budget, workload, rng):
        self.runs.append(budget.total)
        return x


class _Explosive2D(Algorithm):
    """2-D-only algorithm whose release must never be attempted on 1-D data."""

    properties = AlgorithmProperties(name="Explosive2D", supported_dims=(2,),
                                     data_dependent=False)

    def _run(self, x, budget, workload, rng):
        raise RuntimeError("released a 2-D algorithm on a 1-D grid")


class TestAlgorithmInstances:
    def _bench(self, algorithms, **grid_kwargs):
        grid = BenchmarkGrid(
            scales=grid_kwargs.pop("scales", [500]),
            domain_shapes=[(32,)],
            epsilons=grid_kwargs.pop("epsilons", [0.5]),
            n_data_samples=1, n_trials=2)
        return DPBench(task="test", datasets=[Dataset("FLAT", np.ones(32))],
                       algorithms=algorithms, grid=grid)

    def test_unsupported_ndim_skipped_without_running(self):
        bench = self._bench({"Explosive2D": _Explosive2D(),
                             "Counter": _RunCounter()})
        results = bench.run(rng=0, on_error="raise")
        assert results.algorithms() == ["Counter"]
        assert "Explosive2D" not in {j.algorithm for j in bench.jobs()}

    def test_one_instance_runs_every_trial(self):
        """The serial runner releases through the instance it was given, once
        per trial of every setting."""
        counter = _RunCounter()
        bench = self._bench({"Counter": counter},
                            scales=[100, 200], epsilons=[0.1, 1.0])
        results = bench.run(rng=0)
        assert len(results) == 4                     # 2 scales x 2 epsilons
        assert sorted(counter.runs) == [0.1] * 4 + [1.0] * 4

    def test_tuned_algorithm_looks_up_parameters_per_setting(self):
        """A TunedAlgorithm in the grid asks its tuning for the parameters of
        each run's (epsilon, scale)."""
        from repro import ParameterTuner, TunedAlgorithm

        tuning = ParameterTuner("MWEM", {"rounds": [2, 3]}, domain_size=32).train(
            [100.0], epsilon=0.5, n_trials=1, rng=1)
        lookups = []

        class Recording(type(tuning)):
            def parameters_for(self, epsilon, scale):
                lookups.append((epsilon, scale))
                return super().parameters_for(epsilon, scale)

        recording = Recording(**vars(tuning))
        bench = self._bench({"Tuned": TunedAlgorithm(recording)},
                            scales=[100, 200])
        results = bench.run(rng=0, on_error="raise")
        assert len(results) == 2
        assert sorted(set(lookups)) == [(0.5, 100.0), (0.5, 200.0)]


class TestReadJsonlDispatch:
    """read_jsonl_entries dispatches on Path vs raw text explicitly."""

    def test_empty_and_whitespace_strings_are_empty_logs(self):
        # Previously content-sniffing sent whitespace-only raw text to
        # Path(...).read_text and crashed with FileNotFoundError.
        assert read_jsonl_entries("") == []
        assert read_jsonl_entries("   \n\t\n  ") == []
        assert len(ResultSet.from_jsonl("\n\n")) == 0

    def test_path_object_always_read_from_disk(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text('{"skipped": true}\n{"a": 1}\n', encoding="utf8")
        entries = read_jsonl_entries(log)
        assert entries == [{"skipped": True}, {"a": 1}]

    def test_string_path_still_reads_from_disk(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text('{"a": 2}\n', encoding="utf8")
        assert read_jsonl_entries(str(log)) == [{"a": 2}]

    def test_empty_file_on_disk(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("", encoding="utf8")
        assert read_jsonl_entries(log) == []
