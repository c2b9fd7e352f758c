"""Tests of the benchmark's own logic: its contract file, the tracer's span
arithmetic, the percentile rule, trace transparency and tiny smoke runs."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import speed, workloads
from perfbench.speed import SpeedProbe
from perfbench.tracing import Probes, Tracer, tail_percentile
from perfbench.workloads import GridWorkload, ServeWorkload, load_spec, measure

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "grid-1d": GridWorkload(ndim=1, scales=(1000,), domain=(64,), n_trials=1,
                            dataset_limit=1),
    "grid-2d": GridWorkload(ndim=2, scales=(10_000,), domain=(8, 8), n_trials=1,
                            dataset_limit=1),
    "release-serve": ServeWorkload(
        services=(("Identity", (32, 32)), ("QuadTree", (32, 32)), ("DAWA", (1024,))),
        pool=64, points=300, batch=1000, releases=2, zipf=1.2),
}


@pytest.fixture(autouse=True)
def _no_fresh_imports(monkeypatch):
    """Each measure() times imports in fresh processes, about a second
    each; the tests below take that as read (see test_fresh_import_time)."""
    monkeypatch.setattr(workloads, "_fresh_import_s", lambda: 0.1)


def test_fresh_import_time():
    from perfbench.workloads import _fresh_import_s

    assert 0 < _fresh_import_s() < 60


# -- the contract file ----------------------------------------------------------------

def test_spec_names_units_and_limits():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_grids_ignore_environment_knobs(monkeypatch):
    for knob in ("DPBENCH_FULL", "DPBENCH_WORKERS", "DPBENCH_CHECKPOINT", "DPBENCH_RESUME"):
        monkeypatch.setenv(knob, "1")
    for name, jobs in (("grid-1d", 864), ("grid-2d", 405)):
        bench = workloads.WORKLOADS[name].bench()
        assert len(bench.jobs()) == jobs
        assert bench.checkpoint is None and not bench.resume
        assert (bench.grid.n_data_samples, bench.grid.n_trials) == (1, 1)


# -- tracer arithmetic ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("job")           # t=0
    clock.now = 10
    tracer.begin("algo")          # t=10
    clock.now = 15
    tracer.begin("kernel")        # t=15
    clock.now = 45
    assert tracer.end() == 30     # kernel: 15..45
    clock.now = 60
    assert tracer.end() == 50     # algo: 10..60
    clock.now = 70
    tracer.begin("error")
    clock.now = 75
    tracer.end()                  # error: 70..75
    clock.now = 100
    assert tracer.end() == 100    # job: 0..100
    assert tracer.self_ns == {"kernel": 30, "algo": 20, "error": 5, "job": 45}
    assert tracer.inclusive == {"kernel": 30, "algo": 50, "error": 5, "job": 100}


def test_recursive_span_counts_once_inclusive():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("select")
    clock.now = 5
    tracer.begin("select")        # a super().select() chain
    clock.now = 25
    tracer.end()
    clock.now = 30
    tracer.end()
    assert tracer.inclusive["select"] == 30
    assert tracer.self_ns["select"] == 30        # 20 inner + 10 outer
    assert tracer.calls["select"] == 2


# -- the percentile rule --------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (5, 50), (20, 50), (99, 50), (100, 90), (405, 90), (864, 90), (999, 90),
    (1000, 99), (120_000, 99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_typical_takes_each_position_median_across_passes():
    from perfbench.workloads import Pass, _typical

    passes = [Pass(units=[3.0, 1.0, 5.0]), Pass(units=[2.0, 4.0, 6.0]),
              Pass(units=[9.0, 0.5])]                     # a short pass trims
    assert _typical(passes, "units").tolist() == [3.0, 1.0]


def test_speed_factors_use_median_of_nearest_probes():
    probe = SpeedProbe()
    probe.stamps = [float(t) for t in range(10)]
    # fast (1x reference) for t < 5, twice as slow from t = 5 on; one outlier
    probe.seconds = [speed.REFERENCE_S * (1 if t < 5 else 2) for t in range(10)]
    probe.seconds[1] = 50 * speed.REFERENCE_S
    factors = probe.factors([0.5, 2.5, 7.5, 100.0])
    assert factors.tolist() == [1.0, 1.0, 0.5, 0.5]


# -- tracing is transparent -----------------------------------------------------------

def test_traced_pass_is_bitwise_equal_and_probes_restore():
    import repro.algorithms.base as base
    import repro.core.plan as plan
    from repro.algorithms.base import Algorithm
    from repro.workload.linops import QueryMatrix

    originals = (Algorithm.run, base.measure_plan, plan.measure_plan, QueryMatrix.matvec)
    grid = TINY["grid-1d"]
    state = grid.setup(11)
    untraced = grid.run_pass(state, 11, Tracer(), SpeedProbe())
    tracer = Tracer()
    with Probes(tracer):
        assert Algorithm.run is not originals[0]
        traced = grid.run_pass(state, 11, tracer, SpeedProbe())
    assert (Algorithm.run, base.measure_plan, plan.measure_plan,
            QueryMatrix.matvec) == originals
    assert traced.digest == untraced.digest
    assert traced.errors == untraced.errors
    assert tracer.seconds("algo.SF") > 0 and tracer.seconds("plan.measure.noise") > 0
    assert tracer.counts["data.generate_n"] == 1


# -- smoke runs -----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_end_to_end(name):
    spec = load_spec()
    result = measure(name, 5, 0.2, False, 0.1, workload=TINY[name])
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert list(result.metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result.metrics.values())
    again = measure(name, 5, 0.0, False, 0.1, workload=TINY[name])
    assert (again.metrics["scaled_error_gmean"]["value"]
            == result.metrics["scaled_error_gmean"]["value"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced(name):
    spec = load_spec()
    result = measure(name, 5, 0.2, True, 0.1, workload=TINY[name])
    assert result.correct and result.failed == 0
    assert list(result.metrics) == [m["name"] for m in spec["per_layer"]]
    if name == "release-serve":
        assert result.metrics["release.DAWA.infer_s"]["value"] > 0
        assert result.metrics["cache.hits"]["value"] > 0
    else:
        assert result.metrics["executor.jobs_n"]["value"] == len(TINY[name].bench().jobs())


def test_wrong_answers_count_as_failures(monkeypatch):
    from repro.serve.store import Release

    answer = Release.answer
    monkeypatch.setattr(Release, "answer", lambda self, lo, hi: answer(self, lo, hi) + 1.0)
    result = measure("release-serve", 5, 0.0, False, 0.1, workload=TINY["release-serve"])
    assert not result.correct
    serve = TINY["release-serve"]
    assert result.failed == serve.releases * len(serve.services) * serve.points


def test_failed_grid_records_count_as_failures(monkeypatch):
    from repro.algorithms.sf import StructureFirst

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(StructureFirst, "select", broken)
    result = measure("grid-1d", 5, 0.0, False, 0.1, workload=TINY["grid-1d"])
    assert not result.correct and result.failed == 1


@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value encountered")
def test_known_mwem_overflow_is_tolerated_not_hidden(monkeypatch):
    import repro.core.benchmark as benchmark

    monkeypatch.setattr(benchmark, "scaled_average_per_query_error",
                        lambda *args, **kwargs: float("inf"))
    result = measure("grid-1d", 5, 0.0, False, 0.1, workload=TINY["grid-1d"])
    assert result.notes["tolerated_nonfinite"] == 2        # MWEM, MWEM*: 1 trial each
    assert result.failed == len(TINY["grid-1d"].bench().jobs()) - 2


def test_run_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
