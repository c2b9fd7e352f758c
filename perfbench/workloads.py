"""The benchmark's workloads and the measurement protocol around them.

``grid-1d`` and ``grid-2d`` run the paper's default 1-D and 2-D studies
serially: hundreds of small releases through the plan pipeline, with data
generation, workload evaluation and error scoring around each.
``release-serve`` publishes three large releases through
:class:`~repro.serve.ReleaseService` and queries them: a closed-loop
single-client stream of Zipf-picked point queries (mostly cache hits) and
one uncached million-rectangle batch per release, with the write path
(re-release, cache invalidation, prefix rebuild) interleaved.

A *pass* is one complete execution of a workload's fixed work; a run
repeats passes while its time budget lasts and reports each unit's median
time across them, every time first scaled to the host's reference speed
by the probes taken between units (:mod:`perfbench.speed`).  Every pass
checks its outputs outside the timed segments and hashes them, so passes,
and traced against untraced runs, can be compared bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.host import peak_rss_mb, reset_peak_rss
from perfbench.speed import WINDOW, SpeedProbe
from perfbench.tracing import Probes, Tracer, algo_span, tail_percentile
from repro.algorithms.base import PlanAlgorithm
from repro.core.error import scaled_average_per_query_error
from repro.core.executor import SerialExecutor
from repro.core.registry import ALGORITHM_REGISTRY
from repro.core.suite import benchmark_1d, benchmark_2d
from repro.serve import ReleaseService
from repro.workload.builders import default_workload
from repro.workload.linops import QueryMatrix

__all__ = ["WORKLOADS", "GridWorkload", "Result", "ServeWorkload", "load_spec", "measure"]

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EPSILON = 0.1
#: Relative slack ``PrivacyBudget.spend`` itself grants summed budget
#: shares for float drift; a release may overshoot its epsilon by no more.
BUDGET_SLACK = 1e-9
#: Times the imports are timed (this process's own, then fresh processes')
#: and the inputs built per run; ``setup_s`` adds the two medians.
SETUP_REPEATS = 3
#: What a fresh process imports before ``measure`` can start: the
#: benchmark's modules, and through them numpy, scipy and the library.
IMPORT_TIMER = ("import time; start = time.perf_counter(); import perfbench.workloads; "
                "print(time.perf_counter() - start)")
#: Untraced/traced pass pairs a traced run alternates; the per-layer
#: metrics come from the last traced pass.
TRACE_ROUNDS = 2
JOB_SPAN = "executor.job"
#: A known MWEM defect: its lazy iterate averaging overflows on some
#: noise-dominated inputs and turns a trial's error infinite (grid-1d meets
#: it at about one seed in thirty).  Such trials are counted in the notes
#: and left out of the error mean instead of failing the run; every other
#: algorithm's errors must be finite.
KNOWN_NONFINITE = frozenset({"MWEM", "MWEM*"})


def load_spec() -> dict:
    """The benchmark's contract: workload names and metric names/units."""
    return json.loads(SPEC_PATH.read_text(encoding="utf8"))


# -- one pass -------------------------------------------------------------------------

@dataclass
class Segment:
    seconds: float = 0.0
    peak_mb: float = 0.0
    at: float = 0.0


@dataclass
class Pass:
    """What one pass measured and produced.

    ``units`` (seconds) and ``latencies_us`` list the pass's timed units and
    operation latencies in an order every pass repeats, so a run can line
    its passes up and take each unit's median time (see :func:`measure`);
    ``unit_at`` and ``latency_at`` are the ``perf_counter`` midpoints they
    were measured at, for :meth:`SpeedProbe.factors`.
    """

    wall_s: float = 0.0
    peak_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    units: list = field(default_factory=list)
    unit_at: list = field(default_factory=list)
    latencies_us: list = field(default_factory=list)
    latency_at: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    tolerated: int = 0
    layers: dict = field(default_factory=dict)
    _digest: object = field(default_factory=hashlib.sha256)

    @contextmanager
    def timed(self):
        """A timed segment: its wall time and peak RSS count toward the pass.

        The RSS high-water mark is reset at the start of every segment, so
        the checks run between segments never set the peak.  Yields a
        :class:`Segment` that holds the segment's own figures on exit.
        """
        segment = Segment()
        reset_peak_rss()
        start = time.perf_counter()
        try:
            yield segment
        finally:
            segment.seconds = time.perf_counter() - start
            segment.at = start + segment.seconds / 2
            segment.peak_mb = peak_rss_mb()
            self.wall_s += segment.seconds
            self.peak_mb = max(self.peak_mb, segment.peak_mb)

    def unit(self, segment: Segment) -> None:
        """Record ``segment`` as the pass's next timed unit."""
        self.units.append(segment.seconds)
        self.unit_at.append(segment.at)

    def scale(self, probe: SpeedProbe) -> None:
        """Scale every unit and latency to the reference speed."""
        self.units = list(np.asarray(self.units) * probe.factors(self.unit_at))
        self.latencies_us = list(np.asarray(self.latencies_us)
                                 * probe.factors(self.latency_at))

    def absorb(self, array: np.ndarray) -> None:
        self._digest.update(np.ascontiguousarray(array).tobytes())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _bitwise_mismatches(got: np.ndarray, want: np.ndarray) -> int:
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return max(got.size, want.size, 1)
    return int(np.count_nonzero(got.view(np.int64) != want.view(np.int64)))


# -- grid workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class GridWorkload:
    """A serial ``benchmark_1d``/``benchmark_2d`` sweep at one grid.

    Every grid parameter is passed explicitly, so the ``DPBENCH_*``
    environment knobs cannot change what runs.
    """

    ndim: int
    scales: tuple[int, ...]
    domain: tuple[int, ...]
    n_trials: int
    dataset_limit: int | None = None

    def bench(self):
        make = benchmark_1d if self.ndim == 1 else benchmark_2d
        return make(scales=self.scales, domain_shapes=(self.domain,),
                    epsilons=(EPSILON,), n_data_samples=1, n_trials=self.n_trials,
                    dataset_limit=self.dataset_limit, executor=SerialExecutor(),
                    checkpoint=None, resume=False)

    def setup(self, seed: int):
        bench = self.bench()
        return bench, len(bench.jobs())

    def run_pass(self, state, seed: int, tracer: Tracer, probe: SpeedProbe) -> Pass:
        """One sweep.  Job boundaries come from the ``progress`` callback,
        which ``DPBench.run`` calls once per completed record; the speed
        probes run between jobs, outside their spans."""
        bench, n_jobs = state
        out = Pass()
        job_ns: list[int] = []

        def end_job() -> None:
            job_ns.append(tracer.end())
            out.unit_at.append(time.perf_counter() - job_ns[-1] / 2e9)

        def progress(_line: str) -> None:
            end_job()
            probe.maybe_sample()
            if len(job_ns) < n_jobs:
                tracer.begin(JOB_SPAN)

        with out.timed():
            tracer.begin(JOB_SPAN)
            try:
                results = bench.run(rng=seed, progress=progress)
            finally:
                if len(job_ns) < n_jobs:
                    end_job()

        records = results.records
        out.attempted = max(len(records), n_jobs)
        out.failed = n_jobs - len(records)
        for record in records:
            finite = np.isfinite(record.errors)
            if record.algorithm in KNOWN_NONFINITE:
                out.tolerated += int(np.count_nonzero(~finite))
                finite[:] = True
            out.failed += bool(record.failed or record.errors.size == 0 or not finite.all())
            out.absorb(record.errors)
            out.errors.extend(record.errors[np.isfinite(record.errors)].tolist())
        out.units = [ns / 1e9 for ns in job_ns]
        out.latencies_us = [ns / 1e3 for ns in job_ns]
        out.latency_at = out.unit_at
        out.layers = {
            "executor.jobs_n": len(job_ns),
            "executor.job_p50_ms": np.percentile(job_ns, 50) / 1e6,
            "executor.job_tail_ms": np.percentile(job_ns, tail_percentile(len(job_ns))) / 1e6,
            "executor.overhead_s": tracer.self_seconds(JOB_SPAN),
        }
        return out


# -- the serving workload -------------------------------------------------------------

@dataclass(frozen=True)
class ServeWorkload:
    """Release and query, ``releases`` times over, for each service.

    ``pool`` random rectangles per service are the point-query population;
    after each release, one query segment sends ``points`` of them,
    Zipf(``zipf``)-picked, one at a time and waits for each answer (closed
    loop, one client), then one ``batch``-rectangle ``query_batch`` that no
    cache entry can serve.
    """

    services: tuple[tuple[str, tuple[int, ...]], ...]
    pool: int
    points: int
    batch: int
    releases: int
    zipf: float

    def setup(self, seed: int) -> list[dict]:
        state = []
        for index, (name, shape) in enumerate(self.services):
            # Seeded from the benchmark's --seed: the inputs are fixed per seed.
            rng = np.random.default_rng([seed, index])  # privlint: disable=PL001
            counts = _skewed_counts(shape, rng)
            workload = default_workload(shape, rng=rng)
            pool_lo, pool_hi = _rectangles(shape, self.pool, rng)
            weights = 1.0 / np.arange(1, self.pool + 1) ** self.zipf
            picks = rng.choice(self.pool, size=self.points, p=weights / weights.sum())
            lo_tuples = [tuple(map(int, row)) for row in pool_lo]
            hi_tuples = [tuple(map(int, row)) for row in pool_hi]
            batch_lo, batch_hi = _rectangles(shape, self.batch, rng)
            state.append({
                "name": name, "shape": shape, "counts": counts, "workload": workload,
                "true_answers": workload.evaluate(counts),
                "pool_lo": pool_lo, "pool_hi": pool_hi, "picks": picks,
                "sequence": [(lo_tuples[k], hi_tuples[k]) for k in picks],
                "batch_lo": batch_lo, "batch_hi": batch_hi,
            })
        return state

    def run_pass(self, state: list[dict], seed: int, tracer: Tracer,
                 probe: SpeedProbe) -> Pass:
        """One pass; a speed probe runs before every timed segment."""
        out = Pass()
        point_s = batch_s = release_s = 0.0
        cache_totals: dict[str, int] = {}
        for index, inputs in enumerate(state):
            name = inputs["name"]
            service = ReleaseService(name, EPSILON, inputs["workload"])
            stages = {"s": [], "select_s": [], "measure_s": [], "infer_s": [], "peak": []}
            for phase in range(self.releases):
                # Fixed per (seed, service, phase): every pass publishes the
                # same histograms, which makes passes comparable bitwise.
                rng = np.random.default_rng([seed, index, phase])  # privlint: disable=PL001
                before = tracer.snapshot()
                probe.maybe_sample()
                with out.timed() as segment:
                    release = service.release(inputs["counts"], rng=rng)
                out.unit(segment)
                delta = tracer.snapshot() - before
                stages["s"].append(segment.seconds)
                stages["peak"].append(segment.peak_mb)
                for stage in ("select", "measure", "infer"):
                    stages[f"{stage}_s"].append(delta[f"plan.{stage}"] / 1e9)
                release_s += segment.seconds
                out.attempted += 1
                self._check_release(out, inputs, release)

                probe.maybe_sample()
                answers, latencies = self._point_phase(out, service, inputs["sequence"])
                point_s += sum(latencies) / 1e6
                truth = QueryMatrix(inputs["pool_lo"], inputs["pool_hi"],
                                    inputs["shape"]).matvec(release.histogram)
                out.attempted += len(answers)
                out.failed += _bitwise_mismatches(answers, truth[inputs["picks"]])

                probe.maybe_sample()
                with out.timed() as segment:
                    batch = service.query_batch(inputs["batch_lo"], inputs["batch_hi"])
                out.unit(segment)
                batch_s += segment.seconds
                truth = QueryMatrix(inputs["batch_lo"], inputs["batch_hi"],
                                    inputs["shape"]).matvec(release.histogram)
                out.attempted += 1
                out.failed += bool(_bitwise_mismatches(batch, truth))
            for key, value in service.stats()["cache"].items():
                cache_totals[key] = cache_totals.get(key, 0) + value
            stem = f"release.{name}"
            for key in ("s", "select_s", "measure_s", "infer_s"):
                out.layers[f"{stem}.{key}"] = statistics.fmean(stages[key])
            out.layers[f"{stem}.peak_rss_mb"] = max(stages["peak"])
        n_points = len(out.latencies_us)
        lookups = cache_totals["hits"] + cache_totals["misses"]
        out.layers.update({
            "serve.release_s": release_s,
            "serve.point_n": n_points,
            "serve.point_s": point_s,
            "serve.point_tail_us": np.percentile(
                out.latencies_us, tail_percentile(n_points)),
            "serve.batch_s": batch_s,
            "serve.batch_qps": self.releases * len(state) * self.batch / batch_s,
            "cache.hit_rate": cache_totals["hits"] / lookups,
            **{f"cache.{key}": cache_totals[key]
               for key in ("hits", "misses", "evictions", "invalidations")},
        })
        return out

    @staticmethod
    def _check_release(out: Pass, inputs: dict, release) -> None:
        """Budget honoured; the release is scored and hashed."""
        meta = release.metadata
        out.failed += bool(meta.epsilon_spent > meta.epsilon * (1 + BUDGET_SLACK))
        histogram = release.histogram
        out.absorb(histogram)
        estimate = inputs["workload"].evaluate(histogram)
        out.errors.append(scaled_average_per_query_error(
            inputs["true_answers"], estimate, max(float(inputs["counts"].sum()), 1.0)))

    @staticmethod
    def _point_phase(out: Pass, service, sequence) -> tuple[np.ndarray, list[float]]:
        answers = np.empty(len(sequence))
        latencies = [0.0] * len(sequence)
        clock = time.perf_counter_ns
        query = service.query
        with out.timed() as segment:
            for k, (lo, hi) in enumerate(sequence):
                start = clock()
                answers[k] = query(lo, hi)
                latencies[k] = (clock() - start) / 1e3
        out.unit(segment)
        out.latencies_us.extend(latencies)
        out.latency_at.extend([segment.at] * len(latencies))
        return answers, latencies


def _skewed_counts(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Sparse skewed counts, about ten per cell (the large-domain regime)."""
    n = math.prod(shape)
    mass = rng.dirichlet(np.full(n, 0.05))
    return rng.multinomial(10 * n, mass).astype(float).reshape(shape)


def _rectangles(shape: tuple[int, ...], n: int, rng: np.random.Generator):
    """``n`` uniformly random inclusive rectangles as ``(n, ndim)`` corners."""
    corners = np.sort(rng.integers(0, shape, size=(2, n, len(shape))), axis=0)
    return corners[0], corners[1]


# -- workload registry ----------------------------------------------------------------

#: The grids are the paper's reduced default 1-D and 2-D studies with one
#: trial per record instead of three: the same 864 and 405 jobs, at a third
#: of the algorithm work, so a run fits several passes.  A three-trial pass
#: takes 15-26 s on a 2-core host, one sample per run, and its spread from
#: run to run was 16-24%.
WORKLOADS = {
    "grid-1d": GridWorkload(ndim=1, scales=(10 ** 3, 10 ** 5, 10 ** 7),
                            domain=(1024,), n_trials=1),
    "grid-2d": GridWorkload(ndim=2, scales=(10 ** 4, 10 ** 6, 10 ** 8),
                            domain=(64, 64), n_trials=1),
    "release-serve": ServeWorkload(
        services=(("Identity", (1024, 1024)), ("QuadTree", (1024, 1024)),
                  ("DAWA", (2 ** 18,))),
        pool=8192, points=20000, batch=1_000_000, releases=4, zipf=1.2),
}


# -- the measurement protocol ---------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: dict


def _common_layers(tracer: Tracer) -> dict:
    """Per-layer metrics every workload reports from the traced pass."""
    layers = {f"{algo_span(name)}.s": tracer.seconds(algo_span(name))
              for name in ALGORITHM_REGISTRY}
    layers["algo.bespoke_s"] = sum(
        layers[f"{algo_span(name)}.s"] for name, cls in ALGORITHM_REGISTRY.items()
        if not issubclass(cls, PlanAlgorithm))
    for span in ("plan.select", "plan.measure", "plan.measure.answer",
                 "plan.measure.noise", "plan.infer", "kernel.batched_laplace",
                 "kernel.tree_two_pass", "kernel.l1_partition_core", "data.generate",
                 "workload.build", "workload.evaluate", "error.eval",
                 "serve.prefix_build", "serve.answer_batch"):
        layers[f"{span}_s"] = tracer.seconds(span)
    for counter in ("plan.infer.tree_n", "plan.infer.disjoint_n", "plan.infer.lsmr_n",
                    "plan.infer.custom_n", "data.generate_n", "workload.evaluate_n"):
        layers[counter] = tracer.counts[counter]
    return layers


def _with_units(values: dict, declared: list[dict]) -> dict:
    """``values`` in the declared order, each with its declared unit."""
    names = [metric["name"] for metric in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"metrics not declared in {SPEC_PATH.name}: {unknown}")
    return {metric["name"]: {"value": values.get(metric["name"], 0),
                             "unit": metric["unit"]} for metric in declared}


def _fresh_import_s() -> float:
    """Import time of the benchmark and the library in a fresh process."""
    root = SPEC_PATH.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=root, env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout.split()[-1])


def _scale(passes: list[Pass], probe: SpeedProbe) -> None:
    """Take :data:`WINDOW` closing probes, so the last units have probes on
    both sides, then scale every pass to the reference speed."""
    for _ in range(WINDOW):
        probe.sample()
    for one in passes:
        one.scale(probe)


def _typical(passes: list[Pass], attr: str) -> np.ndarray:
    """Each position's median across the passes.

    Once scaled (:func:`_scale`), a unit's time no longer depends on the
    host's speed, only on noise, and the median drops the passes a burst
    hit.  The minimum would not do: it picks the passes whose probes read
    slower than the unit ran, and how far it does so moves from run to run
    (over ten 6-pass runs of grid-2d in a stretch with both host speeds,
    the summed minimum spread 11% and the summed median 2%).
    """
    rows = [getattr(p, attr) for p in passes]
    width = min(map(len, rows))
    return np.median(np.array([row[:width] for row in rows], dtype=float), axis=0)


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float,
            workload=None) -> Result:
    """Run workload ``name`` under the benchmark's protocol.

    Untraced: set up :data:`SETUP_REPEATS` times, then repeat passes while
    another one fits into ``seconds`` (at least one), and report end-to-end
    metrics from each unit's and operation's median time across the passes
    (:func:`_typical`).  Traced: :data:`TRACE_ROUNDS` untraced and traced
    passes, alternating; per-layer metrics from the last traced pass, the
    tracing overhead from the median unit times of each kind, and a bitwise
    comparison of all their outputs.  Every time that sets a metric is
    scaled to the reference speed by the run's :class:`SpeedProbe`: units
    and operations by the probes around them, the set-up by the run's
    median probe (probes in a process's first second read slow while the
    imports do not); the per-layer metrics are not scaled.  ``workload``
    overrides the registered configuration (tests run tiny ones).
    """
    spec = load_spec()
    workload = workload or WORKLOADS[name]
    imports_s = [import_s] + [_fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed)
        build_s.append(time.perf_counter() - start)
    probe = SpeedProbe()

    def run_pass(tracer: Tracer) -> Pass:
        return workload.run_pass(state, seed, tracer, probe)

    if trace:
        untraced, traced = [], []
        for _ in range(TRACE_ROUNDS):
            untraced.append(run_pass(Tracer()))
            tracer = Tracer()
            with Probes(tracer):
                traced.append(run_pass(tracer))
        passes = untraced + traced
        _scale(passes, probe)
        plain_s = float(_typical(untraced, "units").sum())
        traced_s = float(_typical(traced, "units").sum())
        layers = {**_common_layers(tracer), **traced[-1].layers,
                  "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0)}
        metrics = _with_units(layers, spec["per_layer"])
        notes = {"untraced_wall_s": plain_s, "traced_wall_s": traced_s,
                 "traced_pass_wall_s": traced[-1].wall_s}
    else:
        passes, start = [], time.perf_counter()
        lap = []
        while True:
            lap_start = time.perf_counter()
            passes.append(run_pass(Tracer()))
            lap.append(time.perf_counter() - lap_start)
            if time.perf_counter() - start + statistics.median(lap) > seconds:
                break
        raw_wall_s = float(_typical(passes, "units").sum())
        _scale(passes, probe)
        setup_s = statistics.median(imports_s) + statistics.median(build_s)
        errors = np.asarray(passes[0].errors, dtype=float)
        values = {
            "setup_s": setup_s * probe.run_factor(),
            "wall_s": float(_typical(passes, "units").sum()),
            "peak_rss_mb": max(p.peak_mb for p in passes),
            "scaled_error_gmean": float(np.exp(np.mean(np.log(errors)))),
            "op_p50_us": float(np.percentile(_typical(passes, "latencies_us"), 50)),
        }
        metrics = _with_units(values, spec["end_to_end"])
        notes = {"passes": len(passes), "ops_per_pass": len(passes[0].latencies_us),
                 "pass_wall_s": [p.wall_s for p in passes], "unscaled_wall_s": raw_wall_s,
                 "import_s": imports_s, "build_s": build_s, "unscaled_setup_s": setup_s,
                 "probe_ms_p5_p50_p95": (np.percentile(probe.seconds, [5, 50, 95])
                                         * 1e3).tolist()}
    diverged = sum(p.digest != passes[0].digest for p in passes[1:])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + diverged
    notes["digest"] = passes[0].digest
    notes["tolerated_nonfinite"] = sum(p.tolerated for p in passes)
    return Result(correct=failed == 0, attempted=attempted, failed=failed,
                  metrics=metrics, notes=notes)
