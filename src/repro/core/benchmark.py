"""The DPBench benchmark object and its job-based experiment runner.

A benchmark is the 9-tuple ``{T, W, D, M, L, G, R, EM, EI}`` of Section 5 of
the paper.  :class:`DPBench` holds the task-specific components (task,
workload factory, datasets, algorithms, loss) and wires in the task-independent
ones (the data generator ``G``, the error-measurement standard ``EM`` via
:mod:`repro.core.error`, and the interpretation standard ``EI`` via
:mod:`repro.core.analysis`); the repair functions ``R`` live in
:mod:`repro.core.tuning` and :mod:`repro.core.repair`.

Execution is job-based (see :mod:`repro.core.executor`).  :meth:`DPBench.jobs`
decomposes the grid (dataset x domain size x scale x epsilon x algorithm) into
independent :class:`~repro.core.executor.Job` cells; each job draws a private
child RNG from the run's root entropy via a :class:`numpy.random.SeedSequence`
keyed on the job's setting, so the sweep's results are independent of
execution order.  A pluggable executor (``SerialExecutor`` by default,
``ParallelExecutor`` for a process-pool fan-out) schedules the jobs, and the
runner reassembles completed records into canonical grid order — a parallel
run is bitwise-identical to a serial one.

Within each cell, ``n_data_samples`` data vectors are drawn from the generator
and each algorithm runs ``n_trials`` times per data vector, exactly mirroring
the paper's protocol (5 data vectors x 10 trials); data vectors and true
workload answers are derived from a seed that omits epsilon and algorithm, so
every job at a ``(dataset, domain, scale)`` cell sees the same inputs and
they are computed once per process, not once per epsilon.

Long sweeps checkpoint: pass ``checkpoint="run.jsonl"`` and every completed
record is appended to the JSONL run-log as it finishes; pass ``resume=True``
to skip the cells already recorded there and merge old and new records into
the same :class:`ResultSet` an uninterrupted run would have produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..algorithms.base import Algorithm
from ..algorithms.mechanisms import as_rng
from ..data.dataset import Dataset
from ..workload.builders import default_workload
from ..workload.rangequery import Workload
from .error import scaled_average_per_query_error, trial_answers
from .executor import (
    Job,
    JobRuntime,
    SerialExecutor,
    data_seed_sequence,
    job_seed_sequence,
    root_entropy_from,
)
from .generator import DataGenerator
from .results import ExperimentSetting, ResultSet, RunRecord, read_jsonl_entries

__all__ = ["BenchmarkGrid", "DPBench"]


@dataclass
class BenchmarkGrid:
    """The experimental grid swept by :meth:`DPBench.run`."""

    scales: Sequence[int]
    domain_shapes: Sequence[tuple[int, ...]]
    epsilons: Sequence[float] = (0.1,)
    n_data_samples: int = 5
    n_trials: int = 10

    def __post_init__(self):
        if not self.scales or not self.domain_shapes or not self.epsilons:
            raise ValueError("the grid needs at least one scale, domain and epsilon")
        if not all(0 < epsilon < math.inf for epsilon in self.epsilons):
            raise ValueError(
                f"every epsilon must be positive and finite, got {list(self.epsilons)}")
        if not all(scale >= 1 for scale in self.scales):
            raise ValueError(f"every scale must be at least 1, got {list(self.scales)}")
        if self.n_data_samples < 1 or self.n_trials < 1:
            raise ValueError("n_data_samples and n_trials must be positive")

    @property
    def n_settings(self) -> int:
        return len(self.scales) * len(self.domain_shapes) * len(self.epsilons)


@dataclass
class DPBench:
    """A concrete benchmark: task-specific components plus a grid.

    Parameters
    ----------
    task:
        Human-readable task name (e.g. ``"1D range queries"``).
    datasets:
        The source datasets ``D``; their shapes drive the study.
    algorithms:
        ``M``: mapping from record name to an :class:`Algorithm` instance.
        Each runs in every cell whose dimensionality it ``supports``.  A
        tuned variant (Rparam) is an instance too:
        :class:`~repro.core.tuning.TunedAlgorithm` picks its parameters per
        run.
    workload_factory:
        ``W``: builds the workload for a domain shape; defaults to the paper's
        Prefix (1-D) / 2000 random range queries (2-D).
    loss:
        ``L``: the loss function passed to the error standard (default L2).
    grid:
        The experimental grid (scales, domains, epsilons, repetition counts).
    executor:
        Default executor for :meth:`run` (``SerialExecutor`` when ``None``).
    checkpoint:
        Default JSONL run-log path for :meth:`run`.
    resume:
        Default resume flag for :meth:`run`.
    """

    task: str
    datasets: Sequence[Dataset]
    algorithms: dict[str, Algorithm]
    grid: BenchmarkGrid
    workload_factory: Callable[[tuple[int, ...], np.random.Generator], Workload] | None = None
    loss: str = "l2"
    workload_seed: int = 20160626
    executor: object | None = None
    checkpoint: str | Path | None = None
    resume: bool = False

    def __post_init__(self):
        self._check_algorithms()

    def _check_algorithms(self) -> None:
        for name, algorithm in self.algorithms.items():
            if isinstance(algorithm, type) or not (
                    hasattr(algorithm, "run") and hasattr(algorithm, "supports")):
                raise TypeError(
                    f"algorithm {name!r} must be an Algorithm instance, got "
                    f"{algorithm!r}")

    def _workload_for(self, domain_shape: tuple[int, ...]) -> Workload:
        rng = as_rng(self.workload_seed)
        if self.workload_factory is None:
            return default_workload(domain_shape, rng=rng)
        return self.workload_factory(domain_shape, rng)

    # -- grid decomposition ---------------------------------------------------------
    def _dataset_by_name(self) -> dict[str, Dataset]:
        by_name: dict[str, Dataset] = {}
        for dataset in self.datasets:
            if dataset.name in by_name:
                raise ValueError(
                    f"duplicate dataset name {dataset.name!r}: job identities "
                    "require unique dataset names")
            by_name[dataset.name] = dataset
        return by_name

    def jobs(self) -> list[Job]:
        """Decompose the grid into independent jobs, in canonical order.

        The order (domain, dataset, scale, epsilon, algorithm) defines the
        record order of the returned :class:`ResultSet` no matter which
        executor ran the jobs or in which order they completed.  An
        algorithm gets no job in a cell whose dimensionality it does not
        support.
        """
        self._dataset_by_name()                      # validate name uniqueness
        self._check_algorithms()                     # entries added after construction
        out: list[Job] = []
        for domain_shape in self.grid.domain_shapes:
            shape = tuple(int(d) for d in domain_shape)
            names = [name for name, algorithm in self.algorithms.items()
                     if algorithm.supports(len(shape))]
            for dataset in self.datasets:
                if dataset.ndim != len(shape):
                    continue
                for scale in self.grid.scales:
                    for epsilon in self.grid.epsilons:
                        out.extend(Job(dataset=dataset.name, domain_shape=shape,
                                       scale=int(scale), epsilon=float(epsilon),
                                       algorithm=name) for name in names)
        return out

    # -- per-job execution ----------------------------------------------------------
    def _generate_data(self, dataset_name: str, domain_shape: tuple[int, ...],
                       scale: int, workload: Workload, root_entropy: int):
        """Sample the cell's data vectors and evaluate the true answers once.

        True-answer evaluation (here and per-trial estimate evaluation in
        :func:`~repro.core.error.trial_answers`) goes through
        ``workload.evaluate``, i.e. the one cached sparse operator of the
        runtime's per-domain workload (``Workload.operator``) — no per-call
        query loops or matrices.
        """
        dataset = self._dataset_by_name()[dataset_name]
        seed = data_seed_sequence(root_entropy, dataset_name, domain_shape, scale)
        rng = np.random.default_rng(seed)
        samples = DataGenerator(dataset).generate_many(
            scale, self.grid.n_data_samples, domain_shape, rng)
        true_answers = [workload.evaluate(s.counts) for s in samples]
        return samples, true_answers

    def _execute_job(self, job: Job, runtime: JobRuntime) -> RunRecord:
        """Run the job's algorithm ``n_trials`` times on each data vector."""
        workload = runtime.workload(job.domain_shape)
        samples, true_answers = runtime.data(job.dataset, job.domain_shape, job.scale)
        setting = ExperimentSetting(
            dataset=job.dataset,
            scale=job.scale,
            domain_shape=job.domain_shape,
            epsilon=job.epsilon,
            workload=workload.name,
        )
        algorithm = self.algorithms[job.algorithm]
        rng = np.random.default_rng(job_seed_sequence(runtime.root_entropy, job))
        errors: list[float] = []
        try:
            for sample, truth in zip(samples, true_answers):
                scale = max(sample.scale, 1.0)
                errors.extend(
                    scaled_average_per_query_error(truth, answers, scale, loss=self.loss)
                    for answers in trial_answers(algorithm, sample.counts, job.epsilon,
                                                 workload, self.grid.n_trials, rng))
        except Exception as exc:  # noqa: BLE001 - harness boundary
            if runtime.on_error == "raise":
                raise
            return RunRecord(setting=setting, algorithm=job.algorithm,
                             errors=np.array([]), failed=True,
                             failure_message=f"{type(exc).__name__}: {exc}")
        return RunRecord(setting=setting, algorithm=job.algorithm,
                         errors=np.array(errors))

    # -- execution --------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator | int | None = None,
        on_error: str = "record",
        progress: Callable[[str], None] | None = None,
        executor=None,
        checkpoint: str | Path | None = None,
        resume: bool | None = None,
    ) -> ResultSet:
        """Execute the full grid and return a :class:`ResultSet`.

        Parameters
        ----------
        rng:
            Root randomness of the run.  An int seed makes the whole sweep
            reproducible; each job derives its own child RNG from it, so the
            results do not depend on the executor or on execution order.
        on_error:
            "record" (default) stores a failed record and continues, "raise"
            propagates the first algorithm exception.
        progress:
            Optional callback receiving one line per completed record.
        executor:
            Scheduling policy; defaults to the benchmark's ``executor`` field
            or :class:`SerialExecutor`.  Pass
            ``ParallelExecutor(workers=N)`` for a process-pool fan-out.
        checkpoint:
            Path of a JSONL run-log.  Every completed record is appended (and
            flushed) as it finishes, so an interrupted sweep loses at most
            the jobs in flight.
        resume:
            With ``checkpoint``, skip the cells already present in the
            run-log and merge their records with the newly executed ones.
            Requires the same ``rng`` as the interrupted run for the merged
            result to equal an uninterrupted one.
        """
        if on_error not in ("record", "raise"):
            raise ValueError("on_error must be 'record' or 'raise'")
        executor = executor if executor is not None else (self.executor or SerialExecutor())
        checkpoint = checkpoint if checkpoint is not None else self.checkpoint
        resume = self.resume if resume is None else resume
        root_entropy = root_entropy_from(rng)

        jobs = self.jobs()
        prior_entries: list[dict] = []
        if resume:
            if checkpoint is None:
                raise ValueError("resume=True requires a checkpoint path")
            if Path(checkpoint).exists():
                prior_entries = read_jsonl_entries(checkpoint)
        records = {record.record_key(): record
                   for record in map(RunRecord.from_dict, prior_entries)}
        pending = [job for job in jobs if job.record_key() not in records]

        log = None
        if checkpoint is not None:
            path = Path(checkpoint)
            path.parent.mkdir(parents=True, exist_ok=True)
            if resume and path.exists():
                # Rewrite the log from its parsed entries before appending:
                # a run killed mid-write leaves a torn final line, and a raw
                # append would glue the next record onto the fragment.  This
                # must happen even when zero entries parsed (killed while
                # writing the very first record), truncating the fragment.
                tmp = path.with_name(path.name + ".tmp")
                tmp.write_text(
                    "".join(json.dumps(e) + "\n" for e in prior_entries),
                    encoding="utf8")
                tmp.replace(path)
            log = open(checkpoint, "a" if resume else "w", encoding="utf8")
        try:
            for job, record in executor.execute(self, pending, root_entropy, on_error):
                records[job.record_key()] = record
                if log is not None:
                    log.write(json.dumps(record.to_dict()) + "\n")
                    log.flush()
                if progress is not None:
                    progress(f"{job.describe()}: done")
        finally:
            if log is not None:
                log.close()

        return ResultSet([records[job.record_key()] for job in jobs
                          if job.record_key() in records])
