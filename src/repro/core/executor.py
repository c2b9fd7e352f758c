"""Job-based execution engine for DPBench sweeps.

The experimental grid of a :class:`~repro.core.benchmark.DPBench` decomposes
into independent *jobs*, one per ``(dataset, domain, scale, epsilon,
algorithm)`` cell.  Each job carries no arrays — only the names and numbers
that identify its cell — so jobs are cheap to ship to worker processes, and
every array a job needs (the sampled data vectors, the true workload answers)
is reconstructed deterministically inside the worker from the job identity.

Determinism is the design center.  Instead of threading one shared mutable
generator through the sweep (where the result of job *k* would depend on every
job executed before it), each job derives a private child RNG from the run's
root entropy via :class:`numpy.random.SeedSequence` spawned with a key that
hashes the job's setting.  Two consequences:

* executing the grid serially, in parallel, or in any order produces
  **bitwise-identical** results (``tests/test_executor.py`` pins this), and
* a job can be re-executed in isolation (e.g. when resuming an interrupted
  sweep) and reproduce exactly the record it would have produced originally.

Two executors implement the scheduling policy:

* :class:`SerialExecutor` — in-process loop, zero overhead, the default;
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out with a configurable worker count; each worker holds its own
  :class:`JobRuntime` cache of workloads and generated data vectors.

:class:`JobRuntime` is the per-process memo: the workload per domain shape,
the sampled data vectors and true workload answers per ``(dataset, domain,
scale)`` (computed once, shared across every epsilon and algorithm at that
cell).
"""

from __future__ import annotations

import hashlib
import numbers
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Job",
    "JobRuntime",
    "SerialExecutor",
    "ParallelExecutor",
    "root_entropy_from",
    "data_seed_sequence",
    "job_seed_sequence",
]


# -- job identity ---------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One cell of the experimental grid, identified by names and numbers only."""

    dataset: str
    domain_shape: tuple[int, ...]
    scale: int
    epsilon: float
    algorithm: str

    def record_key(self) -> tuple:
        """The identity under which a finished record is checkpointed."""
        return (self.dataset, self.scale, self.domain_shape, self.epsilon, self.algorithm)

    def describe(self) -> str:
        domain = "x".join(str(d) for d in self.domain_shape)
        return (f"{self.dataset} domain={domain} scale={self.scale} "
                f"eps={self.epsilon} {self.algorithm}")


# -- deterministic seeding ------------------------------------------------------------

def _spawn_key(*parts) -> tuple[int, ...]:
    """A stable 128-bit spawn key derived from the canonical text of ``parts``.

    ``repr`` of floats is the shortest round-tripping form, so distinct
    epsilons map to distinct keys and equal epsilons always map to the same
    key, independent of process, platform and ``PYTHONHASHSEED``.
    """
    canonical = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.sha256(canonical.encode("utf8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4))


def root_entropy_from(rng) -> int:
    """Reduce the user-facing ``rng`` argument to a single root entropy int."""
    if rng is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(rng, np.random.SeedSequence):
        # Fold the full sequence state (entropy words AND spawn key) into one
        # int, so distinct SeedSequences yield distinct sweeps.
        state = rng.generate_state(4, np.uint32)
        return int.from_bytes(state.tobytes(), "big")
    if isinstance(rng, numbers.Integral):
        return int(rng)
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2 ** 63))
    raise TypeError(f"cannot derive run entropy from {rng!r}")


def data_seed_sequence(root_entropy: int, dataset: str,
                       domain_shape: tuple[int, ...], scale: int) -> np.random.SeedSequence:
    """Seed for generating the data vectors of one ``(dataset, domain, scale)``.

    Keyed without epsilon or algorithm, so every job at the cell draws the
    *same* data vectors — the paper's protocol runs all algorithms and all
    epsilons against a common set of sampled inputs.
    """
    key = _spawn_key("data", dataset, tuple(domain_shape), int(scale))
    return np.random.SeedSequence(root_entropy, spawn_key=key)


def job_seed_sequence(root_entropy: int, job: Job) -> np.random.SeedSequence:
    """Seed for the private trial randomness of one job."""
    key = _spawn_key("job", *job.record_key())
    return np.random.SeedSequence(root_entropy, spawn_key=key)


# -- per-process runtime --------------------------------------------------------------

class JobRuntime:
    """Per-process caches backing job execution.

    Holds the benchmark object plus two memos: the workload per domain
    shape, and the ``(samples, true_answers)`` pair per ``(dataset, domain,
    scale)`` — computed once and reused across every epsilon and algorithm at
    that cell.
    """

    def __init__(self, bench, root_entropy: int, on_error: str = "record"):
        self.bench = bench
        self.root_entropy = int(root_entropy)
        self.on_error = on_error
        self._workloads: dict[tuple[int, ...], object] = {}
        self._data: dict[tuple, tuple] = {}

    def workload(self, domain_shape: tuple[int, ...]):
        if domain_shape not in self._workloads:
            self._workloads[domain_shape] = self.bench._workload_for(domain_shape)
        return self._workloads[domain_shape]

    def data(self, dataset: str, domain_shape: tuple[int, ...], scale: int) -> tuple:
        """``(samples, true_answers)`` for one cell, generated deterministically."""
        key = (dataset, domain_shape, scale)
        if key not in self._data:
            self._data[key] = self.bench._generate_data(
                dataset, domain_shape, scale, self.workload(domain_shape),
                self.root_entropy)
        return self._data[key]

    def run_job(self, job: Job):
        return self.bench._execute_job(job, self)


# -- executors ------------------------------------------------------------------------

class SerialExecutor:
    """Run jobs one after another in the current process (the default)."""

    def execute(self, bench, jobs: Iterable[Job], root_entropy: int,
                on_error: str = "record") -> Iterator[tuple[Job, object]]:
        runtime = JobRuntime(bench, root_entropy, on_error)
        for job in jobs:
            yield job, runtime.run_job(job)


# Worker-process globals for ParallelExecutor.  Each worker builds one
# JobRuntime at startup and reuses its caches for every job it receives.
_WORKER_RUNTIME: JobRuntime | None = None


def _init_worker(bench, root_entropy: int, on_error: str) -> None:
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = JobRuntime(bench, root_entropy, on_error)


def _run_job_in_worker(job: Job):
    return _WORKER_RUNTIME.run_job(job)


class ParallelExecutor:
    """Fan jobs out over a process pool.

    Results are yielded in completion order; the benchmark runner reassembles
    them into canonical grid order, so the final :class:`ResultSet` is
    bitwise-identical to a serial run regardless of scheduling.

    The benchmark object is shipped to each worker once (at pool startup);
    jobs themselves are tiny tuples of names and numbers.  Under the ``spawn``
    start method every component of the benchmark (datasets, algorithms,
    workload factory) must be picklable; under ``fork`` (the Linux default)
    closures are tolerated.
    """

    def __init__(self, workers: int = 2, mp_context=None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.mp_context = mp_context

    def execute(self, bench, jobs: Iterable[Job], root_entropy: int,
                on_error: str = "record") -> Iterator[tuple[Job, object]]:
        jobs = list(jobs)
        if not jobs:
            return
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(jobs)),
            mp_context=self.mp_context,
            initializer=_init_worker,
            initargs=(bench, int(root_entropy), on_error),
        ) as pool:
            pending = {pool.submit(_run_job_in_worker, job): job for job in jobs}
            try:
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        job = pending.pop(future)
                        yield job, future.result()
            except BaseException:
                for future in pending:
                    future.cancel()
                raise
