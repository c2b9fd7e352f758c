"""Canonical benchmark configurations for the paper's 1-D and 2-D studies.

The paper's full grid (6 scales x 4 domain sizes x 18/9 datasets x 14
algorithms x 5 data vectors x 10 trials = 7,920 configurations, roughly 22
CPU-days) is far beyond what a test run should require, so this module builds
the same benchmarks at a configurable resolution.  Both modes sweep the same
three scales per study; the environment variable ``DPBENCH_FULL=1`` switches
the domain to the paper's (4096 cells in 1-D, 128x128 in 2-D) and the
repetitions to its 5 data samples x 10 trials.

The defaults reproduce the *structure* of every figure and table: the same
datasets, the same algorithms, the same scale sweeps, with smaller domains
(1024 and 64x64) and fewer repetitions (1 sample x 3 trials).
"""

from __future__ import annotations

import os
from typing import Sequence

from ..data.dataset import Dataset
from ..data.sources import all_datasets, load_dataset
from .benchmark import BenchmarkGrid, DPBench
from .registry import algorithm_names, make_algorithm

__all__ = [
    "env_flag",
    "full_mode",
    "default_scales_1d",
    "default_scales_2d",
    "default_domain_1d",
    "default_domain_2d",
    "default_repetitions",
    "benchmark_1d",
    "benchmark_2d",
]

#: The paper's experimental constants.
PAPER_SCALES_1D = (10 ** 3, 10 ** 5, 10 ** 7)
PAPER_SCALES_2D = (10 ** 4, 10 ** 6, 10 ** 8)
PAPER_DOMAIN_1D = (4096,)
PAPER_DOMAIN_2D = (128, 128)
PAPER_DATA_SAMPLES = 5
PAPER_TRIALS = 10


def env_flag(name: str) -> bool:
    """Shared truthiness convention for the ``DPBENCH_*`` env knobs."""
    return os.environ.get(name, "0") not in ("", "0", "false", "False")


def full_mode() -> bool:
    """True when the benches should run at the paper's full settings."""
    return env_flag("DPBENCH_FULL")


def default_scales_1d() -> tuple[int, ...]:
    return PAPER_SCALES_1D


def default_scales_2d() -> tuple[int, ...]:
    return PAPER_SCALES_2D


def default_domain_1d() -> tuple[int, ...]:
    return PAPER_DOMAIN_1D if full_mode() else (1024,)


def default_domain_2d() -> tuple[int, ...]:
    return PAPER_DOMAIN_2D if full_mode() else (64, 64)


def default_repetitions() -> tuple[int, int]:
    """(n_data_samples, n_trials)."""
    return (PAPER_DATA_SAMPLES, PAPER_TRIALS) if full_mode() else (1, 3)


def _resolve_datasets(datasets, ndim: int, limit: int | None) -> list[Dataset]:
    if datasets is None:
        resolved = all_datasets(ndim)
    else:
        resolved = [d if isinstance(d, Dataset) else load_dataset(d) for d in datasets]
    if limit is not None:
        resolved = resolved[:limit]
    return resolved


def _resolve_algorithms(algorithms, ndim: int) -> dict:
    if algorithms is None:
        algorithms = algorithm_names(ndim)
    resolved = {}
    for item in algorithms:
        if isinstance(item, str):
            resolved[item] = make_algorithm(item)
        else:
            resolved[item.name] = item
    return resolved


def _benchmark(
    task: str,
    ndim: int,
    default_scales: tuple[int, ...],
    default_domain: tuple[int, ...],
    datasets, algorithms, scales, domain_shapes, epsilons,
    n_data_samples, n_trials, dataset_limit, executor, checkpoint, resume,
) -> DPBench:
    """The one builder behind :func:`benchmark_1d` and :func:`benchmark_2d`."""
    samples, trials = default_repetitions()
    grid = BenchmarkGrid(
        scales=tuple(scales or default_scales),
        domain_shapes=tuple(domain_shapes or (default_domain,)),
        epsilons=tuple(epsilons),
        n_data_samples=n_data_samples or samples,
        n_trials=n_trials or trials,
    )
    return DPBench(
        task=task,
        datasets=_resolve_datasets(datasets, ndim, dataset_limit),
        algorithms=_resolve_algorithms(algorithms, ndim),
        grid=grid,
        executor=executor,
        checkpoint=checkpoint,
        resume=resume,
    )


def benchmark_1d(
    datasets: Sequence | None = None,
    algorithms: Sequence | None = None,
    scales: Sequence[int] | None = None,
    domain_shapes: Sequence[tuple[int, ...]] | None = None,
    epsilons: Sequence[float] = (0.1,),
    n_data_samples: int | None = None,
    n_trials: int | None = None,
    dataset_limit: int | None = None,
    executor=None,
    checkpoint=None,
    resume: bool = False,
) -> DPBench:
    """The paper's 1-D range-query benchmark (Prefix workload).

    ``executor``, ``checkpoint`` and ``resume`` become the defaults of
    :meth:`DPBench.run` — e.g. ``benchmark_1d(executor=ParallelExecutor(8),
    checkpoint="run_1d.jsonl", resume=True)`` builds a sweep that fans out
    over 8 processes and skips cells already in the run-log.
    """
    return _benchmark("1D range queries", 1, default_scales_1d(), default_domain_1d(),
                      datasets, algorithms, scales, domain_shapes, epsilons,
                      n_data_samples, n_trials, dataset_limit, executor,
                      checkpoint, resume)


def benchmark_2d(
    datasets: Sequence | None = None,
    algorithms: Sequence | None = None,
    scales: Sequence[int] | None = None,
    domain_shapes: Sequence[tuple[int, ...]] | None = None,
    epsilons: Sequence[float] = (0.1,),
    n_data_samples: int | None = None,
    n_trials: int | None = None,
    dataset_limit: int | None = None,
    executor=None,
    checkpoint=None,
    resume: bool = False,
) -> DPBench:
    """The paper's 2-D range-query benchmark (2000 random range queries).

    ``executor``, ``checkpoint`` and ``resume`` are forwarded as the defaults
    of :meth:`DPBench.run`, as in :func:`benchmark_1d`.
    """
    return _benchmark("2D range queries", 2, default_scales_2d(), default_domain_2d(),
                      datasets, algorithms, scales, domain_shapes, epsilons,
                      n_data_samples, n_trials, dataset_limit, executor,
                      checkpoint, resume)
