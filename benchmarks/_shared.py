"""Shared infrastructure for the DPBench reproduction benches.

Every bench regenerates one table or figure of the paper.  The two big
experiment sweeps (the 1-D and 2-D studies behind Figures 1-2 and Tables 3a/3b)
are executed once per pytest session and cached here, so the per-bench cost is
aggregation and printing.

Grid resolution is controlled by ``repro.core.suite``: the default is a
laptop-scale grid (domain 1024 / 64x64, 3 scales, 2 data samples x 3 trials);
set ``DPBENCH_FULL=1`` to run the paper's full settings.

Execution is controlled by three environment variables understood by
:func:`study_executor` / :func:`study_checkpoint`:

* ``DPBENCH_WORKERS=N`` (N > 1) fans each study out over an N-process
  ``ParallelExecutor`` — per-job seeding makes the results bitwise-identical
  to a serial run;
* ``DPBENCH_CHECKPOINT=1`` streams completed records to
  ``benchmarks/results/run_{1d,2d}.jsonl``;
* ``DPBENCH_RESUME=1`` (implies checkpointing) skips the cells already in
  the run-log, so a killed ``DPBENCH_FULL=1`` sweep picks up where it left
  off.

Each bench prints its rows and also writes them to ``benchmarks/results/``.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np

from repro import ParallelExecutor, SerialExecutor, benchmark_1d, benchmark_2d
from repro.core.suite import env_flag as _env_flag

#: Seed shared by every bench so the reduced grids are reproducible.
SEED = 20160626

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def study_executor():
    """The executor the big studies run under (``DPBENCH_WORKERS``)."""
    workers = int(os.environ.get("DPBENCH_WORKERS", "0") or 0)
    if workers > 1:
        return ParallelExecutor(workers=workers)
    return SerialExecutor()


def study_checkpoint(tag: str) -> Path | None:
    """Run-log path for one study, or None when checkpointing is off."""
    if not (_env_flag("DPBENCH_CHECKPOINT") or _env_flag("DPBENCH_RESUME")):
        return None
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / f"run_{tag}.jsonl"


def _run_study(build, tag: str):
    return build().run(
        rng=SEED,
        executor=study_executor(),
        checkpoint=study_checkpoint(tag),
        resume=_env_flag("DPBENCH_RESUME"),
    )


@functools.lru_cache(maxsize=None)
def results_1d():
    """The 1-D study: every 1-D dataset x scale x algorithm (cached)."""
    return _run_study(benchmark_1d, "1d")


@functools.lru_cache(maxsize=None)
def results_2d():
    """The 2-D study: every 2-D dataset x scale x algorithm (cached)."""
    return _run_study(benchmark_2d, "2d")


def format_table(rows: list[dict], columns: list[str] | None = None,
                 floatfmt: str = "{:.3e}") -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: list[list[str]] = [[str(c) for c in columns]]
    for row in rows:
        line = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                line.append("nan" if np.isnan(value) else floatfmt.format(value))
            else:
                line.append(str(value))
        rendered.append(line)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    for i, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def report(name: str, title: str, text: str) -> str:
    """Print a bench report and persist it under ``benchmarks/results/``."""
    banner = f"\n=== {title} ===\n{text}\n"
    print(banner)
    if os.environ.get("DPBENCH_NO_WRITE", "0") in ("", "0"):
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(f"{title}\n\n{text}\n", encoding="utf8")
    return banner


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
