"""Macro-benchmark: million-cell domains end-to-end.

The paper's studies stop at domain 4096 (1-D) and 64 x 64 (2-D); this bench
pushes the release pipeline to 2**20 cells in both layouts and records how
the wall-clock scales.  Three kernels carry the load
(:mod:`repro.core.kernels`):

* ``l1_partition_core`` — DAWA's partition candidate scan, streamed in
  end blocks;
* ``tree_two_pass`` — the streaming tree GLS (fixed ``TREE_BLOCK`` row
  blocks, so a 2**20-leaf solve never materialises a level-sized dense
  intermediate);
* ``batched_laplace`` — plan noise in one generator call per scale group.

Gates: kernel-vs-reference **bitwise parity** on large-domain inputs — the
DAWA partition equals ``l1_partition_reference`` (``tests/reference/``) and
the streaming tree solve at 2**15 nodes is bitwise-invariant to its row
block size — and DAWA's partition **memory slope**: its ``tracemalloc``
peak grows by at most ``MAX_PARTITION_SLOPE_BYTES`` per cell from 2**17 to
2**20, in smoke mode too.

Run with ``python -m pytest benchmarks/bench_large_domain.py -q``.
``DPBENCH_SMOKE=1`` drops the 2**20 rows and shrinks the 2-D side so CI
finishes in seconds; the committed snapshot under ``benchmarks/results/``
is produced by a full run.  Alongside the text table the bench emits
``bench_large_domain.json`` (rows plus host info) and a hand-rolled SVG
scaling figure (the container has no matplotlib).

``DPBENCH_LARGE=1`` additionally runs the 16M-cell leg (2-D 4096 x 4096
releases plus the 1-D 2**24 twin for H), enabled by the flyweight
array-backed tree: construction of the ~22M-node 4096^2 hierarchy is pure
array code, so end-to-end releases at this scale are allocation-bound, not
Python-object-bound.  The leg asserts a peak-RSS ceiling; under
``DPBENCH_SMOKE`` it shrinks to the Identity + H pair CI can afford.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
import tracemalloc

import numpy as np
import pytest

from _shared import RESULTS_DIR, format_table, report, run_once
from _svgplot import line_plot
from reference.dawa_partition import l1_partition_reference
from repro import make_algorithm
from repro.algorithms.dawa import l1_partition
from repro.core import kernels
from repro.core.kernels import TREE_BLOCK

SMOKE = os.environ.get("DPBENCH_SMOKE", "0") not in ("", "0")
LARGE = os.environ.get("DPBENCH_LARGE", "0") not in ("", "0")

SIZES_1D = [2**14, 2**17] if SMOKE else [2**14, 2**17, 2**20]
SIDE_2D = 256 if SMOKE else 1024
ALGORITHMS_1D = ["Identity", "H", "GreedyH", "DAWA"]
ALGORITHMS_2D = ["Identity", "GreedyH", "DAWA"]  # H is 1-D only (Table 1)
EPSILON = 0.1

#: 16M-cell leg (DPBENCH_LARGE=1): the paper-scale stress domains.
SIDE_LARGE = 4096
N_1D_LARGE = 2**24          # same cell count as 4096^2, for the 1-D-only H
#: Per-release peak-memory ceiling for every 16M-cell row: the flyweight
#: tree keeps each release allocation-bound at a few GB, and DAWA's
#: partition DP streams its candidates in end blocks (O(n) memory);
#: regressions to per-node object storage or to all-at-once survivor
#: matrices would blow straight through this.
MAX_RSS_BYTES = 12 * 2**30
#: Partition memory-slope gate: from 2**17 to 2**20 cells, DAWA's
#: ``l1_partition`` tracemalloc peak may grow by at most this many bytes per
#: added cell (O(n); all-at-once survivor matrices held 1,850 B/cell at 2**20).
MAX_PARTITION_SLOPE_BYTES = 100
PARTITION_SIZES = (2**17, 2**20)


def _host_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


def _write_json(name: str, payload: dict) -> None:
    if os.environ.get("DPBENCH_NO_WRITE", "0") in ("", "0"):
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf8")


def _counts(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse skewed counts at ~10 units per cell — large-domain regime."""
    shape = rng.dirichlet(np.full(n, 0.05))
    return rng.multinomial(10 * n, shape).astype(float)


def _time_once(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _vm_hwm_mb() -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _reset_vm_hwm() -> bool:
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _measured_run(fn) -> tuple[float, float, object]:
    """Wall-clock seconds, peak-memory MB and result of one call.

    The timed region must stay untraced: tracemalloc's allocator hook
    inflates allocation-heavy rows (DAWA's partition scan runs several
    times slower under it), which would poison before/after comparisons
    against earlier snapshots.  On Linux the peak is the growth of the process RSS
    high-water mark over the run — reset just before (``/proc/self/
    clear_refs``), read back after — with zero overhead on the timed code.
    Elsewhere the peak comes from a second, traced run whose timing is
    discarded.
    """
    gc.collect()
    if _reset_vm_hwm():
        base = _vm_hwm_mb() or 0.0      # == current RSS after the reset
        seconds, result = _time_once(fn)
        return seconds, max((_vm_hwm_mb() or 0.0) - base, 0.0), result
    seconds, result = _time_once(fn)
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return seconds, peak / 2**20, result


def _release_row(domain: str, cells: int, name: str, data: np.ndarray) -> dict:
    algorithm = make_algorithm(name)
    seconds, peak_mb, estimate = _measured_run(
        lambda: algorithm.run(data, EPSILON, rng=np.random.default_rng(7)))
    assert estimate.shape == data.shape
    assert np.all(np.isfinite(estimate))
    return {"domain": domain, "cells": cells, "algorithm": name,
            "seconds": seconds, "peak_mb": peak_mb}


def _scaling_plot(rows: list[dict]) -> None:
    """Time-vs-n figure over the 1-D sweep, one series per algorithm."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row["domain"].startswith("1-D"):
            series.setdefault(row["algorithm"], []).append(
                (row["cells"], row["seconds"]))
    if os.environ.get("DPBENCH_NO_WRITE", "0") in ("", "0") and series:
        RESULTS_DIR.mkdir(exist_ok=True)
        line_plot(RESULTS_DIR / "bench_large_domain_scaling.svg", series,
                  title=f"End-to-end release time vs domain size (eps={EPSILON})",
                  xlabel="domain size n (cells)", ylabel="seconds")


def test_scaling_table(benchmark):
    """One row per (domain, algorithm): wall-clock of a full private release.

    Workload-aware stages see ``workload=None`` (their default hierarchies) —
    materialising a million-query workload object would swamp the timing with
    python object construction, and the kernels under test run either way.
    """

    def study():
        rows = []
        for n in SIZES_1D:
            data = _counts(n, np.random.default_rng(20160626))
            for name in ALGORITHMS_1D:
                rows.append(_release_row(f"1-D n=2^{n.bit_length() - 1}",
                                         n, name, data))
        side = SIDE_2D
        data = _counts(side * side,
                       np.random.default_rng(20160626)).reshape(side, side)
        for name in ALGORITHMS_2D:
            rows.append(_release_row(f"2-D {side}x{side}", side * side,
                                     name, data))
        return rows

    rows = run_once(benchmark, study)
    sizes = ", ".join(f"2^{n.bit_length() - 1}" for n in SIZES_1D)
    report("bench_large_domain",
           f"Large-domain scaling (1-D n in {{{sizes}}}, 2-D {SIDE_2D}x"
           f"{SIDE_2D}, eps={EPSILON})",
           format_table(rows, columns=["domain", "algorithm", "seconds",
                                       "peak_mb"],
                        floatfmt="{:.3f}"))
    _write_json("bench_large_domain", {
        "host": _host_info(),
        "epsilon": EPSILON,
        "peak_metric": "rss_hwm_delta_mb",
        "notes": {
            # Satellite record: the flyweight rewrite removed GreedyH's 1-D
            # anomaly (prefix workloads and tree usage counts are now pure
            # array code; nothing materialises 2^20 query objects).  The
            # "before" figures are the prior committed snapshot.
            "greedyh_1d_2pow20_seconds_before": 64.945,
            "h_1d_2pow20_seconds_before": 42.176,
        },
        "rows": rows,
    })
    _scaling_plot(rows)


@pytest.mark.large_domain
def test_sixteen_million_cell_release(benchmark):
    """End-to-end private releases at 16M cells on the flyweight tree.

    2-D 4096 x 4096 for the 2-D algorithms plus 1-D n = 2**24 for H (the
    1-D-only hierarchy of Table 1, at the same cell count).  Gated behind
    ``DPBENCH_LARGE=1``; under ``DPBENCH_SMOKE`` only the Identity + H pair
    runs (the CI leg).  Asserts every hierarchy-backed release stays under
    the per-row peak-memory ceiling — the flyweight structure-of-arrays
    layout keeps ~22M tree nodes at a few hundred MB instead of tens of GB
    of per-node objects, and DAWA's partition DP holds O(n).
    """
    if not LARGE:
        pytest.skip("16M-cell leg runs only with DPBENCH_LARGE=1")

    def study():
        rows = []
        side = SIDE_LARGE
        names_2d = ["Identity"] if SMOKE else ALGORITHMS_2D
        data = _counts(side * side,
                       np.random.default_rng(20160626)).reshape(side, side)
        for name in names_2d:
            rows.append(_release_row(f"2-D {side}x{side}", side * side,
                                     name, data))
        data = _counts(N_1D_LARGE, np.random.default_rng(20160626))
        rows.append(_release_row(f"1-D n=2^{N_1D_LARGE.bit_length() - 1}",
                                 N_1D_LARGE, "H", data))
        return rows

    rows = run_once(benchmark, study)
    report("bench_large_domain_4096",
           f"16M-cell releases (2-D {SIDE_LARGE}x{SIDE_LARGE} + 1-D 2^24, "
           f"eps={EPSILON})",
           format_table(rows, columns=["domain", "algorithm", "seconds",
                                       "peak_mb"],
                        floatfmt="{:.3f}"))
    _write_json("bench_large_domain_4096", {
        "host": _host_info(),
        "epsilon": EPSILON,
        "peak_metric": "rss_hwm_delta_mb",
        "rows": rows,
    })
    for row in rows:
        peak = row["peak_mb"] * 2**20
        assert peak < MAX_RSS_BYTES, (
            f"{row['algorithm']} on {row['domain']}: peak "
            f"{peak / 2**30:.2f} GiB exceeds the "
            f"{MAX_RSS_BYTES / 2**30:.0f} GiB per-release ceiling")


def test_partition_memory_slope(benchmark):
    """DAWA's partition DP holds O(n): from 2**17 to 2**20 cells its
    ``tracemalloc`` peak grows by at most ``MAX_PARTITION_SLOPE_BYTES`` per
    added cell.  Runs in smoke mode too (the CI large-domain step); the
    sizes span whole end blocks, so the blocks' fixed transient cancels."""

    def study():
        peaks = {}
        for n in PARTITION_SIZES:
            rng = np.random.default_rng(20160626)  # privlint: disable=PL001
            noise_scale = 1.0 / (0.25 * EPSILON)     # DAWA's default rho
            noisy = _counts(n, rng) + rng.laplace(  # privlint: disable=PL003
                0.0, noise_scale, n)
            gc.collect()
            tracemalloc.start()
            try:
                l1_partition(noisy, 1.0 / (0.75 * EPSILON),
                             noise_scale=noise_scale)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peaks

    peaks = run_once(benchmark, study)
    small, large = PARTITION_SIZES
    slope = (peaks[large] - peaks[small]) / (large - small)
    print(f"\nDAWA l1_partition tracemalloc peak: "
          + ", ".join(f"2^{n.bit_length() - 1}: {peak / n:.1f} B/cell"
                      for n, peak in peaks.items())
          + f"; slope {slope:.1f} B per added cell")
    assert slope <= MAX_PARTITION_SLOPE_BYTES, (
        f"partition peak grows {slope:.0f} B per added cell from "
        f"2^{small.bit_length() - 1} to 2^{large.bit_length() - 1}")


def test_kernel_reference_parity(benchmark):
    """The kernels are bitwise-interchangeable with their references on
    large-domain inputs: DAWA's partition with the historical double loop,
    the streaming tree solve with itself at a different row block size."""

    def study():
        n = 2**14
        rng = np.random.default_rng(3)
        noisy = _counts(n, rng) + rng.laplace(0.0, 10.0, n)
        assert l1_partition(noisy, 10.0) == \
            l1_partition_reference(noisy, bucket_penalty=10.0), \
            "partition diverged from the reference"

        groups = []
        for d in range(14):  # complete binary tree, heap-ordered
            parents = np.arange(2**d - 1, 2**(d + 1) - 1, dtype=np.intp)
            groups.append((parents,
                           np.stack([2 * parents + 1, 2 * parents + 2], axis=1)))
        n_nodes = 2**15 - 1
        own_values = rng.normal(0.0, 50.0, n_nodes)
        own_vars = rng.uniform(0.5, 8.0, n_nodes)
        ref = kernels._tree_two_pass(groups, own_values, own_vars, block=TREE_BLOCK)
        got = kernels._tree_two_pass(groups, own_values, own_vars, block=7)
        assert got.tobytes() == ref.tobytes(), \
            "tree solve moved with the row block size"

    run_once(benchmark, study)
