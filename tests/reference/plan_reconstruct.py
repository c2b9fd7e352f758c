"""The plan pipeline's historical inference-stage dispatch: disjointness is
always re-derived from the per-cell query counts
(:meth:`~repro.workload.linops.QueryMatrix.cell_counts`), and the disjoint
scatter divides every answer by its query size, single cells included.
Kept as the oracle :func:`repro.core.plan.reconstruct` is pinned against:
same solver, bitwise-equal estimate."""

from __future__ import annotations

import numpy as np

from repro.core.gls import solve_gls
from repro.workload.linops import _expand_runs


def disjoint_estimate_reference(measured) -> np.ndarray:
    """Spread each disjoint query's answer uniformly over its cells."""
    queries = measured.queries
    per_cell = measured.values / queries.query_sizes()
    estimate = np.zeros(queries.domain_shape)
    if queries.ndim == 1:
        lengths = queries.his[:, 0] - queries.los[:, 0] + 1
        cells = _expand_runs(queries.los[:, 0], lengths)
        estimate[cells] = np.repeat(per_cell, lengths)
        return estimate
    _, cols = queries.domain_shape
    heights = queries.his[:, 0] - queries.los[:, 0] + 1
    widths = queries.his[:, 1] - queries.los[:, 1] + 1
    run_rows = _expand_runs(queries.los[:, 0], heights)
    run_query = np.repeat(np.arange(queries.n_queries), heights)
    starts = run_rows * cols + queries.los[run_query, 1]
    cells = _expand_runs(starts, widths[run_query])
    estimate.reshape(-1)[cells] = np.repeat(per_cell, heights * widths)
    return estimate


def reconstruct_reference(plan, measurements) -> tuple[np.ndarray, str]:
    """The estimate and the solver that produced it (``tree``, ``disjoint``
    or ``lsmr``)."""
    if plan.tree is not None:
        estimate, path = solve_gls(measurements), "tree"
    else:
        measured = measurements.measured()
        if len(measured) and measured.queries.cell_counts().max() <= 1:
            estimate, path = disjoint_estimate_reference(measured), "disjoint"
        else:
            estimate = solve_gls(measurements)
            path = "tree" if measurements.tree is not None else "lsmr"
    estimate = np.asarray(estimate, dtype=float)
    if plan.partition is not None:
        widths = np.diff(plan.partition)
        estimate = np.repeat(estimate.reshape(-1) / widths, widths)
    if plan.ordering is not None:
        flat = np.empty(plan.ordering.size)
        flat[plan.ordering] = estimate.reshape(-1)
        estimate = flat
    return estimate.reshape(plan.domain_shape), path
