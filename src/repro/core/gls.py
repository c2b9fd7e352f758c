"""Generic sparse weighted least-squares inference over measurement sets.

Consistency post-processing is the single biggest accuracy lever identified by
the paper (Section 5, Finding 9): mutually redundant noisy measurements are
reconciled by (weighted) least squares.  This module solves that problem for
*any* :class:`~repro.core.measurement.MeasurementSet` — the measurements do
not need to form a tree.  There are two solvers, and the set's ``tree`` tag
picks between them:

* tree-tagged sets — the classic two-pass algorithm
  (:func:`~repro.algorithms.inference.tree_least_squares`) computes the
  exact GLS solution in O(nodes); this is the path of H, Hb, GreedyH,
  QuadTree and DAWA's stage two (a tree over its private buckets).
* untagged sets — matrix-free LSMR on the variance-whitened implicit
  operator (prefix-sum matvec / difference-array rmatvec, nothing
  materialised).  Converges to the *minimum-norm* least-squares solution,
  which for rank-deficient tree systems (aggregated leaves) coincides with
  the uniform within-leaf expansion the tree solve uses.  To solve a
  tree-tagged set this way, drop the tag:
  ``solve_gls(dataclasses.replace(measurements, tree=None))``.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.inference import tree_least_squares
from ..workload.linops import rectangle_cells
from .measurement import MeasurementSet

__all__ = ["solve_gls"]


def _solve_tree(measurements: MeasurementSet) -> np.ndarray:
    """Exact two-pass GLS on a tree-tagged measurement set, expanded to cells
    (uniform within aggregated leaves).

    Everything runs on the tree's flyweight arrays — leaf indices, sizes and
    bounds — with no per-node object in sight; the aggregated-leaf 2-D path
    scatters the leaves' :func:`~repro.workload.linops.rectangle_cells`
    instead of looping leaf slices.  Per-leaf float divisions are
    elementwise, so every path is bitwise-identical to the historical
    per-node loops.
    """
    tree = measurements.tree
    consistent = tree_least_squares(tree, measurements.values, measurements.variances)
    indices = tree.leaf_indices().astype(np.intp, copy=False)
    sizes = tree.node_sizes()[indices].astype(np.intp, copy=False)
    los, his = tree.node_bounds()
    if len(tree.domain_shape) == 1:
        # Vectorised expansion: leaves tile the 1-D domain, so one repeat of
        # the per-leaf averages (in domain order) fills every cell.  Matters
        # for partition-heavy trees (DAWA buckets) with thousands of leaves.
        order = np.argsort(los[indices, 0], kind="stable")
        indices, sizes = indices[order], sizes[order]
        return np.repeat(consistent[indices] / sizes, sizes)
    estimate = np.zeros(tree.domain_shape)
    if np.all(sizes == 1):
        # Vectorised 2-D expansion for cell-leaf trees (full quadtrees, the
        # native 2-D selection strategies): one scatter instead of one slice
        # assignment per leaf.  Division by the all-ones sizes is exact, so
        # this is bitwise-identical to the historical per-leaf loop.
        estimate[los[indices, 0], los[indices, 1]] = consistent[indices] / sizes
        return estimate
    # Aggregated 2-D leaves (fixed-height quadtrees on large domains): one
    # flat scatter over every leaf's cells.  Leaves are disjoint, so the
    # assignment order cannot matter.
    cells, areas = rectangle_cells(los[indices], his[indices], tree.domain_shape)
    estimate.ravel()[cells] = np.repeat(consistent[indices] / sizes, areas)
    return estimate


def _whitened(measurements: MeasurementSet):
    """Measured rows, whitened: returns (queries, scaled values, row scales)."""
    measured = measurements.measured()
    if len(measured) == 0:
        raise ValueError("measurement set contains no measured query")
    scales = 1.0 / np.sqrt(measured.variances)
    return measured.queries, measured.values * scales, scales


def _solve_lsmr(measurements: MeasurementSet) -> np.ndarray:
    from scipy.sparse.linalg import LinearOperator, lsmr

    queries, b, scales = _whitened(measurements)
    operator = LinearOperator(
        shape=queries.shape,
        matvec=lambda x: queries.matvec(x) * scales,
        rmatvec=lambda y: queries.rmatvec(np.asarray(y).ravel() * scales).ravel(),
    )
    maxiter = max(200, 10 * queries.domain_size)
    solution = lsmr(operator, b, atol=1e-12, btol=1e-12, conlim=0.0, maxiter=maxiter)[0]
    return solution.reshape(measurements.domain_shape)


def solve_gls(measurements: MeasurementSet) -> np.ndarray:
    """Weighted least-squares cell estimates from a measurement set.

    Minimises ``sum_i (W_i x - y_i)^2 / sigma_i^2`` over the measured queries
    and returns the estimate shaped like the domain: the exact two-pass solve
    when the set is tree-tagged, LSMR otherwise (see the module docstring).
    """
    if measurements.tree is not None:
        return _solve_tree(measurements)
    return _solve_lsmr(measurements)
