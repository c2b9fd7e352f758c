"""Generic sparse weighted least-squares inference over measurement sets.

Consistency post-processing is the single biggest accuracy lever identified by
the paper (Section 5, Finding 9): mutually redundant noisy measurements are
reconciled by (weighted) least squares.  This module solves that problem for
*any* :class:`~repro.core.measurement.MeasurementSet` — the measurements do
not need to form a tree.  There are two solvers, and the set's ``tree`` tag
picks between them:

* tree-tagged sets — the classic two-pass algorithm
  (:func:`tree_least_squares`) computes the exact GLS solution in
  O(nodes); this is the path of H, Hb, GreedyH, QuadTree and DAWA's stage
  two (a tree over its private buckets).
* untagged sets — matrix-free LSMR on the variance-whitened implicit
  operator (prefix-sum matvec / difference-array rmatvec, nothing
  materialised).  Converges to the *minimum-norm* least-squares solution,
  which for rank-deficient tree systems (aggregated leaves) coincides with
  the uniform within-leaf expansion the tree solve uses.  To solve a
  tree-tagged set this way, drop the tag:
  ``solve_gls(dataclasses.replace(measurements, tree=None))``.

The one closed form that is not a tree is :func:`reconcile_shift`: a group
of cells measured one by one whose total is also measured directly (SF's
buckets, DPCube's kd blocks, AGrid's coarse cells).
"""

from __future__ import annotations

import numpy as np

from ..workload.linops import rectangle_cells
from .kernels import get_kernel
from .measurement import MeasurementSet

__all__ = ["reconcile_shift", "solve_gls", "tree_least_squares"]


def reconcile_shift(totals, total_variances, sums, member_variance, sizes):
    """The GLS correction of every member of a group of cells whose total
    was measured twice.

    A group of ``sizes`` members, each measured with variance
    ``member_variance``, sums to ``sums``; its total was also measured
    directly, as ``totals`` with variance ``total_variances``.  The
    least-squares solution combines the two totals by inverse variance and
    shifts every member by the same amount; this returns that shift,
    ``(combined - sums) / sizes``.  A zero or infinite variance carries no
    weight, and a group with no weight falls back to the mean of its two
    totals.  All arguments broadcast against each other.
    """
    sum_variances = member_variance * sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        w_total = np.where(np.isfinite(total_variances) & (total_variances > 0),
                           1.0 / total_variances, 0.0)
        w_sum = np.where(np.isfinite(sum_variances) & (sum_variances > 0),
                         1.0 / sum_variances, 0.0)
        weight = w_total + w_sum
        combined = np.where(weight == 0, (totals + sums) / 2,
                            (w_total * totals + w_sum * sums) / weight)
    return (combined - sums) / sizes


def tree_least_squares(tree, measurements: np.ndarray,
                       variances: np.ndarray) -> np.ndarray:
    """Least-squares consistent estimates of every node total of ``tree``
    (a :class:`~repro.algorithms.tree.HierarchicalTree`), such that every
    internal node equals the sum of its children.

    ``measurements`` and ``variances`` hold one entry per node, in node
    order; ``nan`` or an infinite variance marks an unmeasured node.

    Pass 1 (bottom-up) combines each node's own measurement with the sum of
    its children's combined estimates by inverse variance.  Pass 2
    (top-down) distributes the residual between a parent's final value and
    the sum of its children's pass-1 values over the children, in
    proportion to their pass-1 variances.  For a tree this is the exact
    generalized least-squares solution (Hay et al., PVLDB 2010).

    Both passes run in the ``tree_two_pass`` kernel over the tree's
    :meth:`~repro.algorithms.tree.HierarchicalTree.sibling_groups`,
    streamed in row blocks (:data:`repro.core.kernels.TREE_BLOCK`).  The
    float operations are those of the historical node-at-a-time solver:
    pass-1 child sums accumulate column by column, pass-2 row sums are
    numpy's pairwise ``sum`` over length-``k`` rows, and blocking changes no
    per-row operation, so results are bitwise identical.
    """
    measurements = np.asarray(measurements, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if measurements.shape != (tree.n_nodes,) or variances.shape != (tree.n_nodes,):
        raise ValueError("measurements/variances must have one entry per tree node")
    unmeasured = ~np.isfinite(measurements)
    own_values = np.where(unmeasured, 0.0, measurements)
    own_vars = np.where(unmeasured, np.inf, variances)
    return get_kernel("tree_two_pass")(tree.sibling_groups(), own_values, own_vars)


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
