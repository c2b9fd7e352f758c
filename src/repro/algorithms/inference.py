"""Statistical inference (consistency post-processing) on hierarchical trees.

Hierarchical algorithms measure noisy totals at every node of a tree.  Those
measurements are mutually redundant — a parent should equal the sum of its
children — and exploiting the redundancy with (weighted) least squares reduces
error substantially (Hay et al., "Boosting the accuracy of differentially
private histograms through consistency").

:func:`tree_least_squares` implements the classic two-pass algorithm
generalised to per-node measurement variances, which makes it usable for H,
Hb (uniform budgets), GreedyH and QuadTree (per-level budgets) alike, and also
for DPCube-style two-source averaging.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import get_kernel
from .tree import HierarchicalTree

__all__ = ["tree_least_squares", "inverse_variance_combine",
           "inverse_variance_combine_rows", "segment_sums"]


def inverse_variance_combine(values: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Combine independent unbiased estimates by inverse-variance weighting.

    Returns the combined estimate and its variance.  Infinite variances denote
    "no measurement" and are handled gracefully.
    """
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    weights = np.where(np.isfinite(variances) & (variances > 0), 1.0 / variances, 0.0)
    total_weight = weights.sum()
    if total_weight == 0:
        return float(values.mean()), float("inf")
    estimate = float((weights * values).sum() / total_weight)
    return estimate, float(1.0 / total_weight)


def inverse_variance_combine_rows(values: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """:func:`inverse_variance_combine` of every row of ``values`` /
    ``variances`` at once (the combined estimates only), with the same float
    operations per row."""
    weights = np.where(np.isfinite(variances) & (variances > 0), 1.0 / variances, 0.0)
    total_weight = weights.sum(axis=1)
    weighted = (weights * values).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total_weight == 0, values.mean(axis=1), weighted / total_weight)


def segment_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[start:start + length].sum()`` for every segment, bit for bit.

    Segments of one length are gathered as the rows of an exact
    ``(rows, length)`` matrix and reduced along its contiguous last axis,
    which numpy sums with the same pairwise summation as each segment's own
    1-D ``sum`` (the grouping :func:`_inference_plan` relies on as well).
    """
    sums = np.empty(len(starts))
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        sums[group] = values[starts[group][:, None] + np.arange(length)].sum(axis=1)
    return sums


def _inference_plan(tree: HierarchicalTree) -> list[tuple[np.ndarray, np.ndarray]]:
    """Execution plan for the two-pass solver (cached on the tree): groups of
    ``(parents, children)`` index arrays in top-down level order.

    Per level, internal nodes are grouped by child count ``k`` so that every
    group reduces an exact ``(rows, k)`` matrix — reductions then reproduce
    the per-node float operations of the original node-at-a-time solver
    bit-for-bit (see the summation notes in :func:`tree_least_squares`).
    A node's children always live one level below it, so the flattened
    group list streamed top-down (pass 2) or bottom-up (pass 1) preserves
    the historical level-by-level data dependencies exactly.
    """
    plan = getattr(tree, "_ls_plan", None)
    if plan is not None:
        return plan
    plan = []
    offsets = tree.child_offsets()
    counts = np.diff(offsets)
    level_offsets = tree.level_spans()
    for lvl in range(tree.n_levels):
        s, e = int(level_offsets[lvl]), int(level_offsets[lvl + 1])
        level_counts = counts[s:e]
        internal = np.flatnonzero(level_counts) + s
        if internal.size == 0:
            continue
        internal_counts = level_counts[internal - s]
        # Groups ordered by ascending k, node order preserved within a group
        # (np.flatnonzero scans in index order) — the historical grouping.
        for k in np.unique(internal_counts):
            k = int(k)
            parents = internal[internal_counts == k]
            # Children of node p occupy the contiguous index run starting at
            # offsets[p] + 1 under the flyweight breadth-first layout.
            children = offsets[parents][:, None] + np.arange(1, k + 1)
            plan.append((parents.astype(np.intp, copy=False),
                         children.astype(np.intp, copy=False)))
    tree._ls_plan = plan
    return plan


def tree_least_squares(
    tree: HierarchicalTree,
    measurements: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """Least-squares consistent estimates of every node total of ``tree``.

    Parameters
    ----------
    tree:
        The hierarchy the measurements refer to.
    measurements:
        Noisy node totals, one per tree node (node-index order).  ``nan`` or an
        infinite variance marks an unmeasured node.
    variances:
        Per-node measurement variances (same order).

    Returns
    -------
    Consistent node estimates, one per node, such that every internal node
    equals the sum of its children.

    Notes
    -----
    Pass 1 (bottom-up) combines each node's own measurement with the sum of
    its children's combined estimates by inverse-variance weighting.  Pass 2
    (top-down) distributes the residual between a parent's final value and the
    sum of its children's pass-1 values across the children proportionally to
    their pass-1 variances.  For trees this reproduces the exact generalized
    least-squares solution.

    Both passes stream the level plan in fixed-size row blocks
    (:data:`repro.core.kernels.TREE_BLOCK`) via the ``tree_two_pass``
    kernel, so no per-level dense intermediate outgrows the block even at
    2**20 leaves.  The float-operation order of the historical node-at-a-time
    implementation is preserved exactly — pass-1 child sums accumulate
    column-by-column (Python ``sum`` was sequential) while pass-2 reductions
    use numpy's pairwise ``sum`` over length-``k`` rows, as the original did —
    and chunking rows changes no per-row operation, so results are bitwise
    identical.
    """
    n_nodes = tree.n_nodes
    measurements = np.asarray(measurements, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if measurements.shape != (n_nodes,) or variances.shape != (n_nodes,):
        raise ValueError("measurements/variances must have one entry per tree node")

    plan = _inference_plan(tree)

    own_values = measurements.copy()
    own_vars = variances.copy()
    unmeasured = ~np.isfinite(measurements)
    own_values[unmeasured] = 0.0
    own_vars[unmeasured] = np.inf

    # Pass 1 (bottom-up) combines each node's measurement with its children's
    # estimates by inverse variance; pass 2 (top-down) distributes the
    # parent/child-sum residuals.  Both live in the streaming kernel.
    solve = get_kernel("tree_two_pass")
    return solve(plan, own_values, own_vars)
