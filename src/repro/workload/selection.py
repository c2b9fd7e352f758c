"""Workload-aware measurement selection (matrix-mechanism style).

The matrix mechanism frames a private release as the choice of a *strategy*
query set ``A`` whose noisy answers, reconciled by least squares, answer the
target workload ``W`` with minimal expected variance.  This module implements
a greedy, data-independent selection over hierarchical candidate strategies:

* **candidates** are b-ary hierarchies over the domain for a small set of
  branching factors — in 2-D the b x b quadtree-style trees plus kd-style
  marginal-grid hierarchies that split one axis per level — each refined by
  greedily *dropping* internal levels: a dropped level is left unmeasured and
  every workload query that used its nodes re-decomposes onto the nearest
  measured descendants;
* **scoring** is the expected workload variance of a candidate under the
  canonical-decomposition error model with the cube-root-optimal per-level
  budget allocation (the same model GreedyH's allocation minimises): with
  per-level usage counts ``c_l`` over the measured levels, the optimal
  allocation ``eps_l ∝ c_l^(1/3)`` gives total variance
  ``2 (sum_l c_l^(1/3))^3 / eps^2``.  The model is the standard
  upper-bound proxy for the exact GLS variance (consistency only tightens
  it); the tests cross-check the ranking against the exact dense GLS
  covariance on small domains.

A pruned candidate's usage counts are ``tree.level_usage(workload,
measured)`` (:meth:`~repro.algorithms.tree.HierarchicalTree.level_usage`):
vectorised rank queries on the tree's per-level interval (1-D) or grid
(2-D) tables, no dense strategy or workload matrices, and in 2-D no lossy
Hilbert-span detour: the true rectangle workload is scored natively.

The result plugs straight into the plan pipeline: ``GreedyW``
(:mod:`repro.algorithms.greedy_w`) wraps :func:`greedy_tree_strategy` as a
:class:`~repro.core.plan.SelectionStrategy`, which is all it takes for a new
selection idea to become a benchmark algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.tree import HierarchicalTree

__all__ = ["TreeStrategy", "candidate_trees", "predicted_workload_variance",
           "greedy_tree_strategy"]


def predicted_workload_variance(usage: np.ndarray, epsilon: float = 1.0) -> float:
    """Expected total workload variance of a strategy with the given usage.

    Canonical-decomposition model under the cube-root-optimal allocation:
    minimising ``sum_l c_l / eps_l**2`` (per-level Laplace variance
    ``2 / eps_l**2`` times usage) subject to ``sum_l eps_l = eps`` gives
    ``2 (sum_l c_l^(1/3))^3 / eps^2``.  The bottom level is floored to one
    use, mirroring :func:`~repro.algorithms.greedy_h.greedy_budget_allocation`
    (the leaves are always measured).
    """
    usage = np.asarray(usage, dtype=float).copy()
    if usage.sum() <= 0:
        usage[:] = 1.0
    usage[-1] = max(usage[-1], 1.0)
    roots = np.cbrt(usage[usage > 0])
    return 2.0 * float(roots.sum()) ** 3 / float(epsilon) ** 2


@dataclass
class TreeStrategy:
    """A selected hierarchical strategy: the tree, its measured levels, the
    workload usage over them and the model score (variance at epsilon 1)."""

    tree: HierarchicalTree
    measured: np.ndarray
    usage: np.ndarray
    score: float


def _greedy_prune(tree: HierarchicalTree, workload) -> TreeStrategy:
    """Greedily drop internal levels of one candidate tree: repeatedly remove
    the level whose removal most reduces the predicted variance (re-deriving
    the usage counts of the remaining levels, since dropped nodes re-route
    queries to their descendants), until no single drop helps."""
    leaf_levels = set(tree.node_levels()[tree.leaf_indices()].tolist())
    measured = np.ones(tree.n_levels, dtype=bool)
    usage = tree.level_usage(workload, measured)
    score = predicted_workload_variance(usage)
    while True:
        best_drop = None
        for level in range(tree.n_levels):
            if not measured[level] or level in leaf_levels:
                continue
            trial = measured.copy()
            trial[level] = False
            trial_usage = tree.level_usage(workload, trial)
            trial_score = predicted_workload_variance(trial_usage)
            if trial_score < score and (
                    best_drop is None or trial_score < best_drop[0]):
                best_drop = (trial_score, level, trial, trial_usage)
        if best_drop is None:
            break
        score, _, measured, usage = best_drop
    return TreeStrategy(tree=tree, measured=measured, usage=usage, score=score)


def candidate_trees(domain_shape: tuple[int, ...],
                    branchings: tuple[int, ...]) -> list[HierarchicalTree]:
    """The candidate hierarchies the greedy selection scores.

    1-D: one b-ary tree per branching factor.  2-D: the b x b trees
    (quadtree-style, every axis split per level) for every branching factor,
    plus the two kd-style marginal-grid hierarchies (one axis split per
    level, alternating, starting from either axis) which offer finer-grained
    levels to prune.
    """
    if not branchings:
        raise ValueError("need at least one candidate branching factor")
    trees = [HierarchicalTree(domain_shape, branching=int(b))
             for b in branchings]
    if len(domain_shape) == 2:
        trees += [HierarchicalTree(domain_shape, branching=2, split_axes=axes)
                  for axes in ((0, 1), (1, 0))]
    return trees


def greedy_tree_strategy(
    domain: int | tuple[int, ...],
    workload,
    branchings: tuple[int, ...] = (2, 4, 8, 16),
) -> TreeStrategy:
    """Greedily select the hierarchical strategy with the lowest predicted
    workload variance.

    ``domain`` is the domain size (1-D) or shape (1-D or 2-D).  Every
    candidate hierarchy (:func:`candidate_trees`) is pruned level by level
    (:func:`_greedy_prune`) and the best pruned candidate wins.  Ties keep
    the earlier candidate, so the search is deterministic.  In 2-D the
    workload's rectangles are scored natively on the candidate trees' grid
    tables — no Hilbert flattening, no dense matrices.  Raises
    ``ValueError`` when a workload query lies outside ``domain``.
    """
    domain_shape = (int(domain),) if np.isscalar(domain) \
        else tuple(int(d) for d in domain)
    best: TreeStrategy | None = None
    for tree in candidate_trees(domain_shape, branchings):
        strategy = _greedy_prune(tree, workload)
        if best is None or strategy.score < best.score:
            best = strategy
    return best
