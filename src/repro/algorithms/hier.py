"""Hierarchical data-independent algorithms H and Hb.

H (Hay et al., PVLDB 2010) measures noisy totals of every node of a binary
(or b-ary) tree over the domain with a uniform per-level budget and then
enforces consistency via least squares.  Hb (Qardaji et al., PVLDB 2013) is
the same algorithm with the branching factor chosen to minimise the average
range-query variance for the given domain size.

Both are thin instances of the plan pipeline: their selection stage is
:func:`tree_plan` (measure every node of a hierarchy, per-level budget
shares), the noise stage is the shared :func:`~repro.core.plan.measure_plan`,
and reconstruction is the generic GLS solve (exact two-pass tree fast path).
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .mechanisms import PrivacyBudget
from .tree import HierarchicalTree, optimal_branching

__all__ = ["HierarchicalH", "HierarchicalHb", "tree_plan"]


def tree_plan(
    tree: HierarchicalTree,
    level_epsilons: np.ndarray,
    domain_shape: tuple[int, ...] | None = None,
    ordering: np.ndarray | None = None,
    partition: np.ndarray | None = None,
) -> MeasurementPlan:
    """The selection plan of every tree-measuring strategy.

    One query per tree node (node-index order) with its level's budget share;
    a level with a non-positive share is left unmeasured and reconstructed
    through consistency.  The levels partition the domain, so the exact
    measurement cost is ``sum(level_epsilons)`` by parallel-within-level /
    sequential-across-level composition, passed as ``epsilon_measure``.

    ``measure_plan(x, tree_plan(tree, level_epsilons), rng)`` measures every
    node of ``tree`` over ``x``; the "domain" need not be raw cells (DAWA
    measures its vector of bucket totals, whose per-bucket sensitivity is
    likewise 1).  Noise is drawn in node-index order — the draw order is
    part of the reproducibility contract (golden values pin it).
    """
    level_epsilons = np.asarray(level_epsilons, dtype=float)
    if level_epsilons.size != tree.n_levels:
        raise ValueError("need one epsilon per tree level")
    return MeasurementPlan(
        queries=tree.as_query_matrix(),
        epsilons=np.repeat(level_epsilons, np.diff(tree.level_spans())),
        domain_shape=tuple(domain_shape) if domain_shape is not None
        else tree.domain_shape,
        tree=tree,
        ordering=ordering,
        partition=partition,
        epsilon_measure=float(np.maximum(level_epsilons, 0.0).sum()),
    )


class HierarchicalH(PlanAlgorithm):
    """H: b-ary hierarchy with uniform per-level budget and consistency."""

    properties = AlgorithmProperties(
        name="H",
        supported_dims=(1,),
        data_dependent=False,
        hierarchical=True,
        parameters={"branching": 2},
        reference="Hay, Rastogi, Miklau, Suciu. PVLDB 2010",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        shape, branching = x.shape, int(self.params["branching"])
        tree = self._memo("tree", (shape, branching),
                          lambda: HierarchicalTree(shape, branching=branching))
        level_epsilons = np.full(tree.n_levels, budget.total / tree.n_levels)
        return tree_plan(tree, level_epsilons)


class HierarchicalHb(PlanAlgorithm):
    """Hb: H with the branching factor optimised for the domain size."""

    properties = AlgorithmProperties(
        name="Hb",
        supported_dims=(1, 2),
        data_dependent=False,
        hierarchical=True,
        reference="Qardaji, Yang, Li. PVLDB 2013",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        shape = x.shape
        tree = self._memo("tree", (shape,), lambda: HierarchicalTree(
            shape, branching=optimal_branching(max(shape))))
        level_epsilons = np.full(tree.n_levels, budget.total / tree.n_levels)
        return tree_plan(tree, level_epsilons)
