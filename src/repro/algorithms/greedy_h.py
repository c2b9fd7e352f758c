"""GreedyH: a workload-aware hierarchical strategy (Li et al., PVLDB 2014).

GreedyH builds a binary hierarchy over the domain and tunes the per-level
privacy-budget allocation to the workload: levels whose nodes appear more
often in the canonical decompositions of the workload queries receive more
budget.  With per-level variances ``2 / eps_l**2`` and per-level usage counts
``c_l``, minimising ``sum_l c_l / eps_l**2`` subject to ``sum_l eps_l = eps``
gives the classic cube-root allocation ``eps_l ∝ c_l^(1/3)``.

On the plan pipeline, GreedyH *is* its selection stage: a hierarchy plan with
workload-tuned level shares.  GreedyH is one-dimensional; the 2-D variant
flattens the grid along a Hilbert curve (as the paper does for DAWA/GreedyH)
by attaching the curve ordering to the plan and mapping the 2-D workload onto
the curve (:func:`~repro.algorithms.hilbert.flatten_workload`) so the budget
allocation stays workload-aware; without a workload it falls back to the
prefix workload over the flattened domain.
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan
from ..workload.builders import prefix_workload
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm, workload_key
from .hier import tree_plan
from .hilbert import plan_flattening
from .mechanisms import PrivacyBudget
from .tree import HierarchicalTree

__all__ = ["GreedyH", "greedy_budget_allocation"]


def greedy_budget_allocation(usage: np.ndarray, epsilon: float) -> np.ndarray:
    """Cube-root budget allocation across levels given per-level usage counts.

    Unused levels receive no budget (their nodes are left unmeasured and are
    reconstructed through consistency).  The leaf level always receives some
    budget so that individual cells remain identifiable.
    """
    usage = np.asarray(usage, dtype=float).copy()
    if usage.sum() <= 0:
        usage[:] = 1.0
    usage[-1] = max(usage[-1], 1.0)       # always measure the leaves
    weights = np.cbrt(usage)
    weights = np.where(usage > 0, weights, 0.0)
    return epsilon * weights / weights.sum()


class GreedyH(PlanAlgorithm):
    """Workload-aware binary hierarchy with greedy budget allocation."""

    properties = AlgorithmProperties(
        name="GreedyH",
        supported_dims=(1, 2),
        data_dependent=False,
        hierarchical=True,
        workload_aware=True,
        parameters={"branching": 2},
        reference="Li, Hay, Miklau. PVLDB 2014",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        shape, branching = x.shape, int(self.params["branching"])
        ordering, tree, usage = self._memo(
            "selection", (shape, branching, workload_key(workload)),
            lambda: self._selection(shape, branching, workload))
        level_epsilons = greedy_budget_allocation(usage, budget.total)
        return tree_plan(tree, level_epsilons, domain_shape=shape,
                         ordering=ordering)

    @staticmethod
    def _selection(shape: tuple[int, ...], branching: int,
                   workload: Workload | None):
        """The data-independent part of the selection: the flattening
        ordering, the hierarchy and the workload's per-level usage."""
        ordering, flat_shape, workload = plan_flattening(shape, workload)
        tree = HierarchicalTree(flat_shape, branching=branching)
        if workload is None or workload.ndim != 1 \
                or workload.domain_shape != flat_shape:
            workload = prefix_workload(flat_shape[0])
        return ordering, tree, tree.level_usage(workload)
