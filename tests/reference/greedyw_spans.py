"""GreedyW's retired Hilbert-span selection in 2-D, kept as the baseline its
native 2-D selection is measured against.

Each rectangle of a 2-D workload is blurred to the span of its Hilbert-curve
positions, the greedy search runs over 1-D hierarchies of the flattened
domain, and the plan measures them in curve order.  On 1-D data it is
GreedyW itself.  Composed from the public pieces: ``plan_flattening``,
``greedy_tree_strategy``, ``greedy_budget_allocation`` and ``tree_plan``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmProperties, PlanAlgorithm, workload_key
from repro.algorithms.greedy_h import greedy_budget_allocation
from repro.algorithms.hier import tree_plan
from repro.algorithms.hilbert import plan_flattening
from repro.core.plan import MeasurementPlan
from repro.workload.builders import prefix_workload
from repro.workload.selection import greedy_tree_strategy


def _span_selection(shape, branchings, workload):
    ordering, flat_shape, flat_workload = plan_flattening(shape, workload)
    if flat_workload is None or flat_workload.ndim != 1 \
            or flat_workload.domain_shape != flat_shape:
        flat_workload = prefix_workload(flat_shape[0])
    return greedy_tree_strategy(flat_shape, flat_workload,
                                branchings=branchings), ordering


class GreedyWSpans(PlanAlgorithm):
    """GreedyW selecting over the Hilbert-flattened domain in 2-D."""

    properties = AlgorithmProperties(
        name="GreedyW (Hilbert spans)",
        supported_dims=(1, 2),
        data_dependent=False,
        hierarchical=True,
        workload_aware=True,
        parameters={"branchings": (2, 4, 8, 16)},
    )

    def select(self, x: np.ndarray, workload, budget, rng) -> MeasurementPlan:
        shape = x.shape
        branchings = tuple(int(b) for b in self.params["branchings"])
        strategy, ordering = self._memo(
            "selection", (shape, branchings, workload_key(workload)),
            lambda: _span_selection(shape, branchings, workload))
        level_epsilons = greedy_budget_allocation(strategy.usage, budget.total)
        return tree_plan(strategy.tree, level_epsilons, domain_shape=shape,
                         ordering=ordering)
