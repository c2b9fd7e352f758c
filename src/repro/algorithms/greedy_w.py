"""GreedyW: workload-aware greedy measurement selection on the plan pipeline.

GreedyW is the first algorithm built *on top of* the Select -> Measure ->
Reconstruct seam rather than ported onto it: its entire identity is a
:class:`~repro.core.plan.SelectionStrategy`.  The selection
(:func:`~repro.workload.selection.greedy_tree_strategy`) scores candidate
hierarchical query sets — b-ary trees over a range of branching factors,
greedily pruned level by level — by their expected GLS variance against the
target workload (matrix-mechanism style, computed through the sparse interval
tables; no dense matrices), then allocates the budget across the surviving
levels with the classic cube-root rule.

Where GreedyH always measures the full binary hierarchy and only *tunes* the
per-level budgets, GreedyW also chooses *which* hierarchy and which of its
levels to measure at all: on skewed workloads (point-query-heavy with a tail
of ranges) it drops the barely-used middle levels and concentrates the budget
where the workload actually is, beating GreedyH at equal epsilon; the
selection-quality micro-bench pins that win.

GreedyW is data-independent: the selection consults only the workload and the
domain, so the search runs once per (domain shape, parameters, workload
corners) and is kept in the instance's one selection memo slot
(:meth:`~repro.algorithms.base.PlanAlgorithm._memo`); a release at a new
shape or workload replaces it.
In 2-D the selection is *native*: candidates are quadtree-style b x b trees
and kd-style marginal-grid hierarchies over the grid itself, scored against
the true rectangle workload through the per-level grid tables, and the winner
is emitted as a tree-tagged 2-D plan solved by the exact two-pass GLS — no
Hilbert flattening, no lossy query spans (the flattened span path remains as
GreedyH/DAWA's prescription, and as GreedyW's fallback when no matching 2-D
workload is supplied).
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan
from ..workload.builders import prefix_workload
from ..workload.rangequery import Workload
from ..workload.selection import greedy_tree_strategy
from .base import AlgorithmProperties, PlanAlgorithm, workload_key
from .greedy_h import greedy_budget_allocation
from .hier import tree_plan
from .hilbert import plan_flattening
from .mechanisms import PrivacyBudget

__all__ = ["GreedyW"]


class GreedyW(PlanAlgorithm):
    """Greedy workload-aware hierarchy selection with cube-root budgets."""

    properties = AlgorithmProperties(
        name="GreedyW",
        supported_dims=(1, 2),
        data_dependent=False,
        hierarchical=True,
        workload_aware=True,
        parameters={"branchings": (2, 4, 8, 16)},
        reference="This reproduction: greedy matrix-mechanism-style selection",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        shape = x.shape
        branchings = tuple(int(b) for b in self.params["branchings"])
        strategy, ordering = self._memo(
            "selection", (shape, branchings, workload_key(workload)),
            lambda: self._selection(shape, branchings, workload))
        # The dropped levels carry zero usage, so the cube-root allocation
        # leaves them unmeasured — the same rule GreedyH applies to levels
        # the workload never touches.
        level_epsilons = greedy_budget_allocation(strategy.usage, budget.total)
        return tree_plan(strategy.tree, level_epsilons, domain_shape=shape,
                         ordering=ordering)

    @staticmethod
    def _selection(shape: tuple[int, ...], branchings: tuple[int, ...],
                   workload: Workload | None):
        """The greedy search and the flattening ordering it runs under
        (``None`` on the native 2-D path)."""
        if len(shape) == 2 and workload is not None \
                and workload.ndim == 2 and workload.domain_shape == shape:
            # Native 2-D path: score the true rectangle workload on 2-D
            # candidate hierarchies and emit a tree-tagged 2-D plan.
            return greedy_tree_strategy(shape, workload,
                                        branchings=branchings), None
        ordering, flat_shape, workload = plan_flattening(shape, workload)
        if workload is None or workload.ndim != 1 \
                or workload.domain_shape != flat_shape:
            workload = prefix_workload(flat_shape[0])
        return greedy_tree_strategy(flat_shape, workload,
                                    branchings=branchings), ordering
