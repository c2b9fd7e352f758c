"""QuadTree spatial decomposition (Cormode et al., ICDE 2012).

QuadTree builds a quadtree of fixed maximum height over the 2-D domain,
measures a noisy count at every node with a uniform per-level budget and
post-processes the counts for consistency.  Since the height is fixed, on
sufficiently large domains the leaves aggregate several cells and uniform
expansion introduces a bias that does not vanish with epsilon — QuadTree is
not consistent on such domains (Theorem 5 of the paper).
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .hier import tree_plan
from .mechanisms import PrivacyBudget
from .tree import HierarchicalTree

__all__ = ["QuadTree"]


class QuadTree(PlanAlgorithm):
    """Fixed-height quadtree with consistency post-processing."""

    properties = AlgorithmProperties(
        name="QuadTree",
        supported_dims=(2,),
        data_dependent=True,
        hierarchical=True,
        partitioning=True,
        parameters={"max_height": 10},
        consistent=False,
        reference="Cormode, Procopiuc, Shen, Srivastava, Yu. ICDE 2012",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        shape, max_height = x.shape, int(self.params["max_height"])
        tree = self._memo("tree", (shape, max_height), lambda: HierarchicalTree(
            shape, branching=2, max_height=max_height))
        level_epsilons = np.full(tree.n_levels, budget.total / tree.n_levels)
        return tree_plan(tree, level_epsilons)
