"""QuadTree and HybridTree spatial decompositions (Cormode et al., ICDE 2012).

QuadTree builds a quadtree of fixed maximum height over the 2-D domain,
measures a noisy count at every node with a uniform per-level budget and
post-processes the counts for consistency.  Since the height is fixed, on
sufficiently large domains the leaves aggregate several cells and uniform
expansion introduces a bias that does not vanish with epsilon — QuadTree is
not consistent on such domains (Theorem 5 of the paper).

HybridTree (an extra beyond the paper's Table 1 evaluation set) replaces the
first few levels with data-dependent kd-style splits chosen from privately
perturbed marginals and then completes the decomposition with a quadtree.
"""

from __future__ import annotations

import numpy as np

from ..core.gls import solve_gls
from ..core.plan import MeasurementPlan, measure_plan
from ..workload.rangequery import Workload
from .base import Algorithm, AlgorithmProperties, PlanAlgorithm
from .hier import tree_plan
from .mechanisms import PrivacyBudget, laplace_noise
from .tree import HierarchicalTree

__all__ = ["QuadTree", "HybridTree"]


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


class HybridTree(Algorithm):
    """kd-tree top levels followed by a quadtree (data-dependent hybrid).

    Deliberately *not* on the plan pipeline: after the kd splits, every
    block is measured and solved as its *own* small hierarchy — a forest of
    independent trees, which the tree-tagged GLS fast path (one tree per
    measurement set) does not express.  The golden 2-D output pins the
    historical per-block noise-draw and solve order.
    """

    properties = AlgorithmProperties(
        name="HybridTree",
        supported_dims=(2,),
        data_dependent=True,
        hierarchical=True,
        partitioning=True,
        parameters={"kd_levels": 3, "max_height": 10, "rho": 0.1},
        consistent=False,
        reference="Cormode, Procopiuc, Shen, Srivastava, Yu. ICDE 2012",
    )

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        kd_levels = int(self.params["kd_levels"])
        max_height = int(self.params["max_height"])
        rho = float(self.params["rho"])
        blocks = self._kd_blocks(x, kd_levels, budget, rho, rng)
        eps_per_block = budget.spend_all("counts")  # disjoint: parallel composition
        estimate = np.zeros(x.shape)
        for slices in blocks:
            sub = x[slices]
            remaining_height = max(1, max_height - kd_levels)
            tree = HierarchicalTree(sub.shape, branching=2, max_height=remaining_height)
            level_epsilons = np.full(tree.n_levels, eps_per_block / tree.n_levels)
            estimate[slices] = solve_gls(
                measure_plan(sub, tree_plan(tree, level_epsilons), rng))
        return estimate

    @staticmethod
    def _kd_blocks(x: np.ndarray, kd_levels: int, budget: PrivacyBudget,
                   rho: float, rng: np.random.Generator) -> list[tuple[slice, ...]]:
        """Recursively split on noisy-marginal medians for ``kd_levels``
        rounds, paying ``rho`` of the budget's total for the splits."""
        eps_split = budget.spend(budget.total * rho, "kd-splits")
        blocks = [tuple(slice(0, s) for s in x.shape)]
        eps_per_level = eps_split / max(kd_levels, 1)
        for level in range(kd_levels):
            next_blocks: list[tuple[slice, ...]] = []
            axis = level % x.ndim
            for block in blocks:
                length = block[axis].stop - block[axis].start
                if length <= 1:
                    next_blocks.append(block)
                    continue
                profile = x[block]
                if x.ndim == 2:
                    profile = profile.sum(axis=1 - axis)
                noisy_profile = profile + laplace_noise(1.0 / eps_per_level, profile.shape, rng)
                noisy_profile = np.maximum(noisy_profile, 0.0)
                cumulative = np.cumsum(noisy_profile)
                total = cumulative[-1]
                if total <= 0:
                    offset = length // 2
                else:
                    offset = int(np.searchsorted(cumulative, total / 2.0)) + 1
                    offset = min(max(offset, 1), length - 1)
                start = block[axis].start
                left, right = list(block), list(block)
                left[axis] = slice(start, start + offset)
                right[axis] = slice(start + offset, block[axis].stop)
                next_blocks.extend([tuple(left), tuple(right)])
            blocks = next_blocks
        return blocks
