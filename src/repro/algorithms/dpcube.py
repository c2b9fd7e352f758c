"""DPCube: histogram release through multidimensional kd-tree partitioning
(Xiao et al., Transactions on Data Privacy 2014).

DPCube obtains noisy counts for every cell with half the budget, builds a
kd-tree partition over the *noisy* counts (splitting the heaviest block along
its longest axis at its noisy-count median), obtains fresh noisy totals for
the resulting partitions with the remaining budget, and reconciles the two
measurements: within each partition the cell-level noisy counts are shifted
uniformly so that they sum to the inverse-variance combination of the two
partition totals.  Because the cell-level measurements survive into the final
estimate, DPCube is consistent.

On the plan pipeline the phase-1 noisy cells are *both* a selection input and
measurements: :meth:`DPCube.select` pays ``rho * epsilon`` for them, derives
the kd partition from them, and emits them as the plan's pre-measured rows;
the shared noise stage then measures only the fresh partition totals, and
inference is the closed-form reconciliation (the exact GLS solution of the
cells-plus-partitions system, as pinned by the solver cross-checks).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .identity import identity_queries
from .inference import inverse_variance_combine_rows
from .mechanisms import BudgetExceededError, PrivacyBudget, laplace_noise

__all__ = ["DPCube"]


def _blocks_to_bounds(blocks: list[tuple[slice, ...]]) -> tuple[np.ndarray, np.ndarray]:
    los = np.array([[s.start for s in block] for block in blocks], dtype=np.intp)
    his = np.array([[s.stop - 1 for s in block] for block in blocks], dtype=np.intp)
    return los, his


class DPCube(PlanAlgorithm):
    """Two-phase kd-tree partitioning with cell/partition reconciliation."""

    properties = AlgorithmProperties(
        name="DPCube",
        supported_dims=(1, 2),
        data_dependent=True,
        hierarchical=True,
        partitioning=True,
        parameters={"rho": 0.5, "n_partitions": 10},
        reference="Xiao, Xiong, Fan, Goryczka, Li. TDP 2014",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        rho = float(self.params["rho"])
        n_partitions = int(self.params["n_partitions"])
        eps_cells = budget.spend(budget.total * rho, "cell-counts")
        eps_partitions = budget.remaining
        if eps_partitions <= 0:
            raise BudgetExceededError(
                "phase one consumed the whole budget; nothing left for the "
                "partition totals")

        noisy_cells = x + laplace_noise(1.0 / eps_cells, x.shape, rng)
        blocks = self._kd_partition(noisy_cells, n_partitions)
        block_los, block_his = _blocks_to_bounds(blocks)
        cells = identity_queries(x.shape)
        queries = QueryMatrix(
            np.concatenate([cells.los, block_los]),
            np.concatenate([cells.his, block_his]),
            x.shape,
        )
        # Phase-1 cells ride along as pre-measured rows (paid for above);
        # the noise stage measures one fresh total per kd block, in block
        # order — the historical noise-draw order.
        values = np.concatenate([noisy_cells.ravel(), np.full(len(blocks), np.nan)])
        variances = np.concatenate([
            np.full(x.size, 2.0 / eps_cells ** 2),
            np.full(len(blocks), np.inf),
        ])
        epsilons = np.concatenate([
            np.zeros(x.size), np.full(len(blocks), eps_partitions)])
        return MeasurementPlan(
            queries=queries,
            epsilons=epsilons,
            domain_shape=x.shape,
            values=values,
            variances=variances,
            epsilon_measure=eps_partitions,    # kd blocks are disjoint
            extras={"blocks": blocks,
                    "cell_variance": 2.0 / eps_cells ** 2,
                    "partition_variance": 2.0 / eps_partitions ** 2},
        )

    def infer(self, measurements: MeasurementSet,
              plan: MeasurementPlan) -> np.ndarray:
        blocks = plan.extras["blocks"]
        n_cells = int(np.prod(plan.domain_shape))
        noisy_cells = measurements.values[:n_cells].reshape(plan.domain_shape)
        fresh_totals = measurements.values[n_cells:]
        return self._reconcile(noisy_cells, blocks, fresh_totals,
                               plan.extras["cell_variance"],
                               plan.extras["partition_variance"])

    @staticmethod
    def _reconcile(noisy_cells: np.ndarray, blocks: list[tuple[slice, ...]],
                   fresh_totals: np.ndarray, cell_variance: float,
                   partition_variance: float) -> np.ndarray:
        """Closed-form GLS solve of the DPCube measurements.

        Within each partition the exact weighted least-squares solution is a
        uniform shift of the phase-1 cells toward the inverse-variance
        combination of the two partition totals — the generic sparse solver
        (:func:`repro.core.gls.solve_gls`) reproduces it, as pinned by tests.
        """
        sizes = np.array([noisy_cells[slices].size for slices in blocks])
        phase1_totals = np.array([noisy_cells[slices].sum() for slices in blocks])
        combined = inverse_variance_combine_rows(
            np.column_stack([fresh_totals, phase1_totals]),
            np.column_stack([np.full(len(blocks), partition_variance),
                             cell_variance * sizes]),
        )
        corrections = (combined - phase1_totals) / sizes
        estimate = noisy_cells.astype(float).copy()
        for correction, slices in zip(corrections, blocks):
            estimate[slices] = noisy_cells[slices] + correction
        return estimate

    @staticmethod
    def _kd_partition(noisy: np.ndarray, n_partitions: int) -> list[tuple[slice, ...]]:
        """Split the domain into at most ``n_partitions`` blocks.

        Always splits the block with the largest absolute noisy mass, along
        its longest axis, at the point where the cumulative noisy count
        reaches half of the block total (a median split on noisy counts).
        """
        if noisy.ndim == 1:
            noisy = noisy  # handled uniformly through tuple indexing below
        full_block = tuple(slice(0, s) for s in noisy.shape)

        def block_weight(block: tuple[slice, ...]) -> float:
            return float(np.abs(noisy[block]).sum())

        counter = 0
        heap: list[tuple[float, int, tuple[slice, ...]]] = []
        heapq.heappush(heap, (-block_weight(full_block), counter, full_block))
        final: list[tuple[slice, ...]] = []
        while heap and len(heap) + len(final) < n_partitions:
            _, _, block = heapq.heappop(heap)
            sizes = [s.stop - s.start for s in block]
            axis = int(np.argmax(sizes))
            if sizes[axis] <= 1:
                final.append(block)
                continue
            profile = np.abs(noisy[block])
            if noisy.ndim == 2:
                profile = profile.sum(axis=1 - axis)
            cumulative = np.cumsum(profile)
            total = cumulative[-1]
            if total <= 0:
                split_offset = sizes[axis] // 2
            else:
                split_offset = int(np.searchsorted(cumulative, total / 2.0)) + 1
                split_offset = min(max(split_offset, 1), sizes[axis] - 1)
            start = block[axis].start
            left = list(block)
            right = list(block)
            left[axis] = slice(start, start + split_offset)
            right[axis] = slice(start + split_offset, block[axis].stop)
            for child in (tuple(left), tuple(right)):
                counter += 1
                heapq.heappush(heap, (-block_weight(child), counter, child))
        final.extend(block for _, _, block in heap)
        return final
