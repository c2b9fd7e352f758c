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

from ..core.gls import reconcile_shift
from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan
from ..workload.linops import QueryMatrix, rectangle_cells
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .identity import identity_queries
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
            extras={"partition_variance": 2.0 / eps_partitions ** 2},
        )

    def infer(self, measurements: MeasurementSet,
              plan: MeasurementPlan) -> np.ndarray:
        """Closed-form GLS solve of the DPCube measurements.

        Within each kd block (the plan's rows after the cells) the exact
        weighted least-squares solution shifts the phase-1 cells uniformly
        toward the inverse-variance combination of the block's two totals
        (:func:`~repro.core.gls.reconcile_shift`); the generic sparse solver
        (:func:`repro.core.gls.solve_gls`) reproduces it, as pinned by tests.
        """
        shape = plan.domain_shape
        n_cells = int(np.prod(shape))
        noisy_cells = measurements.values[:n_cells].reshape(shape)
        los, his = plan.queries.los[n_cells:], plan.queries.his[n_cells:]
        cells, sizes = rectangle_cells(los, his, shape)
        phase1_totals = np.array([noisy_cells[tuple(map(slice, lo, hi + 1))].sum()
                                  for lo, hi in zip(los, his)])
        shift = reconcile_shift(measurements.values[n_cells:],
                                plan.extras["partition_variance"], phase1_totals,
                                measurements.variances[0], sizes)
        estimate = noisy_cells.copy()
        estimate.ravel()[cells] += np.repeat(shift, sizes)
        return estimate

    @staticmethod
    def _kd_partition(noisy: np.ndarray, n_partitions: int) -> list[tuple[slice, ...]]:
        """Split the domain into at most ``n_partitions`` blocks.

        Always splits the block with the largest absolute noisy mass, along
        its longest axis, at the point where the cumulative noisy count
        reaches half of the block total (a median split on noisy counts).
        """
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
