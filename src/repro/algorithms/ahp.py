"""AHP: Accurate Histogram Publication via clustering (Zhang et al., ICDM 2014).

AHP spends a fraction ``rho`` of the budget on noisy cell counts, thresholds
small noisy counts to zero, sorts the cells by noisy value and greedily groups
cells with similar values into clusters.  The remaining budget buys a fresh
noisy total for every cluster, which is spread uniformly over the cluster's
cells.  ``rho`` and the threshold factor ``eta`` are free parameters in the
original paper; the starred variant AHP* sets them with the DPBench tuning
procedure.
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .mechanisms import BudgetExceededError, PrivacyBudget, laplace_noise

__all__ = ["AHP", "AHPStar", "greedy_value_clustering"]


def greedy_value_clustering(sorted_values: np.ndarray, tolerance: float) -> np.ndarray:
    """Group a sorted value vector into runs of similar values.

    A new cluster starts at the first value that exceeds the open cluster's
    first value by more than ``tolerance``, i.e. where
    ``not (value - first <= tolerance)``.  With ``tolerance == 0`` only
    exactly equal values share a cluster, which is what makes AHP consistent
    in the epsilon -> infinity limit.  Returns the cluster edges: cluster
    ``k`` is positions ``edges[k]:edges[k + 1]``, ``edges[0] == 0`` and
    ``edges[-1] == len(sorted_values)``.

    ``nxt[i]``, the start of the cluster a run opened at ``i`` hands over
    to, is found for every ``i`` at once: ``searchsorted`` on ``v + tolerance``
    guesses it, and entries whose guess fails the exact predicate at the
    guess or just before it are bisected with that predicate.  Over an
    ascending vector (NaN last, as ``np.sort`` puts it) the predicate only
    turns from false to true, so the bisection is exact.  The chain is then
    followed from 0, one step per cluster.
    """
    v = np.asarray(sorted_values)
    n = v.size
    index = np.arange(n)

    def starts_new(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return ~(v[j] - v[i] <= tolerance)

    # The clip keeps every guess past its own index: a negative or NaN
    # tolerance puts ``v + tolerance`` at or below ``v``.
    nxt = np.clip(np.searchsorted(v, v + tolerance, side="right"), index + 1, n)
    too_low = (nxt < n) & ~starts_new(index, np.minimum(nxt, n - 1))
    too_high = (nxt - 1 > index) & starts_new(index, nxt - 1)
    bad = np.flatnonzero(too_low | too_high)
    if bad.size:
        # Bisect each bad entry between its own index (which never starts
        # its successor) and ``n`` (the end).  Every probe is below ``n``.
        lo, hi = bad.copy(), np.full(bad.size, n)
        while (wide := hi - lo > 1).any():
            mid = (lo + hi) // 2
            new = wide & starts_new(bad, mid)
            hi = np.where(new, mid, hi)
            lo = np.where(wide & ~new, mid, lo)
        nxt[bad] = hi

    # A memoryview reads one Python int per step without converting the
    # whole table, which matters when the clusters are few.
    step, edges, start = memoryview(nxt), [0], 0
    while start < n:
        start = step[start]
        edges.append(start)
    return np.array(edges, dtype=np.intp)


class AHP(PlanAlgorithm):
    """AHP with fixed parameters ``rho`` (budget split) and ``eta`` (threshold).

    On the plan pipeline, AHP's clustering is a pure selection stage: the
    noisy sort order becomes the plan's cell ``ordering`` and the greedy
    value clusters — contiguous runs of the sorted cells — become its
    ``partition``, so the noise stage measures one total per cluster and the
    generic reconstruction (exact disjoint solve + uniform bucket expansion +
    ordering inversion) reproduces the historical per-cluster spread.
    """

    properties = AlgorithmProperties(
        name="AHP",
        supported_dims=(1, 2),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.5, "eta": 0.35},
        free_parameters=("rho", "eta"),
        reference="Zhang, Chen, Xu, Meng, Xie. ICDM 2014",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        rho = float(self.params["rho"])
        eta = float(self.params["eta"])
        if not 0 < rho < 1:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        eps_cluster = budget.spend(budget.total * rho, "clustering")
        eps_counts = budget.remaining
        if eps_counts <= 0:
            raise BudgetExceededError(
                "clustering consumed the whole budget; nothing left for the "
                "cluster counts")

        flat = x.ravel()
        n = flat.size
        noisy = flat + laplace_noise(1.0 / eps_cluster, n, rng)
        cutoff = eta * np.log(max(n, 2)) / eps_cluster
        noisy = np.where(noisy < cutoff, 0.0, noisy)

        order = np.argsort(noisy, kind="stable")
        sorted_values = noisy[order]
        # Clusters are contiguous runs of the sorted cells: the sort order is
        # the plan's ordering and the run boundaries its partition.
        edges = greedy_value_clustering(sorted_values, tolerance=cutoff)
        n_clusters = edges.size - 1
        buckets = np.arange(n_clusters, dtype=np.intp)[:, None]
        return MeasurementPlan(
            queries=QueryMatrix(buckets, buckets, (n_clusters,)),
            epsilons=np.full(n_clusters, eps_counts),
            domain_shape=x.shape,
            ordering=order,
            partition=edges,
            epsilon_measure=eps_counts,       # clusters are disjoint
        )


class AHPStar(AHP):
    """AHP with ``rho`` and ``eta`` chosen by the DPBench tuning procedure.

    The default values below are the output of training on synthetic
    power-law and normal shapes (``repro.core.tuning``); the tuner can
    override them per (epsilon, scale) setting.
    """

    properties = AlgorithmProperties(
        name="AHP*",
        supported_dims=(1, 2),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.85, "eta": 0.35},
        reference="DPBench repaired variant of AHP",
    )
