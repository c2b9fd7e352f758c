"""DAWA: Data- and Workload-Aware algorithm (Li, Hay, Miklau, PVLDB 2014).

DAWA runs in two stages.  Stage one spends a fraction ``rho`` of the budget
computing a private partition of the domain into buckets that are internally
close to uniform, trading off the deviation-from-uniformity cost of a bucket
against the fixed noise cost every bucket incurs.  Stage two measures the
bucket totals with the workload-aware hierarchical strategy GreedyH and
expands each bucket uniformly over its cells.

Stage two is expressed in the shared measurement/inference currency: the
bucket-tree measurements are a :class:`~repro.core.measurement.MeasurementSet`
(a :func:`~repro.algorithms.hier.tree_plan` over the bucket domain, measured
by the shared noise stage), solved by :func:`~repro.core.gls.solve_gls`, and
re-expressible over the cell domain so DAWA composes with cross-mechanism
fusion: for a 1-D ``x``, ``plan, m = DAWA().plan_and_measure(x, epsilon,
rng)`` then ``m.through_partition(plan.partition)`` is a cell-domain set
whose ``epsilon_spent`` covers both stages, ready for ``combined_with``.

Implementation notes (documented substitutions from the original):

* The stage-one dynamic program restricts candidate buckets to intervals
  whose length is a power of two (any starting offset), the same
  ``O(n log n)`` approximation used in the authors' implementation.
* Bucket deviation costs are computed from a privately perturbed copy of the
  data (Laplace noise with the stage-one budget) rather than through the
  noisy-score machinery of the original; both approaches spend ``rho * eps``
  on partition selection and choose near-uniform buckets.
* The deviation cost uses the Cauchy–Schwarz bound
  ``sum|x_i - mean| <= sqrt(|B| * SSE(B))`` so every interval cost is O(1)
  from prefix sums.

For 2-D inputs the grid is flattened along a Hilbert curve, exactly as in the
paper, and the 2-D workload rides along: every rectangle query is mapped to
the span of its cells' positions on the curve (:func:`flatten_workload`), so
2-D DAWA stays workload-aware.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import get_kernel
from ..core.plan import MeasurementPlan
from ..workload.builders import prefix_workload
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .greedy_h import greedy_budget_allocation
from .hier import tree_plan
from .hilbert import plan_flattening
from .mechanisms import BudgetExceededError, PrivacyBudget, laplace_noise
from .tree import HierarchicalTree

__all__ = ["DAWA", "l1_partition"]


def _interval_costs(noisy: np.ndarray, bucket_penalty: float,
                    noise_scale: float) -> tuple[list[int], list[np.ndarray]]:
    """Per-length arrays of candidate-bucket costs, shared by both DP paths.

    ``costs[j][s]`` is the cost of the bucket ``[s, s + lengths[j])``:
    the Cauchy–Schwarz deviation bound ``sqrt(|B| * SSE(B))`` plus the fixed
    ``bucket_penalty``.  The expected noise contribution
    ``(|B| - 1) * 2 * noise_scale**2`` is subtracted from each bucket's SSE so
    that genuinely uniform regions are not penalised for looking noisy (this
    de-biasing is post-processing of the noisy vector and costs no additional
    privacy budget).
    """
    n = noisy.size
    prefix = np.concatenate([[0.0], np.cumsum(noisy)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(noisy ** 2)])
    noise_variance = 2.0 * noise_scale ** 2

    lengths = []
    length = 1
    while length <= n:
        lengths.append(length)
        length *= 2

    costs = []
    for length in lengths:
        # cost of [s, s + length) for every start s, via prefix-array slices
        total = prefix[length:] - prefix[:n + 1 - length]
        total_sq = prefix_sq[length:] - prefix_sq[:n + 1 - length]
        sse = np.maximum(total_sq - total * total / length, 0.0)
        sse = np.maximum(sse - (length - 1) * noise_variance, 0.0)
        deviation = np.sqrt(length * sse)
        costs.append(deviation + bucket_penalty)
    return lengths, costs


def _backtrack(choice, n: int) -> list[tuple[int, int]]:
    buckets: list[tuple[int, int]] = []
    i = n
    while i > 0:
        length = int(choice[i])
        buckets.append((i - length, i))
        i -= length
    buckets.reverse()
    return buckets


def l1_partition(noisy: np.ndarray, bucket_penalty: float,
                 noise_scale: float = 0.0) -> list[tuple[int, int]]:
    """Least-cost partition of ``noisy`` into intervals of power-of-two length.

    The cost of a bucket ``B`` is ``sqrt(|B| * SSE(B)) + bucket_penalty``;
    the dynamic program minimises the total cost.  Returns half-open
    ``(lo, hi)`` intervals covering ``[0, n)`` in order.

    ``noise_scale`` is the Laplace scale of the noise already present in
    ``noisy``; see :func:`_interval_costs` for the SSE de-biasing it drives.

    This is the fast path: identical output to the plain double-loop DP over
    every candidate (kept in ``tests/reference/dawa_partition.py``),
    restructured so the ``O(n log n)`` candidate evaluation is almost
    entirely NumPy.  Per cell ``e`` the ``log n`` candidates are rows of a
    precomputed end-aligned cost matrix
    ``A[j, e] = cost([e - 2**j, e))``; a vectorised dominance test prunes
    every candidate that provably cannot win, and only the handful of
    survivors per cell reach the exact sequential recurrence.

    The pruning rule is *sound*, so the result is bitwise-identical to the
    reference loop (ties included):  a candidate ``(e - l, e)`` can be
    discarded when some shorter candidate ``(e - l', e)`` plus a chain of
    ``l - l'`` singleton buckets (length-1 buckets exist at every offset, and
    each costs at most ``max(c1)``) is strictly cheaper by more than a margin
    that dominates the worst-case accumulated rounding of the two path sums.
    Discarded candidates are strictly worse even after floating-point
    rounding, so they can never win *or tie*; every candidate that could,
    including all exact ties, is evaluated by the sequential loop with the
    same two-operand additions as the reference, in the same ascending-length
    order.
    """
    noisy = np.asarray(noisy, dtype=float)
    n = noisy.size
    if n == 0:
        return []
    lengths, interval_cost = _interval_costs(noisy, bucket_penalty, noise_scale)
    n_lengths = len(lengths)
    lengths_arr = np.array(lengths, dtype=np.intp)

    # End-aligned candidate matrix: A[j, e] = cost of the bucket [e - l_j, e).
    aligned = np.full((n_lengths, n + 1), np.inf)
    for j, length in enumerate(lengths):
        aligned[j, length:] = interval_cost[j]

    # Dominance pruning.  chain_rate bounds the cost of one singleton bucket
    # from above; the margin dominates the accumulated rounding of two path
    # sums of <= n additions each (relative error <= n * eps per sum, path
    # magnitude <= n * max_cost), so a pruned candidate is strictly worse
    # than the surviving alternative in exact *and* rounded arithmetic.
    max_c1 = float(interval_cost[0].max())
    max_cost = max(float(c.max()) for c in interval_cost)
    chain_rate = max_c1 * (1.0 + 1e-9)
    eps = float(np.finfo(float).eps)
    margin = (1.0 + max_cost) * (1e-6 + 8.0 * eps * float(n) ** 2)
    keep = np.zeros((n_lengths, n + 1), dtype=bool)
    # keep[0] stays False: the length-1 candidate is always evaluated inline.
    best_shorter = aligned[0] - lengths[0] * chain_rate
    for j in range(1, n_lengths):
        adjusted = aligned[j] - lengths[j] * chain_rate
        np.less_equal(adjusted, best_shorter + margin, out=keep[j])
        np.minimum(best_shorter, adjusted, out=best_shorter)
    keep[:, 0] = False

    # Survivors in (end, ascending length) order — the reference loop's
    # evaluation order, so ties break identically.  The exact sequential
    # recurrence over the survivors is the ``l1_partition_core`` kernel.
    # This scan dominates in the noise-dominated regime, where pruning
    # barely reduces the candidate set and almost every (end, length) pair
    # survives.
    surv_end, surv_j = np.nonzero(keep.T)
    s_end = np.empty(surv_end.size + 1, dtype=np.int64)
    s_end[:-1] = surv_end
    s_end[-1] = n + 1                 # sentinel: never equals a real cell
    s_len = lengths_arr[surv_j].astype(np.int64)
    s_cost = np.ascontiguousarray(aligned[surv_j, surv_end])
    c1 = np.ascontiguousarray(interval_cost[0])

    core = get_kernel("l1_partition_core")
    choice = core(c1, s_end, s_len, s_cost)
    return _backtrack(choice, n)


class DAWA(PlanAlgorithm):
    """Two-stage data- and workload-aware mechanism.

    On the plan pipeline both stages fall out naturally: :meth:`select` is
    stage one plus GreedyH's budget allocation (a data-dependent selection
    that pays ``rho * epsilon`` for the private partition and emits the
    bucket-tree plan), the shared noise stage measures the *raw* bucket
    totals — every released quantity is true-value-plus-noise, so the whole
    mechanism is post-processing of noisy measurements (no data-dependent
    correction ever touches the release; see the end-to-end privacy tests) —
    and reconstruction is the generic tree solve followed by the plan's
    uniform bucket expansion (and Hilbert-ordering inversion in 2-D).
    """

    properties = AlgorithmProperties(
        name="DAWA",
        supported_dims=(1, 2),
        data_dependent=True,
        hierarchical=True,
        partitioning=True,
        workload_aware=True,
        parameters={"rho": 0.25, "branching": 2},
        reference="Li, Hay, Miklau. PVLDB 2014",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        ordering, _, workload = plan_flattening(x, workload)
        vector = x if ordering is None else x.ravel()[ordering]

        rho = float(self.params["rho"])
        eps_partition = budget.spend(budget.total * rho, "partition")
        eps_measure = budget.remaining
        if eps_measure <= 0:
            raise BudgetExceededError(
                "partition stage consumed the whole budget; nothing left "
                "for the bucket measurements")

        noisy = vector + laplace_noise(1.0 / eps_partition, vector.size, rng)
        buckets = l1_partition(noisy, bucket_penalty=1.0 / eps_measure,
                               noise_scale=1.0 / eps_partition)
        edges = np.fromiter((lo for lo, _ in buckets), dtype=np.intp,
                            count=len(buckets))
        edges = np.append(edges, vector.size)

        # Stage two's selection: GreedyH over the bucket domain — a hierarchy
        # whose per-level budgets follow the workload mapped onto the buckets.
        tree = HierarchicalTree((len(buckets),),
                                branching=int(self.params["branching"]))
        if workload is not None and workload.ndim == 1 \
                and workload.domain_shape == vector.shape:
            bucket_workload = workload.on_partition(edges)
        else:
            bucket_workload = prefix_workload(len(buckets))
        usage = tree.level_usage(bucket_workload)
        level_epsilons = greedy_budget_allocation(usage, eps_measure)
        plan = tree_plan(tree, level_epsilons, domain_shape=x.shape,
                         ordering=ordering, partition=edges)
        plan.epsilon_selection = eps_partition
        return plan
