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
from .base import AlgorithmProperties, PlanAlgorithm, workload_key
from .greedy_h import greedy_budget_allocation
from .hier import tree_plan
from .hilbert import plan_flattening
from .mechanisms import BudgetExceededError, PrivacyBudget, laplace_noise
from .tree import HierarchicalTree

__all__ = ["DAWA", "l1_partition"]


#: End-block width of the partition DP: candidate costs, pruning masks and
#: survivors exist for one block of bucket ends at a time, so the transient
#: state is O(PARTITION_BLOCK * log n) whatever the domain size, and the
#: whole DP holds O(n) (prefix sums plus the carried ``dp``/``choice``).
PARTITION_BLOCK = 65536


def _prefix_sums(noisy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of ``noisy`` and of its squares, each with a leading 0."""
    prefix = np.zeros(noisy.size + 1)
    np.cumsum(noisy, out=prefix[1:])
    prefix_sq = np.zeros(noisy.size + 1)
    np.cumsum(noisy ** 2, out=prefix_sq[1:])
    return prefix, prefix_sq


def _bucket_costs(prefix: np.ndarray, prefix_sq: np.ndarray, length: int,
                  lo: int, hi: int, bucket_penalty: float,
                  noise_variance: float) -> np.ndarray:
    """Costs of the buckets ``[s, s + length)`` for every start ``s`` in
    ``[lo, hi)``: the one cost formula of both DP paths."""
    total = prefix[lo + length:hi + length] - prefix[lo:hi]
    sse = prefix_sq[lo + length:hi + length] - prefix_sq[lo:hi]
    total *= total
    total /= length
    sse -= total                    # total_sq - total**2 / length
    np.maximum(sse, 0.0, out=sse)
    sse -= (length - 1) * noise_variance
    np.maximum(sse, 0.0, out=sse)
    sse *= length
    np.sqrt(sse, out=sse)           # the deviation bound sqrt(|B| * SSE)
    sse += bucket_penalty
    return sse


def _power_lengths(n: int) -> list[int]:
    """The candidate bucket lengths: every power of two up to ``n``."""
    return [1 << k for k in range(n.bit_length())]


def _interval_costs(noisy: np.ndarray, bucket_penalty: float,
                    noise_scale: float) -> tuple[list[int], list[np.ndarray]]:
    """Per-length arrays of every candidate bucket's cost.

    ``costs[j][s]`` is the cost of the bucket ``[s, s + lengths[j])``:
    the Cauchy–Schwarz deviation bound ``sqrt(|B| * SSE(B))`` plus the fixed
    ``bucket_penalty``.  The expected noise contribution
    ``(|B| - 1) * 2 * noise_scale**2`` is subtracted from each bucket's SSE so
    that genuinely uniform regions are not penalised for looking noisy (this
    de-biasing is post-processing of the noisy vector and costs no additional
    privacy budget).  :func:`l1_partition` evaluates the same
    :func:`_bucket_costs` one block of ends at a time.
    """
    n = noisy.size
    prefix, prefix_sq = _prefix_sums(noisy)
    noise_variance = 2.0 * noise_scale ** 2
    lengths = _power_lengths(n)
    costs = [_bucket_costs(prefix, prefix_sq, length, 0, n + 1 - length,
                           bucket_penalty, noise_variance)
             for length in lengths]
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
    A non-finite ``noisy`` entry, ``bucket_penalty`` or ``noise_scale``
    raises ``ValueError``: the pruning margin below is sized for finite
    costs only.

    This is the fast path: identical output to the plain double-loop DP over
    every candidate (kept in ``tests/reference/dawa_partition.py``),
    restructured so the ``O(n log n)`` candidate evaluation is almost
    entirely NumPy.  Per cell ``e`` the ``log n`` candidates are the column
    ``A[:, e]`` of the end-aligned cost matrix ``A[j, e] = cost([e - 2**j,
    e))``; a vectorised dominance test prunes every candidate that provably
    cannot win, and only the survivors reach the exact sequential
    recurrence.  Pruning is independent per end and the recurrence consumes
    survivors in end order, so ``A``, the pruning mask and the survivors
    exist for one block of :data:`PARTITION_BLOCK` ends at a time; the
    ``l1_partition_core`` kernel carries ``dp``/``choice`` across blocks.
    Memory is O(n), and the output does not depend on the block width.

    The pruning rule is *sound*, so the result is bitwise-identical to the
    reference loop (ties included).  Candidate ``j`` (length ``l``, cost
    ``A_j = A[j, e]``) is discarded when some shorter candidate ``j*``
    (length ``l*``, cost ``A*``) satisfies

        A_j - l * r  >  A* - l* * r  +  M_j,
        M_j = (1 + R) * (1e-6 + 8 * eps * n**2) + 8 * eps * |A_j|,

    where ``r = max(c1) + |max(c1)| * 1e-9`` bounds every singleton cost
    ``c1`` from above, ``R = max(max(c1), -bucket_penalty)`` and ``eps`` is
    the machine epsilon (the ``1e-6`` term is a floor for tiny ``n * R``).
    Why that is strictly worse after rounding (``u = eps / 2``, each
    floating-point addition has relative error at most ``u``):

    * Singletons exist at every offset and the recurrence always evaluates
      them, so a computed ``dp[i]`` is at most the rounded chain
      ``dp[i - 1] + c1``.  Every cost is at least ``bucket_penalty``, so
      ``|dp[i]| <= i * R`` up to a relative ``n * u``: the magnitude of the
      DP's real paths is bounded by ``n * R``, not by the longest bucket's
      cost.
    * Hence ``dp[e - l*] <= dp[e - l] + (l - l*) * r + (l - l*) * u * 2nR``
      (the chain of ``l - l*`` singletons and its rounding).
    * The candidates' own sums err by at most ``u * |dp[e - l] + A_j|`` and
      ``u * |dp[e - l*] + A*|``, together at most ``u * (4nR + |A_j| +
      |A*|)``.  From the inequality above, ``A* < A_j + (l - l*) *
      max(0, -r)``, so ``|A*| <= |A_j| + nR``.
    * The inequality itself is evaluated in floating point; its operands are
      at most ``|A_j| + nR`` in magnitude, so its rounding is a few ``u``
      of that.

    Together the rounding is below ``eps * (n**2 + 5n) * R + 4 * eps *
    |A_j|``, which ``M_j`` dominates (``8n**2 >= n**2 + 5n`` for ``n >=
    1``).  So the discarded
    candidate's rounded sum exceeds that of ``j*``.  ``j*`` is the argmin of
    ``A - l * r`` over the shorter rows, so it is itself never discarded:
    the sequential loop has already evaluated it.  A discarded candidate can
    therefore never win *or tie*; every candidate that could, including all
    exact ties, is evaluated with the same two-operand additions as the
    reference, in the same ascending-length order.  The bound holds for any
    finite input, a negative ``bucket_penalty`` included.  Sizing it by the
    real path cost ``n * R``, not by ``n`` times the longest bucket's cost
    (hundreds of times larger at 2**18 cells), is what keeps pruning tight
    at large ``n``: about one to three survivors per cell.
    """
    noisy = np.asarray(noisy, dtype=float)
    if not (np.isfinite(noisy).all() and np.isfinite(bucket_penalty)
            and np.isfinite(noise_scale)):
        raise ValueError("l1_partition needs finite noisy counts, "
                         "bucket_penalty and noise_scale")
    n = noisy.size
    if n == 0:
        return []
    prefix, prefix_sq = _prefix_sums(noisy)
    noise_variance = 2.0 * noise_scale ** 2
    lengths = _power_lengths(n)

    def costs(length: int, lo: int, hi: int) -> np.ndarray:
        return _bucket_costs(prefix, prefix_sq, length, lo, hi,
                             bucket_penalty, noise_variance)

    max_c1 = float(costs(1, 0, n).max())
    chain_rate = max_c1 + abs(max_c1) * 1e-9
    eps = float(np.finfo(float).eps)
    base_margin = (1.0 + max(max_c1, -bucket_penalty)) \
        * (1e-6 + 8.0 * eps * float(n) ** 2)
    own_margin = 8.0 * eps

    core = get_kernel("l1_partition_core")
    dp, choice = [0.0], [0]
    for first in range(1, n + 1, PARTITION_BLOCK):
        stop = min(first + PARTITION_BLOCK, n + 1)       # ends [first, stop)
        rows = [length for length in lengths if length < stop]
        # aligned[j, k] = cost of the bucket [e - l_j, e) for end e = first + k.
        # Entries with e < l_j (no such bucket) are never written or read:
        # their keep stays False.
        aligned = np.empty((len(rows), stop - first))
        keep = np.zeros(aligned.shape, dtype=bool)
        keep[0] = True                  # the length-1 candidate always exists
        aligned[0] = costs(1, first - 1, stop - 1)
        best_shorter = aligned[0] - chain_rate
        for j in range(1, len(rows)):
            length = rows[j]
            skip = max(length - first, 0)
            row = aligned[j, skip:]
            row[:] = costs(length, first + skip - length, stop - length)
            adjusted = row - length * chain_rate
            shorter = best_shorter[skip:]
            threshold = np.abs(row)
            threshold *= own_margin
            threshold += base_margin
            threshold += shorter
            np.less_equal(adjusted, threshold, out=keep[j, skip:])
            np.minimum(shorter, adjusted, out=shorter)
        # Candidates in (end, ascending length) order — the reference loop's
        # evaluation order, so ties break identically.
        surv_k, surv_j = np.divmod(np.flatnonzero(keep.T.copy()), len(rows))
        core(surv_j, aligned[surv_j, surv_k], rows, dp, choice)
    del dp                              # the backtrack reads only choice
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
        shape = x.shape
        if x.ndim == 2:
            ordering, _, workload = self._memo(
                "flattening", (shape, workload_key(workload)),
                lambda: plan_flattening(shape, workload))
        else:                           # a 1-D domain is not flattened
            ordering = None
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
        return tree_plan(tree, level_epsilons, domain_shape=x.shape,
                         ordering=ordering, partition=edges)
