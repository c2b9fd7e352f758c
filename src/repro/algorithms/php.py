"""PHP (P-HP): histogram publication through recursive private bisection
(Acs, Castelluccia, Chen, ICDM 2012).

PHP performs at most ``log2 n`` bisections of the domain.  Each bisection
point is chosen with the exponential mechanism using the deviation-from-
uniformity cost of the resulting two pieces as the (negated) score; the piece
that is already close to uniform is frozen as a bucket and the other piece is
bisected further.  The remaining budget buys a Laplace count per bucket,
spread uniformly over the bucket's cells.

The original algorithm scores candidate splits by L1 deviation; this
implementation uses the squared deviation (SSE), which admits an O(1)
per-candidate evaluation via prefix sums and has the same minimisers on the
uniform-versus-non-uniform structure the algorithm is searching for.

Because the number of buckets is capped at ``log2 n + 1``, PHP can be left
with non-uniform buckets no matter how large epsilon is — it is inconsistent
(Theorem 6 of the paper).
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan, segment_sse
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .mechanisms import (
    BudgetExceededError,
    PrivacyBudget,
    exponential_mechanism,
)

__all__ = ["PHP"]


class PHP(PlanAlgorithm):
    """Recursive bisection partitioning for 1-D histograms.

    On the plan pipeline the exponential-mechanism bisection is the selection
    stage: it emits a contiguous-partition plan with one total query per
    bucket (in the historical freeze order, which pins the noise-draw order),
    and the generic disjoint reconstruction spreads each noisy total
    uniformly over its bucket.
    """

    properties = AlgorithmProperties(
        name="PHP",
        supported_dims=(1,),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.5},
        consistent=False,
        reference="Acs, Castelluccia, Chen. ICDM 2012",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        rho = float(self.params["rho"])
        eps_partition = budget.spend(budget.total * rho, "partition")
        eps_counts = budget.remaining
        if eps_counts <= 0:
            raise BudgetExceededError(
                "bisection consumed the whole budget; nothing left for the "
                "bucket counts")

        n = x.size
        sse = segment_sse(x)
        max_iterations = max(1, int(np.ceil(np.log2(max(n, 2)))))
        eps_per_split = eps_partition / max_iterations

        buckets: list[tuple[int, int]] = []        # half-open [lo, hi)
        current = (0, n)
        for _ in range(max_iterations):
            lo, hi = current
            if hi - lo <= 1:
                break
            candidates = np.arange(lo + 1, hi)
            left_cost = sse(np.full(candidates.size, lo), candidates)
            right_cost = sse(candidates, np.full(candidates.size, hi))
            scores = -(left_cost + right_cost)
            # Adding one record changes a squared-deviation cost by O(count);
            # we use the conservative bound 2 * max(x) + 1.
            sensitivity = 2.0 * float(x.max()) + 1.0
            chosen = exponential_mechanism(scores, eps_per_split,
                                           sensitivity=sensitivity, rng=rng)
            split = int(candidates[chosen])
            left, right = (lo, split), (split, hi)
            # Freeze the more uniform piece, keep refining the other.
            if float(sse(*left)) <= float(sse(*right)):
                buckets.append(left)
                current = right
            else:
                buckets.append(right)
                current = left
        buckets.append(current)

        # The buckets partition [0, n); the plan's queries address them over
        # the sorted bucket domain but stay in freeze order, preserving the
        # historical per-bucket noise-draw order.
        edges = np.array(sorted(lo for lo, _ in buckets) + [n], dtype=np.intp)
        positions = np.searchsorted(edges, [lo for lo, _ in buckets])[:, None]
        return MeasurementPlan(
            queries=QueryMatrix(positions, positions, (len(buckets),)),
            epsilons=np.full(len(buckets), eps_counts),
            domain_shape=x.shape,
            partition=edges,
            epsilon_measure=eps_counts,       # buckets are disjoint
        )
