"""SF (StructureFirst): V-optimal-style histogram with private boundary selection
(Xu et al., VLDB Journal 2013).

SF fixes the number of buckets ``k`` (the authors recommend ``ceil(n / 10)``),
selects the ``k - 1`` bucket boundaries privately with the exponential
mechanism scored by the squared-error (SSE) reduction of each candidate cut,
and then estimates the bucket contents with the Laplace mechanism.

The boundary score is a function of squared counts, so its sensitivity depends
on an assumed upper bound ``F`` on any bucket total — scale side information.
This, and the fact that the score is quadratic in scale, is why SF is flagged
in Table 1 as using side information and as not scale-epsilon exchangeable.

Following Section 6.2 of Xu et al. (and the paper's Theorem 7), the content of
each bucket is estimated with a small two-level hierarchy (bucket total plus
individual cells, combined by inverse-variance weighting) instead of assuming
uniformity, which makes the algorithm consistent.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..core.gls import reconcile_shift
from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan, segment_sse, segment_sums
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .mechanisms import BudgetExceededError, PrivacyBudget, exponential_mechanism

__all__ = ["StructureFirst"]


class StructureFirst(PlanAlgorithm):
    """StructureFirst histogram publication for 1-D data.

    On the plan pipeline the exponential-mechanism boundary search is the
    selection stage; the plan measures, per bucket, a total query at half the
    count budget plus every cell at the other half (single-cell buckets get
    one full-budget query), and inference is the per-bucket two-level
    inverse-variance closed form — the exact GLS solution of that
    two-measurement system."""

    properties = AlgorithmProperties(
        name="SF",
        supported_dims=(1,),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.5, "buckets": None, "count_bound": None},
        free_parameters=("rho", "buckets", "count_bound"),
        side_information=("scale",),
        consistent=True,
        scale_epsilon_exchangeable=False,
        reference="Xu, Zhang, Xiao, Yang, Yu, Winslett. VLDBJ 2013",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        n = x.size
        rho = float(self.params["rho"])
        n_buckets = self.params["buckets"] or max(1, int(np.ceil(n / 10)))
        n_buckets = int(min(n_buckets, n))
        count_bound = self.params["count_bound"]
        if count_bound is None:
            # Side information: an upper bound on any bucket total.  The
            # dataset scale is the natural choice (the original paper assumes
            # it is public; Rside's budget carries a noisy estimate).
            count_bound = max(budget.scale(x), 1.0)

        eps_structure = budget.spend(budget.total * rho, "structure") \
            if n_buckets > 1 else 0.0
        eps_counts = budget.remaining
        if eps_counts <= 0:
            raise BudgetExceededError(
                "structure selection consumed the whole budget; nothing left "
                "for the bucket counts")

        boundaries = self._select_boundaries(x, n_buckets, eps_structure,
                                             count_bound, rng)
        # Per bucket: one total query at eps_counts / 2 plus every cell at
        # eps_counts / 2 (a single-cell bucket gets one full-budget query).
        # Row order is the historical draw order: each bucket's total before
        # its cells, buckets left to right.
        edges = np.asarray(boundaries)
        lo, width = edges[:-1], np.diff(edges)
        split = width > 1
        n_rows = np.where(split, width + 1, 1)
        bucket = np.repeat(np.arange(lo.size), n_rows)
        # Row index within its bucket: 0 is the total, 1..width the cells.
        offset = np.arange(bucket.size) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
        is_total = offset == 0
        los = np.where(is_total, lo[bucket], lo[bucket] + offset - 1)
        his = np.where(is_total, lo[bucket] + width[bucket] - 1, los)
        epsilons = np.where(split[bucket], eps_counts / 2.0, eps_counts)
        queries = QueryMatrix(los[:, None], his[:, None], x.shape)
        return MeasurementPlan(
            queries=queries,
            epsilons=epsilons,
            domain_shape=x.shape,
            # Two passes over disjoint buckets: totals + cells compose
            # sequentially at eps_counts / 2 each.
            epsilon_measure=eps_counts,
            extras={"boundaries": boundaries},
        )

    def infer(self, measurements: MeasurementSet,
              plan: MeasurementPlan) -> np.ndarray:
        """Two-level least squares within each bucket (Section 6.2
        modification): combine the two measurements of the bucket total by
        inverse-variance weighting and distribute the residual evenly over
        the cell estimates (:func:`~repro.core.gls.reconcile_shift`), which
        keeps the algorithm consistent.  All buckets are solved at once,
        with the per-bucket float operations of a bucket-at-a-time loop
        (cell sums by :func:`~repro.core.plan.segment_sums`)."""
        edges = np.asarray(plan.extras["boundaries"])
        lo, width = edges[:-1], np.diff(edges)
        values, variances = measurements.values, measurements.variances
        # Each bucket's first row: its total, or a single cell's only row.
        n_rows = np.where(width > 1, width + 1, 1)
        first = np.cumsum(n_rows) - n_rows
        estimate = np.zeros(plan.domain_shape)
        single = width == 1
        estimate[lo[single]] = values[first[single]]

        lo, width, first = lo[~single], width[~single], first[~single]
        cells_sum = segment_sums(values, first + 1, width)
        shift = reconcile_shift(values[first], variances[first], cells_sum,
                                variances[first + 1], width)
        bucket = np.repeat(np.arange(lo.size), width)
        cell = np.arange(bucket.size) - np.repeat(np.cumsum(width) - width, width)
        estimate[lo[bucket] + cell] = values[first[bucket] + 1 + cell] + shift[bucket]
        return estimate

    # -- structure selection -------------------------------------------------------
    def _select_boundaries(self, x: np.ndarray, n_buckets: int, eps_structure: float,
                           count_bound: float, rng: np.random.Generator) -> list[int]:
        """Greedily select bucket boundaries with the exponential mechanism.

        Boundaries are cut points in ``1..n-1``; the score of a candidate cut
        is the reduction in total SSE it achieves given the cuts chosen so far.
        A cut's gain depends only on the segment that contains it, so the
        gains live in one array over all cut positions and each round refills
        just the two segments the chosen cut creates (prefix sums, one
        vectorised pass).  The candidates handed to the
        exponential mechanism are the free cuts in ascending order, with the
        gains a full per-round rebuild would compute, so the choice and the
        generator stream are unchanged.
        """
        n = x.size
        if n_buckets <= 1 or eps_structure <= 0:
            return [0, n]
        sse = segment_sse(x)

        # gains[c - 1] scores cut c against the segment (lo, hi) holding it:
        # sse(lo, hi) - sse(lo, c) - sse(c, hi).  One sse pass over the three
        # stacked bound pairs computes each term with the same float
        # operations as a per-segment pass would.
        def gains_within(lo: np.ndarray, cuts: np.ndarray, hi: np.ndarray) -> np.ndarray:
            terms = sse(np.concatenate((lo, lo, cuts)), np.concatenate((hi, cuts, hi)))
            base, left, right = terms.reshape(3, -1)
            return base - left - right

        cuts = np.arange(1, n)
        gains = gains_within(np.zeros_like(cuts), cuts, np.full_like(cuts, n))
        free = np.ones(n - 1, dtype=bool)
        boundaries = [0, n]
        eps_per_cut = eps_structure / (n_buckets - 1)
        # Sensitivity of an SSE-based score: adding a record changes a squared
        # count by at most 2 * F + 1 where F bounds any count.
        sensitivity = 2.0 * count_bound + 1.0
        for _ in range(n_buckets - 1):
            candidates = np.flatnonzero(free)
            chosen = exponential_mechanism(gains[candidates], eps_per_cut,
                                           sensitivity=sensitivity, rng=rng)
            cut = int(candidates[chosen]) + 1
            free[cut - 1] = False
            at = bisect.bisect(boundaries, cut)
            boundaries.insert(at, cut)
            # Only the cuts of the segment just split change segment.
            lo, hi = boundaries[at - 1], boundaries[at + 1]
            inside = cuts[lo:hi - 1]
            left = inside < cut
            gains[lo:hi - 1] = gains_within(np.where(left, lo, cut), inside,
                                            np.where(left, cut, hi))
        return boundaries
