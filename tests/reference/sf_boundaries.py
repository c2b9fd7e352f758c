"""StructureFirst's historical boundary search: every round rebuilds every
segment's candidate gains in a Python loop (O(k^2) interpreter iterations
for k buckets).  Kept verbatim as the oracle for the incremental search in
:meth:`repro.algorithms.sf.StructureFirst._select_boundaries`."""

from __future__ import annotations

import numpy as np

from repro.algorithms.mechanisms import exponential_mechanism
from repro.algorithms.sf import StructureFirst


def select_boundaries_reference(x: np.ndarray, n_buckets: int, eps_structure: float,
                                count_bound: float, rng: np.random.Generator) -> list[int]:
    """Greedily select bucket boundaries with the exponential mechanism.

    Boundaries are cut points in ``1..n-1``; the score of a candidate cut
    is the reduction in total SSE it achieves given the cuts chosen so far.
    All candidate scores for one round are computed in a single vectorised
    pass using prefix sums.
    """
    n = x.size
    if n_buckets <= 1 or eps_structure <= 0:
        return [0, n]
    prefix = np.concatenate([[0.0], np.cumsum(x)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(x ** 2)])

    def sse(lo, hi):
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        width = np.maximum(hi - lo, 1)
        total = prefix[hi] - prefix[lo]
        total_sq = prefix_sq[hi] - prefix_sq[lo]
        return np.maximum(total_sq - total * total / width, 0.0)

    boundaries = [0, n]
    eps_per_cut = eps_structure / (n_buckets - 1)
    # Sensitivity of an SSE-based score: adding a record changes a squared
    # count by at most 2 * F + 1 where F bounds any count.
    sensitivity = 2.0 * count_bound + 1.0
    for _ in range(n_buckets - 1):
        sorted_boundaries = np.array(sorted(boundaries))
        candidate_list: list[np.ndarray] = []
        score_list: list[np.ndarray] = []
        for lo, hi in zip(sorted_boundaries[:-1], sorted_boundaries[1:]):
            cuts = np.arange(lo + 1, hi)
            if cuts.size == 0:
                continue
            base = float(sse(lo, hi))
            gains = base - sse(np.full(cuts.size, lo), cuts) - sse(cuts, np.full(cuts.size, hi))
            candidate_list.append(cuts)
            score_list.append(gains)
        if not candidate_list:
            break
        candidates = np.concatenate(candidate_list)
        scores = np.concatenate(score_list)
        chosen = exponential_mechanism(scores, eps_per_cut, sensitivity=sensitivity, rng=rng)
        boundaries.append(int(candidates[chosen]))
    return sorted(boundaries)


class StructureFirstReference(StructureFirst):
    """SF with the historical boundary search; everything else shared."""

    def _select_boundaries(self, x, n_buckets, eps_structure, count_bound, rng):
        return select_boundaries_reference(x, n_buckets, eps_structure,
                                           count_bound, rng)
