"""DAWA's historical partition DP: the plain double loop over every
(cell, power-of-two length) candidate.  Kept as the executable specification
the vectorised, dominance-pruned :func:`repro.algorithms.dawa.l1_partition`
is pinned against (bitwise-identical partitions, ties included) by the
property tests and the speed bench."""

from __future__ import annotations

import numpy as np

from repro.algorithms.dawa import _backtrack, _interval_costs


def l1_partition_reference(noisy: np.ndarray, bucket_penalty: float,
                           noise_scale: float = 0.0) -> list[tuple[int, int]]:
    """Reference dynamic program for :func:`repro.algorithms.dawa.l1_partition`
    (plain double loop)."""
    n = noisy.size
    lengths, interval_cost = _interval_costs(noisy, bucket_penalty, noise_scale)

    dp = np.full(n + 1, np.inf)
    dp[0] = 0.0
    choice = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        best, best_length = np.inf, 1
        for j, length in enumerate(lengths):
            if length > i:
                break
            candidate = dp[i - length] + interval_cost[j][i - length]
            if candidate < best:
                best, best_length = candidate, length
        dp[i] = best
        choice[i] = best_length
    return _backtrack(choice, n)
