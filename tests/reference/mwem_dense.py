"""MWEM's dense multiplicative-weights update: one full-domain 0/1 mask per
chosen query and one full-domain re-weighting per round.  Kept as the oracle
the sparse round loop :func:`repro.algorithms.mwem._mwem_rounds` (incremental
overlap updates on the workload's operator) is pinned against."""

from __future__ import annotations

import numpy as np


def query_mask(query, shape: tuple[int, ...]) -> np.ndarray:
    """Dense 0/1 indicator of the cells a :class:`RangeQuery` covers."""
    mask = np.zeros(shape)
    slices = tuple(slice(a, b + 1) for a, b in zip(query.lo, query.hi))
    mask[slices] = 1.0
    return mask


def multiplicative_weights_update(
    estimate: np.ndarray,
    query_mask: np.ndarray,
    measured_answer: float,
    total: float,
) -> np.ndarray:
    """One multiplicative-weights update step.

    Re-weights cells inside the query region toward the measured answer and
    re-normalises so the estimate keeps the assumed total.
    """
    current_answer = float((estimate * query_mask).sum())
    if total <= 0:
        return estimate
    exponent = query_mask * (measured_answer - current_answer) / (2.0 * total)
    updated = estimate * np.exp(exponent)
    updated_sum = updated.sum()
    if updated_sum <= 0:
        return estimate
    return updated * (total / updated_sum)
