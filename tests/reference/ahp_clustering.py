"""AHP's historical greedy clustering loop, kept verbatim as the oracle for
the vectorised :func:`repro.algorithms.ahp.greedy_value_clustering`.

The loop walks the sorted values once and returns the clusters as index
arrays; :func:`reference_edges` turns them into the cluster edges the
vectorised version returns."""

from __future__ import annotations

import numpy as np


def greedy_value_clustering_reference(sorted_values: np.ndarray,
                                      tolerance: float) -> list[np.ndarray]:
    """Group indices of a sorted value vector into clusters of similar values.

    A new cluster starts whenever the current value exceeds the first value of
    the open cluster by more than ``tolerance``.  With ``tolerance == 0`` only
    exactly equal values share a cluster, which is what makes AHP consistent
    in the epsilon -> infinity limit.
    """
    clusters: list[list[int]] = []
    current: list[int] = []
    current_start_value = 0.0
    for idx, value in enumerate(sorted_values):
        if not current:
            current = [idx]
            current_start_value = value
            continue
        if value - current_start_value <= tolerance:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
            current_start_value = value
    if current:
        clusters.append(current)
    return [np.asarray(c, dtype=np.intp) for c in clusters]


def reference_edges(sorted_values: np.ndarray, tolerance: float) -> np.ndarray:
    """The reference clusters as edges: 0, then each cluster's end."""
    clusters = greedy_value_clustering_reference(sorted_values, tolerance)
    edges = np.zeros(len(clusters) + 1, dtype=np.intp)
    np.cumsum([len(c) for c in clusters], out=edges[1:])
    return edges
