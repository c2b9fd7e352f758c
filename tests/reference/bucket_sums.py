"""The historical partition bucket totals: one ``vector[lo:hi].sum()`` per
bucket in a Python comprehension.  Kept as the oracle the grouped row sums
of :func:`repro.core.plan.segment_sums` (behind
:meth:`~repro.core.plan.MeasurementPlan.measurement_vector`, SF's inference
and AGrid's reconciliation) are pinned against (bitwise)."""

from __future__ import annotations

import numpy as np


def bucket_sums_reference(vector: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Total of every half-open bucket ``[edges[b], edges[b + 1])``."""
    return np.array([vector[lo:hi].sum()
                     for lo, hi in zip(edges[:-1], edges[1:])])
