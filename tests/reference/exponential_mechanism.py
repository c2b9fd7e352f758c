"""The historical exponential-mechanism draw through ``Generator.choice(p=...)``,
which re-validates ``p`` on every call.  Kept verbatim as the oracle the
one-uniform inverse-CDF draw of
:func:`repro.algorithms.mechanisms.exponential_mechanism` is pinned against:
same index and same generator state after every call."""

from __future__ import annotations

import numpy as np

from repro.algorithms.mechanisms import as_rng


def exponential_mechanism_reference(
    scores: np.ndarray,
    epsilon: float,
    sensitivity: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> int:
    """Select an index with probability proportional to ``exp(eps * score / (2 * sens))``."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty one-dimensional array")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    rng = as_rng(rng)
    if np.isinf(epsilon):
        return int(np.argmax(scores))
    logits = epsilon * scores / (2.0 * sensitivity)
    logits = logits - logits.max()  # numerical stability
    weights = np.exp(logits)
    probabilities = weights / weights.sum()
    return int(rng.choice(scores.size, p=probabilities))
