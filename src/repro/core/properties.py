"""Empirical checks of the two theoretical properties formalised by the paper:
scale-epsilon exchangeability (Definition 4) and consistency (Definition 5).

The paper proves these properties analytically (Appendix C); here they are
verified empirically, which serves two purposes: the test-suite checks that
the implementations behave as the theory predicts, and the ablation benches
regenerate the "Consistent" / "Scale-Exch." columns of Table 1.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.base import Algorithm
from ..algorithms.mechanisms import as_rng
from ..workload.builders import default_workload
from ..workload.rangequery import Workload
from .error import scaled_average_per_query_error, trial_answers

__all__ = [
    "mean_scaled_error",
    "exchangeability_ratio",
    "check_exchangeability",
    "consistency_curve",
    "check_consistency",
]


def mean_scaled_error(
    algorithm: Algorithm,
    x: np.ndarray,
    epsilon: float,
    workload: Workload | None = None,
    n_trials: int = 10,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Average scaled per-query error of ``algorithm`` on ``x`` over trials."""
    rng = as_rng(rng)
    x = np.asarray(x, dtype=float)
    if workload is None:
        workload = default_workload(x.shape, rng=rng)
    # One evaluation of the truth, and per-trial estimate evaluations, all
    # through the workload's single cached sparse operator.
    true_answers = workload.evaluate(x)
    scale = max(float(x.sum()), 1.0)
    return float(np.mean([
        scaled_average_per_query_error(true_answers, answers, scale)
        for answers in trial_answers(algorithm, x, epsilon, workload, n_trials, rng)]))


def exchangeability_ratio(
    algorithm: Algorithm,
    shape: np.ndarray,
    scale_epsilon_pairs: list[tuple[int, float]],
    workload: Workload | None = None,
    n_trials: int = 10,
    rng: np.random.Generator | int | None = None,
) -> dict:
    """Scaled error at several (scale, epsilon) pairs with the same product.

    For a scale-epsilon exchangeable algorithm all entries should be (close
    to) equal.  Returns the per-pair errors and the max/min ratio.
    """
    rng = as_rng(rng)
    shape = np.asarray(shape, dtype=float)
    shape = shape / shape.sum()
    products = {round(m * e, 6) for m, e in scale_epsilon_pairs}
    if len(products) != 1:
        raise ValueError("all (scale, epsilon) pairs must share the same product")
    errors = {}
    for scale, epsilon in scale_epsilon_pairs:
        # Use the exact scaled shape (x = m * p) as in Definition 4 rather than
        # a sampled dataset, so the comparison isolates the algorithm.
        x = shape * scale
        errors[(scale, epsilon)] = mean_scaled_error(
            algorithm, x, epsilon, workload=workload, n_trials=n_trials, rng=rng)
    values = np.array(list(errors.values()))
    ratio = float(values.max() / values.min()) if values.min() > 0 else float("inf")
    return {"errors": errors, "max_over_min": ratio}


def check_exchangeability(
    algorithm: Algorithm,
    shape: np.ndarray,
    product: float = 1000.0,
    factors: tuple[float, ...] = (1.0, 10.0),
    base_epsilon: float = 1.0,
    tolerance: float = 0.5,
    n_trials: int = 20,
    rng: np.random.Generator | int | None = None,
) -> bool:
    """True if the algorithm behaves scale-epsilon exchangeably within tolerance.

    ``tolerance`` is the allowed relative deviation of the max/min error ratio
    from 1 (Monte-Carlo noise means exact equality is not expected).
    """
    pairs = []
    for factor in factors:
        epsilon = base_epsilon / factor
        scale = int(round(product / epsilon))
        pairs.append((scale, epsilon))
    report = exchangeability_ratio(algorithm, shape, pairs, n_trials=n_trials, rng=rng)
    return report["max_over_min"] <= 1.0 + tolerance


def consistency_curve(
    algorithm: Algorithm,
    x: np.ndarray,
    epsilons: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1000.0),
    workload: Workload | None = None,
    n_trials: int = 5,
    rng: np.random.Generator | int | None = None,
) -> dict[float, float]:
    """Mean scaled error as a function of epsilon (Definition 5's limit)."""
    rng = as_rng(rng)
    return {
        epsilon: mean_scaled_error(algorithm, x, epsilon, workload=workload,
                                   n_trials=n_trials, rng=rng)
        for epsilon in epsilons
    }


def check_consistency(
    algorithm: Algorithm,
    x: np.ndarray,
    large_epsilon: float = 1e5,
    workload: Workload | None = None,
    tolerance: float = 1e-4,
    n_trials: int = 3,
    rng: np.random.Generator | int | None = None,
) -> bool:
    """True if the algorithm's error vanishes at a very large epsilon.

    Inconsistent algorithms (Uniform, MWEM, PHP, fixed-height QuadTree on
    large domains) retain a bias and fail this check.
    """
    error = mean_scaled_error(algorithm, x, large_epsilon, workload=workload,
                              n_trials=n_trials, rng=rng)
    return error <= tolerance
