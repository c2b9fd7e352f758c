"""Standards for measuring error (EM, Section 5.3 of the paper).

The headline metric is *scaled average per-query error*: for a workload of
``q`` queries on a dataset of scale ``s``, the loss between the true and the
estimated workload answers divided by ``s * q``.  Scaling by the dataset size
makes errors comparable across scales (an absolute error of 100 means very
different things at scale 1e3 and scale 1e7), and dividing by the number of
queries makes workloads of different sizes comparable.

Error is a random variable; DPBench therefore reports both its mean and its
95th percentile (for the risk-averse analyst), plus a bias/variance
decomposition used in the consistency analysis (Finding 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Algorithm
    from ..workload.rangequery import Workload

__all__ = [
    "workload_loss",
    "scaled_average_per_query_error",
    "trial_answers",
    "ErrorSummary",
    "summarize_errors",
    "bias_variance_decomposition",
]

_LOSSES = ("l2", "l1", "linf")


def workload_loss(y_true: np.ndarray, y_estimate: np.ndarray, loss: str = "l2") -> float:
    """Loss ``L(y_hat, W x)`` between true and estimated workload answers."""
    y_true = np.asarray(y_true, dtype=float)
    y_estimate = np.asarray(y_estimate, dtype=float)
    if y_true.shape != y_estimate.shape:
        raise ValueError("true and estimated answer vectors must have the same shape")
    difference = y_estimate - y_true
    if loss == "l2":
        return float(np.linalg.norm(difference, ord=2))
    if loss == "l1":
        return float(np.abs(difference).sum())
    if loss == "linf":
        return float(np.abs(difference).max())
    raise ValueError(f"unknown loss {loss!r}; choose from {_LOSSES}")


def scaled_average_per_query_error(
    y_true: np.ndarray,
    y_estimate: np.ndarray,
    scale: float,
    loss: str = "l2",
) -> float:
    """Definition 3 of the paper: ``L(y_hat, W x) / (s * q)``."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    q = np.asarray(y_true).size
    return workload_loss(y_true, y_estimate, loss) / (scale * q)


def trial_answers(
    algorithm: Algorithm,
    x: np.ndarray,
    epsilon: float,
    workload: Workload,
    n_trials: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Release ``x`` ``n_trials`` times and yield each release's workload answers.

    Every trial is one ``algorithm.run`` drawing from ``rng`` in turn; the
    caller scores each answer vector with
    :func:`scaled_average_per_query_error` at its own scale.
    """
    for _ in range(n_trials):
        yield workload.evaluate(algorithm.run(x, epsilon, workload=workload, rng=rng))


@dataclass(frozen=True)
class ErrorSummary:
    """Summary statistics of the error random variable over repeated trials."""

    mean: float
    std: float
    percentile95: float
    minimum: float
    maximum: float
    n_trials: int


def summarize_errors(errors: np.ndarray) -> ErrorSummary:
    """Mean, spread and 95th percentile of a vector of per-trial errors."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("cannot summarise an empty error vector")
    return ErrorSummary(
        mean=float(errors.mean()),
        std=float(errors.std(ddof=1)) if errors.size > 1 else 0.0,
        percentile95=float(np.percentile(errors, 95)),
        minimum=float(errors.min()),
        maximum=float(errors.max()),
        n_trials=int(errors.size),
    )


def bias_variance_decomposition(
    answer_trials: np.ndarray,
    y_true: np.ndarray,
) -> dict:
    """Decompose the mean squared workload error into bias^2 and variance.

    ``answer_trials`` has shape ``(n_trials, n_queries)``: each row is the
    estimated workload answer vector of one trial.  Returns per-query averaged
    squared bias, variance and their sum (the MSE).  Used to show that the
    large-scale error of MWEM / PHP / UNIFORM is dominated by bias (Finding 9).
    """
    answer_trials = np.asarray(answer_trials, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if answer_trials.ndim != 2 or answer_trials.shape[1] != y_true.size:
        raise ValueError("answer_trials must be (n_trials, n_queries)")
    mean_answer = answer_trials.mean(axis=0)
    squared_bias = float(np.mean((mean_answer - y_true) ** 2))
    variance = float(np.mean(answer_trials.var(axis=0)))
    return {
        "bias_squared": squared_bias,
        "variance": variance,
        "mse": squared_bias + variance,
        "bias_fraction": squared_bias / (squared_bias + variance)
        if (squared_bias + variance) > 0 else 0.0,
    }
