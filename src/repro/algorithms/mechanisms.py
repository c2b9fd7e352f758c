"""Core differential-privacy primitives.

These are the building blocks shared by every algorithm in the benchmark:
Laplace noise, the exponential mechanism and a small privacy-budget
accountant used by multi-stage algorithms.  Releases add Laplace noise
through ``measure_plan`` (which draws with the ``batched_laplace`` kernel)
or :func:`laplace_noise`.

All randomness flows through an explicit :class:`numpy.random.Generator`
(see :func:`as_rng`) so that experiments are reproducible.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "as_rng",
    "laplace_noise",
    "exponential_mechanism",
    "PrivacyBudget",
    "BudgetExceededError",
]

#: Rside's share of the budget for the scale estimate: ``rho_total = 0.05``
#: performs reasonably in the paper (Section 6.4).
SCALE_ESTIMATE_FRACTION = 0.05


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (a freshly seeded generator).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, numbers.Integral):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def laplace_noise(scale: float, size, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. Laplace(0, ``scale``) noise of the given ``size``.

    A ``scale`` of zero returns exact zeros, and an infinite scale is rejected;
    this lets callers express the epsilon -> infinity limit cleanly.
    """
    if scale < 0 or not np.isfinite(scale):
        raise ValueError(f"Laplace scale must be finite and non-negative, got {scale}")
    if scale == 0:
        return np.zeros(size)
    return rng.laplace(loc=0.0, scale=scale, size=size)


def exponential_mechanism(
    scores: np.ndarray,
    epsilon: float,
    sensitivity: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> int:
    """Select an index with probability proportional to ``exp(eps * score / (2 * sens))``.

    ``scores`` is a one-dimensional array of utilities (larger is better).
    Returns the selected index.  With ``epsilon == inf`` the argmax is
    returned, matching Lemma 2 of the paper, and ``rng`` is not touched.

    Draw contract: a finite-epsilon call consumes exactly one
    ``rng.random()`` and returns the index ``rng.choice(len(scores),
    p=probabilities)`` would, leaving the generator in the same state — it
    performs ``Generator.choice``'s one-draw inverse-CDF step (normalised
    cumulative sum, ``searchsorted(side="right")``) without re-validating
    ``p`` on every call.  Scores whose probabilities are NaN (a NaN or
    ``+inf`` score, all scores ``-inf``, or an overflowing
    ``epsilon * score``) raise ``ValueError`` before any draw, as
    ``Generator.choice`` does.
    """
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
    logits = epsilon * scores
    logits /= 2.0 * sensitivity
    logits -= logits.max()  # numerical stability
    weights = np.exp(logits, out=logits)
    probabilities = weights / weights.sum()
    cdf = probabilities.cumsum()
    if cdf[-1] != cdf[-1]:  # a NaN probability poisons the running total
        raise ValueError("probabilities contain NaN")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class BudgetExceededError(RuntimeError):
    """Raised when an algorithm tries to spend more privacy budget than it has."""


class PrivacyBudget:
    """A simple sequential-composition privacy accountant.

    Multi-stage algorithms (partition selection followed by count estimation,
    parameter estimation followed by the main mechanism, ...) split a total
    epsilon across their subroutines.  This class tracks the remaining budget
    and raises :class:`BudgetExceededError` on over-spending, which is how the
    test-suite asserts the end-to-end privacy principle (Principle 5).

    It is also the one place an algorithm reads the dataset scale from:
    :meth:`scale` is the true total, the side information an algorithm
    declares with ``side_information=("scale",)``, unless the budget came
    from :meth:`with_noisy_scale` (Rside), which carries a private estimate.
    """

    def __init__(self, epsilon: float):
        if not 0 < epsilon < np.inf:
            raise ValueError(f"total epsilon must be positive and finite, got {epsilon}")
        self._total = float(epsilon)
        self._spent = 0.0
        self._log: list[tuple[str, float]] = []
        self._noisy_scale: float | None = None

    @property
    def total(self) -> float:
        return self._total

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self._total - self._spent

    @property
    def log(self) -> list[tuple[str, float]]:
        """The sequence of (label, epsilon) charges made so far."""
        return list(self._log)

    def spend(self, epsilon: float, label: str = "") -> float:
        """Charge ``epsilon`` against the budget and return it.

        A tiny tolerance absorbs floating-point drift when an algorithm spends
        its budget in several exact fractions.
        """
        if epsilon <= 0:
            raise ValueError(f"cannot spend a non-positive epsilon ({epsilon})")
        if self._spent + epsilon > self._total * (1 + 1e-9):
            raise BudgetExceededError(
                f"spending {epsilon} would exceed remaining budget {self.remaining}"
            )
        self._spent += epsilon
        self._log.append((label, epsilon))
        return epsilon

    def spend_fraction(self, fraction: float, label: str = "") -> float:
        """Charge ``fraction`` of the *total* budget and return the epsilon spent."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return self.spend(self._total * fraction, label)

    def spend_all(self, label: str = "") -> float:
        """Charge whatever budget remains and return it."""
        remaining = self.remaining
        if remaining <= 0:
            raise BudgetExceededError("no budget remaining")
        return self.spend(remaining, label)

    def scale(self, x: np.ndarray) -> float:
        """The dataset scale: the estimate this budget carries, else ``x.sum()``."""
        if self._noisy_scale is not None:
            return self._noisy_scale
        return float(x.sum())

    def with_noisy_scale(self, x: np.ndarray, fraction: float,
                         rng: np.random.Generator) -> PrivacyBudget:
        """Rside (Section 5.2): estimate the scale privately, then hand on the rest.

        Charges ``fraction`` of the total as ``scale-estimate``, draws one
        Laplace variate for the estimate ``max(x.sum() + noise, 1)``, and
        charges the remainder as ``inner-algorithm``.  Returns a budget over
        that remainder whose :meth:`scale` is the estimate.
        """
        eps_scale = self.spend_fraction(fraction, "scale-estimate")
        # float(x.sum()) is declassified by the immediately-added draw.
        estimate = max(float(x.sum()) + float(laplace_noise(1.0 / eps_scale, (), rng)), 1.0)
        inner = PrivacyBudget(self.spend_all("inner-algorithm"))
        inner._noisy_scale = estimate
        return inner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrivacyBudget(total={self._total}, spent={self._spent})"
