"""Learning free parameter settings: the repair function Rparam (Section 5.2).

Principle 6 ("no free parameters") requires every algorithm to come with a
data-independent or differentially private rule for setting its parameters.
DPBench's remedy is to *train* such a rule on synthetic data that is disjoint
from the evaluation datasets: for a grid of (epsilon x scale) signal levels
and a grid of candidate parameter settings, the candidate with the lowest
average error on synthetic power-law and normal shapes is recorded, giving a
lookup function ``(epsilon, scale) -> parameters``.

This is exactly how the paper derives MWEM* (the number of rounds ``T`` as a
function of the epsilon-scale product) and AHP* (``rho`` and ``eta``).
:class:`TunedAlgorithm` wraps a :class:`TuningResult` as an algorithm that
applies the learned rule on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from ..algorithms.base import Algorithm
from ..algorithms.mechanisms import PrivacyBudget, as_rng
from ..data.synthetic import TRAINING_SHAPE_FAMILIES
from ..workload.builders import default_workload
from ..workload.rangequery import Workload
from .error import scaled_average_per_query_error, trial_answers
from .registry import make_algorithm

__all__ = ["TuningResult", "ParameterTuner", "TunedAlgorithm"]


@dataclass
class TuningResult:
    """The learned mapping from signal level to best parameter setting."""

    algorithm: str
    parameter_grid: dict[str, list]
    best_by_product: dict[float, dict] = field(default_factory=dict)
    errors_by_product: dict[float, dict[tuple, float]] = field(default_factory=dict)

    def parameters_for(self, epsilon: float, scale: float) -> dict:
        """Rparam: look up the learned parameters for a new setting.

        The lookup key is the epsilon-scale product (scale-epsilon
        exchangeability makes this the right notion of signal strength); the
        nearest trained product is used.  Both sides of the log-distance are
        clamped away from zero: an unclamped zero trained product would turn
        into ``-inf`` and poison every lookup with ``nan`` distances.  A
        non-finite ``epsilon`` or ``scale`` raises ``ValueError``: it has no
        nearest product.  A finite pair whose product overflows is clamped
        to the largest float, so it resolves to the largest trained product.
        """
        if not self.best_by_product:
            raise ValueError("tuner has not been trained")
        if not (np.isfinite(epsilon) and np.isfinite(scale)):
            raise ValueError("epsilon and scale must be finite, "
                             f"got {epsilon!r} and {scale!r}")
        product_value = min(max(epsilon * scale, 1e-12), np.finfo(float).max)
        products = np.array(sorted(self.best_by_product))
        log_products = np.log(np.maximum(products, 1e-12))
        nearest = products[np.argmin(np.abs(log_products - np.log(product_value)))]
        return dict(self.best_by_product[float(nearest)])


class ParameterTuner:
    """Grid-search free parameters of an algorithm on synthetic training shapes."""

    def __init__(
        self,
        algorithm: str,
        parameter_grid: dict[str, list],
        domain_size: int = 256,
        shape_families: dict | None = None,
    ):
        if not parameter_grid:
            raise ValueError("parameter_grid must name at least one parameter")
        self.algorithm = algorithm
        self.parameter_grid = {k: list(v) for k, v in parameter_grid.items()}
        self.domain_size = int(domain_size)
        self.shape_families = dict(shape_families or TRAINING_SHAPE_FAMILIES)

    def _training_shapes(self, rng: np.random.Generator) -> list[np.ndarray]:
        return [family(self.domain_size, rng=rng) for family in self.shape_families.values()]

    def _candidates(self) -> list[dict]:
        names = list(self.parameter_grid)
        combos = product(*(self.parameter_grid[name] for name in names))
        return [dict(zip(names, combo)) for combo in combos]

    def train(
        self,
        epsilon_scale_products: list[float],
        epsilon: float = 0.1,
        n_trials: int = 3,
        rng: np.random.Generator | int | None = None,
    ) -> TuningResult:
        """Learn the best parameters for every signal level in the grid.

        The training scale for each product is ``product / epsilon``; training
        runs entirely on synthetic shapes, never on evaluation datasets, so
        the evaluation does not violate Principle 6.
        """
        rng = as_rng(rng)
        result = TuningResult(algorithm=self.algorithm, parameter_grid=self.parameter_grid)
        shapes = self._training_shapes(rng)
        candidates = self._candidates()
        # One workload for the whole grid search: every true-answer and
        # estimate evaluation below reuses its cached sparse operator.
        workload = default_workload((self.domain_size,), rng=rng)

        for signal in epsilon_scale_products:
            scale = max(int(round(signal / epsilon)), 1)
            per_candidate: dict[tuple, float] = {}
            for candidate in candidates:
                algorithm = make_algorithm(self.algorithm, **candidate)
                errors = []
                for shape in shapes:
                    x = rng.multinomial(scale, shape).astype(float)
                    true_answers = workload.evaluate(x)
                    errors.extend(
                        scaled_average_per_query_error(true_answers, answers, scale)
                        for answers in trial_answers(
                            algorithm, x, epsilon, workload, n_trials, rng))
                per_candidate[tuple(sorted(candidate.items()))] = float(np.mean(errors))
            best_key = min(per_candidate, key=per_candidate.get)
            result.best_by_product[float(signal)] = dict(best_key)
            result.errors_by_product[float(signal)] = per_candidate
        return result


class TunedAlgorithm(Algorithm):
    """Rparam's output as an algorithm: the tuned base algorithm.

    Each run looks up ``tuning.parameters_for(epsilon, scale)``
    and runs the base algorithm with those parameters on the whole budget.
    This is how the paper's starred variants (MWEM*, AHP*) get
    setting-appropriate parameters.  The lookup reads the true scale
    ``x.sum()``, so the scale is declared side information, as it is for
    UGrid.
    """

    def __init__(self, tuning: TuningResult):
        self._tuning = tuning
        base = make_algorithm(tuning.algorithm)
        self.properties = replace(base.properties, name=f"{base.name}+tuned",
                                  side_information=("scale",))
        self.params = dict(base.params)

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        params = self._tuning.parameters_for(budget.total, float(x.sum()))
        inner = make_algorithm(self._tuning.algorithm, **params)
        return inner.run(x, budget.spend_all("inner-algorithm"),
                         workload=workload, rng=rng)
