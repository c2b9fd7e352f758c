"""MWEM: Multiplicative Weights / Exponential Mechanism (Hardt, Ligett, McSherry, NIPS 2012).

MWEM maintains an approximating distribution over the domain, initialised to
uniform at the (assumed known) dataset scale.  For ``T`` rounds it privately
selects the workload query with the largest error on the current approximation
(exponential mechanism), measures that query with the Laplace mechanism, and
applies a multiplicative-weights update.  The released estimate is the average
of the iterates.

``T`` is a free parameter with a large effect on error; the starred variant
MWEM* (Section 6.4 of the paper) sets ``T`` from a data-independent rule
learned on synthetic shapes as a function of the epsilon-times-scale product,
and replaces the true-scale side information with a noisy estimate.
"""

from __future__ import annotations

import numpy as np

from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan
from ..workload.builders import default_workload
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm
from .mechanisms import PrivacyBudget, exponential_mechanism, laplace_noise

__all__ = ["MWEM", "MWEMStar", "default_mwem_rounds"]


def default_mwem_rounds(epsilon_scale_product: float) -> int:
    """Data-independent rule for the number of MWEM rounds.

    Learned offline on synthetic power-law and normal shapes (see
    ``repro.core.tuning``): the optimal ``T`` grows roughly logarithmically in
    the signal strength ``epsilon * scale``, from 2 at very low signal to 100
    at very high signal — matching the paper's report that the tuned ``T``
    varies from 2 to 100 over its scale range.
    """
    product = max(float(epsilon_scale_product), 1.0)
    # Linear in the log of the signal: T = 2 at product 1e2, T = 100 at 1e7.
    rounds = int(round(2.0 + 19.6 * (np.log10(product) - 2.0)))
    return int(np.clip(rounds, 2, 100))


def _mwem_rounds(
    operator,
    domain_shape: tuple[int, ...],
    scale: float,
    rounds: int,
    next_round,
) -> tuple[np.ndarray, list[int], list[float]]:
    """The multiplicative-weights round loop, shared by run and replay.

    The loop works on the workload's sparse operator: a multiplicative-weights
    step re-weights only the cells of the chosen range, so the iterate is kept
    *unnormalised* (actual estimate = ``norm * estimate``) and every query
    answer is updated incrementally from the overlap of the chosen range with
    each workload query — no dense per-query mask, no full re-evaluation per
    round.  The average of the iterates is accumulated lazily through the
    invariant ``running_sum = pending + norm_sum * estimate`` (only the
    updated range is touched per round), so no round does O(n) work outside
    the chosen range.

    ``next_round(answers, norm)`` supplies each round's privately selected
    query index and its noisy measured answer — the live exponential-
    mechanism/Laplace driver during a run, the recorded plan log during a
    replay.  Everything else is deterministic post-processing, so a replay
    from the log is bit-for-bit the run (the privacy principle the
    registry-wide post-processing test asserts).
    """
    estimate = np.full(domain_shape, scale / int(np.prod(domain_shape)))
    stored_sum = scale
    norm = 1.0
    answers = operator.matvec(estimate)
    pending = np.zeros(domain_shape)
    norm_sum = 0.0
    delta = np.empty_like(answers)
    chosen_log: list[int] = []
    measured_log: list[float] = []

    for _ in range(rounds):
        chosen, measured = next_round(answers, norm)
        chosen_log.append(chosen)
        measured_log.append(measured)
        lo = tuple(int(v) for v in operator.los[chosen])
        hi = tuple(int(v) for v in operator.his[chosen])
        factor = float(np.exp((measured - norm * answers[chosen]) / (2.0 * scale)))
        overlaps = operator.overlap_sums(estimate, lo, hi)
        new_sum = stored_sum + (factor - 1.0) * overlaps[chosen]
        if np.isfinite(factor) and new_sum > 0:
            region = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
            # Fold the soon-to-be-lost scale of the range into `pending`
            # before mutating, preserving pending + norm_sum * estimate.
            pending[region] += (norm_sum * (1.0 - factor)) * estimate[region]
            estimate[region] *= factor
            np.multiply(overlaps, factor - 1.0, out=delta)
            answers += delta
            stored_sum = new_sum
            norm = scale / stored_sum      # keep the actual total at ``scale``
            if not 1e-100 < norm < 1e100:  # fold extreme normalisers back in
                estimate *= norm
                answers *= norm
                stored_sum *= norm
                norm_sum /= norm
                norm = 1.0
        norm_sum += norm

    return (pending + norm_sum * estimate) / rounds, chosen_log, measured_log


class MWEM(PlanAlgorithm):
    """MWEM with a fixed number of rounds and true-scale side information.

    On the plan pipeline MWEM is a pure selection strategy: every round
    privately *selects* a workload query (exponential mechanism) and measures
    it (Laplace), interleaved — so the whole budget is spent during
    :meth:`select`, which emits the chosen queries with their recorded noisy
    answers as pre-measured rows.  The shared noise stage then has nothing
    left to draw, and :meth:`infer` is the multiplicative-weights replay of
    the recorded measurements (not a GLS solve — MWEM is not consistent).
    """

    properties = AlgorithmProperties(
        name="MWEM",
        supported_dims=(1, 2),
        data_dependent=True,
        workload_aware=True,
        parameters={"rounds": 10},
        free_parameters=("rounds",),
        side_information=("scale",),
        consistent=False,
        reference="Hardt, Ligett, McSherry. NIPS 2012",
    )

    def _resolve_rounds(self, epsilon: float, scale: float) -> int:
        return int(self.params["rounds"])

    def _resolve_scale(self, x: np.ndarray, budget: PrivacyBudget,
                       rng: np.random.Generator) -> float:
        # The original MWEM assumes the scale is public side information.
        return float(x.sum())

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        if workload is None or workload.domain_shape != x.shape:
            workload = default_workload(x.shape, rng=rng)
        scale = max(self._resolve_scale(x, budget, rng), 1.0)
        rounds = max(1, self._resolve_rounds(budget.total, scale))
        epsilon_mwem = budget.spend_all("mwem")

        operator = workload.operator
        true_answers = workload.evaluate(x)
        eps_round = epsilon_mwem / rounds
        errors = np.empty_like(true_answers)

        def live_round(answers: np.ndarray, norm: float) -> tuple[int, float]:
            np.multiply(answers, norm, out=errors)
            np.subtract(true_answers, errors, out=errors)
            np.abs(errors, out=errors)
            chosen = exponential_mechanism(errors, eps_round / 2.0,
                                           sensitivity=1.0, rng=rng)
            # eps_round is this round's share of the epsilon_mwem charged by
            # spend_all() in select(); the float() around the true answer is
            # the taint sanitizer's declassification point — the very next
            # operation noised it.
            measured = float(true_answers[chosen]) + float(
                laplace_noise(2.0 / eps_round, (), rng)
            )
            return chosen, measured

        release, chosen_log, measured_log = _mwem_rounds(
            operator, x.shape, scale, rounds, live_round)

        chosen_idx = np.asarray(chosen_log, dtype=np.intp)
        queries = QueryMatrix(operator.los[chosen_idx], operator.his[chosen_idx],
                              x.shape)
        return MeasurementPlan(
            queries=queries,
            epsilons=np.zeros(rounds),
            domain_shape=x.shape,
            values=np.asarray(measured_log, dtype=float),
            variances=np.full(rounds, 2.0 * (2.0 / eps_round) ** 2),
            epsilon_selection=budget.spent,
            epsilon_measure=0.0,
            extras={"estimate": release, "operator": operator,
                    "chosen": chosen_idx, "scale": scale, "rounds": rounds},
        )

    def infer(self, measurements: MeasurementSet,
              plan: MeasurementPlan) -> np.ndarray:
        estimate = plan.extras.get("estimate")
        if estimate is not None:
            return estimate
        return self.replay(measurements, plan)

    @staticmethod
    def replay(measurements: MeasurementSet,
               plan: MeasurementPlan) -> np.ndarray:
        """Recompute the release from the recorded measurements alone.

        Re-runs the multiplicative-weights dynamics with the recorded
        (chosen query, noisy answer) log — both privately released
        quantities — standing in for the live private driver; the public
        workload operator supplies the incremental answer bookkeeping.
        Bit-for-bit identical to the run-time release.
        """
        log = iter(zip(plan.extras["chosen"], measurements.values))

        def recorded_round(answers: np.ndarray, norm: float) -> tuple[int, float]:
            chosen, measured = next(log)
            return int(chosen), float(measured)

        release, _, _ = _mwem_rounds(plan.extras["operator"],
                                     plan.domain_shape, plan.extras["scale"],
                                     plan.extras["rounds"], recorded_round)
        return release


class MWEMStar(MWEM):
    """MWEM repaired per Principles 6 and 7.

    The number of rounds is set by the data-independent learned rule
    :func:`default_mwem_rounds` (optionally overridden by the tuning
    machinery), and the scale side information is replaced by a noisy estimate
    paid for with a ``scale_budget_fraction`` share of the privacy budget.
    """

    properties = AlgorithmProperties(
        name="MWEM*",
        supported_dims=(1, 2),
        data_dependent=True,
        workload_aware=True,
        parameters={"rounds": None, "scale_budget_fraction": 0.05},
        consistent=False,
        reference="DPBench repaired variant of MWEM",
    )

    def _resolve_rounds(self, epsilon: float, scale: float) -> int:
        rounds = self.params.get("rounds")
        if rounds is not None:
            return int(rounds)
        # epsilon * scale is the signal-strength regressor of the learned
        # rounds rule (Principle 6), not a budget split; the split happens in
        # select() via PrivacyBudget.
        return default_mwem_rounds(epsilon * scale)  # privlint: disable=PL004

    def _resolve_scale(self, x: np.ndarray, budget: PrivacyBudget,
                       rng: np.random.Generator) -> float:
        fraction = float(self.params["scale_budget_fraction"])
        eps_scale = budget.spend_fraction(fraction, "scale-estimate")
        return float(x.sum()) + float(laplace_noise(1.0 / eps_scale, (), rng))
