"""Algorithm repair functions R (Section 5.2).

Two repairs make algorithm comparisons end-to-end private and fair:

* ``Rparam`` — learning free parameters on held-out synthetic data — lives in
  :mod:`repro.core.tuning`.
* ``Rside`` — removing reliance on non-private side information — is provided
  here: :class:`SideInformationRepair` wraps an algorithm that assumes the
  dataset scale is public (SF, MWEM, UGrid, AGrid), spends a fraction
  ``rho_total`` of the privacy budget on a Laplace estimate of the scale, and
  runs the wrapped algorithm with the remaining budget (passing the noisy
  scale to algorithms that accept it as a parameter).

Section 6.4 of the paper reports that ``rho_total = 0.05`` achieves reasonable
performance, with a modest error increase attributable to the reduced budget.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.base import Algorithm, AlgorithmProperties
from ..algorithms.mechanisms import PrivacyBudget, laplace_noise
from ..workload.rangequery import Workload

__all__ = ["SideInformationRepair"]

#: How to hand the noisy scale to wrapped algorithms that accept it explicitly.
_SCALE_PARAMETER = {
    "SF": "count_bound",
}


class SideInformationRepair(Algorithm):
    """Wrap an algorithm so its scale side information is estimated privately."""

    def __init__(self, inner: Algorithm, rho_total: float = 0.05):
        if not 0 < rho_total < 1:
            raise ValueError(f"rho_total must be in (0, 1), got {rho_total}")
        self._inner = inner
        self._rho_total = float(rho_total)
        inner_properties = inner.properties
        self.properties = AlgorithmProperties(
            name=f"{inner_properties.name}+noisy-scale",
            supported_dims=inner_properties.supported_dims,
            data_dependent=inner_properties.data_dependent,
            hierarchical=inner_properties.hierarchical,
            partitioning=inner_properties.partitioning,
            workload_aware=inner_properties.workload_aware,
            parameters=dict(inner_properties.parameters),
            free_parameters=inner_properties.free_parameters,
            side_information=(),
            consistent=inner_properties.consistent,
            scale_epsilon_exchangeable=inner_properties.scale_epsilon_exchangeable,
            reference=inner_properties.reference,
        )
        self.params = dict(inner.params)

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        eps_scale = budget.spend_fraction(self._rho_total, "scale-estimate")
        eps_rest = budget.spend_all("inner-algorithm")
        # float(x.sum()) is declassified by the immediately-added draw.
        noisy_scale = max(float(x.sum()) + float(laplace_noise(1.0 / eps_scale, (), rng)), 1.0)

        # The inner algorithm splits its own total, so it runs on eps_rest;
        # the noisy scale goes to a per-run copy, never the shared instance.
        inner = self._inner
        parameter_name = _SCALE_PARAMETER.get(inner.name)
        if parameter_name in inner.params:
            inner = type(inner)(**{**inner.params, parameter_name: noisy_scale})
        return inner.run(x, eps_rest, workload=workload, rng=rng)
