"""Algorithm repair functions R (Section 5.2).

Two repairs make algorithm comparisons end-to-end private and fair:

* ``Rparam`` — learning free parameters on held-out synthetic data — lives in
  :mod:`repro.core.tuning`.
* ``Rside`` — removing reliance on non-private side information — is provided
  here: :class:`SideInformationRepair` spends a fraction ``rho_total`` of the
  privacy budget on a Laplace estimate of the dataset scale and runs the
  wrapped algorithm with the remaining budget and the noisy scale as the
  parameter it reads the scale from (SF's ``count_bound``).  MWEM, UGrid and
  AGrid read ``x.sum()`` directly, so wrapping them raises ``ValueError``.

Section 6.4 of the paper reports that ``rho_total = 0.05`` achieves reasonable
performance, with a modest error increase attributable to the reduced budget.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..algorithms.base import Algorithm
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
        if "scale" in inner.properties.side_information \
                and _SCALE_PARAMETER.get(inner.name) not in inner.params:
            raise ValueError(
                f"{inner.name} reads the dataset scale from the data and has "
                f"no parameter to receive a noisy estimate; it cannot be "
                f"repaired")
        self._inner = inner
        self._rho_total = float(rho_total)
        self.properties = replace(inner.properties,
                                  name=f"{inner.properties.name}+noisy-scale",
                                  side_information=())
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
