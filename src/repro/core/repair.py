"""Algorithm repair functions R (Section 5.2).

Two repairs make algorithm comparisons end-to-end private and fair:

* ``Rparam`` — learning free parameters on held-out synthetic data — lives in
  :mod:`repro.core.tuning`.
* ``Rside`` — removing reliance on non-private side information — is provided
  here: :class:`SideInformationRepair` runs the wrapped algorithm on the
  budget :meth:`~repro.algorithms.mechanisms.PrivacyBudget.with_noisy_scale`
  returns, which has paid a fraction ``rho_total`` of the privacy budget for
  a Laplace estimate of the dataset scale.  Every algorithm reads the scale
  through ``budget.scale(x)``, so every one that declares it (MWEM, SF,
  UGrid, AGrid) reads the estimate instead.

Section 6.4 of the paper reports that ``rho_total = 0.05`` achieves reasonable
performance, with a modest error increase attributable to the reduced budget.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..algorithms.base import Algorithm
from ..algorithms.mechanisms import SCALE_ESTIMATE_FRACTION, PrivacyBudget
from ..workload.rangequery import Workload

__all__ = ["SideInformationRepair"]


class SideInformationRepair(Algorithm):
    """Wrap an algorithm so its scale side information is estimated privately."""

    def __init__(self, inner: Algorithm,
                 rho_total: float = SCALE_ESTIMATE_FRACTION):
        if not 0 < rho_total < 1:
            raise ValueError(f"rho_total must be in (0, 1), got {rho_total}")
        self._inner = inner
        self._rho_total = float(rho_total)
        self.properties = replace(inner.properties,
                                  name=f"{inner.properties.name}+noisy-scale",
                                  side_information=())
        self.params = dict(inner.params)

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        return self._inner._run(x, budget.with_noisy_scale(x, self._rho_total, rng),
                                workload, rng)
