"""EFPA: Enhanced Fourier Perturbation Algorithm (Acs, Castelluccia, Chen, ICDM 2012).

EFPA compresses the data vector with an orthonormal frequency transform,
privately chooses how many leading coefficients ``k`` to retain (exponential
mechanism scored by the expected squared error of that choice), perturbs the
retained coefficients with Laplace noise and inverts the transform.

This implementation uses the orthonormal DCT-II instead of the complex DFT:
it is the same energy-compaction idea with a real-valued transform, which
keeps the noise calibration elementary.  Half the budget selects ``k`` and
half perturbs the coefficients, as in the original algorithm.  As epsilon
grows the noise term of the score vanishes, ``k = n`` wins the selection and
the output converges to the true data — EFPA is consistent (Theorem 2).

EFPA is deliberately *not* on the plan pipeline: it measures real-valued DCT
coefficients, not axis-aligned range counts, so its operator is outside the
0/1 :class:`~repro.workload.linops.QueryMatrix` currency of the shared noise
stage.
"""

from __future__ import annotations

import numpy as np

from ..workload.rangequery import Workload
from .base import Algorithm, AlgorithmProperties
from .mechanisms import PrivacyBudget, exponential_mechanism, laplace_noise

__all__ = ["EFPA"]


class EFPA(Algorithm):
    """Lossy frequency-domain compression with private order selection."""

    properties = AlgorithmProperties(
        name="EFPA",
        supported_dims=(1,),
        data_dependent=True,
        reference="Acs, Castelluccia, Chen. ICDM 2012",
    )

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        # scipy.fft costs ~0.2 s to import; only EFPA needs it.
        from scipy.fft import dct, idct

        n = x.size
        eps_select = budget.spend_fraction(0.5, "order-selection")
        eps_noise = budget.spend_all("coefficients")

        coefficients = dct(x, norm="ortho")
        energy = coefficients ** 2
        # tail_energy[k] = energy dropped when keeping the first k coefficients.
        tail_energy = energy.sum() - np.cumsum(energy)

        # A single record changes each orthonormal DCT coefficient by at most
        # sqrt(2 / n); the L1 sensitivity of the first k coefficients is k times that.
        per_coefficient_sensitivity = np.sqrt(2.0 / n)
        ks = np.arange(1, n + 1)
        noise_scales = ks * per_coefficient_sensitivity / eps_noise
        noise_error = ks * 2.0 * noise_scales ** 2
        scores = -(tail_energy + noise_error)

        # The score changes by O(||x||_inf change) = O(1) per record through the
        # tail-energy term; use sensitivity 2 as a conservative bound.
        chosen = exponential_mechanism(scores, eps_select, sensitivity=2.0, rng=rng)
        k = int(ks[chosen])

        retained = coefficients[:k] + laplace_noise(
            k * per_coefficient_sensitivity / eps_noise, k, rng
        )
        noisy_coefficients = np.zeros(n)
        noisy_coefficients[:k] = retained
        return idct(noisy_coefficients, norm="ortho")
