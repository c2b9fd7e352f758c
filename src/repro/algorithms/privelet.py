"""PRIVELET: differential privacy via the Haar wavelet transform (Xiao et al., ICDE 2010).

The count array is zero-padded to power-of-two sides and transformed into
unnormalised Haar coefficients along every axis
(:func:`~repro.algorithms.wavelet.haar_forward`); Laplace noise calibrated to
the transform's L1 sensitivity (the product over the axes of ``1 + log2 n``)
is added to every coefficient, the transform is inverted and the padding is
cropped.  Any range query touches only ``O(log n)`` coefficients per axis, so
range-query error grows polylogarithmically in the domain size instead of
linearly as it does for IDENTITY.  1-D and 2-D share this one path, and
nothing on it writes the counts into a preallocated buffer, so the taint
sanitizer follows them up to the noise.

This implementation uses uniform noise across coefficients (the classic
"wavelet strategy" instance of the matrix mechanism); the original paper's
per-level weighting improves constants but not the asymptotics.

Privelet is deliberately *not* on the plan pipeline: its measurement operator
is the Haar analysis matrix, whose rows carry ±1 coefficients — outside the
0/1 axis-aligned-range currency of :class:`~repro.workload.linops.QueryMatrix`
that the shared noise stage speaks.
"""

from __future__ import annotations

import math

import numpy as np

from ..workload.rangequery import Workload
from .base import Algorithm, AlgorithmProperties
from .mechanisms import PrivacyBudget, laplace_noise
from .wavelet import haar_forward, haar_inverse, haar_sensitivity, next_power_of_two

__all__ = ["Privelet"]


class Privelet(Algorithm):
    """The Privelet wavelet mechanism for 1-D and 2-D count arrays."""

    properties = AlgorithmProperties(
        name="Privelet",
        supported_dims=(1, 2),
        data_dependent=False,
        hierarchical=True,
        reference="Xiao, Wang, Gehrke. ICDE 2010",
    )

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        padded = np.pad(x, [(0, next_power_of_two(n) - n) for n in x.shape])
        sensitivity = math.prod(haar_sensitivity(n) for n in x.shape)
        eps_noise = budget.spend_all("coefficients")
        noisy = haar_forward(padded) + laplace_noise(
            sensitivity / eps_noise, padded.shape, rng)
        return haar_inverse(noisy)[tuple(slice(n) for n in x.shape)]
