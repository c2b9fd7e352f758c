"""PRIVELET: differential privacy via the Haar wavelet transform (Xiao et al., ICDE 2010).

The data vector is transformed into unnormalised Haar coefficients, Laplace
noise calibrated to the transform's L1 sensitivity (``1 + log2 n`` in 1-D,
the product of the per-axis terms in 2-D) is added to every coefficient, and
the transform is inverted.  Any range query touches only ``O(log n)``
coefficients, so range-query error grows polylogarithmically in the domain
size instead of linearly as it does for IDENTITY.

This implementation uses uniform noise across coefficients (the classic
"wavelet strategy" instance of the matrix mechanism); the original paper's
per-level weighting improves constants but not the asymptotics.

Privelet is deliberately *not* on the plan pipeline: its measurement operator
is the Haar analysis matrix, whose rows carry ±1 coefficients — outside the
0/1 axis-aligned-range currency of :class:`~repro.workload.linops.QueryMatrix`
that the shared noise stage speaks.
"""

from __future__ import annotations

import numpy as np

from ..workload.rangequery import Workload
from .base import Algorithm, AlgorithmProperties
from .mechanisms import PrivacyBudget, laplace_noise
from .wavelet import haar_forward, haar_inverse, haar_sensitivity, next_power_of_two

__all__ = ["Privelet"]


def _haar_matrix(n: int) -> np.ndarray:
    """Dense unnormalised Haar analysis matrix for a power-of-two ``n``.

    Row 0 is the grand total; the remaining rows are the left-minus-right
    difference queries of the binary tree nodes, coarsest first.
    """
    if n & (n - 1):
        raise ValueError("n must be a power of two")
    rows = [np.ones(n)]
    size = n
    while size > 1:
        half = size // 2
        for start in range(0, n, size):
            row = np.zeros(n)
            row[start : start + half] = 1.0
            row[start + half : start + size] = -1.0
            rows.append(row)
        size = half
    return np.array(rows)


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
        if x.ndim == 1:
            return self._run_1d(x, budget, rng)
        return self._run_2d(x, budget, rng)

    def _run_1d(self, x: np.ndarray, budget: PrivacyBudget,
                rng: np.random.Generator) -> np.ndarray:
        n = x.size
        sensitivity = haar_sensitivity(n)
        eps_noise = budget.spend_all("coefficients")
        coefficients = haar_forward(x)
        noisy = [c + laplace_noise(sensitivity / eps_noise, c.shape, rng)
                 for c in coefficients]
        return haar_inverse(noisy, original_size=n)

    def _run_2d(self, x: np.ndarray, budget: PrivacyBudget,
                rng: np.random.Generator) -> np.ndarray:
        rows, cols = x.shape
        padded_rows = next_power_of_two(rows)
        padded_cols = next_power_of_two(cols)
        padded = np.zeros((padded_rows, padded_cols))
        padded[:rows, :cols] = x
        h_row = _haar_matrix(padded_rows)
        h_col = _haar_matrix(padded_cols)
        sensitivity = haar_sensitivity(rows) * haar_sensitivity(cols)
        eps_noise = budget.spend_all("coefficients")
        coefficients = h_row @ padded @ h_col.T
        noisy = coefficients + laplace_noise(sensitivity / eps_noise, coefficients.shape, rng)
        reconstructed = np.linalg.solve(h_row, np.linalg.solve(h_col, noisy.T).T)
        return reconstructed[:rows, :cols]
