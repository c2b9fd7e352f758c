"""Privelet's historical dense 2-D path, kept as the oracle of the per-axis
Haar transform.

The analysis matrix of each axis is built row by row, the coefficients are
``H_r @ x @ H_c.T`` and the release inverts both matrices with
``np.linalg.solve``.  The noise is one Laplace draw over the padded
coefficient grid, scaled by the product of the per-axis sensitivities.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.mechanisms import PrivacyBudget, laplace_noise
from repro.algorithms.wavelet import haar_sensitivity, next_power_of_two


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


def dense_coefficients(padded: np.ndarray) -> np.ndarray:
    """``H_r @ padded @ H_c.T`` for a power-of-two-shaped 2-D array."""
    h_row = _haar_matrix(padded.shape[0])
    h_col = _haar_matrix(padded.shape[1])
    return h_row @ padded @ h_col.T


def dense_privelet_2d(x: np.ndarray, budget: PrivacyBudget,
                      rng: np.random.Generator) -> np.ndarray:
    """The historical ``Privelet._run_2d``: the whole budget goes to the
    coefficients."""
    rows, cols = x.shape
    padded_rows = next_power_of_two(rows)
    padded_cols = next_power_of_two(cols)
    padded = np.zeros((padded_rows, padded_cols))
    padded[:rows, :cols] = x
    h_row = _haar_matrix(padded_rows)
    h_col = _haar_matrix(padded_cols)
    sensitivity = haar_sensitivity(rows) * haar_sensitivity(cols)
    epsilon = budget.spend_all("coefficients")
    coefficients = h_row @ padded @ h_col.T
    noisy = coefficients + laplace_noise(sensitivity / epsilon, coefficients.shape, rng)
    reconstructed = np.linalg.solve(h_row, np.linalg.solve(h_col, noisy.T).T)
    return reconstructed[:rows, :cols]
