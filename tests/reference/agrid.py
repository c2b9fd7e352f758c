"""AGrid's historical loops, kept verbatim as oracles.

:class:`AGridReference` is the per-cell loop: one scalar Laplace draw per
coarse block and per fine cell, interleaved block by block, plus one scalar
inverse-variance combine per block (a private copy of the historical
combine is included).  It is the oracle for the draw-ahead-and-replay
:meth:`repro.algorithms.grids.AGrid._run`.

:func:`walk_reference` is the per-block walk over the draw-ahead buffer that
``AGrid._run`` ran before :func:`repro.algorithms.grids._walk_blocks`
replaced it with a speculative vectorised walk.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.grids import AGrid, _grid_edges
from repro.algorithms.mechanisms import PrivacyBudget, laplace_noise
from repro.workload.rangequery import Workload


def _inverse_variance_combine(values: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Combine independent unbiased estimates by inverse-variance weighting.

    Returns the combined estimate and its variance.  Infinite variances denote
    "no measurement" and are handled gracefully.
    """
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    weights = np.where(np.isfinite(variances) & (variances > 0), 1.0 / variances, 0.0)
    total_weight = weights.sum()
    if total_weight == 0:
        return float(values.mean()), float("inf")
    estimate = float((weights * values).sum() / total_weight)
    return estimate, float(1.0 / total_weight)


def walk_reference(block_sums: np.ndarray, height: np.ndarray, width: np.ndarray,
                   ahead: np.ndarray, eps_fine: float,
                   c2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each block's noisy coarse count and fine grid, one block at a time:
    ``(counts, fine_rows, fine_cols)``."""
    block_sums = np.asarray(block_sums, dtype=float).tolist()
    ahead = np.asarray(ahead, dtype=float).tolist()
    coarse_counts: list[float] = []
    pieces: list[tuple[int, int]] = []
    offset = 0
    for total, h, w in zip(block_sums, height.tolist(), width.tolist()):
        count = total + ahead[offset]
        fine_size = math.ceil(math.sqrt(max(count, 0.0) * eps_fine / c2))
        fine_size = min(max(fine_size, 1), max(h, w))
        fine_rows, fine_cols = min(fine_size, h), min(fine_size, w)
        coarse_counts.append(count)
        pieces.append((fine_rows, fine_cols))
        offset += 1 + fine_rows * fine_cols
    row_pieces, col_pieces = np.array(pieces, dtype=np.intp).reshape(-1, 2).T
    return np.array(coarse_counts), row_pieces, col_pieces


class AGridReference(AGrid):
    """AGrid with the historical per-cell noise loop."""

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        c = float(self.params["c"])
        c2 = float(self.params["c2"])
        rho = float(self.params["rho"])
        eps_coarse = budget.spend(budget.total * rho, "coarse-grid")
        eps_fine = budget.spend_all("fine-grid")

        scale = float(x.sum())          # side information: true scale
        rows, cols = x.shape
        # Qardaji's grid-size heuristic m ~= sqrt(N * eps / c): epsilon enters
        # as signal strength, not as a budget split (the split is the two
        # spend() calls above).
        epsilon = budget.total
        coarse_size = max(10, int(np.ceil(np.sqrt(max(scale * epsilon / c, 1.0)) / 2.0)))
        row_edges = _grid_edges(rows, coarse_size)
        col_edges = _grid_edges(cols, coarse_size)

        estimate = np.zeros(x.shape)
        coarse_variance = 2.0 / eps_coarse ** 2
        fine_variance = 2.0 / eps_fine ** 2
        for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
            for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
                block = x[r0:r1, c0:c1]
                if block.size == 0:
                    continue
                # The float() around the true block total is the taint
                # sanitizer's declassification point: the very next operation
                # noised it.
                coarse_count = float(block.sum()) + float(laplace_noise(1.0 / eps_coarse, (), rng))
                fine_size = int(np.ceil(np.sqrt(max(coarse_count, 0.0) * eps_fine / c2)))
                fine_size = int(np.clip(fine_size, 1, max(block.shape)))
                sub_row_edges = _grid_edges(block.shape[0], fine_size)
                sub_col_edges = _grid_edges(block.shape[1], fine_size)

                fine_values = []
                fine_slices = []
                for fr0, fr1 in zip(sub_row_edges[:-1], sub_row_edges[1:]):
                    for fc0, fc1 in zip(sub_col_edges[:-1], sub_col_edges[1:]):
                        fine_block = block[fr0:fr1, fc0:fc1]
                        if fine_block.size == 0:
                            continue
                        noisy = float(fine_block.sum()) + float(laplace_noise(1.0 / eps_fine, (), rng))
                        fine_values.append(noisy)
                        fine_slices.append((slice(r0 + fr0, r0 + fr1), slice(c0 + fc0, c0 + fc1)))
                fine_values = np.array(fine_values)

                # Reconcile the coarse measurement with the fine measurements.
                fine_total = float(fine_values.sum())
                combined, _ = _inverse_variance_combine(
                    np.array([coarse_count, fine_total]),
                    np.array([coarse_variance, fine_variance * len(fine_values)]),
                )
                if len(fine_values):
                    fine_values = fine_values + (combined - fine_total) / len(fine_values)
                for value, slices in zip(fine_values, fine_slices):
                    size = (slices[0].stop - slices[0].start) * (slices[1].stop - slices[1].start)
                    estimate[slices] = value / size
        return estimate
