"""UGrid and AGrid: differentially private grids for geospatial data
(Qardaji, Yang, Li, ICDE 2013).

UGrid lays a single equi-width grid over the 2-D domain, with the grid size
chosen from the dataset scale (side information) and epsilon so that the noise
error and the within-cell uniformity error are balanced:
``m = sqrt(N * eps / c)`` with ``c = 10``.

AGrid uses two levels: a coarse grid whose size again depends on ``N * eps``,
and within each coarse cell a fine grid whose size adapts to that cell's noisy
count.  The two measurements of each coarse cell (its own noisy count and the
sum of its fine cells) are reconciled by inverse-variance weighting.

Both algorithms become the identity release as epsilon grows (the grids shrink
to individual cells), so both are consistent; both use the true scale as side
information, exactly as flagged in Table 1.
"""

from __future__ import annotations

import numpy as np

from ..core.gls import reconcile_shift
from ..core.kernels import batched_laplace
from ..core.plan import MeasurementPlan, segment_sums
from ..workload.linops import QueryMatrix, rectangle_cells
from ..workload.rangequery import Workload
from .base import Algorithm, AlgorithmProperties, PlanAlgorithm
from .mechanisms import PrivacyBudget, laplace_noise

__all__ = ["UGrid", "AGrid"]


def _grid_edges(length: int, pieces: int) -> np.ndarray:
    """Boundaries of an equi-width partition of ``range(length)`` into ``pieces``.

    Computed in exact integer arithmetic (``floor(i * length / pieces)``), so
    consecutive widths differ by at most one.  The historical
    ``np.linspace(...).astype(int)`` truncated float intermediates, drifting
    off the balanced grid (and at the mercy of float rounding) whenever
    ``i * length / pieces`` landed just below an integer.
    """
    pieces = min(max(int(pieces), 1), int(length))
    return np.arange(pieces + 1, dtype=np.intp) * int(length) // pieces


def _rect_sums(x: np.ndarray, r0: np.ndarray, c0: np.ndarray,
               height: np.ndarray, width: np.ndarray) -> list[float]:
    """``float(x[r0:r0 + height, c0:c0 + width].sum())`` per rectangle.

    A multi-cell rectangle is summed by that very ``ndarray.sum`` call, so the
    float result does not depend on how numpy orders the summation of a
    strided view.  A one-cell rectangle's sum is ``0.0 + cell``: numpy
    starts the reduction from the additive identity (a ``-0.0`` cell sums to
    ``0.0``).  The plain floats are the taint sanitizer's declassification
    point; every caller adds noise to them next.
    """
    sums = (0.0 + x[r0, c0]).tolist()
    for i in np.flatnonzero(height * width > 1).tolist():
        sums[i] = float(x[r0[i]:r0[i] + height[i], c0[i]:c0[i] + width[i]].sum())
    return sums


# Blocks in the walk's first speculative window, and in the window after a
# miss; the window doubles after every window whose guesses all held.
_FIRST_WINDOW = 64


def _fine_pieces(counts: np.ndarray, height: np.ndarray, width: np.ndarray,
                 eps_fine: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """Fine-grid rows and columns of blocks with the given noisy counts.

    Elementwise in the scalar walk's op order: ``max(count, 0) * eps_fine /
    c2``, its square root, the ceiling, clipped to ``[1, max(h, w)]`` and
    cut to each side.  ``np.sqrt`` and ``math.sqrt`` are both correctly
    rounded, so every size equals the scalar one.
    """
    size = np.ceil(np.sqrt(np.maximum(counts, 0.0) * eps_fine / c2))
    size = np.minimum(np.maximum(size, 1.0), np.maximum(height, width))
    return (np.minimum(size, height).astype(np.intp),
            np.minimum(size, width).astype(np.intp))


def _walk_blocks(block_sums: np.ndarray, height: np.ndarray, width: np.ndarray,
                 ahead: np.ndarray, eps_fine: float,
                 c2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AGrid's walk over the draw-ahead buffer: each block's noisy coarse
    count and fine grid, as ``(counts, fine_rows, fine_cols)``.

    A block's coarse draw sits at its stream offset, the exclusive cumsum of
    ``1 + fine cells`` over the blocks before it, and fixes its own fine
    cells.  The walk guesses every block's fine cells once (from the buffer
    read at the block's index, an unrelated draw), so a window of blocks
    gets guessed offsets: the exact offset of its first block plus the
    guessed cumsum.  The window's counts and fine grids are then computed in
    one pass; every block up to and including the first one whose fine
    cells differ from the guess read its true offset and is accepted, and
    the walk restarts after it.  Only the scalar correction between the
    true and the guessed offset is carried into the tail, which is never
    rewritten.  The window doubles while the guesses hold and falls back to
    ``_FIRST_WINDOW`` on a miss.
    """
    n_blocks = block_sums.size
    rows, cols = _fine_pieces(block_sums + ahead[:n_blocks], height, width,
                              eps_fine, c2)
    guess_cells = rows * cols
    guess = np.zeros(n_blocks, dtype=np.intp)
    np.cumsum(1 + guess_cells[:-1], out=guess[1:])
    counts = np.empty(n_blocks)
    last = ahead.size - 1
    start, offset, window = 0, 0, _FIRST_WINDOW
    while start < n_blocks:
        stop = min(start + window, n_blocks)
        # A guess past the buffer is wrong, and so is rejected with its block.
        at = np.minimum(guess[start:stop] + (offset - guess[start]), last)
        count = block_sums[start:stop] + ahead[at]
        r, c = _fine_pieces(count, height[start:stop], width[start:stop],
                            eps_fine, c2)
        cells = r * c
        missed = np.flatnonzero(cells != guess_cells[start:stop])
        accept = int(missed[0]) + 1 if missed.size else stop - start
        done = start + accept
        counts[start:done] = count[:accept]
        rows[start:done] = r[:accept]
        cols[start:done] = c[:accept]
        offset = int(at[accept - 1]) + 1 + int(cells[accept - 1])
        start = done
        window = _FIRST_WINDOW if missed.size else 2 * window
    return counts, rows, cols


class UGrid(PlanAlgorithm):
    """Uniform (single-level) grid.

    On the plan pipeline the selection stage sizes the grid from the scale
    side information and emits one rectangle query per grid block (disjoint,
    so the whole budget reaches every block); the generic disjoint
    reconstruction spreads each noisy total uniformly over its block.
    """

    properties = AlgorithmProperties(
        name="UGrid",
        supported_dims=(2,),
        data_dependent=True,
        partitioning=True,
        parameters={"c": 10.0},
        side_information=("scale",),
        reference="Qardaji, Yang, Li. ICDE 2013",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        c = float(self.params["c"])
        scale = float(x.sum())          # side information: true scale
        grid_size = int(np.ceil(np.sqrt(max(scale * budget.total / c, 1.0))))
        rows, cols = x.shape
        row_edges = _grid_edges(rows, grid_size)
        col_edges = _grid_edges(cols, grid_size)

        # One rectangle per grid block, row-major; _grid_edges never yields
        # an empty piece.
        los = np.stack(np.broadcast_arrays(row_edges[:-1, None], col_edges[None, :-1]),
                       axis=-1).reshape(-1, 2)
        his = np.stack(np.broadcast_arrays(row_edges[1:, None] - 1, col_edges[None, 1:] - 1),
                       axis=-1).reshape(-1, 2)
        queries = QueryMatrix(los, his, x.shape)
        return MeasurementPlan(
            queries=queries,
            epsilons=np.full(queries.n_queries, budget.total),
            domain_shape=x.shape,
            epsilon_measure=budget.total,     # grid blocks are disjoint
        )


class AGrid(Algorithm):
    """Adaptive two-level grid.

    Deliberately *not* on the plan pipeline: the fine grid inside each coarse
    block is sized from that block's *noisy* coarse count, so selection and
    measurement interleave block by block (coarse draw, then that block's
    fine draws) — a faithful staging would have to pre-draw all the noise
    during selection, which is the pipeline in name only.

    The generator stream is the interleaved one, drawn in two batched calls
    instead of one scalar call per block and per fine cell:

    1. *Draw ahead.*  Save the generator state and draw one buffer of
       ``n_blocks + n_cells`` variates at the coarse scale.  That bounds the
       stream's length, since the fine cells tile the domain.
    2. *Walk.*  A block's coarse draw sits at its stream offset; it fixes
       the block's fine-grid size and so its fine-cell count ``m``, and the
       next block starts ``1 + m`` variates later.  :func:`_walk_blocks`
       guesses every block's ``m`` once, then takes windows of blocks in
       numpy at the offsets the guesses imply, accepts each window up to its
       first wrong guess and restarts after it (see there).
    3. *Replay.*  Restore the state and draw exactly those variates in one
       call, at the coarse scale on block offsets and the fine scale
       elsewhere.

    A Laplace variate consumes the same generator doubles at any scale and
    its value depends only on those doubles and its own scale, so the
    buffer's coarse values are the coarse draws of the interleaved loop, the
    replay reproduces every draw of that loop bit for bit, and the generator
    ends in the same state.  The reconciliation then runs on whole arrays,
    with each block's fine total summed over a row of an exact
    ``(blocks, m)`` matrix, the same pairwise summation as the block's own
    array (:func:`~repro.core.plan.segment_sums`).
    """

    properties = AlgorithmProperties(
        name="AGrid",
        supported_dims=(2,),
        data_dependent=True,
        hierarchical=True,
        partitioning=True,
        parameters={"c": 10.0, "c2": 5.0, "rho": 0.5},
        side_information=("scale",),
        reference="Qardaji, Yang, Li. ICDE 2013",
    )

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
        coarse_size = max(10, int(np.ceil(np.sqrt(max(scale * epsilon / c, 1.0)) / 2.0)))  # privlint: disable=PL004
        row_edges = _grid_edges(rows, coarse_size)
        col_edges = _grid_edges(cols, coarse_size)
        # Coarse blocks in row-major order, as (r0, c0, height, width).
        r0 = np.repeat(row_edges[:-1], col_edges.size - 1)
        c0 = np.tile(col_edges[:-1], row_edges.size - 1)
        height = np.repeat(np.diff(row_edges), col_edges.size - 1)
        width = np.tile(np.diff(col_edges), row_edges.size - 1)
        n_blocks = r0.size
        block_sums = _rect_sums(x, r0, c0, height, width)

        state = rng.bit_generator.state
        ahead = laplace_noise(1.0 / eps_coarse, n_blocks + x.size, rng)
        rng.bit_generator.state = state
        coarse_counts, row_pieces, col_pieces = _walk_blocks(
            np.array(block_sums), height, width, ahead, eps_fine, c2)
        n_fine = row_pieces * col_pieces
        # Each block's coarse draw leads its fine draws in the stream.
        is_coarse = np.zeros(n_blocks + int(n_fine.sum()), dtype=bool)
        is_coarse[np.cumsum(n_fine + 1) - n_fine - 1] = True
        scales = np.where(is_coarse, 1.0 / eps_coarse, 1.0 / eps_fine)
        noise = batched_laplace(rng, scales)

        # Fine cells, block by block and row-major within a block, each cut
        # at the integer edges _grid_edges gives its block.
        block = np.repeat(np.arange(n_blocks), n_fine)
        first = np.cumsum(n_fine) - n_fine
        local = np.arange(block.size) - first[block]
        fine_row, fine_col = np.divmod(local, col_pieces[block])
        f_r0 = r0[block] + fine_row * height[block] // row_pieces[block]
        f_r1 = r0[block] + (fine_row + 1) * height[block] // row_pieces[block]
        f_c0 = c0[block] + fine_col * width[block] // col_pieces[block]
        f_c1 = c0[block] + (fine_col + 1) * width[block] // col_pieces[block]
        fine_values = (np.array(_rect_sums(x, f_r0, f_c0, f_r1 - f_r0, f_c1 - f_c0))
                       + noise[~is_coarse])

        # Reconcile the coarse measurement with the fine measurements.
        fine_total = segment_sums(fine_values, first, n_fine)
        fine_values = fine_values + reconcile_shift(
            coarse_counts, 2.0 / eps_coarse ** 2, fine_total,
            2.0 / eps_fine ** 2, n_fine)[block]

        # Spread each fine cell's value evenly over its cells.
        cells, size = rectangle_cells(np.stack([f_r0, f_c0], axis=1),
                                      np.stack([f_r1 - 1, f_c1 - 1], axis=1), x.shape)
        estimate = np.zeros(x.shape)
        estimate.ravel()[cells] = np.repeat(fine_values / size, size)
        return estimate
