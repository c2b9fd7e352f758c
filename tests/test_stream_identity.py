"""Stream identity of SF's incremental boundary search and AGrid's batched
noise and speculative block walk against their historical loops
(``tests/reference/``).

Both rewrites promise more than equal-in-distribution output: for the same
generator they must return a bitwise-equal release *and* leave the generator
in the same state, so a grid's later jobs, and the registry goldens, cannot
tell them apart from the loops they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.algorithms.grids as grids
from reference.agrid import AGridReference, walk_reference
from reference.sf_boundaries import StructureFirstReference, select_boundaries_reference
from repro import AGrid, StructureFirst, UGrid
from repro.algorithms.mechanisms import PrivacyBudget

EPSILONS = (1e-3, 0.1, 10.0, 1e6)


def _generator(seed: int) -> np.random.Generator:
    # Stream identity is about two runs from one pinned seed, so the tests
    # build their seeded generators here.
    return np.random.default_rng(seed)  # privlint: disable=PL001


def _counts(shape, kind: str) -> np.ndarray:
    size = int(np.prod(shape))
    if kind == "zero":
        return np.zeros(shape)
    if kind == "huge":
        return np.full(shape, 1e12)
    g = _generator(size)
    return g.multinomial(50 * size, g.dirichlet(np.full(size, 0.3))).astype(float).reshape(shape)


def _assert_stream_identical(new, old, x, epsilon, seed=7):
    rng_new, rng_old = _generator(seed), _generator(seed)
    got = new.run(x, epsilon, rng=rng_new)
    want = old.run(x, epsilon, rng=rng_old)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


# -- SF ---------------------------------------------------------------------------------

@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("kind", ["zero", "huge", "skewed"])
@pytest.mark.parametrize("n", [1, 2, 13, 257])
def test_sf_matches_reference_boundary_search(n, kind, epsilon):
    _assert_stream_identical(StructureFirst(), StructureFirstReference(),
                             _counts((n,), kind), epsilon)


@pytest.mark.parametrize("buckets", [2, 5, 64, 128])
def test_sf_boundaries_match_reference_at_every_bucket_count(buckets):
    """Down to one cut per cell (``buckets == n``), where the last rounds
    choose among a handful of free cuts."""
    x = _counts((128,), "skewed")
    rng_new, rng_old = _generator(3), _generator(3)
    got = StructureFirst()._select_boundaries(x, buckets, 0.5, float(x.sum()), rng_new)
    want = select_boundaries_reference(x, buckets, 0.5, float(x.sum()), rng_old)
    assert got == want
    assert len(got) == buckets + 1
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_sf_plan_rows_keep_the_historical_order(monkeypatch):
    """Per bucket the total first, then its cells, buckets left to right; a
    single-cell bucket keeps one full-budget row."""
    monkeypatch.setattr(StructureFirst, "_select_boundaries",
                        lambda self, *args: [0, 1, 4, 6])
    plan = StructureFirst().select(np.arange(6.0), None, PrivacyBudget(1.0),
                                   _generator(0))
    full = plan.epsilon_measure
    half = full / 2.0
    assert plan.queries.los[:, 0].tolist() == [0, 1, 1, 2, 3, 4, 4, 5]
    assert plan.queries.his[:, 0].tolist() == [0, 3, 1, 2, 3, 5, 4, 5]
    assert plan.epsilons.tolist() == [full, half, half, half, half, half, half, half]
    assert plan.queries.los.dtype == np.intp


# -- AGrid ------------------------------------------------------------------------------

@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("kind", ["zero", "huge", "skewed"])
@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (7, 11), (1, 1)])
def test_agrid_matches_reference_loop(shape, kind, epsilon):
    _assert_stream_identical(AGrid(), AGridReference(), _counts(shape, kind), epsilon)


def test_agrid_matches_reference_with_large_multi_cell_fine_grids(monkeypatch):
    """Blocks with >= 8 fine cells take numpy's pairwise-summation path for
    their fine totals, and fine cells wider than one cell take the per-slice
    sums; the input is built so that at least one block does both."""
    x = np.zeros((128, 128))
    x[:40, :40] = _generator(5).poisson(12.0, (40, 40)) * 1.25
    fine_counts = []
    draw = grids.batched_laplace

    def spy(rng, scales):
        # A coarse draw leads every block: its fine cells follow it.
        offsets = np.flatnonzero(scales == scales[0])
        fine_counts.extend(np.diff(np.append(offsets, scales.size)) - 1)
        return draw(rng, scales)

    monkeypatch.setattr(grids, "batched_laplace", spy)
    # rho != 0.5 so the coarse and fine scales differ and the spy can tell
    # the block offsets from the fine cells.
    _assert_stream_identical(AGrid(rho=0.3), AGridReference(rho=0.3), x, 0.1)
    # 128 cells into 10 coarse pieces: every block holds at least 12 x 12.
    assert any(8 <= m < 12 * 12 for m in fine_counts)


@pytest.mark.parametrize("seed", range(6))
def test_agrid_matches_reference_on_random_inputs(seed):
    g = _generator(100 + seed)
    shape = tuple(int(s) for s in g.integers(1, 48, 2))
    x = g.multinomial(int(10 ** g.uniform(1, 8)),
                      g.dirichlet(np.full(shape[0] * shape[1], 0.4))).astype(float)
    _assert_stream_identical(AGrid(), AGridReference(), x.reshape(shape) * 0.37,
                             float(10 ** g.uniform(-2, 2)), seed=seed)


def _at_scale(shape, scale: float) -> np.ndarray:
    g = _generator(int(np.prod(shape)))
    size = int(np.prod(shape))
    return g.multinomial(int(scale), g.dirichlet(np.full(size, 0.3))).astype(float).reshape(shape)


def _spy_on_walk(monkeypatch) -> dict:
    """Record, over every walk, the blocks evaluated beyond those accepted
    (work discarded after a miss inside a window), the largest window and
    each walk's fine-cell counts."""
    seen = {"discarded": 0, "largest_window": 0, "cells": []}
    sizes: list[int] = []
    fine_pieces, walk = grids._fine_pieces, grids._walk_blocks

    def count_pieces(counts, *args):
        sizes.append(counts.size)
        return fine_pieces(counts, *args)

    def count_walk(block_sums, *args):
        first = len(sizes)
        counts, rows, cols = walk(block_sums, *args)
        windows = sizes[first + 1:]      # the first call is the guess
        seen["discarded"] += sum(windows) - block_sums.size
        seen["largest_window"] = max(seen["largest_window"], *windows)
        seen["cells"].append(rows * cols)
        return counts, rows, cols

    monkeypatch.setattr(grids, "_fine_pieces", count_pieces)
    monkeypatch.setattr(grids, "_walk_blocks", count_walk)
    return seen


@pytest.mark.parametrize("shape, scale, epsilon", [
    ((256, 256), 1e6, 1.0), ((97, 89), 1e5, 1.0), ((1, 257), 1e4, 0.01)])
def test_agrid_matches_reference_where_fine_sizes_flip(shape, scale, epsilon, monkeypatch):
    """Skewed counts whose fine sizes change from block to block with the
    noise, so the walk's guesses miss and it restarts inside a window."""
    seen = _spy_on_walk(monkeypatch)
    _assert_stream_identical(AGrid(), AGridReference(), _at_scale(shape, scale), epsilon)
    assert np.unique(seen["cells"][0]).size > 1
    assert seen["discarded"] > 0, "no window missed"


def test_walk_matches_the_reference_loop_over_many_seeds(monkeypatch):
    """The speculative walk against the per-block loop on random blocks,
    counts and budgets: same counts and fine grids, bit for bit.  Both the
    restart after a miss and the doubling after a clean window must occur."""
    seen = _spy_on_walk(monkeypatch)
    for seed in range(200):
        g = _generator(seed)
        n = int(g.integers(1, 600))
        height, width = g.integers(1, 7, n), g.integers(1, 7, n)
        block_sums = g.gamma(0.4, 10 ** g.uniform(0, 3), n) * g.choice([1.0, 0.37])
        # The walk is exact for any buffer: values spread around zero flip
        # the fine sizes as the coarse noise does.
        spread = 10 ** g.uniform(-1, 2)
        ahead = g.uniform(-spread, spread, n + int((height * width).sum()))
        args = (block_sums, height, width, ahead, float(10 ** g.uniform(-2, 1)), 5.0)
        got = grids._walk_blocks(*args)
        want = walk_reference(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert seen["discarded"] > 0, "no window missed"
    assert seen["largest_window"] > grids._FIRST_WINDOW, "no window doubled"


# -- UGrid ------------------------------------------------------------------------------

def test_ugrid_blocks_are_row_major_rectangles():
    x = np.ones((7, 11))
    plan = UGrid(c=1.0).select(x, None, PrivacyBudget(0.1), _generator(0))
    row_edges, col_edges = grids._grid_edges(7, 3), grids._grid_edges(11, 3)
    want_los = [(r0, c0) for r0 in row_edges[:-1] for c0 in col_edges[:-1]]
    want_his = [(r1 - 1, c1 - 1) for r1 in row_edges[1:] for c1 in col_edges[1:]]
    assert plan.queries.los.tolist() == [list(p) for p in want_los]
    assert plan.queries.his.tolist() == [list(p) for p in want_his]
    assert plan.queries.los.dtype == plan.queries.his.dtype == np.intp
