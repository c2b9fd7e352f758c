"""Hilbert space-filling curve for mapping 2-D domains to 1-D.

DAWA and GreedyH are one-dimensional algorithms; the paper runs them on 2-D
data by flattening the grid along a Hilbert curve, which preserves locality so
that 2-D clusters stay contiguous in the 1-D ordering.  This module provides
the forward/backward index maps for square power-of-two grids, a row-major
fall-back for everything else, and the workload companion
:func:`flatten_workload` so the flattened algorithms stay workload-aware.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hilbert_order", "hilbert_ordering_for",
           "flatten_2d", "flatten_workload", "flatten_matching_workload",
           "plan_flattening", "unflatten_2d"]


#: Curve positions processed per chunk by :func:`hilbert_order`.  Every
#: transient of the bit-twiddling loop is chunk-sized, so peak memory is the
#: output table plus O(_HILBERT_CHUNK) regardless of the grid side (one
#: whole-vector int64 round at 4096**2 used to allocate ~134 MB *per
#: temporary*; the memory regression test pins the new bound).
_HILBERT_CHUNK = 1 << 18


def hilbert_order(side: int) -> np.ndarray:
    """Return the (row, col) visiting order of a Hilbert curve over a
    ``side x side`` grid, as an array of flat row-major indices.

    ``side`` must be a power of two; callers with other shapes should use the
    row-major fall-back in :func:`flatten_2d`.  The curve is built with the
    classic distance-to-(x, y) bit-twiddling applied to chunks of the
    position vector (O(log side) vectorised passes per chunk instead of
    ``side**2`` interpreter iterations), in ``uint32`` whenever the grid has
    at most 2**32 cells — positions, coordinates and flat indices all fit, so
    the integer arithmetic is identical element-for-element and the ordering
    stays bitwise-equal to the historical per-position loop while peak memory
    is the output table plus O(chunk) instead of one int64 intermediate per
    bit round over the whole domain.
    """
    if side < 1 or (side & (side - 1)) != 0:
        raise ValueError("side must be a positive power of two")
    n = side * side
    dtype = np.uint32 if n <= (1 << 32) else np.int64
    out = np.empty(n, dtype=np.intp)
    for chunk_lo in range(0, n, _HILBERT_CHUNK):
        chunk_hi = min(chunk_lo + _HILBERT_CHUNK, n)
        t = np.arange(chunk_lo, chunk_hi, dtype=dtype)
        x = np.zeros(t.shape, dtype=dtype)
        y = np.zeros(t.shape, dtype=dtype)
        s = 1
        while s < side:
            rx = 1 & (t >> 1)
            ry = 1 & (t ^ rx)
            # rotate quadrant: where ry == 0, flip both coordinates if
            # rx == 1, then swap x and y.
            flip = (ry == 0) & (rx == 1)
            np.subtract(dtype(s - 1), x, out=x, where=flip)
            np.subtract(dtype(s - 1), y, out=y, where=flip)
            swap = ry == 0
            x_swapped = np.where(swap, y, x)
            np.copyto(y, x, where=swap)
            x = x_swapped
            x += dtype(s) * rx
            y += dtype(s) * ry
            t >>= 2
            s *= 2
        out[chunk_lo:chunk_hi] = x * dtype(side) + y
    return out


def hilbert_ordering_for(shape: tuple[int, int]) -> np.ndarray:
    """The flattening order of a 2-D domain: the Hilbert curve for square
    power-of-two grids, row-major for everything else.  This is the
    ``ordering`` the flattened plan-pipeline algorithms (GreedyH, DAWA)
    attach to their :class:`~repro.core.plan.MeasurementPlan`."""
    rows, cols = shape
    if rows == cols and rows >= 1 and (rows & (rows - 1)) == 0:
        return hilbert_order(rows)
    return np.arange(rows * cols, dtype=np.intp)


def flatten_2d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a 2-D array into 1-D along a Hilbert curve.

    Returns the flattened vector and the ordering (flat row-major indices in
    curve order) needed to invert the operation with :func:`unflatten_2d`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("flatten_2d expects a 2-D array")
    ordering = hilbert_ordering_for(x.shape)
    return x.ravel()[ordering], ordering


def _segment_extrema(values: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                     ufunc) -> np.ndarray:
    """Per-segment reduction ``ufunc(values[starts[k]:ends[k]])`` for disjoint
    half-open segments, in one ``reduceat`` call.  ``values`` must carry one
    trailing sentinel element (neutral for ``ufunc``) so an end index may
    point one past the last real element."""
    bounds = np.empty(2 * starts.size, dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = ends
    return ufunc.reduceat(values, bounds)[0::2]


def _rectangle_spans_reference(position_2d: np.ndarray, los: np.ndarray,
                               his: np.ndarray):
    """Slice-based span computation — O(q * area), the executable
    specification of :func:`flatten_workload` (and its fall-back for
    orderings that are neither curve-continuous nor row-major)."""
    span_lo = np.empty(los.shape[0], dtype=np.intp)
    span_hi = np.empty(los.shape[0], dtype=np.intp)
    for k, (lo, hi) in enumerate(zip(los, his)):
        block = position_2d[lo[0]: hi[0] + 1, lo[1]: hi[1] + 1]
        span_lo[k] = block.min()
        span_hi[k] = block.max()
    return span_lo, span_hi


def _rectangle_spans(position_2d: np.ndarray, los: np.ndarray,
                     his: np.ndarray):
    """Curve-position span of every query rectangle, vectorised.

    For a *continuous* ordering (consecutive curve positions are 4-adjacent
    cells — the Hilbert curve) the extreme positions inside a rectangle lie
    on its boundary ring: the cell before the minimum along the curve is
    outside the rectangle, so the minimum is where the curve enters — a
    boundary cell — unless it is the curve's start cell (likewise the maximum
    / end cell).  The same holds for the row-major ordering, whose extrema
    sit at the rectangle's corners.  The boundary extrema reduce to per-row
    cumulative min/max lookups: each edge of the rectangle is one contiguous
    run of the row-major (top/bottom edges) or transposed (left/right edges)
    position table, folded with ``minimum.reduceat``/``maximum.reduceat`` —
    O(q + n) instead of O(q * area).  Any other ordering falls back to the
    exact slice-based reference.
    """
    rows, cols = position_2d.shape
    n = rows * cols
    flat = position_2d.reshape(-1)
    # Continuity check: manhattan step of 1 between consecutive curve cells.
    order = np.empty(n, dtype=np.intp)
    order[flat] = np.arange(n, dtype=np.intp)
    r, c = order // cols, order % cols
    continuous = n == 1 or bool(
        np.all(np.abs(np.diff(r)) + np.abs(np.diff(c)) == 1))
    row_major = not continuous and bool(
        np.array_equal(order, np.arange(n, dtype=np.intp)))
    if not (continuous or row_major):
        return _rectangle_spans_reference(position_2d, los, his)

    padded_min = np.append(flat, n)                  # sentinel: +inf for min
    padded_max = np.append(flat, -1)                 # sentinel: -inf for max
    flat_t = np.ascontiguousarray(position_2d.T).reshape(-1)
    padded_min_t = np.append(flat_t, n)
    padded_max_t = np.append(flat_t, -1)

    r0, c0 = los[:, 0], los[:, 1]
    r1, c1 = his[:, 0], his[:, 1]
    edges_min = [
        _segment_extrema(padded_min, r0 * cols + c0, r0 * cols + c1 + 1,
                         np.minimum),                               # top
        _segment_extrema(padded_min, r1 * cols + c0, r1 * cols + c1 + 1,
                         np.minimum),                               # bottom
        _segment_extrema(padded_min_t, c0 * rows + r0, c0 * rows + r1 + 1,
                         np.minimum),                               # left
        _segment_extrema(padded_min_t, c1 * rows + r0, c1 * rows + r1 + 1,
                         np.minimum),                               # right
    ]
    edges_max = [
        _segment_extrema(padded_max, r0 * cols + c0, r0 * cols + c1 + 1,
                         np.maximum),
        _segment_extrema(padded_max, r1 * cols + c0, r1 * cols + c1 + 1,
                         np.maximum),
        _segment_extrema(padded_max_t, c0 * rows + r0, c0 * rows + r1 + 1,
                         np.maximum),
        _segment_extrema(padded_max_t, c1 * rows + r0, c1 * rows + r1 + 1,
                         np.maximum),
    ]
    span_lo = np.minimum.reduce(edges_min)
    span_hi = np.maximum.reduce(edges_max)
    # The curve's endpoints may realise the extremum strictly inside the
    # rectangle (nothing enters before the start or leaves after the end).
    start_in = (r0 <= r[0]) & (r[0] <= r1) & (c0 <= c[0]) & (c[0] <= c1)
    end_in = (r0 <= r[-1]) & (r[-1] <= r1) & (c0 <= c[-1]) & (c[-1] <= c1)
    span_lo[start_in] = 0
    span_hi[end_in] = n - 1
    return span_lo.astype(np.intp), span_hi.astype(np.intp)


def flatten_workload(workload, ordering: np.ndarray, shape: tuple[int, int]):
    """Map a 2-D range workload onto the flattened 1-D domain.

    A rectangle's cells are generally not contiguous along the curve, so each
    query is mapped to the *span* of its cells' curve positions — the tightest
    1-D range containing the query.  Hilbert locality keeps those spans small,
    which is all the flattened algorithms consume the workload for (budget
    allocation over the 1-D hierarchy), exactly the substitution the paper
    makes when running DAWA/GreedyH on 2-D data.  Spans are computed from the
    rectangles' boundary runs of the position table
    (:func:`_rectangle_spans`), not per-query 2-D slices.
    """
    from ..workload.rangequery import RangeQuery, Workload

    rows, cols = (int(d) for d in shape)
    position = np.empty(rows * cols, dtype=np.intp)
    position[ordering] = np.arange(rows * cols, dtype=np.intp)
    position_2d = position.reshape(rows, cols)
    operator = workload.operator
    span_lo, span_hi = _rectangle_spans(position_2d, operator.los, operator.his)
    queries = [RangeQuery((int(lo),), (int(hi),))
               for lo, hi in zip(span_lo, span_hi)]
    return Workload(queries, (rows * cols,), name=f"{workload.name}|flattened")


def flatten_matching_workload(workload, ordering: np.ndarray, shape: tuple[int, int]):
    """:func:`flatten_workload` when ``workload`` matches the 2-D domain,
    ``None`` otherwise — the shared guard of the flattened algorithms' 2-D
    entry points (a missing or mismatched workload falls back to their 1-D
    default)."""
    if workload is None or workload.ndim != 2 or workload.domain_shape != shape:
        return None
    return flatten_workload(workload, ordering, shape)


def plan_flattening(x: np.ndarray, workload):
    """The flattening prologue shared by the 1-D plan algorithms run on 2-D
    data (GreedyH, GreedyW, DAWA): the plan ``ordering`` (``None`` for 1-D
    input), the flattened domain shape, and the workload mapped onto the
    curve (``None`` when missing or mismatched — callers fall back to their
    1-D default)."""
    if x.ndim != 2:
        return None, x.shape, workload
    ordering = hilbert_ordering_for(x.shape)
    return ordering, (x.size,), flatten_matching_workload(workload, ordering,
                                                          x.shape)


def unflatten_2d(values: np.ndarray, ordering: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Invert :func:`flatten_2d`."""
    values = np.asarray(values, dtype=float)
    out = np.empty(shape[0] * shape[1])
    out[ordering] = values
    return out.reshape(shape)
