"""Hilbert space-filling curve for mapping 2-D domains to 1-D.

DAWA and GreedyH are one-dimensional algorithms; the paper runs them on 2-D
data by flattening the grid along a Hilbert curve, which preserves locality so
that 2-D clusters stay contiguous in the 1-D ordering.  The shape alone
decides the flattening (:func:`hilbert_ordering_for`): the Hilbert curve for
square power-of-two grids, row-major for everything else.  The workload
companion :func:`flatten_workload` keeps the flattened algorithms
workload-aware.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hilbert_order", "hilbert_ordering_for", "flatten_workload",
           "plan_flattening"]


#: Curve positions processed per chunk by :func:`hilbert_order`.  Every
#: transient of the bit-twiddling loop is chunk-sized, so peak memory is the
#: output table plus O(_HILBERT_CHUNK) regardless of the grid side (one
#: whole-vector int64 round at 4096**2 used to allocate ~134 MB *per
#: temporary*; the memory regression test pins the new bound).
_HILBERT_CHUNK = 1 << 18


def hilbert_order(side: int) -> np.ndarray:
    """Return the (row, col) visiting order of a Hilbert curve over a
    ``side x side`` grid, as an array of flat row-major indices.

    ``side`` must be a power of two; :func:`hilbert_ordering_for` falls back
    to row-major for other shapes.  The curve is built with the classic
    distance-to-(x, y) bit-twiddling applied to chunks of the position vector
    (O(log side) vectorised passes per chunk instead of ``side**2``
    interpreter iterations), in ``uint32`` whenever the grid has
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
    ``ordering`` the flattened plan-pipeline algorithms (GreedyH, GreedyW,
    DAWA) attach to their :class:`~repro.core.plan.MeasurementPlan`."""
    rows, cols = shape
    if rows == cols and rows >= 1 and (rows & (rows - 1)) == 0:
        return hilbert_order(rows)
    return np.arange(rows * cols, dtype=np.intp)


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


def _flatten(workload, shape: tuple[int, int], ordering: np.ndarray):
    """:func:`flatten_workload` under ``ordering = hilbert_ordering_for(shape)``.

    A rectangle's smallest position lies on its boundary unless it is the
    curve's start cell (likewise the largest / end cell): on the Hilbert
    curve consecutive positions are 4-adjacent cells, so the minimum is where
    the curve enters the rectangle, and in row-major order it is the top-left
    corner.  Each edge of the rectangle is one contiguous run of the position
    table (top/bottom) or of its transpose (left/right), folded with
    ``reduceat`` instead of one 2-D slice per query.
    """
    from ..workload.rangequery import Workload

    rows, cols = shape
    n = rows * cols
    los, his = workload.operator.los, workload.operator.his
    r0, c0 = los[:, 0], los[:, 1]
    r1, c1 = his[:, 0], his[:, 1]
    position = np.empty(n, dtype=np.intp)
    position[ordering] = np.arange(n, dtype=np.intp)
    position_t = position.reshape(rows, cols).T.reshape(-1)
    # (table, run start, run end) of the top, bottom, left, right edges.
    edges = [(position, r0 * cols + c0, r0 * cols + c1 + 1),
             (position, r1 * cols + c0, r1 * cols + c1 + 1),
             (position_t, c0 * rows + r0, c0 * rows + r1 + 1),
             (position_t, c1 * rows + r0, c1 * rows + r1 + 1)]
    span_lo = np.minimum.reduce([
        _segment_extrema(np.append(table, n), a, b, np.minimum)
        for table, a, b in edges])
    span_hi = np.maximum.reduce([
        _segment_extrema(np.append(table, -1), a, b, np.maximum)
        for table, a, b in edges])
    # The curve's endpoints may realise the extremum strictly inside the
    # rectangle (nothing enters before the start or leaves after the end).
    for cell, span, value in ((ordering[0], span_lo, 0),
                              (ordering[-1], span_hi, n - 1)):
        r, c = divmod(int(cell), cols)
        span[(r0 <= r) & (r <= r1) & (c0 <= c) & (c <= c1)] = value
    return Workload.from_bounds(span_lo, span_hi, (n,),
                                name=f"{workload.name}|flattened")


def flatten_workload(workload, shape: tuple[int, int]):
    """Map a 2-D range workload onto the domain flattened by
    :func:`hilbert_ordering_for`.

    A rectangle's cells are generally not contiguous along the curve, so each
    query is mapped to the *span* of its cells' curve positions — the tightest
    1-D range containing the query.  Hilbert locality keeps those spans small,
    which is all the flattened algorithms consume the workload for (budget
    allocation over the 1-D hierarchy), exactly the substitution the paper
    makes when running DAWA/GreedyH on 2-D data.

    The result is a bounds-array workload over the ``rows * cols`` curve
    positions, named ``"<name>|flattened"``; no per-span
    :class:`~repro.workload.rangequery.RangeQuery` is built unless someone
    iterates it.
    """
    shape = tuple(int(d) for d in shape)
    return _flatten(workload, shape, hilbert_ordering_for(shape))


def plan_flattening(x: np.ndarray, workload):
    """The flattening prologue shared by the 1-D plan algorithms run on 2-D
    data (GreedyH, GreedyW, DAWA): the plan ``ordering`` (``None`` for 1-D
    input), the flattened domain shape, and the workload mapped onto the
    curve (``None`` when missing or mismatched — callers fall back to their
    1-D default)."""
    if x.ndim != 2:
        return None, x.shape, workload
    ordering = hilbert_ordering_for(x.shape)
    if workload is None or workload.ndim != 2 or workload.domain_shape != x.shape:
        return ordering, (x.size,), None
    return ordering, (x.size,), _flatten(workload, x.shape, ordering)
