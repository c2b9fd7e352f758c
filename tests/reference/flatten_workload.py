"""The historical Hilbert workload flattening: one 2-D slice of the position
table per query and one frozen :class:`~repro.workload.rangequery.RangeQuery`
per curve span.  Kept as the oracle the bounds-array
:func:`repro.algorithms.hilbert.flatten_workload` is pinned against (same
spans, same name); it shares no span code with ``src``."""

from __future__ import annotations

import numpy as np

from repro.workload.rangequery import RangeQuery, Workload


def rectangle_spans_reference(position_2d: np.ndarray, los: np.ndarray,
                              his: np.ndarray):
    """Slice-based span computation — O(q * area): the smallest and largest
    curve position inside every query rectangle, for any ordering."""
    span_lo = np.empty(los.shape[0], dtype=np.intp)
    span_hi = np.empty(los.shape[0], dtype=np.intp)
    for k, (lo, hi) in enumerate(zip(los, his)):
        block = position_2d[lo[0]: hi[0] + 1, lo[1]: hi[1] + 1]
        span_lo[k] = block.min()
        span_hi[k] = block.max()
    return span_lo, span_hi


def position_table(ordering: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The curve position of every cell, as a ``shape`` array."""
    rows, cols = (int(d) for d in shape)
    position = np.empty(rows * cols, dtype=np.intp)
    position[ordering] = np.arange(rows * cols, dtype=np.intp)
    return position.reshape(rows, cols)


def flatten_workload_reference(workload, ordering: np.ndarray,
                               shape: tuple[int, int]) -> Workload:
    """Map every rectangle of a 2-D workload to the span of its cells'
    curve positions, as a workload over the flattened domain."""
    operator = workload.operator
    span_lo, span_hi = rectangle_spans_reference(
        position_table(ordering, shape), operator.los, operator.his)
    queries = [RangeQuery((int(lo),), (int(hi),))
               for lo, hi in zip(span_lo, span_hi)]
    return Workload(queries, (int(shape[0]) * int(shape[1]),),
                    name=f"{workload.name}|flattened")
