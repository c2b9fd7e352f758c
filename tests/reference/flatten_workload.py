"""The historical Hilbert workload flattening: one frozen
:class:`~repro.workload.rangequery.RangeQuery` per curve span.  Kept as the
oracle the bounds-array :func:`repro.algorithms.hilbert.flatten_workload` is
pinned against (same spans, same name)."""

from __future__ import annotations

import numpy as np

from repro.algorithms.hilbert import _rectangle_spans
from repro.workload.rangequery import RangeQuery, Workload


def flatten_workload_reference(workload, ordering: np.ndarray,
                               shape: tuple[int, int]) -> Workload:
    """Map every rectangle of a 2-D workload to the span of its cells'
    curve positions, as a workload over the flattened domain."""
    rows, cols = (int(d) for d in shape)
    position = np.empty(rows * cols, dtype=np.intp)
    position[ordering] = np.arange(rows * cols, dtype=np.intp)
    position_2d = position.reshape(rows, cols)
    operator = workload.operator
    span_lo, span_hi = _rectangle_spans(position_2d, operator.los, operator.his)
    queries = [RangeQuery((int(lo),), (int(hi),))
               for lo, hi in zip(span_lo, span_hi)]
    return Workload(queries, (rows * cols,), name=f"{workload.name}|flattened")
