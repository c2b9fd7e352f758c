"""The historical summed-area gathers: ``QueryMatrix.overlap_sums`` with
``np.clip`` bounds and a masked 2-D fancy-index gather, and
``PrefixSum.range_sums`` with its 2-D four-corner gather on ``(row,
column)`` index pairs.  Kept verbatim as the oracles the flat-index gathers
of :meth:`repro.workload.linops.QueryMatrix.overlap_sums` and
:meth:`repro.workload.prefix_sum.PrefixSum.range_sums` are pinned against
bit for bit (region validation aside: the historical ``overlap_sums`` takes
the region as given).  Both take the instance first, so they can also stand
in for the methods on the class."""

from __future__ import annotations

import numpy as np


def overlap_sums_reference(operator, x: np.ndarray, lo: tuple[int, ...],
                           hi: tuple[int, ...]) -> np.ndarray:
    """Mass of ``x`` inside the intersection of every query of ``operator``
    with ``[lo, hi]``."""
    x = operator._as_domain(x)
    los, his = operator.los, operator.his
    if operator.ndim == 1:
        local = np.zeros(hi[0] - lo[0] + 2)
        np.cumsum(x[lo[0]: hi[0] + 1], out=local[1:])
        a = np.clip(los[:, 0], lo[0], hi[0] + 1)
        b = np.clip(his[:, 0] + 1, lo[0], hi[0] + 1)
        return local[b - lo[0]] - local[a - lo[0]]
    a = np.maximum(los, np.asarray(lo, dtype=np.intp))
    b = np.minimum(his, np.asarray(hi, dtype=np.intp))
    valid = np.all(a <= b, axis=1)
    out = np.zeros(operator.n_queries)
    if not np.any(valid):
        return out
    sub = x[lo[0]: hi[0] + 1, lo[1]: hi[1] + 1]
    local = np.zeros((sub.shape[0] + 1, sub.shape[1] + 1))
    local[1:, 1:] = sub.cumsum(axis=0).cumsum(axis=1)
    r0 = a[valid, 0] - lo[0]
    c0 = a[valid, 1] - lo[1]
    r1 = b[valid, 0] - lo[0] + 1
    c1 = b[valid, 1] - lo[1] + 1
    out[valid] = local[r1, c1] - local[r0, c1] - local[r1, c0] + local[r0, c0]
    return out


def range_sums_reference(prefix, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Vectorised inclusive range sums of the summed-area table ``prefix``."""
    los = np.asarray(los, dtype=np.intp)
    his = np.asarray(his, dtype=np.intp)
    if los.shape != his.shape:
        raise ValueError("los and his must have the same shape")
    if los.ndim != 2 or los.shape[1] != len(prefix.shape):
        raise ValueError(
            f"corner arrays must have shape (q, {len(prefix.shape)}) for "
            f"domain {prefix.shape}, got {los.shape}")
    if np.any(los < 0) or np.any(his < los) \
            or np.any(his >= np.asarray(prefix.shape, dtype=np.intp)):
        raise ValueError(
            f"corners must satisfy 0 <= lo <= hi < shape over {prefix.shape}")
    if len(prefix.shape) == 1:
        return prefix._table[his[:, 0] + 1] - prefix._table[los[:, 0]]
    t = prefix._table
    r0, c0 = los[:, 0], los[:, 1]
    r1, c1 = his[:, 0] + 1, his[:, 1] + 1
    return t[r1, c1] - t[r0, c1] - t[r1, c0] + t[r0, c0]
