"""Summed-area tables for fast range-query evaluation.

Every workload in the benchmark is a set of axis-aligned (hyper-)rectangular
range queries over a 1-D or 2-D array of counts.  Answering thousands of such
queries per trial is the hot path of the benchmark, so queries are answered
via prefix sums rather than by materialising a query matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PrefixSum"]


def check_corners(lo: tuple[int, ...], hi: tuple[int, ...],
                  shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``lo`` and ``hi`` are one inclusive box in
    ``shape``: one coordinate per axis and ``0 <= lo <= hi < shape``."""
    if len(lo) != len(shape) or len(hi) != len(shape):
        raise ValueError(
            f"corners must have one coordinate per axis of {shape}; got "
            f"lo={tuple(lo)}, hi={tuple(hi)}")
    for a, b, d in zip(lo, hi, shape):
        if not 0 <= a <= b < d:
            raise ValueError(
                f"corners must satisfy 0 <= lo <= hi < shape; got "
                f"lo={tuple(lo)}, hi={tuple(hi)} over {shape}")


class PrefixSum:
    """Summed-area table over a 1-D or 2-D count array.

    The table is padded with a leading row/column of zeros so that inclusive
    range sums are single expressions without boundary special cases.

    Accumulation is performed explicitly in ``float64`` regardless of the
    input dtype (so e.g. ``float32`` or integer inputs are promoted before the
    running sums, never summed in a narrower type).  ``cumsum`` accumulates
    sequentially, so the classic recursive-summation bound applies: entry
    ``k`` of the table satisfies ``|table[k] - exact| <= (k - 1) * eps *
    sum(|x_i|)`` with ``eps = 2**-53`` — about ``2.3e-10`` relative error even
    for a million-cell domain, negligible against differential-privacy noise.
    Integer-count histograms whose running totals stay below ``2**53`` are
    represented exactly (every partial sum is an integer-valued float64), so
    range sums over raw counts incur no rounding at all.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"only 1-D and 2-D arrays are supported, got ndim={x.ndim}")
        self._shape = x.shape
        if x.ndim == 1:
            table = np.zeros(x.shape[0] + 1, dtype=np.float64)
            np.cumsum(x, dtype=np.float64, out=table[1:])
        else:
            table = np.zeros((x.shape[0] + 1, x.shape[1] + 1), dtype=np.float64)
            table[1:, 1:] = x.cumsum(axis=0, dtype=np.float64).cumsum(axis=1, dtype=np.float64)
        self._table = table

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def range_sum(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> float:
        """Inclusive sum of the rectangle ``lo <= idx <= hi``.

        Corners must satisfy ``0 <= lo <= hi < shape`` per axis; out-of-range
        corners raise ``ValueError`` (a negative index would otherwise wrap
        onto the far end of the table and return a silently wrong sum).
        """
        check_corners(lo, hi, self._shape)
        if len(self._shape) == 1:
            return float(self._table[hi[0] + 1] - self._table[lo[0]])
        t = self._table
        r0, c0 = lo
        r1, c1 = hi
        return float(t[r1 + 1, c1 + 1] - t[r0, c1 + 1] - t[r1 + 1, c0] + t[r0, c0])

    def range_sums(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Vectorised inclusive range sums.

        ``los`` and ``his`` are integer arrays of shape ``(q, ndim)`` holding
        the lower and upper (inclusive) corners of ``q`` queries; every corner
        must satisfy ``0 <= lo <= hi < shape`` (``ValueError`` otherwise).
        """
        los = np.asarray(los, dtype=np.intp)
        his = np.asarray(his, dtype=np.intp)
        if los.shape != his.shape:
            raise ValueError("los and his must have the same shape")
        if los.ndim != 2 or los.shape[1] != len(self._shape):
            raise ValueError(
                f"corner arrays must have shape (q, {len(self._shape)}) for "
                f"domain {self._shape}, got {los.shape}")
        if np.any(los < 0) or np.any(his < los) \
                or np.any(his >= np.asarray(self._shape, dtype=np.intp)):
            raise ValueError(
                f"corners must satisfy 0 <= lo <= hi < shape over {self._shape}")
        return self._gather(los, his)

    def _gather(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """:meth:`range_sums` without its checks, for corners already known
        to be ``(q, ndim)`` intp arrays with ``0 <= lo <= hi < shape``
        (:class:`~repro.workload.linops.QueryMatrix` validates its own at
        construction, so ``matvec`` skips the second pass over them)."""
        if len(self._shape) == 1:
            return self._table[his[:, 0] + 1] - self._table[los[:, 0]]
        # Four-corner gather on the flat table (index r * width + c): one
        # 1-D take per corner is much cheaper than 2-D fancy indexing.
        flat = self._table.ravel()
        width = self._table.shape[1]
        r0 = los[:, 0] * width
        r1 = his[:, 0] * width
        r1 += width
        c0 = los[:, 1]
        c1 = his[:, 1] + 1
        out = flat.take(r1 + c1)
        out -= flat.take(r0 + c1)
        out -= flat.take(r1 + c0)
        out += flat.take(r0 + c0)
        return out
