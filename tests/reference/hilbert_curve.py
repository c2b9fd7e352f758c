"""The historical pure-Python Hilbert curve builder: one :func:`_d2xy`
bit-twiddling loop per curve position, O(n) interpreter iterations.  Kept as
the executable specification the vectorised, chunked
:func:`repro.algorithms.hilbert.hilbert_order` is pinned against (bitwise)
and as the baseline of the speed bench."""

from __future__ import annotations

import numpy as np


def _d2xy(order: int, d: int) -> tuple[int, int]:
    """Convert a distance along the Hilbert curve to (x, y) on a 2^order grid."""
    rx = ry = 0
    x = y = 0
    t = d
    s = 1
    n = 1 << order
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        # rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def hilbert_order_reference(side: int) -> np.ndarray:
    """The historical construction of
    :func:`repro.algorithms.hilbert.hilbert_order`: one :func:`_d2xy` loop
    per curve position."""
    if side < 1 or (side & (side - 1)) != 0:
        raise ValueError("side must be a positive power of two")
    order = int(np.log2(side)) if side > 1 else 0
    indices = np.empty(side * side, dtype=np.intp)
    for d in range(side * side):
        x, y = _d2xy(order, d)
        indices[d] = x * side + y
    return indices
