"""Haar wavelet substrate used by the Privelet algorithm.

The (unnormalised) Haar decomposition of a length-``n`` vector (``n`` a power
of two) consists of the grand total plus, for every node of a binary tree over
the domain, the difference between the totals of its left and right halves.
The coefficients are laid out total first, then the difference levels from
the coarsest to the finest, nodes left to right within a level.  Adding one
record to a single cell changes the grand total by one and exactly one
difference coefficient per tree level by one, so the L1 sensitivity of the
transform is ``1 + log2 n`` — the key fact behind Privelet's noise
calibration.

The multi-dimensional transform applies the 1-D one along every axis; a unit
change in one cell then touches one coefficient per combination of per-axis
levels, so the sensitivity is the product of the per-axis terms.

Both transforms are built only from numpy array functions (slicing,
``reshape``, ``concatenate``) and write nothing into a preallocated buffer,
so the runtime taint sanitizer sees the data flow from the counts through
the coefficients.  Callers pad to powers of two (Privelet zero-pads with
``np.pad`` and crops after the inverse).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "next_power_of_two",
    "haar_forward",
    "haar_inverse",
    "haar_sensitivity",
]


def next_power_of_two(n: int) -> int:
    """Smallest power of two that is ``>= n``."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << (int(n - 1).bit_length())


def _axis_views(x: np.ndarray):
    """Yield ``(pre, n, post)`` for every axis of ``x``: the axis seen as the
    middle one of a 3-D reshape, so no axis is ever moved."""
    for axis, n in enumerate(x.shape):
        if n != next_power_of_two(n):
            raise ValueError(f"Haar transform needs power-of-two sides, got {x.shape}")
        yield math.prod(x.shape[:axis]), n, math.prod(x.shape[axis + 1:])


def haar_forward(x: np.ndarray) -> np.ndarray:
    """Unnormalised Haar decomposition along every axis of ``x``.

    Every side must be a power of two.  Along each axis the result holds the
    total, then ``sum(left half) - sum(right half)`` for every node of the
    binary tree, coarsest level first.
    """
    x = np.asanyarray(x, dtype=float)
    shape = x.shape
    for pre, n, post in _axis_views(x):
        current = x.reshape(pre, n, post)
        diffs_fine_to_coarse = []
        while current.shape[1] > 1:
            left, right = current[:, 0::2], current[:, 1::2]
            diffs_fine_to_coarse.append(left - right)
            current = left + right
        x = np.concatenate([current, *reversed(diffs_fine_to_coarse)],
                           axis=1).reshape(shape)
    return x


def haar_inverse(coefficients: np.ndarray) -> np.ndarray:
    """Invert :func:`haar_forward` (same shape, same layout)."""
    x = np.asanyarray(coefficients, dtype=float)
    shape = x.shape
    for pre, n, post in _axis_views(x):
        layout = x.reshape(pre, n, post)
        current = layout[:, :1]
        width = 1
        while width < n:
            diffs = layout[:, width:2 * width]
            # Each node's (left, right) children, interleaved left to right.
            children = np.concatenate([(current + diffs)[:, :, None],
                                       (current - diffs)[:, :, None]], axis=2)
            width *= 2
            current = (children / 2.0).reshape(pre, width, post)
        x = current.reshape(shape)
    return x


def haar_sensitivity(n: int) -> float:
    """L1 sensitivity of the unnormalised Haar decomposition of a length-``n``
    vector: one for the total plus one per difference level."""
    padded = next_power_of_two(n)
    levels = int(np.log2(padded)) if padded > 1 else 0
    return 1.0 + levels
