"""The per-query canonical decomposition, node by node.  Kept as the oracle
:meth:`repro.algorithms.tree.HierarchicalTree.level_usage`'s rank-query
counts (and its array walk over irregular 2-D trees) are pinned against: a
Python recursion over the tree's node arrays, one query at a time."""

from __future__ import annotations

import numpy as np


def canonical_decomposition(tree, lo, hi, measured=None) -> list[int]:
    """Indices of the nodes the canonical decomposition of the range
    ``[lo, hi]`` takes when only the ``measured`` levels (default: all) are
    measured.

    Greedy top-down: a node at a measured level fully inside the range is
    taken whole, a node disjoint from the range is skipped, a leaf that
    partially overlaps the range is taken (aggregated-leaf bias), and any
    other intersecting node recurses into its children.
    """
    if measured is None:
        measured = np.ones(tree.n_levels, dtype=bool)
    qlo = tuple(int(v) for v in lo)
    qhi = tuple(int(v) for v in hi)
    node_lo, node_hi = tree.node_bounds()
    levels = tree.node_levels()
    offsets = tree.child_offsets()
    selected: list[int] = []
    stack = [0]
    while stack:
        idx = stack.pop()
        nlo = [int(v) for v in node_lo[idx]]
        nhi = [int(v) for v in node_hi[idx]]
        if any(b < ql or a > qh for a, b, ql, qh in zip(nlo, nhi, qlo, qhi)):
            continue
        inside = all(ql <= a and b <= qh
                     for a, b, ql, qh in zip(nlo, nhi, qlo, qhi))
        first, last = int(offsets[idx]), int(offsets[idx + 1])
        if measured[int(levels[idx])] and (inside or first == last):
            selected.append(idx)
        else:
            stack.extend(range(first + 1, last + 1))
    return selected


def level_usage_reference(tree, workload, measured=None) -> np.ndarray:
    """Per-level count of the nodes every query's decomposition takes."""
    levels = tree.node_levels()
    usage = np.zeros(tree.n_levels)
    for query in workload:
        for idx in canonical_decomposition(tree, query.lo, query.hi, measured):
            usage[int(levels[idx])] += 1
    return usage
