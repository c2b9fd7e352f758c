"""The historical per-node breadth-first tree builder.  Kept as the
executable specification of :class:`repro.algorithms.tree.HierarchicalTree`'s
vectorised array construction: same node order, bounds, levels, parents and
child lists (the property suite pins the two against each other), at
per-Python-object cost, and as the baseline of the construction-speedup
gate."""

from __future__ import annotations

import numpy as np

from repro.algorithms.tree import TreeNode, _validated_params


def build_reference_nodes(domain_shape: tuple[int, ...], branching: int = 2,
                          max_height: int | None = None,
                          split_axes: tuple[int, ...] | None = None,
                          ) -> list[TreeNode]:
    """The historical per-node breadth-first builder, node for node."""
    domain_shape, branching, split_axes = \
        _validated_params(domain_shape, branching, split_axes)
    ndim = len(domain_shape)

    def axes_to_split(node: TreeNode) -> tuple[int, ...]:
        if split_axes is None:
            return tuple(range(ndim))
        axis = split_axes[node.level % len(split_axes)]
        if node.hi[axis] > node.lo[axis]:
            return (axis,)
        return tuple(range(ndim))

    def split(node: TreeNode) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        axes = axes_to_split(node)
        per_dim: list[list[tuple[int, int]]] = []
        for dim, (a, b) in enumerate(zip(node.lo, node.hi)):
            length = b - a + 1
            if length == 1 or dim not in axes:
                per_dim.append([(a, b)])
                continue
            pieces = min(branching, length)
            boundaries = np.linspace(a, b + 1, pieces + 1).astype(int)
            segments = []
            for i in range(pieces):
                lo_i, hi_i = int(boundaries[i]), int(boundaries[i + 1]) - 1
                if hi_i >= lo_i:
                    segments.append((lo_i, hi_i))
            per_dim.append(segments)
        blocks = []
        if len(per_dim) == 1:
            for seg in per_dim[0]:
                blocks.append(((seg[0],), (seg[1],)))
        else:
            for seg0 in per_dim[0]:
                for seg1 in per_dim[1]:
                    blocks.append(((seg0[0], seg1[0]), (seg0[1], seg1[1])))
        # Avoid degenerate "split" into a single identical block.
        if len(blocks) == 1 and blocks[0] == (node.lo, node.hi):
            return []
        return blocks

    root = TreeNode(lo=tuple(0 for _ in domain_shape),
                    hi=tuple(d - 1 for d in domain_shape), level=0)
    root.index = 0
    nodes = [root]
    frontier = [0]
    while frontier:
        next_frontier = []
        for node_idx in frontier:
            node = nodes[node_idx]
            if node.size <= 1:
                continue
            if max_height is not None and node.level >= max_height:
                continue
            for lo, hi in split(node):
                child = TreeNode(lo=lo, hi=hi, level=node.level + 1,
                                 parent=node_idx)
                child.index = len(nodes)
                node.children.append(child.index)
                nodes.append(child)
                next_frontier.append(child.index)
        frontier = next_frontier
    return nodes
