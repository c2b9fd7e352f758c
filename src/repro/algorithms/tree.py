"""Hierarchical decompositions of 1-D and 2-D domains.

Hierarchical algorithms (H, Hb, GreedyH, QuadTree, the second stage of DAWA)
measure noisy totals of nested blocks of the domain arranged in a tree.  This
module provides the tree structure, the per-level usage counts of a
workload's canonical decompositions over the tree, and block/cell
bookkeeping shared by those algorithms.

Flyweight layout
----------------
:class:`HierarchicalTree` stores no per-node Python objects.  The whole
hierarchy lives in four flat int64 arrays (structure of arrays):

* ``_lo`` / ``_hi`` — ``(n_nodes, ndim)`` inclusive per-dimension bounds;
* ``_child_offsets`` — ``(n_nodes + 1,)`` CSR child offsets: nodes are
  emitted in parent order, so the children of node ``i`` are the index run
  ``_child_offsets[i] + 1 .. _child_offsets[i + 1]``;
* ``_level_offsets`` — ``(n_levels + 1,)`` index ranges of each level (nodes
  are laid out breadth-first, so every level is one contiguous index run).

Per-node depths and parents are not stored: :meth:`HierarchicalTree.node_levels`
and :meth:`HierarchicalTree.node_parents` expand them from the two offset
arrays on demand (16 bytes per node saved, about 22 MB on a 1024 x 1024
quadtree that an algorithm instance keeps across releases).

Construction is vectorised level-at-a-time: one batched ``np.linspace`` per
(axis, piece-count) group replaces the historical per-node interval split —
bitwise-identical boundaries (``np.linspace`` applies the same elementwise
float64 operations to array endpoints as to scalars), at array speed.  The
historical per-node builder is retained in ``tests/reference/tree_nodes.py``;
it is the executable specification the property suite pins the arrays
against.
"""

from __future__ import annotations

import numpy as np

from ..workload.linops import QueryMatrix
from ..workload.prefix_sum import PrefixSum

#: Hard ceiling on the number of domain cells: node sizes are products of
#: int64 side lengths, so the cell count must stay clear of 2**63 for the
#: ``size``/bounds bookkeeping to be overflow-free at 16M+ cells and beyond.
_MAX_CELLS = 2 ** 62


def _grid_count(prefix: np.ndarray, i0, j0, i1, j1):
    """Marked level-grid cells in rows ``[i0, j0)`` x cols ``[i1, j1)``.

    ``prefix`` is a 2-D inclusive prefix-sum table with a zero border; empty
    runs (``j <= i``) count zero.  All arguments vectorise over queries.
    """
    b0 = np.maximum(j0, i0)
    b1 = np.maximum(j1, i1)
    return prefix[b0, b1] - prefix[i0, b1] - prefix[b0, i1] + prefix[i0, i1]


def _descendant_run(pstarts, pends, pi, pj, starts, ends):
    """Run of this level's axis intervals descending from the previous
    level's run ``[pi, pj)``: the intervals inside the run's span.  Garbage
    for empty parent runs — callers mask those out."""
    first = np.minimum(pi, pstarts.size - 1)
    last = np.minimum(np.maximum(pj - 1, 0), pstarts.size - 1)
    a = np.searchsorted(starts, pstarts[first], side="left")
    b = np.searchsorted(ends, pends[last], side="right")
    return a, b


__all__ = ["HierarchicalTree", "IrregularTreeLevels", "optimal_branching"]


class IrregularTreeLevels(ValueError):
    """Raised when a 2-D tree's levels are not axis-aligned grid products.

    The vectorised 2-D usage counts require every level to be (a subset of)
    the cross product of one interval partition per axis.  Trees built by
    :class:`HierarchicalTree` satisfy this on regular domains; pathological
    ragged domains (where siblings split different axes) may not, and
    :meth:`HierarchicalTree.level_usage` then walks the node arrays instead.
    """


def _validated_params(domain_shape, branching, split_axes):
    """Parameter validation of the array builder (the test-only historical
    builder reuses it)."""
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    domain_shape = tuple(int(d) for d in domain_shape)
    if len(domain_shape) not in (1, 2):
        raise ValueError("only 1-D and 2-D domains are supported")
    cells = 1
    for d in domain_shape:
        cells *= max(int(d), 1)
    if cells >= _MAX_CELLS:
        raise ValueError(
            f"domain of {cells} cells overflows the int64 size/bounds "
            f"bookkeeping (limit {_MAX_CELLS})")
    if split_axes is not None:
        split_axes = tuple(int(a) for a in split_axes)
        if not split_axes or any(a not in range(len(domain_shape))
                                 for a in split_axes):
            raise ValueError(
                f"split_axes must name axes of a {len(domain_shape)}-D "
                f"domain, got {split_axes}")
    return domain_shape, int(branching), split_axes


class HierarchicalTree:
    """A b-ary hierarchy over a 1-D or 2-D domain.

    In 1-D each node splits its interval into at most ``branching`` equal
    pieces.  In 2-D the default (``split_axes=None``) splits every axis into
    at most ``branching`` pieces per level (a branching of 2 yields a
    quadtree); passing a cyclic axis schedule such as ``(0, 1)`` or ``(1, 0)``
    instead splits one axis per level (a kd-style hierarchy whose levels are
    marginal grids).  A scheduled axis that can no longer split falls back to
    every splittable axis, so the tree always bottoms out at single cells.

    The hierarchy is stored as flat int64 arrays (see the module docstring).
    """

    def __init__(self, domain_shape: tuple[int, ...], branching: int = 2,
                 max_height: int | None = None,
                 split_axes: tuple[int, ...] | None = None):
        self.domain_shape, self.branching, self.split_axes = \
            _validated_params(domain_shape, branching, split_axes)
        self.max_height = max_height
        self._build()
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._levels_1d: list[dict] | None = None
        self._leaves_1d: dict | None = None
        self._levels_2d: list[dict] | None = None
        self._leaf_indices: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._sibling_groups: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._queries: QueryMatrix | None = None

    # -- construction -------------------------------------------------------------
    @staticmethod
    def _uniform_segments(lo_d: np.ndarray, hi_d: np.ndarray,
                          pieces: int) -> tuple[np.ndarray, np.ndarray]:
        """Split every interval ``[lo_d[i], hi_d[i]]`` into ``pieces`` parts.

        Returns ``(seg_lo, seg_hi)`` of shape ``(rows, pieces)``.  The batched
        ``np.linspace`` applies the same elementwise float64 operations as the
        historical per-node ``np.linspace(a, b + 1, pieces + 1).astype(int)``,
        so boundaries are bitwise-identical to the reference builder.
        """
        if pieces == 1:
            return lo_d[:, None], hi_d[:, None]
        bounds = np.linspace(lo_d.astype(np.float64),
                             (hi_d + 1).astype(np.float64),
                             pieces + 1, axis=1).astype(np.int64)
        return bounds[:, :-1], bounds[:, 1:] - 1

    def _build(self) -> None:
        """Vectorised breadth-first construction, one batch per level.

        Per level, splitting nodes are grouped by (axis, piece count) and
        each group's interval boundaries come from a single batched
        ``np.linspace`` call — the same elementwise float64 operations the
        historical per-node ``np.linspace(a, b + 1, pieces + 1).astype(int)``
        performed, so every bound is bitwise-identical to the historical
        per-node builder.  Children are emitted in parent-index order (2-D:
        axis-0-major block order within a parent), matching the historical
        breadth-first append order exactly.
        """
        ndim = len(self.domain_shape)
        lo = np.zeros((1, ndim), dtype=np.int64)
        hi = np.array([self.domain_shape], dtype=np.int64) - 1
        level_los, level_his = [lo], [hi]
        child_counts: list[np.ndarray] = []
        level = 0
        while True:
            m = lo.shape[0]
            lengths = hi - lo + 1                          # (m, ndim)
            expand = lengths.prod(axis=1) > 1
            if self.max_height is not None and level >= self.max_height:
                expand &= False
            # Axes each node refines (the reference's _axes_to_split/_split):
            # every splittable axis, unless a kd schedule names one that is
            # still splittable — then only that axis.
            split = lengths > 1
            if self.split_axes is not None:
                axis = self.split_axes[level % len(self.split_axes)]
                only_axis = np.zeros_like(split)
                only_axis[:, axis] = True
                split = np.where(split[:, axis, None], only_axis, split)
            split &= expand[:, None]
            has_children = split.any(axis=1)
            counts = np.zeros(m, dtype=np.int64)
            if not has_children.any():
                child_counts.append(counts)
                break

            exp_idx = np.flatnonzero(has_children)
            e_lo, e_hi = lo[exp_idx], hi[exp_idx]
            e_len = lengths[exp_idx]
            seg_counts = np.where(split[exp_idx],
                                  np.minimum(self.branching, e_len),
                                  1).astype(np.int64)      # (E, ndim)

            uniform = all(
                int(seg_counts[:, d].min()) == int(seg_counts[:, d].max())
                for d in range(ndim))
            if uniform:
                # Fast path for the common regular level — every expanding
                # node shares one (pieces per axis) pattern, so segments are
                # dense (E, P_d) matrices and children fall out of plain
                # reshapes/broadcasts: no ragged offsets, no scatter/gather.
                ps = [int(seg_counts[0, d]) for d in range(ndim)]
                segs = [self._uniform_segments(e_lo[:, d], e_hi[:, d], ps[d])
                        for d in range(ndim)]
                if ndim == 1:
                    child_lo = segs[0][0].reshape(-1, 1)
                    child_hi = segs[0][1].reshape(-1, 1)
                else:
                    p0, p1 = ps
                    shape3 = (exp_idx.size, p0, p1)
                    child_lo = np.stack([
                        np.repeat(segs[0][0], p1, axis=1).reshape(-1),
                        np.broadcast_to(segs[1][0][:, None, :],
                                        shape3).reshape(-1)], axis=1)
                    child_hi = np.stack([
                        np.repeat(segs[0][1], p1, axis=1).reshape(-1),
                        np.broadcast_to(segs[1][1][:, None, :],
                                        shape3).reshape(-1)], axis=1)
                k = np.full(exp_idx.size, int(np.prod(ps)), dtype=np.int64)
            else:
                # Ragged path (mixed piece counts within a level): per axis,
                # per-node segment lists concatenated in node order; unsplit
                # axes contribute the node's own interval.
                seg_lo, seg_hi, seg_off = [], [], []
                for d in range(ndim):
                    cnt = seg_counts[:, d]
                    off = np.zeros(cnt.size + 1, dtype=np.int64)
                    np.cumsum(cnt, out=off[1:])
                    s_lo = np.empty(int(off[-1]), dtype=np.int64)
                    s_hi = np.empty(int(off[-1]), dtype=np.int64)
                    plain = cnt == 1
                    s_lo[off[:-1][plain]] = e_lo[plain, d]
                    s_hi[off[:-1][plain]] = e_hi[plain, d]
                    split_rows = np.flatnonzero(~plain)
                    for p in np.unique(cnt[split_rows]):
                        p = int(p)
                        rows = split_rows[cnt[split_rows] == p]
                        blo, bhi = self._uniform_segments(
                            e_lo[rows, d], e_hi[rows, d], p)
                        pos = off[rows][:, None] + np.arange(p, dtype=np.int64)
                        s_lo[pos] = blo
                        s_hi[pos] = bhi
                    seg_lo.append(s_lo)
                    seg_hi.append(s_hi)
                    seg_off.append(off)

                if ndim == 1:
                    k = seg_counts[:, 0]
                    child_lo = seg_lo[0][:, None]
                    child_hi = seg_hi[0][:, None]
                    rep = np.repeat(np.arange(exp_idx.size), k)
                else:
                    s1 = seg_counts[:, 1]
                    k = seg_counts[:, 0] * s1
                    total = int(k.sum())
                    rep = np.repeat(np.arange(exp_idx.size), k)
                    within = np.arange(total, dtype=np.int64) \
                        - np.repeat(np.cumsum(k) - k, k)
                    i0, i1 = np.divmod(within, s1[rep])
                    child_lo = np.stack([seg_lo[0][seg_off[0][rep] + i0],
                                         seg_lo[1][seg_off[1][rep] + i1]], axis=1)
                    child_hi = np.stack([seg_hi[0][seg_off[0][rep] + i0],
                                         seg_hi[1][seg_off[1][rep] + i1]], axis=1)

            counts[exp_idx] = k
            child_counts.append(counts)
            level_los.append(child_lo)
            level_his.append(child_hi)
            lo, hi = child_lo, child_hi
            level += 1

        self._lo = np.concatenate(level_los, axis=0)
        self._hi = np.concatenate(level_his, axis=0)
        n_nodes = self._lo.shape[0]
        level_sizes = np.array([a.shape[0] for a in level_los], dtype=np.int64)
        self._level_offsets = np.zeros(level_sizes.size + 1, dtype=np.int64)
        np.cumsum(level_sizes, out=self._level_offsets[1:])
        self._child_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.concatenate(child_counts), out=self._child_offsets[1:])

    # -- flyweight accessors -------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of tree nodes."""
        return self._lo.shape[0]

    def node_levels(self) -> np.ndarray:
        """Per-node depth, ``(n_nodes,)`` int64, expanded from the level
        spans (a fresh array per call: hoist it out of loops)."""
        return np.repeat(np.arange(self.n_levels, dtype=np.int64),
                         np.diff(self._level_offsets))

    def node_parents(self) -> np.ndarray:
        """Per-node parent index (-1 at the root), ``(n_nodes,)`` int64,
        expanded from the child offsets: the non-root nodes are the child
        runs of their parents in node-index order."""
        parents = np.empty(self.n_nodes, dtype=np.int64)
        parents[0] = -1
        parents[1:] = np.repeat(np.arange(self.n_nodes, dtype=np.int64),
                                np.diff(self._child_offsets))
        return parents

    def child_offsets(self) -> np.ndarray:
        """``(n_nodes + 1,)`` CSR offsets: node ``i`` has
        ``offsets[i + 1] - offsets[i]`` children, and under the breadth-first
        layout they are the contiguous node-index run
        ``offsets[i] + 1 .. offsets[i + 1]``."""
        return self._child_offsets

    def level_spans(self) -> np.ndarray:
        """``(n_levels + 1,)`` node-index offsets of each level."""
        return self._level_offsets

    def leaf_indices(self) -> np.ndarray:
        """Indices of the leaves in node-index order (cached)."""
        if self._leaf_indices is None:
            self._leaf_indices = np.flatnonzero(
                np.diff(self._child_offsets) == 0)
        return self._leaf_indices

    def node_sizes(self) -> np.ndarray:
        """Per-node cell counts, ``(n_nodes,)`` int64 (cached)."""
        if self._sizes is None:
            self._sizes = (self._hi - self._lo + 1).prod(axis=1)
        return self._sizes

    def sibling_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The internal nodes as ``(parents, children)`` index groups in
        top-down level order (cached): per level, one group per child count
        ``k``, in ascending ``k``, with ``parents`` ``(rows,)`` in node order
        and ``children`` ``(rows, k)``.  Every group is an exact matrix, and
        a node's children sit one level below it, so streaming the list
        top-down or bottom-up keeps the level-by-level data dependencies of
        the two-pass tree solve (:func:`repro.core.gls.tree_least_squares`).
        """
        if self._sibling_groups is None:
            counts = np.diff(self._child_offsets)
            groups = []
            for s, e in zip(self._level_offsets[:-1].tolist(),
                            self._level_offsets[1:].tolist()):
                internal = np.flatnonzero(counts[s:e]) + s
                internal_counts = counts[internal]
                for k in np.unique(internal_counts).tolist():
                    parents = internal[internal_counts == k].astype(np.intp, copy=False)
                    children = self._child_offsets[parents][:, None] + np.arange(1, k + 1)
                    groups.append((parents, children.astype(np.intp, copy=False)))
            self._sibling_groups = groups
        return self._sibling_groups

    # -- accessors ----------------------------------------------------------------
    @property
    def height(self) -> int:
        return self._level_offsets.size - 2

    @property
    def n_levels(self) -> int:
        return self.height + 1

    def node_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node inclusive bounds as ``(q, ndim)`` arrays (cached)."""
        if self._bounds is None:
            self._bounds = (self._lo.astype(np.intp, copy=False),
                            self._hi.astype(np.intp, copy=False))
        return self._bounds

    def as_query_matrix(self) -> QueryMatrix:
        """The tree's measurement regions as a sparse query operator, one row
        per node in node-index order (cached, so a tree reused across
        releases validates its corners and builds the operator's lazy state
        once)."""
        if self._queries is None:
            los, his = self.node_bounds()
            self._queries = QueryMatrix(los, his, self.domain_shape)
        return self._queries

    def node_totals(self, x: np.ndarray) -> np.ndarray:
        """True block totals for every node, in node-index order.

        Computed through one summed-area table (O(n + nodes)) rather than a
        per-node slice loop; exact for integer-valued counts.
        """
        los, his = self.node_bounds()
        return PrefixSum(np.asarray(x, dtype=float)).range_sums(los, his)

    # -- workload usage counts ----------------------------------------------------
    def level_usage(self, workload, measured=None) -> np.ndarray:
        """Per-level count of the nodes used by the canonical decompositions
        of the workload's queries when only the ``measured`` levels (default:
        all) are measured.  Drives the per-level budgets of GreedyH and DAWA
        and GreedyW's level pruning.

        A node at a measured level is used by a query iff it lies inside the
        query and its nearest measured proper ancestor does not (by
        laminarity, that ancestor is at the *previous* measured level); a
        leaf that only partially overlaps the query (an aggregated leaf at
        its boundary) is used as well.  Unmeasured levels report zero: their
        queries re-route to the nearest measured descendants.  Every leaf
        level must be measured, otherwise cells would be unidentifiable.

        The count is linear in the queries, so it runs over the workload's
        distinct rows weighted by their multiplicities
        (:meth:`QueryMatrix.distinct`): O(q log q) once per operator to find
        them, then O((distinct + nodes) log nodes) per call.  Rank queries
        count every distinct row at once over the sorted per-level interval
        tables in 1-D and the per-level grid tables in 2-D; only 2-D trees
        with irregular levels (:class:`IrregularTreeLevels`) fall back to a
        walk over the node arrays.  Raises ``ValueError`` for queries of
        another dimension than the tree or outside its domain.
        """
        if measured is None:
            measured = np.ones(self.n_levels, dtype=bool)
        else:
            measured = np.asarray(measured, dtype=bool)
            if measured.shape != (self.n_levels,):
                raise ValueError("need one measured flag per tree level")
            if not measured[self.node_levels()[self.leaf_indices()]].all():
                raise ValueError("every leaf level must be measured")
        # The workload's operator already holds 0 <= lo <= hi per query.
        los, his, counts = workload.operator.distinct()
        ndim = len(self.domain_shape)
        if los.shape[1] != ndim:
            raise ValueError(f"{los.shape[1]}-D workload queries on a "
                             f"{ndim}-D tree")
        if np.any(his.max(axis=0) >= self.domain_shape):
            raise ValueError("workload queries fall outside the tree's "
                             f"domain {self.domain_shape}")
        if ndim == 1:
            return self._usage_1d(los[:, 0], his[:, 0], counts, measured)
        try:
            return self._usage_2d(los, his, counts, measured)
        except IrregularTreeLevels:
            return self._usage_walk(los, his, counts, measured)

    def _level_tables_1d(self):
        """Sorted per-level interval tables used by the vectorised usage count."""
        if self._levels_1d is None:
            starts_all = self._lo[:, 0].astype(np.intp, copy=False)
            ends_all = self._hi[:, 0].astype(np.intp, copy=False)
            offsets = self._child_offsets
            tables = []
            for lvl in range(self.n_levels):
                s = int(self._level_offsets[lvl])
                e = int(self._level_offsets[lvl + 1])
                # Nodes within a level are created left-to-right, so starts
                # (and, the intervals being disjoint, ends) are sorted.
                tables.append({
                    "starts": starts_all[s:e],
                    "ends": ends_all[s:e],
                    "kids_cum": (offsets[s:e + 1] - offsets[s]).astype(np.intp),
                })
            self._levels_1d = tables
        if self._leaves_1d is None:
            leaf_idx = self.leaf_indices()
            order = np.argsort(self._lo[leaf_idx, 0], kind="stable")
            leaf_idx = leaf_idx[order]
            self._leaves_1d = {
                "starts": self._lo[leaf_idx, 0].astype(np.intp, copy=False),
                "ends": self._hi[leaf_idx, 0].astype(np.intp, copy=False),
                "levels": self.node_levels()[leaf_idx].astype(np.intp, copy=False),
            }
        return self._levels_1d, self._leaves_1d

    def _usage_1d(self, los: np.ndarray, his: np.ndarray, counts: np.ndarray,
                  measured: np.ndarray) -> np.ndarray:
        tables, leaves = self._level_tables_1d()
        usage = np.zeros(self.n_levels)

        # Per measured level, the nodes inside a query form a contiguous run
        # [i, j) of the sorted intervals, and those below the previous
        # measured level's inside run [pi, pj) form the run
        # [desc[pi], desc[pj]): ``desc`` is that level's cumulative child
        # counts carried down through the unmeasured levels in between.  It
        # is non-decreasing, so an empty previous run covers at most zero.
        prev = None
        for level in np.flatnonzero(measured).tolist():
            table = tables[level]
            i = np.searchsorted(table["starts"], los, side="left")
            j = np.searchsorted(table["ends"], his, side="right")
            inside = j - i
            np.maximum(inside, 0, out=inside)
            covered = 0
            if prev is not None:
                pi, pj, plevel = prev
                desc = tables[plevel]["kids_cum"]
                for between in range(plevel + 1, level):
                    desc = tables[between]["kids_cum"][desc]
                covered = np.maximum(desc[pj] - desc[pi], 0)
            inside -= covered
            inside *= counts
            usage[level] = float(inside.sum())
            prev = (i, j, level)

        # Partial-overlap leaves: an intersecting but not-inside leaf at each
        # end of the query (at most one per side, possibly the same leaf).
        i0 = np.searchsorted(leaves["ends"], los, side="left")
        j0 = np.searchsorted(leaves["starts"], his, side="right")
        i1 = np.searchsorted(leaves["starts"], los, side="left")
        j1 = np.searchsorted(leaves["ends"], his, side="right")
        left = i1 > i0
        right = j0 > j1
        same = left & right & (i0 == j0 - 1)
        if np.any(left):
            np.add.at(usage, leaves["levels"][i0[left]], counts[left])
        right_only = right & ~same
        if np.any(right_only):
            np.add.at(usage, leaves["levels"][j0[right_only] - 1],
                      counts[right_only])
        return usage

    def _usage_walk(self, los: np.ndarray, his: np.ndarray, counts: np.ndarray,
                    measured: np.ndarray) -> np.ndarray:
        """The canonical decompositions walked top-down over the node
        arrays, every query at once: each step keeps the (query, node) pairs
        that intersect, takes the ones at a measured level that are inside
        (or leaves), and replaces the rest by their children."""
        lo, hi = self.node_bounds()
        offsets = self._child_offsets
        levels = self.node_levels()
        usage = np.zeros(self.n_levels)
        query = np.arange(los.shape[0])
        node = np.zeros(los.shape[0], dtype=np.intp)
        while query.size:
            nlo, nhi, qlo, qhi = lo[node], hi[node], los[query], his[query]
            hit = ((nhi >= qlo) & (nlo <= qhi)).all(axis=1)
            inside = ((qlo <= nlo) & (nhi <= qhi)).all(axis=1)
            kids = offsets[node + 1] - offsets[node]
            taken = hit & measured[levels[node]] & (inside | (kids == 0))
            usage += np.bincount(levels[node[taken]],
                                 weights=counts[query[taken]],
                                 minlength=self.n_levels)
            walk = hit & ~taken
            query, node, kids = query[walk], node[walk], kids[walk]
            query = np.repeat(query, kids)
            node = np.repeat(offsets[node] + 1 - (np.cumsum(kids) - kids),
                             kids) + np.arange(query.size)
        return usage

    # -- 2-D level grids -----------------------------------------------------------
    @staticmethod
    def _axis_intervals(lo: np.ndarray, hi: np.ndarray):
        """Distinct sorted intervals of one axis of a level.

        Raises :class:`IrregularTreeLevels` unless the intervals are pairwise
        disjoint-or-equal — the laminar per-axis structure the grid tables
        rely on.
        """
        starts, first = np.unique(lo, return_index=True)
        ends = hi[first]
        if not np.array_equal(hi, ends[np.searchsorted(starts, lo)]):
            raise IrregularTreeLevels(
                "intervals with equal starts but different ends within a level")
        if np.any(starts[1:] <= ends[:-1]):
            raise IrregularTreeLevels("overlapping axis intervals within a level")
        return starts, ends

    def _level_tables_2d(self) -> list[dict]:
        """Per-level grid tables for vectorised 2-D usage counts (cached).

        Each level of a regular 2-D tree is a subset of the cross product of
        one sorted interval partition per axis; the table holds the two axis
        partitions plus 2-D prefix-sum counts of the existing nodes (and of
        the leaves among them), so the number of nodes inside any rectangle
        of grid positions is an O(1) lookup.  Raises
        :class:`IrregularTreeLevels` when the product structure does not hold
        (:meth:`level_usage` then walks the node arrays).
        """
        if len(self.domain_shape) != 2:
            raise ValueError("2-D level tables require a 2-D domain")
        if self._levels_2d is None:
            try:
                self._levels_2d = self._build_level_tables_2d()
            except IrregularTreeLevels as exc:
                self._levels_2d = exc
        if isinstance(self._levels_2d, IrregularTreeLevels):
            raise self._levels_2d
        return self._levels_2d

    def _build_level_tables_2d(self) -> list[dict]:
        offsets = self._child_offsets
        tables = []
        for lvl in range(self.n_levels):
            s = int(self._level_offsets[lvl])
            e = int(self._level_offsets[lvl + 1])
            lo = self._lo[s:e].astype(np.intp, copy=False)
            hi = self._hi[s:e].astype(np.intp, copy=False)
            is_leaf = offsets[s + 1:e + 1] == offsets[s:e]
            starts0, ends0 = self._axis_intervals(lo[:, 0], hi[:, 0])
            starts1, ends1 = self._axis_intervals(lo[:, 1], hi[:, 1])
            rows = np.searchsorted(starts0, lo[:, 0])
            cols = np.searchsorted(starts1, lo[:, 1])
            if np.unique(rows * starts1.size + cols).size != rows.size:
                raise IrregularTreeLevels("two nodes share a level-grid cell")
            exists = np.zeros((starts0.size, starts1.size), dtype=np.intp)
            exists[rows, cols] = 1
            count = np.zeros((starts0.size + 1, starts1.size + 1), dtype=np.intp)
            count[1:, 1:] = exists.cumsum(axis=0).cumsum(axis=1)
            leaf_count = None
            if is_leaf.any():
                leaves = np.zeros_like(exists)
                leaves[rows[is_leaf], cols[is_leaf]] = 1
                leaf_count = np.zeros_like(count)
                leaf_count[1:, 1:] = leaves.cumsum(axis=0).cumsum(axis=1)
            tables.append({"starts0": starts0, "ends0": ends0,
                           "starts1": starts1, "ends1": ends1,
                           "count": count, "leaf_count": leaf_count})
        return tables

    def _usage_2d(self, los: np.ndarray, his: np.ndarray, counts: np.ndarray,
                  measured: np.ndarray) -> np.ndarray:
        """:meth:`level_usage` of a 2-D tree on its level grid tables.

        A node at a measured level is used iff it lies inside the rectangle
        while its ancestor at the previous measured level does not; per level
        the inside nodes occupy a rectangle of grid positions (one contiguous
        interval run per axis), counted through the prefix tables, and the
        ancestor-inside nodes occupy the grid rectangle spanned by the
        previous run's descendants.  Partially overlapping leaves (aggregated
        leaves at the rectangle boundary) count once each: leaves
        intersecting minus leaves inside.
        """
        tables = self._level_tables_2d()
        qlo0, qlo1 = los[:, 0], los[:, 1]
        qhi0, qhi1 = his[:, 0], his[:, 1]
        usage = np.zeros(self.n_levels)

        prev = None
        for level, table in enumerate(tables):
            if not measured[level]:
                continue
            i0 = np.searchsorted(table["starts0"], qlo0, side="left")
            j0 = np.searchsorted(table["ends0"], qhi0, side="right")
            i1 = np.searchsorted(table["starts1"], qlo1, side="left")
            j1 = np.searchsorted(table["ends1"], qhi1, side="right")
            inside = _grid_count(table["count"], i0, j0, i1, j1)
            covered = 0
            if prev is not None:
                pi0, pj0, pi1, pj1, ptable = prev
                valid = (pj0 > pi0) & (pj1 > pi1)
                a0, b0 = _descendant_run(ptable["starts0"], ptable["ends0"],
                                         pi0, pj0,
                                         table["starts0"], table["ends0"])
                a1, b1 = _descendant_run(ptable["starts1"], ptable["ends1"],
                                         pi1, pj1,
                                         table["starts1"], table["ends1"])
                covered = np.where(
                    valid, _grid_count(table["count"], a0, b0, a1, b1), 0)
            inside -= covered
            inside *= counts
            usage[level] = float(inside.sum())
            if table["leaf_count"] is not None:
                # Partial-overlap leaves: intersecting but not inside.  Their
                # ancestors are never inside (an inside ancestor would make
                # the leaf inside), so they are used unconditionally.
                ii0 = np.searchsorted(table["ends0"], qlo0, side="left")
                jj0 = np.searchsorted(table["starts0"], qhi0, side="right")
                ii1 = np.searchsorted(table["ends1"], qlo1, side="left")
                jj1 = np.searchsorted(table["starts1"], qhi1, side="right")
                intersecting = _grid_count(table["leaf_count"], ii0, jj0, ii1, jj1)
                inside_leaves = _grid_count(table["leaf_count"], i0, j0, i1, j1)
                intersecting -= inside_leaves
                intersecting *= counts
                usage[level] += float(intersecting.sum())
            prev = (i0, j0, i1, j1, table)
        return usage


def optimal_branching(n: int, max_branching: int = 16) -> int:
    """Branching factor used by Hb: minimise the average variance proxy
    ``(b - 1) * h^3`` where ``h = ceil(log_b n)`` (Qardaji et al.)."""
    if n <= 2:
        return 2
    best_b, best_cost = 2, float("inf")
    for b in range(2, max_branching + 1):
        h = int(np.ceil(np.log(n) / np.log(b)))
        if h < 1:
            h = 1
        cost = (b - 1) * h ** 3
        if cost < best_cost:
            best_b, best_cost = b, cost
    return best_b

