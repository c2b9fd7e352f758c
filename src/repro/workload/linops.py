"""Sparse linear-operator representation of range-query sets.

Every measurement and workload in the benchmark is a set of axis-aligned
range queries, i.e. a 0/1 *query matrix* ``W`` with one row per query and one
column per domain cell.  Materialising ``W`` densely is O(q * n); this module
provides :class:`QueryMatrix`, which exploits the range structure twice over:

* **implicit application** — ``W @ x`` is answered through a summed-area
  table (O(n + q)), and the adjoint ``W.T @ y`` (like the per-cell query
  counts) through one 1-D/2-D difference-array corner scatter (O(q + n)), so
  neither direction ever touches a matrix entry;
* **sparse materialisation** — when an explicit matrix is genuinely needed
  (dense test oracles, matrix-mechanism analyses) a CSR matrix is built from
  :func:`rectangle_cells` and cached.

:class:`QueryMatrix` is the one representation of a set of rectangles (a
:class:`~repro.workload.rangequery.Workload` is a named one, and it is the
query currency of :class:`~repro.core.measurement.MeasurementSet` and
:mod:`repro.core.gls`); :func:`rectangle_cells` is their one cell expansion.
"""

from __future__ import annotations

import threading

import numpy as np

from .prefix_sum import PrefixSum, check_corners

__all__ = ["QueryMatrix", "rectangle_cells"]


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for every run, fully vectorised."""
    lengths = np.asarray(lengths, dtype=np.intp)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    # Position of each output element inside its run, via the classic
    # repeat/cumsum trick: offsets restart at 0 at every run boundary.
    run_ids = np.repeat(np.arange(lengths.size), lengths)
    run_offsets = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.asarray(starts, dtype=np.intp)[run_ids] + run_offsets


def rectangle_cells(los: np.ndarray, his: np.ndarray,
                    domain_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat (C-order) indices of the cells each inclusive rectangle covers,
    grouped by rectangle in input order, and every rectangle's cell count:
    ``np.repeat(values / sizes, sizes)`` lines per-rectangle values up with
    ``cells``.  One run of cells per 1-D rectangle or per covered row of a
    2-D one, with no per-rectangle Python loop."""
    los = np.asarray(los, dtype=np.intp)
    his = np.asarray(his, dtype=np.intp)
    heights = his[:, 0] - los[:, 0] + 1
    if len(domain_shape) == 1:
        return _expand_runs(los[:, 0], heights), heights
    widths = his[:, 1] - los[:, 1] + 1
    run_rect = np.repeat(np.arange(los.shape[0]), heights)
    run_rows = _expand_runs(los[:, 0], heights)
    starts = run_rows * domain_shape[1] + los[run_rect, 1]
    return _expand_runs(starts, widths[run_rect]), heights * widths


class QueryMatrix:
    """The 0/1 matrix of a set of inclusive axis-aligned range queries.

    Parameters
    ----------
    los, his:
        Integer arrays of shape ``(q, ndim)`` holding the inclusive lower and
        upper corners of every query.
    domain_shape:
        Shape of the count array the queries refer to (1-D or 2-D).

    Instances are thread-shared by the parallel executor: every lazy cache
    must be built under ``self._lock`` and published exactly once (privlint
    rule PL005 enforces this).
    """

    def __init__(self, los: np.ndarray, his: np.ndarray, domain_shape: tuple[int, ...]):
        los = np.atleast_2d(np.asarray(los, dtype=np.intp))
        his = np.atleast_2d(np.asarray(his, dtype=np.intp))
        domain_shape = tuple(int(d) for d in domain_shape)
        if len(domain_shape) not in (1, 2):
            raise ValueError("only 1-D and 2-D domains are supported")
        if los.shape != his.shape or los.ndim != 2 or los.shape[1] != len(domain_shape):
            raise ValueError("los/his must have shape (q, ndim) matching the domain")
        if np.any(los < 0) or np.any(his < los):
            raise ValueError("queries must satisfy 0 <= lo <= hi")
        if np.any(his >= np.asarray(domain_shape, dtype=np.intp)):
            raise ValueError(f"queries exceed domain {domain_shape}")
        self._los = los
        self._his = his
        self._domain_shape = domain_shape
        # Lazy caches are built once under the lock and then published by a
        # single attribute assignment, so concurrent readers (the serving
        # layer answers many clients over one shared operator) never observe
        # a half-initialised cache or rebuild it.
        self._lock = threading.Lock()
        self._csr = None
        self._cell_counts = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_lock"] = None          # locks do not pickle; recreated on load
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- metadata -----------------------------------------------------------------
    @property
    def los(self) -> np.ndarray:
        return self._los

    @property
    def his(self) -> np.ndarray:
        return self._his

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return self._domain_shape

    @property
    def ndim(self) -> int:
        return len(self._domain_shape)

    @property
    def n_queries(self) -> int:
        return self._los.shape[0]

    @property
    def domain_size(self) -> int:
        return int(np.prod(self._domain_shape))

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(q, n)``."""
        return (self.n_queries, self.domain_size)

    def __len__(self) -> int:
        return self.n_queries

    def __getitem__(self, selector) -> "QueryMatrix":
        """Row subset (boolean mask or index array) as a new operator."""
        return QueryMatrix(self._los[selector], self._his[selector], self._domain_shape)

    def query_sizes(self) -> np.ndarray:
        """Number of cells covered by each query (row sums of ``W``)."""
        return np.prod(self._his - self._los + 1, axis=1).astype(np.intp)

    # -- implicit application -----------------------------------------------------
    def _as_domain(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape == self._domain_shape:
            return x
        if x.ndim == 1 and x.size == self.domain_size:
            return x.reshape(self._domain_shape)
        raise ValueError(
            f"operand shape {x.shape} does not match domain {self._domain_shape}")

    def matvec(self, x: np.ndarray | PrefixSum) -> np.ndarray:
        """``W @ x`` through a summed-area table — O(n + q), no matrix.

        ``x`` may be a pre-built :class:`PrefixSum` over the domain, in which
        case the O(n) table construction is skipped and the application is
        O(q) table lookups — the batch hot path of the online release service
        (:mod:`repro.serve`), which answers every query stream against one
        precomputed cube.
        """
        if isinstance(x, PrefixSum):
            if x.shape != self._domain_shape:
                raise ValueError(
                    f"prefix table over {x.shape} does not match domain "
                    f"{self._domain_shape}")
            return x.range_sums(self._los, self._his)
        return PrefixSum(self._as_domain(x)).range_sums(self._los, self._his)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y`` through difference arrays — O(q + n), no matrix.

        Each query scatters its coefficient onto the corners of its range;
        cumulative sums then spread the coefficients across the covered cells
        (the adjoint of the summed-area trick used by :meth:`matvec`).
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_queries,):
            raise ValueError(f"expected {self.n_queries} coefficients, got shape {y.shape}")
        return self._corner_scatter(y)

    def _corner_scatter(self, weights: np.ndarray) -> np.ndarray:
        """Per cell, the summed weights of the queries covering it: each
        query scatters its weight onto the corners of its range in a
        difference array, and cumulative sums spread it over the covered
        cells.  Exact in ``weights.dtype`` (integer weights count exactly)."""
        if self.ndim == 1:
            (n,) = self._domain_shape
            diff = np.zeros(n + 1, dtype=weights.dtype)
            np.add.at(diff, self._los[:, 0], weights)
            np.add.at(diff, self._his[:, 0] + 1, -weights)
            return np.cumsum(diff)[:-1]
        rows, cols = self._domain_shape
        diff = np.zeros((rows + 1, cols + 1), dtype=weights.dtype)
        r0, c0 = self._los[:, 0], self._los[:, 1]
        r1, c1 = self._his[:, 0] + 1, self._his[:, 1] + 1
        np.add.at(diff, (r0, c0), weights)
        np.add.at(diff, (r0, c1), -weights)
        np.add.at(diff, (r1, c0), -weights)
        np.add.at(diff, (r1, c1), weights)
        return diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]

    def cell_counts(self) -> np.ndarray:
        """Number of queries covering each cell (integer column sums of ``W``)."""
        counts = self._cell_counts
        if counts is None:
            with self._lock:
                if self._cell_counts is None:
                    self._cell_counts = self._corner_scatter(
                        np.ones(self.n_queries, dtype=np.int64))
                counts = self._cell_counts
        return counts

    def sensitivity(self) -> int:
        """L1 sensitivity: the maximum number of queries any cell participates
        in.  O(q + n) via the difference-array column counts."""
        return int(self.cell_counts().max())

    def overlap_sums(self, x: np.ndarray, lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
        """Mass of ``x`` inside the intersection of every query with ``[lo, hi]``.

        The workhorse of MWEM's incremental answer updates: after cells inside
        ``[lo, hi]`` are re-weighted by a common factor, every query answer
        changes by ``(factor - 1)`` times its overlap with the update region.
        Cost is O(|region| + q) — a local summed-area table over the region
        plus one vectorised lookup per query.

        The region takes one corner coordinate per axis and must satisfy
        ``0 <= lo <= hi < domain_shape`` (``ValueError`` otherwise).  A query
        whose intersection with the region is empty gets exactly ``+0.0``,
        even when the region holds ``inf`` or ``nan``: in 1-D both of its
        offsets are zeroed; in 2-D — empty in rows or in columns — each of
        its four corners is gathered from the local table's zero row or zero
        column.
        """
        check_corners(lo, hi, self._domain_shape)
        x = self._as_domain(x)
        if self.ndim == 1:
            # Clamp into the region and look the overlaps up in one local
            # prefix table (np.maximum/np.minimum: np.clip's scalar-bound
            # path costs several times more on a few thousand queries).
            (l0,), (h0,) = lo, hi
            local = np.zeros(h0 - l0 + 2)
            np.cumsum(x[l0: h0 + 1], out=local[1:])
            a = np.maximum(self._los[:, 0], l0)
            np.minimum(a, h0 + 1, out=a)
            a -= l0
            b = np.maximum(self._his[:, 0], l0 - 1)
            np.minimum(b, h0, out=b)
            b += 1 - l0
            nonempty = a < b               # empty: local[0] - local[0]
            a *= nonempty
            b *= nonempty
            return local[b] - local[a]
        (l0, l1), (h0, h1) = lo, hi
        width = h1 - l1 + 2
        local = np.zeros((h0 - l0 + 2, width))
        core = local[1:, 1:]
        x[l0: h0 + 1, l1: h1 + 1].cumsum(axis=0, out=core)
        core.cumsum(axis=1, out=core)
        # Local corners of each intersection: rows [r0, r1), columns [c0, c1).
        r0 = np.maximum(self._los[:, 0], l0)
        r0 -= l0
        r1 = np.minimum(self._his[:, 0], h0)
        r1 -= l0 - 1
        c0 = np.maximum(self._los[:, 1], l1)
        c0 -= l1
        c1 = np.minimum(self._his[:, 1], h1)
        c1 -= l1 - 1
        # An intersection empty in rows gets both row offsets zeroed, one
        # empty in columns both column offsets, so each of its four corners
        # lies in the table's zero row or zero column.
        row_step = (r0 < r1) * width
        r0 *= row_step
        r1 *= row_step
        col_ok = c0 < c1
        c0 *= col_ok
        c1 *= col_ok
        flat = local.ravel()
        out = flat.take(r1 + c1)
        out -= flat.take(r0 + c1)
        out -= flat.take(r1 + c0)
        out += flat.take(r0 + c0)
        return out

    # -- partition mappings -------------------------------------------------------
    @staticmethod
    def _check_edges(edges: np.ndarray, n_cells: int | None = None) -> np.ndarray:
        """Validate partition edges; ``n_cells`` pins the endpoint when the
        cell count is known a priori (it is *defined* by ``edges[-1]`` when
        expanding)."""
        edges = np.asarray(edges, dtype=np.intp)
        if edges.ndim != 1 or edges.size < 2 or edges[0] != 0 \
                or (n_cells is not None and edges[-1] != n_cells) \
                or np.any(np.diff(edges) <= 0):
            raise ValueError(
                "edges must be strictly increasing from 0 to the cell count")
        return edges

    def on_partition(self, edges: np.ndarray) -> "QueryMatrix":
        """Coarsen 1-D cell queries onto a contiguous partition.

        ``edges`` are the ``B + 1`` bucket boundaries (half-open buckets
        ``[edges[b], edges[b+1])`` covering the domain).  Each query maps to
        the range of buckets it intersects — the view of the workload a
        mechanism operating on bucket totals (DAWA's stage two) sees.
        """
        if self.ndim != 1:
            raise ValueError("partition mappings are 1-D only")
        edges = self._check_edges(edges, self._domain_shape[0])
        los = np.searchsorted(edges, self._los[:, 0], side="right") - 1
        his = np.searchsorted(edges, self._his[:, 0], side="right") - 1
        return QueryMatrix(los[:, None], his[:, None], (edges.size - 1,))

    def through_partition(self, edges: np.ndarray) -> "QueryMatrix":
        """Expand bucket-domain queries back onto the cells of a partition.

        The inverse view of :meth:`on_partition`: a query over buckets
        ``[b0, b1]`` becomes the cell range ``[edges[b0], edges[b1+1] - 1]``.
        This is how bucket-level measurements are re-expressed as cell-level
        linear queries (the bucket -> cell uniform expansion then being plain
        post-processing of the solve).
        """
        if self.ndim != 1:
            raise ValueError("partition mappings are 1-D only")
        edges = np.asarray(edges, dtype=np.intp)
        if edges.size != self._domain_shape[0] + 1:
            raise ValueError("need one edge per bucket boundary")
        edges = self._check_edges(edges)
        los = edges[self._los[:, 0]]
        his = edges[self._his[:, 0] + 1] - 1
        return QueryMatrix(los[:, None], his[:, None], (int(edges[-1]),))

    # -- materialisation ----------------------------------------------------------
    def to_sparse(self):
        """CSR materialisation of ``W`` (cached).

        Rows are expanded run-by-run: a 1-D query is one contiguous run of
        columns, a 2-D query is one run per covered row of the rectangle, so
        the construction is fully vectorised with no per-query Python loop.
        """
        csr = self._csr
        if csr is None:
            with self._lock:
                if self._csr is None:
                    from scipy import sparse

                    indices, sizes = rectangle_cells(self._los, self._his,
                                                     self._domain_shape)
                    indptr = np.zeros(self.n_queries + 1, dtype=np.intp)
                    np.cumsum(sizes, out=indptr[1:])
                    self._csr = sparse.csr_matrix(
                        (np.ones(indices.size), indices, indptr),
                        shape=(self.n_queries, self.domain_size))
                csr = self._csr
        return csr

    def to_dense(self) -> np.ndarray:
        """Dense materialisation — intended for small domains only."""
        return self.to_sparse().toarray()

    def as_linear_operator(self):
        """A :class:`scipy.sparse.linalg.LinearOperator` over the implicit
        prefix-sum/difference-array application (nothing materialised)."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(
            shape=self.shape,
            matvec=lambda x: self.matvec(x),
            rmatvec=lambda y: self.rmatvec(y).ravel(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryMatrix(queries={self.n_queries}, domain={self._domain_shape})"
