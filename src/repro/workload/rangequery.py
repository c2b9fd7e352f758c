"""Range queries and workloads.

A :class:`RangeQuery` is an axis-aligned inclusive hyper-rectangle over a
1-D or 2-D count array ``x``; its answer is the sum of the cells it covers.
A :class:`Workload` is an ordered collection of range queries over a common
domain: a name plus one :class:`~repro.workload.linops.QueryMatrix`, the
single representation of the queries' bounds.  Evaluation, sensitivity and
the sparse/dense matrices all go through that operator; :class:`RangeQuery`
values are only built when someone indexes or iterates the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .linops import QueryMatrix
from .prefix_sum import PrefixSum

__all__ = ["RangeQuery", "Workload"]


@dataclass(frozen=True)
class RangeQuery:
    """An inclusive axis-aligned range query.

    ``lo`` and ``hi`` are tuples of per-dimension inclusive bounds; a 1-D
    query over cells ``3..7`` is ``RangeQuery((3,), (7,))``.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimensionality")
        if len(self.lo) not in (1, 2):
            raise ValueError("only 1-D and 2-D queries are supported")
        for a, b in zip(self.lo, self.hi):
            if a < 0 or b < a:
                raise ValueError(f"invalid range [{a}, {b}]")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        """Number of cells covered by the query."""
        size = 1
        for a, b in zip(self.lo, self.hi):
            size *= b - a + 1
        return size

    def evaluate(self, x: np.ndarray) -> float:
        """Answer the query against a count array ``x``."""
        x = np.asarray(x)
        if x.ndim != self.ndim:
            raise ValueError(f"query is {self.ndim}-D but data is {x.ndim}-D")
        slices = tuple(slice(a, b + 1) for a, b in zip(self.lo, self.hi))
        return float(x[slices].sum())


class Workload:
    """An ordered set of range queries over a fixed domain: a name plus one
    :class:`QueryMatrix` holding every query's bounds.

    Parameters
    ----------
    queries:
        The range queries, all of the same dimensionality.
    domain_shape:
        Shape of the count array the queries refer to, e.g. ``(4096,)`` or
        ``(128, 128)``.  Every query must fit inside the domain.
    name:
        Optional human-readable name used in reports.

    Both constructors build the ``(q, ndim)`` bound arrays and hand them to
    :class:`QueryMatrix`, the one validator; :class:`RangeQuery` values are
    built on demand from the arrays when the workload is indexed or iterated.
    """

    def __init__(
        self,
        queries: Sequence[RangeQuery] | Iterable[RangeQuery],
        domain_shape: tuple[int, ...],
        name: str = "workload",
    ):
        queries = list(queries)
        self._set_bounds(np.array([q.lo for q in queries], dtype=np.intp),
                         np.array([q.hi for q in queries], dtype=np.intp),
                         domain_shape, name)

    @classmethod
    def from_bounds(
        cls,
        los: np.ndarray,
        his: np.ndarray,
        domain_shape: tuple[int, ...],
        name: str = "workload",
    ) -> "Workload":
        """Build a workload directly from ``(q, ndim)`` bound arrays (``(q,)``
        in 1-D) without creating a :class:`RangeQuery` per query: a
        million-query prefix workload is two arrays, not a million frozen
        dataclasses."""
        self = cls.__new__(cls)
        self._set_bounds(los, his, domain_shape, name)
        return self

    def _set_bounds(self, los, his, domain_shape, name) -> None:
        """Both constructors' one path: :class:`QueryMatrix` validates."""
        los = np.asarray(los, dtype=np.intp)
        his = np.asarray(his, dtype=np.intp)
        if los.ndim == 1:
            los = los[:, None]
        if his.ndim == 1:
            his = his[:, None]
        if los.shape[0] == 0:
            raise ValueError("a workload must contain at least one query")
        self.operator = QueryMatrix(los, his, domain_shape)
        self.name = name

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return self.operator.n_queries

    def __iter__(self) -> Iterator[RangeQuery]:
        for lo, hi in zip(self.operator.los.tolist(), self.operator.his.tolist()):
            yield RangeQuery(tuple(lo), tuple(hi))

    def __getitem__(self, i: int) -> RangeQuery:
        return RangeQuery(tuple(self.operator.los[i].tolist()),
                          tuple(self.operator.his[i].tolist()))

    @property
    def queries(self) -> list[RangeQuery]:
        return list(self)

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return self.operator.domain_shape

    @property
    def ndim(self) -> int:
        return self.operator.ndim

    @property
    def domain_size(self) -> int:
        return self.operator.domain_size

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, x: np.ndarray | PrefixSum) -> np.ndarray:
        """Answer every query against ``x`` (returned in workload order).

        ``x`` may be a pre-built :class:`PrefixSum` over the domain, skipping
        the O(n) table construction (the online release service's bulk path).
        """
        if isinstance(x, PrefixSum):
            return self.operator.matvec(x)
        x = np.asarray(x, dtype=float)
        if x.shape != self.domain_shape:
            raise ValueError(
                f"data shape {x.shape} does not match workload domain {self.domain_shape}"
            )
        return self.operator.matvec(x)

    def sensitivity(self) -> int:
        """L1 sensitivity of the workload: the maximum number of queries any
        single cell participates in (adding one record changes that many
        answers by one each).  O(q + n) via difference-array column counts."""
        return self.operator.sensitivity()

    def to_sparse(self):
        """CSR query matrix ``W`` such that ``W @ x.ravel()`` answers the
        workload (cached on the workload's :attr:`operator`)."""
        return self.operator.to_sparse()

    def to_matrix(self) -> np.ndarray:
        """Dense query matrix — intended for small domains (tests, analyses)."""
        return self.operator.to_dense()

    def on_partition(self, edges: np.ndarray) -> "Workload":
        """The workload as seen from a contiguous 1-D partition of the domain.

        ``edges`` are the ``B + 1`` bucket boundaries; every query maps to the
        inclusive range of buckets it intersects (multiplicities preserved —
        a bucket range targeted by many queries should weigh more in budget
        allocation).  This is the workload DAWA's stage two consults when
        tuning GreedyH over the bucket domain.
        """
        bucket_queries = self.operator.on_partition(edges)
        return Workload.from_bounds(
            bucket_queries.los, bucket_queries.his,
            bucket_queries.domain_shape,
            name=f"{self.name}|buckets[{len(edges) - 1}]")

    def restricted_to(self, domain_shape: tuple[int, ...]) -> "Workload":
        """Restrict the workload to a smaller (coarsened) domain.

        Queries that intersect the new domain are clipped to it; queries lying
        *entirely outside* are dropped (previously they were clamped onto the
        last cell, silently re-weighting the boundary in domain-size sweeps).
        Raises ``ValueError`` if no query intersects the new domain, because a
        workload cannot be empty, or if the new domain has another dimension.
        """
        domain_shape = tuple(int(d) for d in domain_shape)
        if len(domain_shape) != self.ndim:
            raise ValueError(f"cannot restrict a {self.ndim}-D workload to the "
                             f"domain {domain_shape}")
        limits = np.asarray(domain_shape, dtype=np.intp)
        inside = np.all(self.operator.los < limits, axis=1)
        if not inside.any():
            raise ValueError(
                f"no query of {self.name!r} intersects the domain {domain_shape}")
        return Workload.from_bounds(
            self.operator.los[inside],
            np.minimum(self.operator.his[inside], limits - 1),
            domain_shape, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload(name={self.name!r}, queries={len(self)}, domain={self.domain_shape})"
