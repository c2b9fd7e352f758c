"""The measurement currency shared by every mechanism and the inference layer.

A differentially private mechanism, stripped of its post-processing, is a set
of *measurements*: linear queries over the count array, the noisy answers it
obtained for them, the variance of each answer and the privacy budget it
spent.  :class:`MeasurementSet` packages exactly that, with the queries held
as a sparse :class:`~repro.workload.linops.QueryMatrix` so that inference
(:mod:`repro.core.gls`) can consume measurements from *any* mechanism —
hierarchical trees, cell histograms, kd partitions, workload queries — through
one linear-operator interface.

NOTE: this module must stay importable before :mod:`repro.core`'s package
initialisation completes (algorithm modules import it while the package
graph is still loading), so it may only depend on :mod:`repro.workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..workload.linops import QueryMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.tree import HierarchicalTree

__all__ = ["MeasurementSet"]


@dataclass
class MeasurementSet:
    """Noisy linear measurements of a count array.

    Parameters
    ----------
    queries:
        The measured regions as a sparse query operator; row ``i`` is the
        support of measurement ``i``.
    values:
        The noisy answers, one per query.  ``nan`` marks a query that was not
        actually measured (it then must carry infinite variance).
    variances:
        Per-measurement noise variances, strictly positive; ``inf`` marks an
        unmeasured query.  Zero-variance (exact) measurements are rejected:
        the solvers do weighted least squares, not constrained least squares,
        and an infinite weight would silently poison either solver — express a
        hard constraint as a tiny positive variance instead.
    epsilon_spent:
        Total privacy budget consumed to obtain the values.
    tree:
        When the queries are exactly the nodes of a
        :class:`~repro.algorithms.tree.HierarchicalTree` (in node-index
        order, i.e. ``queries=tree.as_query_matrix()``), the tree itself.
        The tag picks the solver: :func:`~repro.core.gls.solve_gls` runs
        the exact two-pass solve on tagged sets and LSMR on untagged ones.
    """

    queries: QueryMatrix
    values: np.ndarray
    variances: np.ndarray
    epsilon_spent: float = 0.0
    tree: "HierarchicalTree | None" = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        q = self.queries.n_queries
        if self.values.shape != (q,) or self.variances.shape != (q,):
            raise ValueError(
                f"need one value and one variance per query: {q} queries, "
                f"values {self.values.shape}, variances {self.variances.shape}")
        if np.any(self.variances <= 0):
            raise ValueError(
                "variances must be strictly positive (inf = unmeasured); "
                "zero-variance exact measurements are not supported — use a "
                "small positive variance instead")
        unmeasured = ~np.isfinite(self.values)
        if np.any(unmeasured & np.isfinite(self.variances)):
            raise ValueError("a nan value must carry an infinite variance")

    # -- basic protocol -----------------------------------------------------------
    def __len__(self) -> int:
        return self.queries.n_queries

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return self.queries.domain_shape

    @property
    def measured_mask(self) -> np.ndarray:
        """Boolean mask of the queries that were actually measured."""
        return np.isfinite(self.values) & np.isfinite(self.variances)

    def measured(self) -> "MeasurementSet":
        """The subset of actually measured queries (finite value/variance).

        The ``tree`` tag is dropped because the subset rows no longer align
        with node indices.
        """
        mask = self.measured_mask
        if np.all(mask):
            return self
        return MeasurementSet(
            queries=self.queries[mask],
            values=self.values[mask],
            variances=self.variances[mask],
            epsilon_spent=self.epsilon_spent,
        )

    # -- construction helpers -----------------------------------------------------
    def through_partition(self, edges: np.ndarray) -> "MeasurementSet":
        """Re-express bucket-domain measurements over the underlying cells.

        A mechanism that measures totals of contiguous buckets (DAWA's stage
        two) observes the same numbers whether its queries are read over the
        bucket domain or over the cells: a bucket-range query ``[b0, b1]``
        *is* the cell-range query ``[edges[b0], edges[b1+1] - 1]``.  The
        returned set carries the identical values/variances over the cell
        domain, which is what makes cross-mechanism fusion work — combine it
        with any other mechanism's cell-domain measurements via
        :meth:`combined_with` and solve once.  The ``tree`` tag is dropped
        (the queries are no longer the nodes of a tree over the new domain);
        the min-norm solver then reproduces the uniform within-bucket
        expansion of the bucket-level solve.
        """
        return MeasurementSet(
            queries=self.queries.through_partition(edges),
            values=self.values,
            variances=self.variances,
            epsilon_spent=self.epsilon_spent,
        )

    def combined_with(self, other: "MeasurementSet") -> "MeasurementSet":
        """Concatenate two measurement sets over the same domain.

        Budgets add by sequential composition (an upper bound: parallel
        composition over disjoint supports may spend less in reality).
        """
        if self.domain_shape != other.domain_shape:
            raise ValueError("measurement sets must share a domain")
        queries = QueryMatrix(
            np.concatenate([self.queries.los, other.queries.los]),
            np.concatenate([self.queries.his, other.queries.his]),
            self.domain_shape,
        )
        return MeasurementSet(
            queries=queries,
            values=np.concatenate([self.values, other.values]),
            variances=np.concatenate([self.variances, other.variances]),
            epsilon_spent=self.epsilon_spent + other.epsilon_spent,
        )

    # -- diagnostics --------------------------------------------------------------
    def residual(self, x: np.ndarray) -> np.ndarray:
        """Measured-minus-expected answers over the measured queries."""
        mask = self.measured_mask
        return self.values[mask] - self.queries.matvec(x)[mask]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        measured = int(self.measured_mask.sum())
        return (f"MeasurementSet(queries={len(self)}, measured={measured}, "
                f"domain={self.domain_shape}, epsilon={self.epsilon_spent:g})")
