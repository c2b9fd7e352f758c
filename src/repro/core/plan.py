"""The Select -> Measure -> Reconstruct plan pipeline.

The paper's central observation is that seemingly monolithic private-release
algorithms are compositions of a few reusable stages: *choose* a set of linear
queries (possibly spending privacy budget to make a data-dependent choice),
*measure* them with calibrated noise, and *reconstruct* cell estimates by
post-processing.  This module makes those stages explicit:

* a **selection strategy** emits a :class:`MeasurementPlan` — the queries to
  ask (a sparse :class:`~repro.workload.linops.QueryMatrix`), the per-query
  privacy-budget shares, and the structural metadata (tree tag, cell ordering,
  domain partition) that the reconstruction stage exploits;
* :func:`measure_plan` is the **one shared noise stage**: it answers the plan's
  queries on the data and perturbs them with Laplace noise, metered through a
  :class:`~repro.algorithms.mechanisms.PrivacyBudget` so over-spending raises
  :class:`~repro.algorithms.mechanisms.BudgetExceededError`;
* :func:`reconstruct` is the **inference stage**: the generic sparse GLS solve
  (:func:`~repro.core.gls.solve_gls`), with exact closed forms for tree-tagged
  and disjoint plans, followed by the plan's structural expansions
  (bucket -> cell uniform expansion, ordering inversion).

No stage needs a tag for the plans whose queries are all single cells
(Identity, and AHP/AHP*/PHP over their bucket domains): the structure is read
off the queries themselves (``los == his``).  The noise stage then answers by
gathering the measurement vector at the flat cell indices, which is exact for
any counts, where the prefix-sum difference is exact only while the running
totals stay below 2**53; the inference stage tests disjointness as "the flat
indices are distinct" and scatters the measured values straight back.

Algorithms plug in through :class:`~repro.algorithms.base.PlanAlgorithm`,
whose ``_run`` is the thin template ``plan = select(); meas = measure(plan);
return infer(meas)``.  Reproducibility contract: the noise stage draws one
Laplace variate per *measured* query in row order (a vectorised draw with a
per-query scale vector consumes the generator stream exactly like the
historical per-query scalar draws), so porting an algorithm onto the pipeline
preserves its output bit-for-bit as long as its selection emits the queries in
the historical draw order.

NOTE: like :mod:`repro.core.measurement`, this module is imported by the
algorithm modules while the package graph is still loading; it must not import
:mod:`repro.core` itself (only sibling submodules and leaf algorithm modules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..algorithms.mechanisms import PrivacyBudget
from ..workload.linops import QueryMatrix, rectangle_cells
from .gls import solve_gls
from .kernels import batched_laplace
from .measurement import MeasurementSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.tree import HierarchicalTree
    from ..workload.rangequery import Workload

__all__ = ["MeasurementPlan", "ReleaseMetadata", "SelectionStrategy",
           "measure_plan", "reconstruct", "segment_sse", "segment_sums"]


@dataclass(frozen=True)
class ReleaseMetadata:
    """Provenance of a published private release.

    A released histogram is post-processing-free: once its epsilon is spent,
    any number of range queries can be answered from it forever at zero
    additional privacy cost.  The serving layer (:mod:`repro.serve`) stamps
    every published release with this record so clients can audit what they
    are querying: which registered algorithm produced it, the budget it was
    run at, what it actually spent (``epsilon_spent`` covers both the
    selection and noise stages for plan algorithms; for the others it is the
    run's epsilon, which the registry-wide budget test checks each of them
    spends exactly), and how many noisy measurements back the
    reconstruction.
    """

    algorithm: str
    epsilon: float
    epsilon_spent: float
    domain_shape: tuple[int, ...]
    n_measurements: int = 0


@dataclass
class MeasurementPlan:
    """What a selection strategy decided to measure, and how to undo it.

    Parameters
    ----------
    queries:
        The selected queries over the *measurement domain*.  The measurement
        domain is the data domain itself unless ``ordering``/``partition``
        re-shape it (see below).
    epsilons:
        Per-query epsilon share.  A query with a non-positive share is left
        unmeasured by the noise stage (``nan`` value, infinite variance) —
        consistency reconstructs it — unless it carries a pre-measured value.
    domain_shape:
        Shape of the count array the release must cover.
    tree:
        When the queries are exactly the nodes of a
        :class:`~repro.algorithms.tree.HierarchicalTree` over the measurement
        domain (node-index order), the tree — unlocking the exact two-pass
        GLS fast path.  The tree may be 1-D or 2-D (quadtree- and kd-style
        plans tag their 2-D trees directly, no flattening ``ordering``
        needed); a tag whose node count disagrees with the query rows is
        rejected up front.
    ordering:
        Optional permutation of the flattened cells applied *before* anything
        else (Hilbert flattening, AHP's sort-by-noisy-value).  The
        reconstruction stage inverts it last.
    partition:
        Optional contiguous-bucket edges (``B + 1`` boundaries) over the
        (ordered) flat domain.  The queries then live over the ``B``-bucket
        domain; reconstruction expands each bucket estimate uniformly over
        its cells.
    values, variances:
        Pre-measured answers obtained *during selection* (DPCube's phase-1
        cells, MWEM's round measurements), already paid for out of the
        selection budget.  ``nan``/``inf`` rows are measured by the noise
        stage.  A row may not be both pre-measured and budgeted.
    epsilon_measure:
        Explicit total epsilon of the noise stage.  When ``None`` it is
        bounded from the per-query shares (see :meth:`epsilon_required`);
        strategies whose queries compose in parallel (e.g. tree levels) pass
        the exact total.
    extras:
        Strategy-specific structure the reconstruction stage may consume
        (DPCube's kd blocks, SF's bucket boundaries, MWEM's round log).
    """

    queries: QueryMatrix
    epsilons: np.ndarray
    domain_shape: tuple[int, ...]
    tree: "HierarchicalTree | None" = None
    ordering: np.ndarray | None = None
    partition: np.ndarray | None = None
    values: np.ndarray | None = None
    variances: np.ndarray | None = None
    epsilon_measure: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.epsilons = np.asarray(self.epsilons, dtype=float)
        q = self.queries.n_queries
        if self.epsilons.shape != (q,):
            raise ValueError(
                f"need one epsilon share per query: {q} queries, "
                f"epsilons {self.epsilons.shape}")
        if (self.values is None) != (self.variances is None):
            raise ValueError("pre-measured values and variances come together")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            self.variances = np.asarray(self.variances, dtype=float)
            if self.values.shape != (q,) or self.variances.shape != (q,):
                raise ValueError("pre-measured values/variances must be per-query")
            if np.any(np.isfinite(self.values) & (self.epsilons > 0)):
                raise ValueError(
                    "a query cannot be both pre-measured and budgeted for "
                    "the noise stage")
        if self.partition is not None:
            # Checked at construction, so the noise stage never spends budget
            # on buckets it cannot measure or expand.
            self.partition = QueryMatrix._check_edges(
                self.partition, int(np.prod(self.domain_shape)))
        if self.tree is not None and self.tree.n_nodes != q:
            raise ValueError(
                f"tree-tagged plan needs one query per tree node: "
                f"{self.tree.n_nodes} nodes, {q} queries")

    # -- derived views ------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        return self.queries.n_queries

    @property
    def to_measure(self) -> np.ndarray:
        """Mask of the queries the noise stage must draw noise for."""
        return self.epsilons > 0

    def measurement_vector(self, x: np.ndarray) -> np.ndarray:
        """The vector the plan's queries refer to, derived from the data.

        Applies ``ordering`` then ``partition``: for a partition plan this is
        the vector of bucket totals, bitwise the historical per-bucket
        ``x[lo:hi].sum()`` (:func:`segment_sums`).
        """
        vector = np.asarray(x, dtype=float)
        if self.ordering is not None:
            vector = vector.reshape(-1)[self.ordering]
        if self.partition is not None:
            edges = self.partition
            if vector.ndim != 1 or edges[-1] != vector.size:
                raise ValueError("partition edges must cover the flat domain")
            vector = segment_sums(vector, edges[:-1], np.diff(edges))
        return vector

    def epsilon_required(self) -> float:
        """Total epsilon the noise stage will charge.

        With ``epsilon_measure`` unset, the exact sequential/parallel
        composition cost of per-query Laplace noise at scales ``1/eps_i``:
        the largest per-cell sum of the shares of the queries covering it
        (one adjoint application of the sparse operator — no matrices).
        """
        if self.epsilon_measure is not None:
            return float(self.epsilon_measure)
        mask = self.to_measure
        if not np.any(mask):
            return 0.0
        shares = np.where(mask, self.epsilons, 0.0)
        return float(self.queries.rmatvec(shares).max())


#: Cells gathered per row-sum call in :func:`segment_sums`: the gathered
#: copy stays cache-sized however large the domain or its segments.
_GATHER_CELLS = 1 << 16


def segment_sse(x: np.ndarray):
    """``sse(lo, hi)``: the sum of squared deviations from the mean of the
    half-open segments ``x[lo:hi]``, O(1) per segment through prefix sums
    and vectorised over ``lo`` and ``hi`` — the split score of SF's and
    PHP's exponential-mechanism searches."""
    prefix = np.concatenate([[0.0], np.cumsum(x)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(x ** 2)])

    def sse(lo, hi):
        width = np.maximum(np.subtract(hi, lo), 1)
        total = prefix[hi] - prefix[lo]
        total_sq = prefix_sq[hi] - prefix_sq[lo]
        return np.maximum(total_sq - total * total / width, 0.0)
    return sse


def segment_sums(values: np.ndarray, starts: np.ndarray,
                 widths: np.ndarray) -> np.ndarray:
    """``values[start:start + width].sum()`` for every segment, bit for bit.

    Segments that share their width with others are gathered by one fancy
    index into the rows of a ``(k, width)`` matrix, and the row sums reduce
    each contiguous row in the same pairwise order as a slice sum.
    (``np.add.reduceat`` sums in a different order and is not
    bitwise-equal.)  A segment alone at its width, or wider than
    ``_GATHER_CELLS``, is summed as a slice in place: a gather would cost
    it more than it saves.
    """
    if widths.size == 0:
        return np.empty(0)
    ends = starts + widths
    by_width = np.argsort(widths, kind="stable")
    sorted_widths = widths[by_width]
    cuts = np.flatnonzero(sorted_widths[1:] != sorted_widths[:-1]) + 1
    run_lo = np.concatenate(([0], cuts))
    run_hi = np.concatenate((cuts, [widths.size]))
    shared = (run_hi - run_lo > 1) & (sorted_widths[run_lo] <= _GATHER_CELLS)

    sums = np.empty(widths.size)
    lone = by_width[np.repeat(~shared, run_hi - run_lo)]
    sums[lone] = [values[lo:hi].sum()
                  for lo, hi in zip(starts[lone].tolist(), ends[lone].tolist())]
    for first, last in zip(run_lo[shared].tolist(), run_hi[shared].tolist()):
        width = int(sorted_widths[first])
        offsets = np.arange(width)
        rows = _GATHER_CELLS // width
        for lo in range(first, last, rows):
            part = by_width[lo:min(lo + rows, last)]
            sums[part] = values[starts[part, None] + offsets].sum(axis=1)
    return sums


def _single_cells(queries: QueryMatrix) -> np.ndarray | None:
    """Flat row-major cell index of every query when each query covers
    exactly one cell (``los == his``), ``None`` otherwise."""
    los = queries.los
    if not np.array_equal(los, queries.his):
        return None
    if queries.ndim == 1:
        return los[:, 0]
    return los[:, 0] * queries.domain_shape[1] + los[:, 1]


@runtime_checkable
class SelectionStrategy(Protocol):
    """The selection stage: decide *what to measure* before any noise is added.

    A strategy may consult the target workload (workload-aware selection), the
    data itself (data-dependent selection — it must then pay for the choice by
    charging ``budget``), and side information.  It returns the plan; it never
    adds measurement noise (that is :func:`measure_plan`'s job), though it may
    record values it already measured out of its own budget share.
    """

    def select(
        self,
        x: np.ndarray,
        workload: "Workload | None",
        budget: PrivacyBudget,
        rng: np.random.Generator,
    ) -> MeasurementPlan:
        ...  # pragma: no cover - protocol


def measure_plan(
    x: np.ndarray,
    plan: MeasurementPlan,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> MeasurementSet:
    """The shared noise stage: turn any selection into a :class:`MeasurementSet`.

    Answers the plan's queries on the data and adds Laplace noise with scale
    ``1/eps_i`` to each budgeted query, in row order.  The total epsilon of
    the stage (:meth:`MeasurementPlan.epsilon_required`) is charged against
    ``budget`` *before* any noise is drawn, so an over-subscribed plan raises
    :class:`~repro.algorithms.mechanisms.BudgetExceededError` without
    touching the generator.  The set's ``epsilon_spent`` is ``budget.spent``
    (selection included) or, without a budget, the stage's own cost.

    Per-bucket/per-node sensitivity is 1 for the count workloads handled
    here (every plan query is a sum of disjoint cells of the measurement
    vector, which is itself a disjoint aggregation of the data cells).

    When every query is a single cell (``los == his``: Identity, AHP and PHP
    over their bucket domains) the answers are the measurement vector
    gathered at the flat cell indices, not
    :meth:`~repro.workload.linops.QueryMatrix.matvec`'s prefix-sum
    differences.  The two agree bitwise whenever the prefix table is exact
    (integer counts whose total stays below 2**53); above that the gather is
    the exact answer and the difference is not.
    """
    eps_measure = plan.epsilon_required()
    if budget is not None and eps_measure > 0:
        budget.spend(eps_measure, "measure")

    q = plan.n_queries
    if plan.values is not None:
        values = plan.values.astype(float).copy()
        variances = plan.variances.astype(float).copy()
    else:
        values = np.full(q, np.nan)
        variances = np.full(q, np.inf)

    mask = plan.to_measure
    if np.any(mask):
        vector = plan.measurement_vector(x)
        cells = _single_cells(plan.queries)
        if cells is None:
            answers = plan.queries.matvec(vector)
        else:
            answers = plan.queries._as_domain(vector).reshape(-1)[cells]
        scales = 1.0 / plan.epsilons[mask]
        # Batched noise: one generator call per constant-scale run (tree
        # levels and bucket groups share a scale, so a whole epsilon grid of
        # queries collapses to a handful of draws).  The generator consumes
        # one double per variate regardless of batching, so the stream — and
        # therefore every executor result — is bitwise-identical to the
        # historical per-query scalar draws (pinned by the stream-identity
        # tests).
        values[mask] = answers[mask] + batched_laplace(rng, scales)
        variances[mask] = 2.0 * scales ** 2

    epsilon_spent = eps_measure if budget is None else budget.spent
    return MeasurementSet(plan.queries, values, variances,
                          epsilon_spent=float(epsilon_spent), tree=plan.tree)


def _disjoint_estimate(measured: MeasurementSet,
                       cells: np.ndarray | None = None) -> np.ndarray:
    """Exact GLS for mutually disjoint queries: each query's answer is spread
    uniformly over its own cells (cells no query covers stay at the min-norm
    zero).  Direct scatter, not an adjoint cumsum, so single-cell systems
    (AHP clusters, PHP buckets, Identity) reproduce the historical per-bucket
    assignments bit-for-bit.  ``cells``, the flat indices of a single-cell
    system (:func:`_single_cells`), let it write the values directly."""
    queries = measured.queries
    estimate = np.zeros(queries.domain_shape)
    if cells is not None:
        # A single cell's answer divided by its size 1 is the answer itself.
        estimate.reshape(-1)[cells] = measured.values
        return estimate
    # Disjointness makes the write order irrelevant, and each cell receives
    # the very same float the per-rectangle slice assignments wrote.
    cells, sizes = rectangle_cells(queries.los, queries.his, queries.domain_shape)
    estimate.reshape(-1)[cells] = np.repeat(measured.values / sizes, sizes)
    return estimate


def reconstruct(plan: MeasurementPlan,
                measurements: MeasurementSet) -> np.ndarray:
    """The inference stage: consistent cell estimates from the measurements.

    Solves the weighted least-squares problem over the measurement domain —
    the exact two-pass fast path for tree-tagged plans, an exact direct
    scatter for mutually disjoint query sets, matrix-free LSMR otherwise —
    then applies the plan's structural expansions: bucket estimates are
    spread uniformly over their cells (``partition``) and the cell ordering
    is inverted (``ordering``).

    Disjointness is derived from the measured queries.  When they are all
    single cells it is "the flat cell indices are distinct" (one boolean
    mark per cell), and the scatter writes the measured values directly;
    rectangle sets (UGrid's blocks, Uniform's total) keep the rule that no
    cell is covered twice
    (:meth:`~repro.workload.linops.QueryMatrix.cell_counts`).  Both rules
    pick the same solver.
    """
    if plan.tree is not None:
        estimate = solve_gls(measurements)
    else:
        measured = measurements.measured()
        cells = _single_cells(measured.queries) if len(measured) else None
        if cells is not None:
            seen = np.zeros(measured.queries.domain_size, dtype=bool)
            seen[cells] = True
            disjoint = np.count_nonzero(seen) == cells.size
        else:
            disjoint = bool(len(measured)) \
                and measured.queries.cell_counts().max() <= 1
        if disjoint:
            estimate = _disjoint_estimate(measured, cells)
        else:
            estimate = solve_gls(measurements)
    estimate = np.asarray(estimate, dtype=float)

    if plan.partition is not None:
        widths = np.diff(plan.partition)
        estimate = np.repeat(estimate.reshape(-1) / widths, widths)
    if plan.ordering is not None:
        flat = np.empty(plan.ordering.size)
        flat[plan.ordering] = estimate.reshape(-1)
        estimate = flat
    return estimate.reshape(plan.domain_shape)
