"""Base classes shared by every differentially private algorithm.

Every algorithm in the benchmark consumes a count array ``x`` (1-D or 2-D),
a privacy budget ``epsilon`` and (optionally) the workload of range queries,
and produces an estimate ``x_hat`` of the same shape.  Workload answers are
then obtained by summing cells of ``x_hat``, exactly as in the paper.

Algorithm metadata (supported dimensionality, free parameters, use of side
information, consistency, scale-epsilon exchangeability) mirrors Table 1 and
drives both the registry and the Table 1 reproduction bench.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan, measure_plan, reconstruct
from ..workload.rangequery import Workload
from .mechanisms import PrivacyBudget, as_rng

__all__ = ["Algorithm", "AlgorithmProperties", "PlanAlgorithm", "validate_input",
           "workload_key"]


@dataclass(frozen=True)
class AlgorithmProperties:
    """Static properties of an algorithm, mirroring Table 1 of the paper."""

    name: str
    supported_dims: tuple[int, ...]
    data_dependent: bool
    hierarchical: bool = False
    partitioning: bool = False
    workload_aware: bool = False
    parameters: dict = field(default_factory=dict)
    free_parameters: tuple[str, ...] = ()
    side_information: tuple[str, ...] = ()
    consistent: bool = True
    scale_epsilon_exchangeable: bool = True
    reference: str = ""

    def as_row(self) -> dict:
        """Dictionary form used by the Table 1 bench."""
        return {
            "algorithm": self.name,
            "dimension": "Multi-D" if len(self.supported_dims) > 1 else f"{self.supported_dims[0]}D",
            "data_dependent": self.data_dependent,
            "hierarchical": self.hierarchical,
            "partitioning": self.partitioning,
            "parameters": dict(self.parameters),
            "free_parameters": list(self.free_parameters),
            "side_information": list(self.side_information),
            "consistent": self.consistent,
            "scale_epsilon_exchangeable": self.scale_epsilon_exchangeable,
        }


def validate_input(x: np.ndarray, epsilon: float, supported_dims: tuple[int, ...]) -> np.ndarray:
    """Validate and normalise an input count array.

    Returns a float copy of ``x``; raises ``ValueError`` on negative counts,
    unsupported dimensionality, or an epsilon outside ``(0, inf)`` (NaN
    included).  The input is copied exactly once: when ``asarray`` already
    had to convert (non-float dtype, nested lists) its result is a fresh
    array and is returned as-is.
    """
    original = x
    # asanyarray, not asarray: ndarray subclasses (the taint sanitizer's
    # TaintedArray in particular) must survive validation.
    x = np.asanyarray(x, dtype=float)
    if x.ndim not in supported_dims:
        raise ValueError(
            f"input has dimensionality {x.ndim}, supported: {supported_dims}"
        )
    if x.size == 0:
        raise ValueError("input data vector is empty")
    if np.any(x < 0):
        raise ValueError("input counts must be non-negative")
    if not np.isfinite(x).all():
        raise ValueError("input counts must be finite")
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if isinstance(original, np.ndarray) and np.shares_memory(x, original):
        x = x.copy()
    return x


def workload_key(workload: Workload | None):
    """A workload's part of a memo key (``None`` without a workload): its
    domain shape, query count and the SHA-256 digest of its query corners.
    Public inputs only.  The digest reads the corner arrays in place, so a
    key costs a few dozen bytes however many queries there are (a prefix
    workload over 2**18 cells has 4 MB of corners, hashed in about 4 ms);
    two workloads with equal keys ask the same queries unless SHA-256
    collides."""
    if workload is None:
        return None
    operator = workload.operator
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(operator.los))
    digest.update(np.ascontiguousarray(operator.his))
    return (operator.domain_shape, operator.n_queries, digest.digest())


class Algorithm(ABC):
    """Abstract base class for all private release algorithms.

    Subclasses implement :meth:`_run` and declare a class-level
    :attr:`properties` object.  The public entry point :meth:`run` performs
    input validation, seeds the random generator, builds the run's one
    :class:`~repro.algorithms.mechanisms.PrivacyBudget` and dispatches to
    :meth:`_run`, which charges to it every epsilon the algorithm uses.
    """

    properties: AlgorithmProperties

    def __init__(self, **overrides):
        # Parameter overrides allow the tuning machinery (Rparam) to
        # instantiate an algorithm with learned parameter values.
        self.params = dict(self.properties.parameters)
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ValueError(
                f"{self.name} does not accept parameters {sorted(unknown)}; "
                f"known parameters: {sorted(self.params)}"
            )
        self.params.update(overrides)

    # -- metadata ----------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.properties.name

    @property
    def is_data_dependent(self) -> bool:
        return self.properties.data_dependent

    def supports(self, ndim: int) -> bool:
        return ndim in self.properties.supported_dims

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        epsilon: float,
        workload: Workload | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Produce a private estimate of the count array ``x``.

        Parameters
        ----------
        x:
            The true count array (1-D or 2-D, non-negative).
        epsilon:
            Total privacy budget for this invocation.
        workload:
            The range-query workload; workload-aware algorithms (GreedyH,
            MWEM, DAWA) consult it, others ignore it.
        rng:
            Random generator or seed; ``None`` draws a fresh seed.
        """
        x = validate_input(x, epsilon, self.properties.supported_dims)
        rng = as_rng(rng)
        x_hat = self._run(x, PrivacyBudget(float(epsilon)), workload, rng)
        # asanyarray: a subclass-carrying result (e.g. a still-tainted
        # release under the taint sanitizer) must not be laundered here.
        x_hat = np.asanyarray(x_hat, dtype=float)
        if x_hat.shape != x.shape:
            raise RuntimeError(
                f"{self.name} returned shape {x_hat.shape}, expected {x.shape}"
            )
        return x_hat

    @abstractmethod
    def _run(
        self,
        x: np.ndarray,
        budget: PrivacyBudget,
        workload: Workload | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Algorithm-specific implementation; must return an array shaped like ``x``.

        Charge every epsilon you use to ``budget`` (its ``total`` is the
        run's epsilon) before drawing the noise it pays for.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.params})"


class PlanAlgorithm(Algorithm):
    """An algorithm expressed as the explicit three-stage plan pipeline.

    Subclasses implement :meth:`select` (the
    :class:`~repro.core.plan.SelectionStrategy` stage) and optionally override
    :meth:`infer`; ``_run`` is the fixed template

        ``plan = select(); measurements = measure(plan); return infer(...)``

    with the shared noise stage (:func:`~repro.core.plan.measure_plan`)
    metered through the run's :class:`~repro.algorithms.mechanisms.PrivacyBudget`:
    whatever the selection stage spent, the measurement stage can only charge
    the remainder, and over-subscription raises ``BudgetExceededError``.
    :meth:`run` and :meth:`plan_and_measure` share the select-and-measure body.

    The default :meth:`infer` is the generic sparse GLS reconstruction
    (:func:`~repro.core.plan.reconstruct`); overrides exist only as exact
    closed forms of that solve (DPCube and SF, both through
    :func:`~repro.core.gls.reconcile_shift`) or documented non-GLS
    post-processing (Uniform's clamp, MWEM's multiplicative weights).

    Selection structure that depends only on public inputs (a hierarchy
    over the domain shape, a workload's usage counts, the Hilbert
    flattening) is kept across runs by :meth:`_memo`.
    """

    def _memo(self, site: str, key, build):
        """``build()``, kept on the instance in one ``(key, value)`` slot
        per call ``site``.

        A call whose ``key`` equals the slot's returns the kept value; any
        other key builds afresh and replaces the slot, so a site holds one
        entry whatever sequence of shapes and workloads the instance meets.
        ``key`` must name every input ``build`` reads, and those inputs must
        be public — the domain shape, the parameters, the workload's corners
        (:func:`workload_key`) — never cell values, so the release stays a
        function of the data only through the metered stages.  Every later
        run shares the kept value: callers must not mutate it.
        """
        slots = self.__dict__.setdefault("_memo_slots", {})
        slot = slots.get(site)
        if slot is None or slot[0] != key:
            slot = slots[site] = (key, build())
        return slot[1]

    def __getstate__(self):
        # The memo is rebuilt on demand, so a pickled instance (the parallel
        # executor ships the bench by pickle) carries no kept structure.
        state = self.__dict__.copy()
        state.pop("_memo_slots", None)
        return state

    def _run(self, x: np.ndarray, budget: PrivacyBudget,
             workload: Workload | None, rng: np.random.Generator) -> np.ndarray:
        plan, measurements = self._measure(x, budget, workload, rng)
        return self.infer(measurements, plan)

    def _measure(self, x: np.ndarray, budget: PrivacyBudget,
                 workload: Workload | None, rng: np.random.Generator,
                 ) -> tuple[MeasurementPlan, MeasurementSet]:
        plan = self.select(x, workload, budget, rng)
        return plan, measure_plan(x, plan, rng, budget=budget)

    @abstractmethod
    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget,
               rng: np.random.Generator) -> MeasurementPlan:
        """Choose the queries to measure (and their budget shares).

        Data-dependent choices must be paid for by charging ``budget``;
        values already measured during selection ride along as the plan's
        pre-measured rows.
        """

    def infer(self, measurements: MeasurementSet,
              plan: MeasurementPlan) -> np.ndarray:
        """Reconstruct cell estimates from the noisy measurements alone."""
        return reconstruct(plan, measurements)

    def plan_and_measure(
        self,
        x: np.ndarray,
        epsilon: float,
        rng: np.random.Generator | int | None = None,
        workload: Workload | None = None,
    ) -> tuple[MeasurementPlan, MeasurementSet]:
        """Run the private stages only: the plan and its noisy measurements.

        Consumes exactly the same generator stream as :meth:`run`, so
        ``infer(measurements, plan)`` reproduces the release bit-for-bit —
        the end-to-end privacy principle the registry-wide post-processing
        test asserts.  ``measurements.epsilon_spent`` covers both stages.
        """
        x = validate_input(x, epsilon, self.properties.supported_dims)
        return self._measure(x, PrivacyBudget(float(epsilon)), workload, as_rng(rng))
