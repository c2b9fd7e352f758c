"""Versioned storage of published releases.

A :class:`Release` is an immutable released histogram plus the structures
that make querying it cheap: the precomputed prefix-sum cube, so any 1-D
range / 2-D rectangle sum is O(2^d) table lookups, and the
:class:`~repro.workload.linops.QueryMatrix` batch path for bulk clients.
The :class:`ReleaseStore` publishes releases under monotonically increasing
versions — the version is what keys the result cache, so answers computed
against an old release can never be served after a re-release.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..core.plan import ReleaseMetadata
from ..workload.linops import QueryMatrix
from ..workload.prefix_sum import PrefixSum
from ..workload.rangequery import Workload

__all__ = ["Release", "ReleaseStore"]


@dataclass
class Release:
    """A published private histogram, ready to be queried forever.

    The histogram is frozen (a read-only copy) and its summed-area table is
    built once at construction; every answer afterwards is pure
    post-processing of the stored noisy counts — no further privacy cost,
    no per-request O(n) work.
    """

    histogram: np.ndarray
    metadata: ReleaseMetadata
    version: int = 0
    prefix: PrefixSum = field(init=False, repr=False)

    def __post_init__(self):
        histogram = np.array(self.histogram, dtype=float)
        histogram.setflags(write=False)
        self.histogram = histogram
        self.prefix = PrefixSum(histogram)

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return self.histogram.shape

    # -- answering ----------------------------------------------------------------
    def answer(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> float:
        """One inclusive range/rectangle sum — O(2^d) table lookups."""
        return self.prefix.range_sum(lo, hi)

    def answer_batch(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """A batch of rectangle sums through the ``QueryMatrix`` matvec path.

        Building the operator validates the batch (in-bounds, lo <= hi); the
        application itself is O(q) lookups against the precomputed cube, so
        the answers are bitwise-identical to ``QueryMatrix.matvec`` of the
        released histogram.
        """
        return QueryMatrix(los, his, self.domain_shape).matvec(self.prefix)

    def answer_workload(self, workload: Workload) -> np.ndarray:
        """Every query of a :class:`Workload`, through its cached operator."""
        if workload.domain_shape != self.domain_shape:
            raise ValueError(
                f"workload domain {workload.domain_shape} does not match "
                f"release domain {self.domain_shape}")
        return workload.operator.matvec(self.prefix)


class ReleaseStore:
    """Thread-safe holder of the current release and the publish history."""

    def __init__(self):
        self._lock = threading.Lock()
        self._release: Release | None = None
        self._version = 0
        self._history: list[ReleaseMetadata] = []

    def publish(self, release: Release) -> Release:
        """Make ``release`` current under the next version number."""
        with self._lock:
            self._version += 1
            release.version = self._version
            self._release = release
            self._history.append(release.metadata)
        return release

    def current(self) -> Release:
        with self._lock:
            release = self._release
        if release is None:
            raise RuntimeError(
                "no release published yet — call ReleaseService.release() first")
        return release

    @property
    def version(self) -> int:
        """Version of the current release (0 before the first publish)."""
        with self._lock:
            return self._version

    @property
    def history(self) -> list[ReleaseMetadata]:
        """Metadata of every release ever published, oldest first."""
        with self._lock:
            return list(self._history)
