"""The Dataset abstraction: a named histogram with shape/scale/domain accessors.

DPBench characterises a dataset by three properties (Section 2.2 of the
paper): its *domain size* (number of cells), its *scale* (total number of
tuples) and its *shape* (the normalised distribution of counts over the
domain).  :class:`Dataset` wraps a count array together with metadata and
provides the coarsening operation used to derive smaller domain sizes from a
source histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset"]


def _coarsen_axis(x: np.ndarray, axis: int, new_size: int) -> np.ndarray:
    """Aggregate adjacent slices along ``axis`` down to ``new_size`` groups."""
    old_size = x.shape[axis]
    if new_size > old_size:
        raise ValueError(f"cannot coarsen axis of size {old_size} up to {new_size}")
    edges = np.linspace(0, old_size, new_size + 1).astype(int)
    return np.add.reduceat(x, edges[:-1], axis=axis)


@dataclass
class Dataset:
    """A named count array with convenience accessors.

    Parameters
    ----------
    name:
        Dataset identifier (e.g. ``"ADULT"``).
    counts:
        Non-negative count array, 1-D or 2-D.
    original_scale:
        The scale of the real-world source the histogram stands in for
        (Table 2 of the paper); defaults to the current total.
    description:
        Free-text provenance note.
    """

    name: str
    counts: np.ndarray
    original_scale: float | None = None
    description: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim not in (1, 2):
            raise ValueError("Dataset supports only 1-D and 2-D count arrays")
        if np.any(counts < 0):
            raise ValueError("Dataset counts must be non-negative")
        self.counts = counts
        if self.original_scale is None:
            self.original_scale = float(counts.sum())

    # -- the three DPBench data characteristics ------------------------------------
    @property
    def scale(self) -> float:
        """Total number of tuples (the sum of the counts)."""
        return float(self.counts.sum())

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def domain_size(self) -> int:
        return int(self.counts.size)

    @property
    def ndim(self) -> int:
        return self.counts.ndim

    @property
    def shape_distribution(self) -> np.ndarray:
        """The shape ``p = x / ||x||_1`` (uniform if the dataset is empty)."""
        total = self.counts.sum()
        if total <= 0:
            return np.full(self.counts.shape, 1.0 / self.counts.size)
        return self.counts / total

    @property
    def zero_fraction(self) -> float:
        """Fraction of domain cells with a zero count (sparsity, Table 2)."""
        return float(np.mean(self.counts == 0))

    # -- transformations -------------------------------------------------------------
    def coarsen(self, domain_shape: tuple[int, ...]) -> "Dataset":
        """Aggregate adjacent cells to produce a smaller domain.

        The new shape must not exceed the current shape in any dimension;
        group boundaries are chosen equi-width (the paper derives smaller
        domain sizes from the maximum-domain histogram by grouping adjacent
        buckets).
        """
        domain_shape = tuple(int(d) for d in domain_shape)
        if len(domain_shape) != self.ndim:
            raise ValueError("coarsening cannot change dimensionality")
        coarse = self.counts
        for axis, new_size in enumerate(domain_shape):
            coarse = _coarsen_axis(coarse, axis, new_size)
        return Dataset(
            name=self.name,
            counts=coarse,
            original_scale=self.original_scale,
            description=self.description,
            metadata={**self.metadata, "coarsened_from": self.domain_shape},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, domain={self.domain_shape}, "
            f"scale={self.scale:.0f}, zeros={self.zero_fraction:.2%})"
        )
