"""Standard workload constructors used by the benchmark.

The paper evaluates 1-D algorithms on the *Prefix* workload (all queries
``[0, i]``) and 2-D algorithms on 2000 uniformly random range queries.  The
identity and all-range workloads are provided for analyses and tests.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.mechanisms import as_rng
from .rangequery import Workload

__all__ = [
    "prefix_workload",
    "identity_workload",
    "all_range_workload",
    "random_range_workload",
    "default_workload",
]


def prefix_workload(n: int) -> Workload:
    """The 1-D Prefix workload: ``n`` queries ``[0, i]`` for ``i in 0..n-1``.

    Any 1-D range query is the difference of exactly two prefix queries, which
    is why the paper uses this workload as the canonical 1-D target.
    """
    if n < 1:
        raise ValueError("domain size must be at least 1")
    his = np.arange(n, dtype=np.intp)[:, None]
    return Workload.from_bounds(np.zeros_like(his), his, (n,),
                                name=f"prefix[{n}]")


def identity_workload(domain_shape: tuple[int, ...]) -> Workload:
    """One point query per cell of the domain."""
    domain_shape = tuple(int(d) for d in domain_shape)
    if len(domain_shape) == 1:
        cells = np.arange(domain_shape[0], dtype=np.intp)[:, None]
    elif len(domain_shape) == 2:
        rows, cols = np.divmod(
            np.arange(domain_shape[0] * domain_shape[1], dtype=np.intp),
            domain_shape[1])
        cells = np.stack([rows, cols], axis=1)
    else:
        raise ValueError("only 1-D and 2-D domains are supported")
    return Workload.from_bounds(cells, cells, domain_shape,
                                name=f"identity{list(domain_shape)}")


def all_range_workload(n: int, max_queries: int | None = None) -> Workload:
    """All ``n (n + 1) / 2`` 1-D range queries, ordered by ``lo`` then ``hi``
    (optionally truncated to the first ``max_queries``).

    Quadratic in the domain size, so intended for small domains (tests and
    analyses of data-independent error).
    """
    if max_queries is not None and max_queries < 1:
        raise ValueError("max_queries must be positive")
    los, his = np.triu_indices(n)
    return Workload.from_bounds(los[:max_queries], his[:max_queries], (n,),
                                name=f"allrange[{n}]")


def random_range_workload(
    domain_shape: tuple[int, ...],
    n_queries: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> Workload:
    """Uniformly random axis-aligned range queries over the domain.

    This is the paper's 2-D workload (2000 random range queries approximate
    the set of all range queries); it works for 1-D domains too.
    """
    rng = as_rng(rng)
    domain_shape = tuple(int(d) for d in domain_shape)
    if n_queries < 1:
        raise ValueError("n_queries must be positive")
    # One sorted two-value draw per (query, axis), in this order: the
    # generator stream is part of every seeded benchmark's identity.
    draws = [sorted(rng.integers(0, d, size=2).tolist())
             for _ in range(n_queries) for d in domain_shape]
    bounds = np.array(draws, dtype=np.intp).reshape(n_queries, len(domain_shape), 2)
    return Workload.from_bounds(bounds[..., 0].copy(), bounds[..., 1].copy(),
                                domain_shape,
                                name=f"random-range[{n_queries}]")


def default_workload(
    domain_shape: tuple[int, ...],
    n_queries: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> Workload:
    """The paper's default workload for a domain: Prefix in 1-D, random
    range queries in 2-D."""
    if len(domain_shape) == 1:
        return prefix_workload(domain_shape[0])
    return random_range_workload(domain_shape, n_queries=n_queries, rng=rng)
