"""Algorithm registry: the benchmark's set M of algorithms under evaluation.

The registry maps the names used throughout the paper (Table 1) to algorithm
classes, provides factory helpers and regenerates the Table 1 property rows.
"""

from __future__ import annotations

from .. import algorithms as algs
from ..algorithms.base import Algorithm

__all__ = [
    "ALGORITHM_REGISTRY",
    "BASELINES",
    "DATA_INDEPENDENT",
    "DATA_DEPENDENT",
    "EXTRAS",
    "make_algorithm",
    "algorithm_names",
    "table1_rows",
]

#: All algorithms available to the benchmark, keyed by their paper name.
ALGORITHM_REGISTRY: dict[str, type[Algorithm]] = {
    "Identity": algs.Identity,
    "Uniform": algs.Uniform,
    "Privelet": algs.Privelet,
    "H": algs.HierarchicalH,
    "Hb": algs.HierarchicalHb,
    "GreedyH": algs.GreedyH,
    "GreedyW": algs.GreedyW,
    "MWEM": algs.MWEM,
    "MWEM*": algs.MWEMStar,
    "AHP": algs.AHP,
    "AHP*": algs.AHPStar,
    "DPCube": algs.DPCube,
    "DAWA": algs.DAWA,
    "PHP": algs.PHP,
    "EFPA": algs.EFPA,
    "SF": algs.StructureFirst,
    "QuadTree": algs.QuadTree,
    "UGrid": algs.UGrid,
    "AGrid": algs.AGrid,
}

#: What this repository adds beyond the paper's 18 Table 1 rows.
EXTRAS = {"GreedyW"}

#: The two baselines used by the error-interpretation standard EI.
BASELINES = ("Identity", "Uniform")

DATA_INDEPENDENT = tuple(
    name for name, cls in ALGORITHM_REGISTRY.items() if not cls.properties.data_dependent
)
DATA_DEPENDENT = tuple(
    name for name, cls in ALGORITHM_REGISTRY.items() if cls.properties.data_dependent
)


def make_algorithm(name: str, **params) -> Algorithm:
    """Instantiate a registered algorithm, optionally overriding parameters."""
    if name not in ALGORITHM_REGISTRY:
        raise KeyError(f"unknown algorithm {name!r}; available: {sorted(ALGORITHM_REGISTRY)}")
    return ALGORITHM_REGISTRY[name](**params)


def algorithm_names(ndim: int | None = None) -> list[str]:
    """Names of registered algorithms, optionally filtered by dimensionality."""
    return [name for name, cls in ALGORITHM_REGISTRY.items()
            if ndim is None or ndim in cls.properties.supported_dims]


def table1_rows(include_extras: bool = True) -> list[dict]:
    """Regenerate the rows of Table 1 from algorithm metadata: the paper's 18,
    plus this repository's :data:`EXTRAS` when ``include_extras`` is set."""
    return [cls.properties.as_row() for name, cls in ALGORITHM_REGISTRY.items()
            if include_extras or name not in EXTRAS]
