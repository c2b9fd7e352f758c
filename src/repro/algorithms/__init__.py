"""Differentially private release algorithms evaluated by DPBench.

The module exposes the DP primitives (Laplace noise, the exponential
mechanism, the privacy-budget accountant), the shared substrates
(hierarchies, wavelets, Hilbert curves) and all algorithms from Table 1 of
the paper plus the HybridTree extra.  Their least-squares solves live in
:mod:`repro.core.gls`.
"""

from .base import Algorithm, AlgorithmProperties, PlanAlgorithm
from .mechanisms import (
    BudgetExceededError,
    PrivacyBudget,
    as_rng,
    exponential_mechanism,
    laplace_noise,
)
from .identity import Identity
from .uniform import Uniform
from .privelet import Privelet
from .hier import HierarchicalH, HierarchicalHb
from .greedy_h import GreedyH
from .greedy_w import GreedyW
from .mwem import MWEM, MWEMStar
from .ahp import AHP, AHPStar
from .dawa import DAWA
from .dpcube import DPCube
from .php import PHP
from .efpa import EFPA
from .sf import StructureFirst
from .quadtree import HybridTree, QuadTree
from .grids import AGrid, UGrid

__all__ = [
    "Algorithm",
    "AlgorithmProperties",
    "PlanAlgorithm",
    "PrivacyBudget",
    "BudgetExceededError",
    "as_rng",
    "laplace_noise",
    "exponential_mechanism",
    "Identity",
    "Uniform",
    "Privelet",
    "HierarchicalH",
    "HierarchicalHb",
    "GreedyH",
    "GreedyW",
    "MWEM",
    "MWEMStar",
    "AHP",
    "AHPStar",
    "DAWA",
    "DPCube",
    "PHP",
    "EFPA",
    "StructureFirst",
    "QuadTree",
    "HybridTree",
    "UGrid",
    "AGrid",
]
