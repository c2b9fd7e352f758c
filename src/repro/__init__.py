"""repro: a reproduction of DPBench (Hay et al., SIGMOD 2016).

DPBench is a principled evaluation framework for differentially private
query-answering algorithms.  This package provides:

* :mod:`repro.algorithms` — the differential-privacy primitives and the 17+
  published algorithms evaluated in the paper (Identity, Uniform, Privelet,
  H, Hb, GreedyH, MWEM, MWEM*, AHP, AHP*, DPCube, DAWA, PHP, EFPA, SF,
  QuadTree, UGrid, AGrid);
* :mod:`repro.data` — the dataset substrate (synthetic stand-ins for the 27
  benchmark datasets) and a small relational layer;
* :mod:`repro.workload` — range-query workloads (Prefix, random ranges, ...)
  with fast evaluation;
* :mod:`repro.core` — the DPBench framework itself: the data generator G,
  error measurement and interpretation standards, parameter tuning, side-
  information repair, competitive/regret analyses and the benchmark runner.

Quick start::

    import repro

    dataset = repro.load_dataset("ADULT").coarsen((1024,))
    workload = repro.prefix_workload(1024)
    algorithm = repro.make_algorithm("DAWA")
    estimate = algorithm.run(dataset.counts, epsilon=0.1, workload=workload, rng=0)
"""

# `.core` must be imported before `.algorithms`: the algorithm modules import
# `repro.core.measurement`/`repro.core.gls` (the shared measurement/inference
# currency), which is only cycle-free because `.core`'s own initialisation
# forces the algorithms package to complete first (see repro/core/__init__.py).
from .core import (
    ALGORITHM_REGISTRY,
    BenchmarkGrid,
    DataGenerator,
    DPBench,
    ExperimentSetting,
    Job,
    MeasurementPlan,
    MeasurementSet,
    ReleaseMetadata,
    ParallelExecutor,
    ParameterTuner,
    SerialExecutor,
    ResultSet,
    RunRecord,
    SideInformationRepair,
    TunedAlgorithm,
    TuningResult,
    algorithm_names,
    baseline_comparison,
    benchmark_1d,
    benchmark_2d,
    bias_variance_decomposition,
    check_consistency,
    check_exchangeability,
    competitive_algorithms,
    competitive_counts,
    consistency_curve,
    exchangeability_ratio,
    make_algorithm,
    mean_scaled_error,
    mean_vs_p95_disagreements,
    regret,
    scaled_average_per_query_error,
    solve_gls,
    summarize_errors,
    table1_rows,
)
from .algorithms import (
    AGrid,
    AHP,
    AHPStar,
    Algorithm,
    AlgorithmProperties,
    BudgetExceededError,
    DAWA,
    DPCube,
    EFPA,
    GreedyH,
    GreedyW,
    HierarchicalH,
    HierarchicalHb,
    Identity,
    MWEM,
    MWEMStar,
    PHP,
    PlanAlgorithm,
    PrivacyBudget,
    Privelet,
    QuadTree,
    StructureFirst,
    UGrid,
    Uniform,
)
from .data import (
    Attribute,
    Dataset,
    Relation,
    all_datasets,
    dataset_names,
    dataset_overview,
    histogram,
    load_dataset,
    synthesize_relation,
)
from .workload import (
    PrefixSum,
    QueryMatrix,
    RangeQuery,
    Workload,
    all_range_workload,
    default_workload,
    identity_workload,
    prefix_workload,
    random_range_workload,
)

# `.serve` sits on top of everything above (registry + algorithms + workload),
# so it is imported last.
from .serve import ReleaseService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algorithms
    "Algorithm", "AlgorithmProperties", "PlanAlgorithm", "PrivacyBudget",
    "BudgetExceededError",
    "Identity", "Uniform", "Privelet", "HierarchicalH", "HierarchicalHb",
    "GreedyH", "GreedyW", "MWEM", "MWEMStar", "AHP", "AHPStar", "DPCube",
    "DAWA", "PHP", "EFPA", "StructureFirst", "QuadTree", "UGrid",
    "AGrid",
    # data
    "Dataset", "Attribute", "Relation", "histogram", "synthesize_relation",
    "load_dataset", "all_datasets", "dataset_names", "dataset_overview",
    # workload
    "RangeQuery", "Workload", "PrefixSum", "QueryMatrix", "prefix_workload",
    "identity_workload", "all_range_workload", "random_range_workload",
    "default_workload",
    # core
    "DPBench", "BenchmarkGrid", "DataGenerator", "ResultSet", "RunRecord",
    "ExperimentSetting", "Job", "SerialExecutor", "ParallelExecutor",
    "MeasurementSet", "MeasurementPlan", "ReleaseMetadata", "solve_gls",
    # serve
    "ReleaseService",
    "SideInformationRepair", "ParameterTuner", "TunedAlgorithm",
    "TuningResult", "ALGORITHM_REGISTRY", "make_algorithm", "algorithm_names",
    "table1_rows", "benchmark_1d", "benchmark_2d",
    "scaled_average_per_query_error", "summarize_errors",
    "bias_variance_decomposition", "competitive_algorithms",
    "competitive_counts", "regret", "baseline_comparison",
    "mean_vs_p95_disagreements", "check_consistency", "check_exchangeability",
    "consistency_curve", "exchangeability_ratio", "mean_scaled_error",
]
