"""DPBench core: the evaluation framework itself.

NOTE: ``.benchmark`` must stay among the first imports here — it forces the
``repro.algorithms`` package to finish initialising, which ``.registry``
(attribute access on the algorithms package) and the algorithm modules'
imports of ``.measurement``/``.gls`` rely on.
"""

from .analysis import (
    baseline_comparison,
    competitive_algorithms,
    competitive_counts,
    mean_vs_p95_disagreements,
    regret,
)
from .benchmark import BenchmarkGrid, DPBench
from .executor import Job, JobRuntime, ParallelExecutor, SerialExecutor
from .gls import solve_gls
from .measurement import MeasurementSet
from .plan import MeasurementPlan, ReleaseMetadata, measure_plan, reconstruct
from .error import (
    ErrorSummary,
    bias_variance_decomposition,
    scaled_average_per_query_error,
    summarize_errors,
    workload_loss,
)
from .generator import DataGenerator
from .properties import (
    check_consistency,
    check_exchangeability,
    consistency_curve,
    exchangeability_ratio,
    mean_scaled_error,
)
from .registry import (
    ALGORITHM_REGISTRY,
    BASELINES,
    DATA_DEPENDENT,
    DATA_INDEPENDENT,
    algorithm_names,
    make_algorithm,
    table1_rows,
)
from .repair import SideInformationRepair
from .results import ExperimentSetting, ResultSet, RunRecord
from .suite import benchmark_1d, benchmark_2d, full_mode
from .tuning import ParameterTuner, TunedAlgorithm, TuningResult

__all__ = [
    "DPBench",
    "BenchmarkGrid",
    "Job",
    "JobRuntime",
    "SerialExecutor",
    "ParallelExecutor",
    "MeasurementSet",
    "MeasurementPlan",
    "ReleaseMetadata",
    "measure_plan",
    "reconstruct",
    "solve_gls",
    "DataGenerator",
    "ResultSet",
    "RunRecord",
    "ExperimentSetting",
    "ErrorSummary",
    "workload_loss",
    "scaled_average_per_query_error",
    "summarize_errors",
    "bias_variance_decomposition",
    "competitive_algorithms",
    "competitive_counts",
    "regret",
    "baseline_comparison",
    "mean_vs_p95_disagreements",
    "check_consistency",
    "check_exchangeability",
    "consistency_curve",
    "exchangeability_ratio",
    "mean_scaled_error",
    "ALGORITHM_REGISTRY",
    "BASELINES",
    "DATA_INDEPENDENT",
    "DATA_DEPENDENT",
    "make_algorithm",
    "algorithm_names",
    "table1_rows",
    "SideInformationRepair",
    "ParameterTuner",
    "TuningResult",
    "TunedAlgorithm",
    "benchmark_1d",
    "benchmark_2d",
    "full_mode",
]
