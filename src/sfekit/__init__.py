"""Wrapper-based feature selection toolkit.

Search algorithms (single-agent mask search, binary PSO and their
stagnation-triggered hybrid) over a budgeted k-NN cross-validation
fitness, plus the statistics and batch harness used to benchmark them.
"""

from .bpso import PsoParams, position_update, pso_search, sigmoid, velocity_update
from .config import ConfigError, DatasetSpec, ExperimentConfig, load_config, write_config
from .dataset import (
    Dataset,
    DatasetError,
    FoldAssignment,
    load_csv,
    stratified_kfold,
    subset_columns,
)
from .fitness import BudgetExhausted, FitnessEvaluator
from .harness import (
    ExperimentReport,
    RunResult,
    build_report,
    emit_convergence,
    format_report,
    load_runs,
    run_experiment,
)
from .hybrid import (
    EngineContractError,
    HybridParams,
    hillclimb_engine,
    resolve_algorithm,
    resolve_engine,
    sfe_ec_search,
    sfe_pso_search,
    stagnation_check,
)
from .rng import as_generator, derive_seed
from .sfe import (
    SfeParams,
    compute_un,
    non_selection,
    random_mask,
    selection,
    sfe_search,
    ur_schedule,
)
from .stats import Mark, friedman_mean_ranks, wilcoxon_ranksum
from .trace import SearchTrace

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "ConfigError",
    "Dataset",
    "DatasetError",
    "DatasetSpec",
    "EngineContractError",
    "ExperimentConfig",
    "ExperimentReport",
    "FitnessEvaluator",
    "FoldAssignment",
    "HybridParams",
    "Mark",
    "PsoParams",
    "RunResult",
    "SearchTrace",
    "SfeParams",
    "as_generator",
    "build_report",
    "compute_un",
    "derive_seed",
    "emit_convergence",
    "format_report",
    "friedman_mean_ranks",
    "hillclimb_engine",
    "load_config",
    "load_csv",
    "load_runs",
    "non_selection",
    "position_update",
    "pso_search",
    "random_mask",
    "resolve_algorithm",
    "resolve_engine",
    "run_experiment",
    "selection",
    "sfe_ec_search",
    "sfe_pso_search",
    "sfe_search",
    "sigmoid",
    "stagnation_check",
    "stratified_kfold",
    "subset_columns",
    "ur_schedule",
    "velocity_update",
    "wilcoxon_ranksum",
    "write_config",
]
