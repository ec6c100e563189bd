"""Wrapper-based feature selection toolkit.

Search algorithms (single-agent mask search, binary PSO and their
stagnation-triggered hybrid) over a budgeted k-NN cross-validation
fitness, plus the statistics and batch harness used to benchmark them.
"""

from .bpso import PsoParams, pso_search
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
    RunResult,
    build_report,
    derive_seed,
    emit_convergence,
    format_report,
    load_runs,
    run_experiment,
)
from .hybrid import (
    EngineContractError,
    HybridParams,
    resolve_algorithm,
    resolve_engine,
    sfe_ec_search,
    sfe_pso_search,
)
from .sfe import SfeParams, sfe_search
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
    "FitnessEvaluator",
    "FoldAssignment",
    "HybridParams",
    "Mark",
    "PsoParams",
    "RunResult",
    "SearchTrace",
    "SfeParams",
    "build_report",
    "derive_seed",
    "emit_convergence",
    "format_report",
    "friedman_mean_ranks",
    "load_config",
    "load_csv",
    "load_runs",
    "pso_search",
    "resolve_algorithm",
    "resolve_engine",
    "run_experiment",
    "sfe_ec_search",
    "sfe_pso_search",
    "sfe_search",
    "stratified_kfold",
    "subset_columns",
    "wilcoxon_ranksum",
    "write_config",
]
