"""Operator-splitting schemes and ensemble tooling for the 1D stochastic
Burgers' equation with multiplicative scalar noise."""

from .analysis import (
    EnsembleReport,
    EnsembleSample,
    FitResult,
    ensemble_variance,
    fit_order,
    strong_error,
    summarize,
    weak_error,
)
from .burgers import (
    CflMode,
    CflPolicy,
    FluxFunction,
    cfl_dt,
    engquist_osher_flux,
    scl_step,
)
from .config import RunConfig, SchemeSpec, parse_config, parse_config_file
from .errors import CflViolation, ConfigError, ResourceLimit
from .grid import (
    BoundaryKind,
    FieldState,
    InitialCondition,
    SpatialGrid,
    l1_distance,
    make_initial_state,
)
from .noise import (
    NoiseAmplitude,
    NoisePath,
    coarsen,
    em_step,
    exact_linear_sde,
    generate_path,
    milstein_step,
)
from .runner import (
    CsvWriter,
    ResultRow,
    RunStats,
    SeedOutcome,
    cell_label,
    emit_csv,
    reference_endpoint,
    run_matrix,
)
from .schemes import (
    ContractionWarning,
    SchemeConfig,
    Trajectory,
    integrate,
    iter_after_step,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind",
    "CflMode",
    "CflPolicy",
    "CflViolation",
    "ConfigError",
    "ContractionWarning",
    "CsvWriter",
    "EnsembleReport",
    "EnsembleSample",
    "FieldState",
    "FitResult",
    "FluxFunction",
    "InitialCondition",
    "NoiseAmplitude",
    "NoisePath",
    "ResourceLimit",
    "ResultRow",
    "RunConfig",
    "RunStats",
    "SchemeConfig",
    "SchemeSpec",
    "SeedOutcome",
    "SpatialGrid",
    "Trajectory",
    "cell_label",
    "cfl_dt",
    "coarsen",
    "em_step",
    "emit_csv",
    "engquist_osher_flux",
    "ensemble_variance",
    "exact_linear_sde",
    "fit_order",
    "generate_path",
    "integrate",
    "iter_after_step",
    "l1_distance",
    "make_initial_state",
    "milstein_step",
    "parse_config",
    "parse_config_file",
    "reference_endpoint",
    "run_matrix",
    "scl_step",
    "step",
    "strong_error",
    "summarize",
    "weak_error",
    "__version__",
]
