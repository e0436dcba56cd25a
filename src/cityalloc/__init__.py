"""Quantile production frontiers and planner reallocation counterfactuals.

The package estimates concavity-constrained quantile production
functions on a city panel, groups cities into efficiency deciles,
solves social-planner reallocation programs against the estimated
technologies, and reports aggregate output gains with bootstrap
uncertainty.  All optimization runs on the deterministic embedded
solver in :mod:`cityalloc.solver`.
"""
from cityalloc.cqr import (
    DEFAULT_QUANTILES,
    DecileAssignment,
    QuantileFit,
    assign_deciles,
    dedup_hyperplanes,
    fit_all_quantiles,
    fit_cqr,
)
from cityalloc.gains import (
    BootstrapConfig,
    EstimationSettings,
    GainError,
    GainResult,
    PipelineAudit,
    PipelineError,
    ScenarioTemplate,
    bootstrap_gain,
    compute_gain,
    plot_payloads,
    run_pipeline,
)
from cityalloc.panel import (
    CapitalRule,
    Panel,
    PanelError,
    build_capital_stock,
    deflate_series,
    fixed_effect_inputs,
    human_capital,
    load_panel,
)
from cityalloc.planner import (
    MODES,
    AllocationSolution,
    DecileTechnology,
    PlannerError,
    PlannerScenario,
    solve_scenario,
    technology_from_fit,
)
from cityalloc.solver import (
    BASIS_AT_LOWER,
    BASIS_AT_UPPER,
    BASIS_BASIC,
    BASIS_FREE,
    LE,
    EQ,
    GE,
    LinearProgram,
    SolveResult,
    SolverError,
    solve_integer,
    solve_lp,
)
from cityalloc.synth import (
    GroundTruth,
    SyntheticSpec,
    analytic_efficient_output,
    generate,
    rows_to_csv,
    truth_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "EstimationSettings",
    "GainError",
    "GainResult",
    "PipelineAudit",
    "PipelineError",
    "ScenarioTemplate",
    "bootstrap_gain",
    "compute_gain",
    "plot_payloads",
    "run_pipeline",
    "CapitalRule",
    "Panel",
    "PanelError",
    "build_capital_stock",
    "deflate_series",
    "fixed_effect_inputs",
    "human_capital",
    "load_panel",
    "DEFAULT_QUANTILES",
    "DecileAssignment",
    "QuantileFit",
    "assign_deciles",
    "dedup_hyperplanes",
    "fit_all_quantiles",
    "fit_cqr",
    "MODES",
    "AllocationSolution",
    "DecileTechnology",
    "PlannerError",
    "PlannerScenario",
    "solve_scenario",
    "technology_from_fit",
    "BASIS_AT_LOWER",
    "BASIS_AT_UPPER",
    "BASIS_BASIC",
    "BASIS_FREE",
    "LE",
    "EQ",
    "GE",
    "LinearProgram",
    "SolveResult",
    "SolverError",
    "solve_lp",
    "solve_integer",
    "GroundTruth",
    "SyntheticSpec",
    "analytic_efficient_output",
    "generate",
    "rows_to_csv",
    "truth_to_json",
    "__version__",
]
