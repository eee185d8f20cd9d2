"""Costs, profit, and cost-saving boundary conditions of software defect prediction.

The package models file-level defect data with its full n-to-m incidence
between defects and artifacts, evaluates a general cost model and its six
standard initializations, derives the provable boundary conditions on the
defect cost ratio under which a prediction model saves cost, and reproduces
the Bernoulli-simulation experiments over an accuracy grid.
"""

from .boundaries import (
    UNBOUNDED,
    BoundaryCondition,
    BoundaryInterval,
    BoundKind,
    boundary_interval,
    lower_boundary,
    theorem_boundary,
    upper_boundary,
)
from .costs import (
    ALL_KINDS,
    KIND_BY_CODE,
    CostParams,
    GeneralCostInputs,
    ModelKind,
    QAMode,
    cost_general,
    cost_init,
    cost_random,
    induced_inputs,
)
from .errors import DataError, InputContractError, ParseError
from .io import format_matrix, parse_matrix, parse_prediction, summarize
from .model import (
    Artifact,
    ConfusionMatrix,
    Defect,
    OutcomeSummary,
    Prediction,
    Project,
    Relationship,
    classify,
    constant_prediction,
    perfect_prediction,
    precision,
    project_view,
    recall,
)
from .reporting import TrendSeries, emit_records, parse_records, render_scatter, trend
from .simulation import (
    DEFAULT_ACCURACIES,
    DEFAULT_P_QF_VALUES,
    ExperimentRecord,
    GridConfig,
    cell_seed,
    run_grid,
    simulate_prediction,
)
from .synthetic import (
    SAMPLE_AGGREGATES,
    AggregateSpec,
    project_from_aggregates,
    sample_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "AggregateSpec",
    "Artifact",
    "BoundKind",
    "BoundaryCondition",
    "BoundaryInterval",
    "ConfusionMatrix",
    "CostParams",
    "DEFAULT_ACCURACIES",
    "DEFAULT_P_QF_VALUES",
    "DataError",
    "Defect",
    "ExperimentRecord",
    "GeneralCostInputs",
    "GridConfig",
    "InputContractError",
    "KIND_BY_CODE",
    "ModelKind",
    "OutcomeSummary",
    "ParseError",
    "Prediction",
    "Project",
    "QAMode",
    "Relationship",
    "SAMPLE_AGGREGATES",
    "TrendSeries",
    "UNBOUNDED",
    "boundary_interval",
    "cell_seed",
    "classify",
    "constant_prediction",
    "cost_general",
    "cost_init",
    "cost_random",
    "emit_records",
    "format_matrix",
    "induced_inputs",
    "lower_boundary",
    "parse_matrix",
    "parse_prediction",
    "parse_records",
    "perfect_prediction",
    "precision",
    "project_from_aggregates",
    "project_view",
    "recall",
    "render_scatter",
    "run_grid",
    "sample_corpus",
    "simulate_prediction",
    "summarize",
    "theorem_boundary",
    "trend",
    "upper_boundary",
]
