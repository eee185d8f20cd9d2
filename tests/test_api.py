"""The public surface: the names the package exports, and the error every
range-checked number raises, however large it is."""

import pytest

import defectcost
from defectcost import (
    ALL_KINDS,
    Artifact,
    CostParams,
    GridConfig,
    InputContractError,
    classify,
    constant_prediction,
    cost_random,
    simulate_prediction,
    theorem_boundary,
    trend,
)

PUBLIC_NAMES = (
    "ALL_KINDS", "AggregateSpec", "Artifact", "BoundKind", "BoundaryCondition",
    "BoundaryInterval", "ConfusionMatrix", "CostParams", "DEFAULT_ACCURACIES",
    "DEFAULT_P_QF_VALUES", "DataError", "Defect", "ExperimentRecord", "GeneralCostInputs",
    "GridConfig", "InputContractError", "KIND_BY_CODE", "ModelKind", "OutcomeSummary",
    "ParseError", "Prediction", "Project", "QAMode", "Relationship", "SAMPLE_AGGREGATES",
    "SummaryStats", "TrendSeries", "UNBOUNDED", "boundary_interval", "cell_seed", "classify",
    "constant_prediction", "cost_general", "cost_init", "cost_random", "emit_records",
    "format_matrix", "induced_inputs", "lower_boundary", "parse_matrix", "parse_prediction",
    "parse_records", "perfect_prediction", "precision", "project_from_aggregates",
    "project_view", "recall", "render_scatter", "run_grid", "sample_corpus",
    "simulate_prediction", "summarize", "theorem_boundary", "trend", "upper_boundary",
)


def test_public_names_are_pinned():
    assert tuple(sorted(defectcost.__all__)) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 55
    for name in PUBLIC_NAMES:
        assert hasattr(defectcost, name)


HUGE = 10**5000  # more digits than Python converts to text

HUGE_CALLS = {
    "CostParams.p_qf": lambda p, o: CostParams(p_qf=HUGE),
    "GridConfig.p_qf_values": lambda p, o: GridConfig(p_qf_values=(HUGE,)),
    "GridConfig.accuracies": lambda p, o: GridConfig(accuracies=(HUGE,)),
    "GridConfig.repetitions": lambda p, o: GridConfig(repetitions=-HUGE),
    "simulate_prediction.accuracy": lambda p, o: simulate_prediction(p, HUGE, 1),
    "simulate_prediction.cell_seed": lambda p, o: simulate_prediction(p, 0.5, HUGE),
    "cost_random.p_qa": lambda p, o: cost_random(p, HUGE, CostParams()),
    "theorem_boundary.p_qa": lambda p, o: theorem_boundary(p, o, HUGE, CostParams()),
    "Artifact.size": lambda p, o: Artifact("a", -HUGE),
    "trend.n_bins": lambda p, o: trend([], "precision", ALL_KINDS[0], "lower", n_bins=-HUGE),
}


@pytest.mark.parametrize("call", HUGE_CALLS.values(), ids=HUGE_CALLS.keys())
def test_huge_integers_raise_contract_errors(call, project_e):
    outcome = classify(project_e, constant_prediction(project_e, 1))
    with pytest.raises(InputContractError, match="integer of 16610 bits"):
        call(project_e, outcome)
