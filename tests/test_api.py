"""The public surface: the names the package exports, and the one contract
every public number argument keeps: what it accepts, what it stores and the
error it raises, however large the number is."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import defectcost
from defectcost import (
    ALL_KINDS,
    AggregateSpec,
    Artifact,
    CostParams,
    GridConfig,
    InputContractError,
    cell_seed,
    classify,
    constant_prediction,
    cost_random,
    format_matrix,
    project_from_aggregates,
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


def _generated(**fields) -> str:
    """The matrix of a small generated project, ``fields`` set in its spec."""
    spec = {"name": "a", "n_artifacts": 10, "n_defective": 2, "n_defects": 2}
    spec |= {"mean_members": 1, "mean_size": 5, **fields}
    seed = spec.pop("seed", 0)
    return format_matrix(project_from_aggregates(AggregateSpec(**spec), seed))


# Every public number argument: "function.parameter" -> (a call that passes
# the number as that parameter and returns what it stores or gives, an integer
# the parameter accepts).
NUMBER_SITES = {
    **{
        f"CostParams.{name}": (lambda p, o, v, name=name: getattr(CostParams(**{name: v}), name), 0)
        for name in ("p_qf", "c_init", "c_exec")
    },
    "CostParams.c_ratio": (lambda p, o, v: CostParams(c_ratio=v).c_ratio, 2),
    "cost_random.p_qa": (lambda p, o, v: cost_random(p, v, CostParams()), 1),
    "theorem_boundary.p_qa": (lambda p, o, v: theorem_boundary(p, o, v, CostParams()), 1),
    "simulate_prediction.accuracy": (lambda p, o, v: simulate_prediction(p, v, 1), 1),
    "simulate_prediction.cell_seed": (lambda p, o, v: simulate_prediction(p, 0.5, v), 7),
    "GridConfig.accuracies": (lambda p, o, v: GridConfig(accuracies=(v,)).accuracies[0], 1),
    "GridConfig.p_qf_values": (lambda p, o, v: GridConfig(p_qf_values=(v,)).p_qf_values[0], 0),
    "GridConfig.repetitions": (lambda p, o, v: GridConfig(repetitions=v).repetitions, 3),
    "GridConfig.seed": (lambda p, o, v: GridConfig(seed=v).seed, 7),
    "cell_seed.master_seed": (lambda p, o, v: cell_seed(v, 0, 0), 7),
    "cell_seed.accuracy_index": (lambda p, o, v: cell_seed(0, v, 0), 7),
    "cell_seed.repetition_index": (lambda p, o, v: cell_seed(0, 0, v), 7),
    **{
        f"project_from_aggregates.{name}": (lambda p, o, v, name=name: _generated(**{name: v}), good)
        for name, good in (
            ("seed", 7), ("n_artifacts", 12), ("n_defective", 1), ("n_defects", 3),
            ("mean_members", 2), ("mean_size", 4),
        )
    },
    "Artifact.size": (lambda p, o, v: Artifact("a", v).size, 3),
    "trend.n_bins": (lambda p, o, v: trend([], "precision", ALL_KINDS[0], "lower", n_bins=v), 4),
}


def _given(call, project, value):
    """What ``call`` gives for ``value``, or ``InputContractError`` if it rejects it."""
    try:
        return call(project, classify(project, constant_prediction(project, 1)), value)
    except InputContractError:
        return InputContractError


@pytest.mark.parametrize("site", NUMBER_SITES)
@pytest.mark.parametrize("value", ["x", None, True, Decimal(1), Fraction(1)], ids=repr)
def test_numbers_reject_other_types(site, value, project_e):
    call, _ = NUMBER_SITES[site]
    outcome = classify(project_e, constant_prediction(project_e, 1))
    with pytest.raises(InputContractError, match=site.split(".")[1]):
        call(project_e, outcome, value)


@pytest.mark.parametrize("site", NUMBER_SITES)
@pytest.mark.parametrize("make", [np.int64, np.uint64, np.float32], ids=lambda t: t.__name__)
def test_numpy_scalars_act_as_the_equal_python_number(site, make, project_e):
    # an integer site rejects np.float32 as it rejects the equal Python float
    call, good = NUMBER_SITES[site]
    value = make(good)
    expected = _given(call, project_e, value.item())
    assert expected is not InputContractError or make is np.float32
    given = _given(call, project_e, value)
    assert given == expected and type(given) is type(expected)


INTEGER_SITES = (
    "simulate_prediction.cell_seed", "GridConfig.repetitions", "GridConfig.seed",
    "cell_seed.master_seed", "cell_seed.accuracy_index", "cell_seed.repetition_index",
    "project_from_aggregates.seed", "project_from_aggregates.n_artifacts",
    "project_from_aggregates.n_defective", "project_from_aggregates.n_defects",
    "Artifact.size", "trend.n_bins",
)


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("value", [2.5, 3.0])
def test_integers_reject_floats(site, value, project_e):
    call, _ = NUMBER_SITES[site]
    outcome = classify(project_e, constant_prediction(project_e, 1))
    with pytest.raises(InputContractError, match=site.split(".")[1]) as error:
        call(project_e, outcome, value)
    assert "integer" in str(error.value)
