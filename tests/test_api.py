"""The public surface: the names the package exports, the parameters of its
functions, and the one contract every public number argument keeps: what it
accepts, what it stores and the error it raises, however large the number is."""

import copy
import dataclasses
import inspect
import math
import pickle
import tracemalloc
import typing
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import defectcost
from defectcost import (
    ALL_KINDS,
    AggregateSpec,
    Artifact,
    BoundaryCondition,
    BoundKind,
    ConfusionMatrix,
    CostParams,
    GeneralCostInputs,
    GridConfig,
    InputContractError,
    Prediction,
    Relationship,
    boundary_interval,
    cell_seed,
    classify,
    constant_prediction,
    cost_random,
    format_matrix,
    induced_inputs,
    parse_matrix,
    parse_prediction,
    parse_records,
    project_from_aggregates,
    project_view,
    render_scatter,
    run_grid,
    sample_corpus,
    simulate_prediction,
    summarize,
    theorem_boundary,
    trend,
)

PUBLIC_NAMES = (
    "ALL_KINDS", "AggregateSpec", "Artifact", "BoundKind", "BoundaryCondition",
    "BoundaryInterval", "ConfusionMatrix", "CostParams", "DEFAULT_ACCURACIES",
    "DEFAULT_P_QF_VALUES", "DataError", "Defect", "ExperimentRecord", "GeneralCostInputs",
    "GridConfig", "InputContractError", "KIND_BY_CODE", "ModelKind", "OutcomeSummary",
    "ParseError", "Prediction", "Project", "QAMode", "Relationship", "SAMPLE_AGGREGATES",
    "TrendSeries", "UNBOUNDED", "boundary_interval", "cell_seed", "classify",
    "constant_prediction", "cost_general", "cost_init", "cost_random", "emit_records",
    "format_matrix", "induced_inputs", "lower_boundary", "parse_matrix", "parse_prediction",
    "parse_records", "perfect_prediction", "precision", "project_from_aggregates",
    "project_view", "recall", "render_scatter", "run_grid", "sample_corpus",
    "simulate_prediction", "summarize", "theorem_boundary", "trend", "upper_boundary",
)


def test_public_names_are_pinned():
    assert tuple(sorted(defectcost.__all__)) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 54
    for name in PUBLIC_NAMES:
        assert hasattr(defectcost, name)


# The parameters of every public function and the fields of every public
# settings type, each as "name" or "name=default".  A new parameter, field or
# default shows up here.
SIGNATURES = {
    "boundary_interval": "project, outcome, params, kind",
    "cell_seed": "master_seed, accuracy_index, repetition_index",
    "classify": "project, prediction",
    "constant_prediction": "project, label",
    "cost_general": "project, outcome, inputs",
    "cost_init": "project, outcome, params, kind",
    "cost_random": "project, p_qa, params",
    "emit_records": "records",
    "format_matrix": "project",
    "induced_inputs": "project, params",
    "lower_boundary": "project, outcome, params",
    "parse_matrix": "text, project_id='project'",
    "parse_prediction": "text, project",
    "parse_records": "text",
    "perfect_prediction": "project",
    "precision": "cm",
    "project_from_aggregates": "spec, seed=0",
    "project_view": "project, target",
    "recall": "cm",
    "render_scatter": "records, metric, kind, n_bins=20",
    "run_grid": "project, config",
    "sample_corpus": "seed=0",
    "simulate_prediction": "project, accuracy, cell_seed",
    "summarize": "project",
    "theorem_boundary": "project, outcome, p_qa, params",
    "trend": "records, metric, kind, bound, n_bins=20",
    "upper_boundary": "project, outcome, params",
}
FIELDS = {
    "GridConfig": (
        "accuracies=DEFAULT_ACCURACIES, repetitions=100, p_qf_values=DEFAULT_P_QF_VALUES, "
        "seed=0, model_kinds=ALL_KINDS"
    ),
    "CostParams": (
        "c_ratio=1.0, p_qf=0.0, c_init=0.0, c_exec=0.0, qa_mode=<QAMode.CONSTANT: 'const'>"
    ),
    "GeneralCostInputs": "qa_costs, losses, qf_values, c_init=0.0, c_exec=0.0",
    "AggregateSpec": "name, n_artifacts, n_defective, n_defects, mean_members, mean_size",
}


def _with_default(name: str, default) -> str:
    """``name``, or ``name=default`` with a default that is a public constant shown by its name."""
    if default is inspect.Parameter.empty or default is dataclasses.MISSING:
        return name
    constants = [n for n in PUBLIC_NAMES if getattr(defectcost, n) is default]
    return f"{name}={constants[0] if constants else repr(default)}"


def test_public_signatures_are_pinned():
    functions = {
        name: ", ".join(
            _with_default(p.name, p.default)
            for p in inspect.signature(getattr(defectcost, name)).parameters.values()
        )
        for name in PUBLIC_NAMES
        if inspect.isfunction(getattr(defectcost, name))
    }
    assert functions == SIGNATURES
    fields = {
        name: ", ".join(
            _with_default(f.name, f.default)
            for f in dataclasses.fields(getattr(defectcost, name))
        )
        for name in FIELDS
    }
    assert fields == FIELDS


HUGE = 10**5000  # more digits than Python converts to text
COUNTS = ("tp", "fp", "tn", "fn")
# a condition of each kind; below threshold 3, above threshold 1, and C-independent
CONDITIONS = {
    BoundKind.UPPER_BOUND: BoundaryCondition(1.0, 3.0, BoundKind.UPPER_BOUND, 3.0),
    BoundKind.LOWER_BOUND: BoundaryCondition(-1.0, -1.0, BoundKind.LOWER_BOUND, 1.0),
    BoundKind.ALWAYS_PROFITABLE: BoundaryCondition(0.0, 1.0, BoundKind.ALWAYS_PROFITABLE, math.inf),
    BoundKind.NEVER_PROFITABLE: BoundaryCondition(0.0, -1.0, BoundKind.NEVER_PROFITABLE, math.inf),
}

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
    "GridConfig.accuracies.sequence": lambda p, o: GridConfig(accuracies=HUGE),
    "Prediction.labels": lambda p, o: Prediction(HUGE),
    "trend.metric": lambda p, o: trend([], HUGE, ALL_KINDS[0], "lower"),
    "trend.bound": lambda p, o: trend([], "precision", ALL_KINDS[0], HUGE),
    "render_scatter.metric": lambda p, o: render_scatter([], HUGE, ALL_KINDS[0]),
    "AggregateSpec.name": lambda p, o: project_from_aggregates(
        AggregateSpec(HUGE, 10, 2, 2, 1.5, 5.0), 0
    ),
    **{
        f"ConfusionMatrix.{name}": lambda p, o, name=name: ConfusionMatrix(
            **dict.fromkeys(COUNTS, 0) | {name: -HUGE}
        )
        for name in COUNTS
    },
    **{
        f"allows.c_ratio.{kind.value}": lambda p, o, kind=kind: CONDITIONS[kind].allows(HUGE)
        for kind in BoundKind
    },
    **{
        f"GeneralCostInputs.{name}": lambda p, o, name=name: GeneralCostInputs(
            {}, {}, {}, **{name: HUGE}
        )
        for name in ("c_init", "c_exec")
    },
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


# Every public number argument: "function.parameter" (for allows, followed by
# the kind of the condition) -> (a call that passes the number as that
# parameter and returns what it stores or gives, an integer the parameter
# accepts).
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
    **{
        f"ConfusionMatrix.{name}": (
            lambda p, o, v, name=name: getattr(
                ConfusionMatrix(**dict.fromkeys(COUNTS, 0) | {name: v}), name
            ),
            3,
        )
        for name in COUNTS
    },
    **{
        f"allows.c_ratio.{kind.value}": (lambda p, o, v, kind=kind: CONDITIONS[kind].allows(v), 2)
        for kind in BoundKind
    },
    **{
        f"GeneralCostInputs.{name}": (
            lambda p, o, v, name=name: getattr(GeneralCostInputs({}, {}, {}, **{name: v}), name),
            0,
        )
        for name in ("c_init", "c_exec")
    },
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
    "Artifact.size", "trend.n_bins", *(f"ConfusionMatrix.{name}" for name in COUNTS),
)


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("value", [2.5, 3.0])
def test_integers_reject_floats(site, value, project_e):
    call, _ = NUMBER_SITES[site]
    outcome = classify(project_e, constant_prediction(project_e, 1))
    with pytest.raises(InputContractError, match=site.split(".")[1]) as error:
        call(project_e, outcome, value)
    assert "integer" in str(error.value)


@pytest.mark.parametrize("kind", BoundKind, ids=lambda kind: kind.value)
@pytest.mark.parametrize("c_ratio", [-1.0, 0, math.inf, math.nan])
def test_allows_checks_the_range_of_c_ratio_on_every_kind(kind, c_ratio):
    with pytest.raises(InputContractError, match="c_ratio must be a finite number > 0"):
        CONDITIONS[kind].allows(c_ratio)


@pytest.mark.parametrize("name", COUNTS)
def test_confusion_counts_reject_negatives(name):
    with pytest.raises(InputContractError, match=f"{name} must be an integer >= 0, got -1"):
        ConfusionMatrix(**dict.fromkeys(COUNTS, 0) | {name: -1})


# Every call that takes a label: (project, label) -> the label it stores for s1
LABEL_CALLS = {
    "Prediction": lambda p, label: Prediction({"s1": label, "s2": 0, "s3": 0}).labels["s1"],
    "constant_prediction": lambda p, label: constant_prediction(p, label).labels["s1"],
}


@pytest.mark.parametrize("call", LABEL_CALLS.values(), ids=LABEL_CALLS.keys())
@pytest.mark.parametrize("label", [True, 1.0, "1", None, [1], 2], ids=repr)
def test_labels_are_the_integers_0_and_1(call, label, project_e):
    with pytest.raises(InputContractError, match="must be 0 or 1, got"):
        call(project_e, label)


@pytest.mark.parametrize("call", LABEL_CALLS.values(), ids=LABEL_CALLS.keys())
@pytest.mark.parametrize("label", [np.int8(1), np.int64(0)], ids=repr)
def test_numpy_labels_are_stored_as_int(call, label, project_e):
    stored = call(project_e, label)
    assert stored == label and type(stored) is int


# The text parsers, each given a text and project_e.
TEXT_PARSERS = {
    "parse_matrix": lambda text, project: parse_matrix(text),
    "parse_prediction": parse_prediction,
    "parse_records": lambda text, project: parse_records(text),
}
WRONG_TYPES = {"int": 5, "None": None, "bytes": b"file,loc\n", "huge": HUGE, "object": object()}


@pytest.mark.parametrize("value", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
@pytest.mark.parametrize("parser", TEXT_PARSERS)
def test_text_parsers_take_only_a_str(parser, value, project_e):
    with pytest.raises(InputContractError, match="^text must be a str, got "):
        TEXT_PARSERS[parser](value, project_e)


@pytest.mark.parametrize("value", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_parse_prediction_takes_only_a_project(value):
    with pytest.raises(InputContractError, match="^project must be a Project, got "):
        parse_prediction("file,label\n", value)


@pytest.mark.parametrize("value", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_classify_takes_only_a_project_and_a_prediction(value, project_e):
    view = project_view(project_e, Relationship.ONE_TO_M)
    with pytest.raises(InputContractError, match="^prediction must be a Prediction, got "):
        classify(view, value)
    with pytest.raises(InputContractError, match="^project must be a Project, got "):
        classify(value, constant_prediction(project_e, 1))


# Public dataclasses that a computation returns rather than takes: their
# numbers are results, so they are not checked.
RESULT_TYPES = ("BoundaryCondition", "BoundaryInterval", "ExperimentRecord", "TrendSeries")
# AggregateSpec keeps its numbers as given; project_from_aggregates checks
# them when it reads the spec.
CHECKED_BY = {"AggregateSpec": "project_from_aggregates"}


def test_every_number_field_of_a_public_input_type_is_a_number_site():
    sites = []
    for name in defectcost.__all__:
        cls = getattr(defectcost, name)
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and name not in RESULT_TYPES:
            hints = typing.get_type_hints(cls)
            sites.extend(
                f"{CHECKED_BY.get(name, name)}.{field.name}"
                for field in dataclasses.fields(cls)
                if hints[field.name] in (int, float)
            )
    assert {f"ConfusionMatrix.{name}" for name in COUNTS} <= set(sites)
    assert [site for site in sites if site not in NUMBER_SITES] == []


# Public dataclasses without slots: they fill their __dict__ lazily with
# cached state (cached_property, Project.__getattr__, Prediction.__getattr__,
# classify).  Every other public dataclass is a slotted value object.
LAZY_TYPES = ("OutcomeSummary", "Prediction", "Project")
VALUE_TYPES = tuple(
    name
    for name in PUBLIC_NAMES
    if isinstance(cls := getattr(defectcost, name), type)
    and dataclasses.is_dataclass(cls)
    and name not in LAZY_TYPES
)


def _value_objects(project, outcome) -> dict:
    """One instance of each value type, by name, as the library builds it."""
    params = CostParams(c_ratio=2.0, p_qf=0.5)
    records = run_grid(project, GridConfig(accuracies=(0.5,), repetitions=1, seed=1))
    return {
        "AggregateSpec": summarize(project),
        "Artifact": project.artifacts[0],
        "BoundaryCondition": theorem_boundary(project, outcome, 0.5, params),
        "BoundaryInterval": boundary_interval(project, outcome, params, ALL_KINDS[0]),
        "ConfusionMatrix": outcome.cm,
        "CostParams": params,
        "Defect": project.defects[0],
        "ExperimentRecord": records[0],
        "GeneralCostInputs": induced_inputs(project, params),
        "GridConfig": GridConfig(),
        "ModelKind": ALL_KINDS[-1],
        "TrendSeries": trend(records, "precision", ALL_KINDS[0], "lower"),
    }


def _hash(value):
    """``hash(value)``, or ``TypeError`` for a value holding dicts (GeneralCostInputs)."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_value_objects_have_slots_and_no_dict(project_e, outcome_e):
    objects = _value_objects(project_e, outcome_e)
    assert sorted(objects) == list(VALUE_TYPES)
    for name, value in objects.items():
        assert type(value) is getattr(defectcost, name)
        assert "__slots__" in vars(type(value)), name
        assert not hasattr(value, "__dict__"), name


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_objects_round_trip(name, project_e, outcome_e):
    value = _value_objects(project_e, outcome_e)[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), dataclasses.replace(value)):
        assert type(twin) is type(value) and not hasattr(twin, "__dict__")
        assert twin == value and _hash(twin) == _hash(value)


def _held_bytes(build):
    """What ``build()`` returns, and the traced bytes it holds once built."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = build()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()
    return value, held


def test_an_artifact_takes_under_75_bytes():
    # 98.0 bytes with a __dict__, 57.8 slotted: the object, its tuple slot and its size
    project = project_from_aggregates(AggregateSpec("m", 20_000, 400, 300, 2.5, 100.0), 1)
    artifacts, held = _held_bytes(lambda: project.artifacts)
    assert held / len(artifacts) < 75


def test_an_iterated_record_takes_under_170_bytes():
    # 184.9 bytes with a __dict__, 133.6 slotted: the row view and the numbers it boxes
    table = run_grid(sample_corpus(2024)[0], GridConfig(accuracies=(0.5,), repetitions=20, seed=1))
    records, held = _held_bytes(lambda: list(table))
    assert held / len(records) < 170
