import copy
import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcost import (
    ALL_KINDS,
    SAMPLE_AGGREGATES,
    AggregateSpec,
    Artifact,
    ConfusionMatrix,
    CostParams,
    Defect,
    GridConfig,
    InputContractError,
    OutcomeSummary,
    Prediction,
    Project,
    Relationship,
    boundary_interval,
    classify,
    constant_prediction,
    cost_general,
    cost_init,
    cost_random,
    format_matrix,
    induced_inputs,
    parse_matrix,
    parse_prediction,
    perfect_prediction,
    precision,
    project_from_aggregates,
    project_view,
    recall,
    render_scatter,
    run_grid,
    sample_corpus,
    simulate_prediction,
    trend,
)

from . import matrix_reference
from .strategies import labeled_projects, projects, random_project

CM = ConfusionMatrix(tp=1, fp=0, tn=0, fn=0)

def split_by_mask(project):
    """(defective, clean) artifact ids as ``Project.defective_mask`` marks them."""
    mask = project.defective_mask
    assert mask.dtype == bool and mask.shape == (len(project.artifacts),)
    defective = frozenset(a.id for a, m in zip(project.artifacts, mask) if m)
    clean = frozenset(a.id for a, m in zip(project.artifacts, mask) if not m)
    return defective, clean


class TestPartition:
    def test_worked_example(self, project_e):
        defective, clean = split_by_mask(project_e)
        assert defective == {"s1", "s2"}
        assert clean == {"s3"}

    def test_no_defects(self):
        project = Project("p", (Artifact("a", 1), Artifact("b", 2)), ())
        defective, clean = split_by_mask(project)
        assert defective == frozenset()
        assert clean == {"a", "b"}

    def test_one_defect_covers_all(self):
        project = Project(
            "p",
            (Artifact("a", 1), Artifact("b", 2)),
            (Defect("d", frozenset({"a", "b"})),),
        )
        defective, clean = split_by_mask(project)
        assert defective == {"a", "b"}
        assert clean == frozenset()

    @given(projects())
    def test_partition_is_a_partition(self, project):
        defective, clean = split_by_mask(project)
        assert defective == frozenset(m for d in project.defects for m in d.members)
        assert defective & clean == frozenset()
        assert len(defective | clean) == len(project.artifacts)


class TestClassify:
    def test_worked_example(self, project_e, prediction_e):
        outcome = classify(project_e, prediction_e)
        assert outcome.cm == ConfusionMatrix(tp=1, fp=0, tn=1, fn=1)
        assert outcome.predicted_defects == {"d1"}
        assert outcome.missed_defects == {"d2"}
        assert outcome.predicted_artifacts == {"s1"}

    def test_predict_everything(self, project_e):
        outcome = classify(project_e, Prediction({"s1": 1, "s2": 1, "s3": 1}))
        assert outcome.cm == ConfusionMatrix(tp=2, fp=1, tn=0, fn=0)
        assert outcome.predicted_defects == {"d1", "d2"}
        assert outcome.missed_defects == frozenset()

    def test_predict_nothing(self, project_e):
        outcome = classify(project_e, Prediction({"s1": 0, "s2": 0, "s3": 0}))
        assert outcome.cm == ConfusionMatrix(tp=0, fp=0, tn=1, fn=2)
        assert outcome.predicted_defects == frozenset()
        assert outcome.missed_defects == {"d1", "d2"}

    def test_missing_label_names_artifact(self, project_e):
        with pytest.raises(InputContractError, match="s3"):
            classify(project_e, Prediction({"s1": 1, "s2": 0}))

    def test_extra_label_names_artifact(self, project_e):
        with pytest.raises(InputContractError, match="s4"):
            classify(project_e, Prediction({"s1": 1, "s2": 0, "s3": 0, "s4": 1}))

    @given(labeled_projects())
    def test_outcome_totality(self, case):
        project, prediction = case
        outcome = classify(project, prediction)
        assert outcome.cm.total == len(project.artifacts)
        all_ids = {d.id for d in project.defects}
        assert outcome.predicted_defects | outcome.missed_defects == all_ids
        assert outcome.predicted_defects & outcome.missed_defects == frozenset()

    @given(labeled_projects())
    def test_same_outcome_as_reference(self, case):
        project, prediction = case
        for relationship in Relationship:
            view = project_view(project, relationship)
            assert classify(view, prediction) == matrix_reference.classify(view, prediction)

    @pytest.mark.parametrize(
        "labels",
        [
            {"s1": 1, "s2": 0},
            {"s2": 0},
            {"s1": 1, "s2": 0, "s3": 0, "s4": 1, "s0": 0},
            {"s1": 1, "s2": 0, "zz": 0},
            {"s1": True, "s2": 1.0, "s3": np.int64(0)},
            {"s1": Fraction(1), "s2": np.bool_(False), "s3": np.float32(1)},
        ],
    )
    def test_same_labels_and_errors_as_reference(self, project_e, labels):
        def run(classify):
            try:
                return classify(project_e, Prediction(labels))
            except InputContractError as error:
                return str(error)

        assert run(classify) == run(matrix_reference.classify)

    @given(projects())
    def test_perfect_prediction_misses_nothing(self, project):
        for view in Relationship:
            viewed = project_view(project, view)
            outcome = classify(viewed, perfect_prediction(viewed))
            assert outcome.missed_defects == frozenset()
            assert outcome.cm.fp == 0 and outcome.cm.fn == 0


class TestProjectView:
    def test_one_to_m_expands_incidence_pairs(self, project_e):
        view = project_view(project_e, Relationship.ONE_TO_M)
        assert [d.id for d in view.defects] == ["d1#s1", "d2#s1", "d2#s2"]
        assert [sorted(d.members) for d in view.defects] == [["s1"], ["s1"], ["s2"]]
        assert view.artifacts == project_e.artifacts

    def test_one_to_one_labels_defective_artifacts(self, project_e):
        view = project_view(project_e, Relationship.ONE_TO_ONE)
        assert [d.id for d in view.defects] == ["s1", "s2"]
        assert all(len(d.members) == 1 for d in view.defects)

    def test_n_to_m_is_identity(self, project_e):
        assert project_view(project_e, Relationship.N_TO_M) == project_e

    def test_degenerate_data_views_coincide(self):
        project = Project(
            "p",
            (Artifact("a", 5), Artifact("b", 7), Artifact("c", 2)),
            (Defect("d0", frozenset({"a"})), Defect("d1", frozenset({"b"}))),
        )
        multisets = {
            view: sorted(tuple(sorted(d.members)) for d in project_view(project, view).defects)
            for view in Relationship
        }
        assert multisets[Relationship.N_TO_M] == multisets[Relationship.ONE_TO_M]
        assert multisets[Relationship.N_TO_M] == multisets[Relationship.ONE_TO_ONE]

    def test_one_to_m_shares_the_member_array(self, project_e):
        # the grid gathers each member array once for every view that reads it
        view = project_view(project_e, Relationship.ONE_TO_M)
        assert view._member_csr[0] is project_e._member_csr[0]

    def test_views_only_from_n_to_m(self, project_e):
        view = project_view(project_e, Relationship.ONE_TO_M)
        with pytest.raises(InputContractError):
            project_view(view, Relationship.ONE_TO_ONE)

    @given(projects())
    def test_view_counts(self, project):
        one_to_m = project_view(project, Relationship.ONE_TO_M)
        assert len(one_to_m.defects) == sum(len(d.members) for d in project.defects)
        one_to_one = project_view(project, Relationship.ONE_TO_ONE)
        assert len(one_to_one.defects) == int(project.defective_mask.sum())

    @given(labeled_projects())
    def test_single_member_defects_agree_across_views(self, case):
        project, prediction = case
        if any(len(d.members) > 1 for d in project.defects):
            return
        base = classify(project, prediction)
        one_to_m = classify(project_view(project, Relationship.ONE_TO_M), prediction)
        assert len(base.predicted_defects) == len(one_to_m.predicted_defects)
        assert len(base.missed_defects) == len(one_to_m.missed_defects)
        per_artifact = {}
        for d in project.defects:
            (member,) = d.members
            per_artifact[member] = per_artifact.get(member, 0) + 1
        if all(v == 1 for v in per_artifact.values()):
            one_to_one = classify(project_view(project, Relationship.ONE_TO_ONE), prediction)
            assert len(base.predicted_defects) == len(one_to_one.predicted_defects)
            assert len(base.missed_defects) == len(one_to_one.missed_defects)


class TestMetrics:
    def test_worked_example(self, outcome_e):
        assert precision(outcome_e.cm) == 1.0
        assert recall(outcome_e.cm) == 0.5

    def test_undefined_precision(self):
        assert precision(ConfusionMatrix(tp=0, fp=0, tn=3, fn=2)) is None

    def test_undefined_recall(self):
        assert recall(ConfusionMatrix(tp=0, fp=2, tn=3, fn=0)) is None

    def test_hand_computed(self):
        cm = ConfusionMatrix(tp=5, fp=5, tn=0, fn=15)
        assert precision(cm) == 0.5
        assert recall(cm) == 0.25


class TestInvariantEnforcement:
    def test_artifact_size_must_be_positive(self):
        with pytest.raises(InputContractError):
            Artifact("a", 0)

    @pytest.mark.parametrize("size", [2.5, 2.0, True])
    def test_artifact_size_must_be_an_integer(self, size):
        # a float or bool size would be written to matrix CSV as "2.5", "2.0"
        # or "True", which parse_matrix rejects, and would make QA sums inexact
        with pytest.raises(InputContractError, match="must be an integer"):
            Artifact("a", size)

    def test_defect_must_have_members(self):
        with pytest.raises(InputContractError):
            Defect("d", frozenset())

    @pytest.mark.parametrize("members", ["ab", None, 5, [["a"]]], ids=repr)
    def test_defect_members_must_be_a_collection_of_ids(self, members):
        # a str would otherwise be split into one member per character
        with pytest.raises(InputContractError, match="members of defect 'd1'"):
            Defect("d1", members)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Artifact(5, 1), "artifact id 5 must be a str"),
            (lambda: Artifact(None, 1), "artifact id None must be a str"),
            (lambda: Defect(5, frozenset({"a"})), "defect id 5 must be a str"),
            (lambda: Defect("d", ["a", 5]), "members of defect 'd' must be a set of str"),
            (lambda: Project(7, (), ()), "project id 7 must be a str"),
            (lambda: Project(["a"], (), ()), r"project id \['a'\] must be a str"),
            (lambda: Project(10**5000, (), ()), "project id an integer of 16610 bits"),
            (lambda: parse_matrix("file,loc\na,1\n", project_id=7), "project id 7 must be a str"),
            (lambda: Project("p", (), (), relationship="1-1"),
             "relationship must be a Relationship, got '1-1'"),
            (lambda: project_view(Project("p", (), ()), "1-1"),
             "target must be a Relationship, got '1-1'"),
            (lambda: trend([], "precision", "x", "lower"), "kind must be a ModelKind, got 'x'"),
            (lambda: render_scatter([], "precision", "x"), "kind must be a ModelKind, got 'x'"),
            (lambda: Defect("d", 10**5000),
             "members of defect 'd' must be a set of str artifact ids, got an integer of 16610"),
            (lambda: OutcomeSummary(None, (), (), ()), "cm must be a ConfusionMatrix, got None"),
            (lambda: OutcomeSummary(CM, (), (), "s1"),
             "predicted_artifacts must be a set of str artifact ids, got 's1'"),
            (lambda: OutcomeSummary(CM, [1], (), ()),
             r"predicted_defects must be a set of str defect ids, got \[1\]"),
            (lambda: OutcomeSummary(CM, (), None, ()),
             "missed_defects must be a set of str defect ids, got None"),
            (lambda: run_grid(5, GridConfig()), "project must be a Project, got 5"),
            (lambda: run_grid(Project("p", (), ()), 5), "config must be a GridConfig, got 5"),
            (lambda: simulate_prediction(5, 0.5, 1), "project must be a Project, got 5"),
            (lambda: project_view(5, Relationship.ONE_TO_M), "project must be a Project, got 5"),
        ],
        ids=["artifact", "artifact-none", "defect", "member", "project", "unhashable-project",
             "huge-project", "parsed-project", "relationship", "view-target", "trend-kind",
             "scatter-kind", "huge-members", "outcome-cm", "outcome-artifacts",
             "outcome-predicted", "outcome-missed", "grid-project", "grid-config",
             "simulated-project", "view-project"],
    )
    def test_ids_must_be_str(self, build, message):
        # the writers and records rely on it: format_matrix and emit_records
        # no longer test the type of an id; an enum argument is checked the same way,
        # and so are the confusion matrix and id sets of a hand-built outcome and the
        # project and config that the grid path reads
        with pytest.raises(InputContractError, match=message):
            build()

    def test_duplicate_artifact_ids_rejected(self):
        with pytest.raises(InputContractError, match="duplicate"):
            Project("p", (Artifact("a", 1), Artifact("a", 2)), ())

    def test_duplicate_defect_ids_rejected(self):
        with pytest.raises(InputContractError, match="duplicate defect id 'd' in project 'p'"):
            Project("p", (Artifact("a", 1),), (Defect("d", {"a"}), Defect("d", {"a"})))

    def test_unknown_member_rejected(self):
        with pytest.raises(InputContractError, match="unknown"):
            Project("p", (Artifact("a", 1),), (Defect("d", frozenset({"zz"})),))

    def test_single_member_required_in_derived_views(self):
        with pytest.raises(InputContractError):
            Project(
                "p",
                (Artifact("a", 1), Artifact("b", 1)),
                (Defect("d", frozenset({"a", "b"})),),
                relationship=Relationship.ONE_TO_M,
            )

    def test_one_to_one_forbids_shared_artifacts(self):
        with pytest.raises(InputContractError):
            Project(
                "p",
                (Artifact("a", 1),),
                (Defect("d0", frozenset({"a"})), Defect("d1", frozenset({"a"}))),
                relationship=Relationship.ONE_TO_ONE,
            )

    def test_prediction_labels_binary(self):
        with pytest.raises(InputContractError, match="label for artifact 'a' must be 0 or 1, got 2"):
            Prediction({"a": 2})

    @pytest.mark.parametrize("labels", [[1, 2], None, "ab", [("a", 1)]])
    def test_prediction_labels_must_be_a_mapping(self, labels):
        with pytest.raises(InputContractError, match="labels must be a mapping"):
            Prediction(labels)

    def test_constant_label_checked_without_artifacts(self):
        for project in (Project("p", (), ()), Project("q", (Artifact("a", 1),), ())):
            with pytest.raises(InputContractError, match="must be 0 or 1"):
                constant_prediction(project, 7)

    @pytest.mark.parametrize("sizes", [[2**53, 1], [2**70], [7, 2**53 - 7, 1]])
    def test_total_size_at_most_2_53(self, sizes):
        artifacts = tuple(Artifact(f"a{i}", size) for i, size in enumerate(sizes))
        with pytest.raises(InputContractError, match="total size above 2\\^53"):
            Project("p", artifacts, ())
        assert Project("p", (Artifact("a", 2**53 - 1), Artifact("b", 1)), ()).sizes.sum() == 2**53

    def test_generated_total_size_at_most_2_53(self):
        with pytest.raises(InputContractError, match="total size above 2\\^53"):
            project_from_aggregates(AggregateSpec("big", 2, 0, 0, 0.0, 2.0**60))



class TestCheckedLabels:
    @settings(max_examples=40, deadline=None)
    @given(labeled_projects(), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    def test_library_predictions_equal_checked_ones(self, case, accuracy, seed):
        project, prediction = case
        file_ids = [a.id for a in project.artifacts]
        text = "file,label\n" + "".join(f"{i},{v}\n" for i, v in prediction.labels.items())
        defective = {m for d in project.defects for m in d.members}
        cases = [
            (simulate_prediction(project, accuracy, seed), None),
            (perfect_prediction(project), {i: int(i in defective) for i in file_ids}),
            (parse_prediction(text, project), prediction.labels),
            (constant_prediction(project, 0), dict.fromkeys(file_ids, 0)),
            (constant_prediction(project, 1), dict.fromkeys(file_ids, 1)),
        ]
        for result, labels in cases:
            assert type(result) is Prediction
            assert result == Prediction(result.labels if labels is None else labels)
            assert sorted(result.labels) == sorted(file_ids)
            assert all(type(label) is int for label in result.labels.values())

    def test_public_constructor_copies(self):
        labels = {"a": 1, "b": 0}
        prediction = Prediction(labels)
        labels["a"] = 0
        labels["c"] = 2
        assert prediction.labels == {"a": 1, "b": 0}


def _rows(labels: dict) -> str:
    return "file,label\n" + "".join(f"{i},{v}\n" for i, v in labels.items())


# One prediction from each constructor, built fresh for every check: the name,
# then a function of the project.
PREDICTIONS = {
    "parse_prediction in order": lambda p: parse_prediction(
        _rows(simulate_prediction(p, 0.6, 3).labels), p
    ),
    "parse_prediction shuffled": lambda p: parse_prediction(
        _rows(dict(reversed(simulate_prediction(p, 0.6, 3).labels.items()))), p
    ),
    "simulate_prediction": lambda p: simulate_prediction(p, 0.6, 3),
    "perfect_prediction": perfect_prediction,
    "constant_prediction": lambda p: constant_prediction(p, 1),
    "Prediction": lambda p: Prediction(simulate_prediction(p, 0.6, 3).labels),
}


class TestMaskedPredictions:
    """A prediction held as a mask over the project's files acts as ``Prediction(labels)``."""

    @pytest.fixture
    def project(self):
        return random_project(np.random.default_rng(8), max_artifacts=40, name="rt")

    @pytest.mark.parametrize("build", PREDICTIONS.values(), ids=PREDICTIONS.keys())
    def test_equals_the_checked_prediction(self, build, project):
        prediction = build(project)
        twin = Prediction(prediction.labels)
        assert prediction == twin and twin == prediction
        assert repr(prediction) == repr(twin)
        assert list(prediction.labels.items()) == list(twin.labels.items())
        assert all(type(label) is int for label in prediction.labels.values())
        with pytest.raises(TypeError):
            hash(prediction)

    @pytest.mark.parametrize("build", PREDICTIONS.values(), ids=PREDICTIONS.keys())
    def test_pickles_and_copies_hold_the_labels_alone(self, build, project):
        pickled = pickle.dumps(build(project))
        assert pickled == pickle.dumps(Prediction(build(project).labels))
        for twin in (
            pickle.loads(pickled),
            copy.copy(build(project)),
            copy.deepcopy(build(project)),
            dataclasses.replace(build(project)),
        ):
            assert type(twin) is Prediction and twin == build(project)
            assert vars(twin).keys() == {"labels"}

    @pytest.mark.parametrize("build", PREDICTIONS.values(), ids=PREDICTIONS.keys())
    def test_the_mask_is_read_only(self, build, project):
        prediction = build(project)
        if prediction._file_ids is None:  # Prediction(...) holds no mask
            assert "_mask" not in vars(prediction)
            return
        assert prediction._file_ids is project._file_ids
        assert not prediction._mask.flags.writeable
        with pytest.raises(ValueError):
            prediction._mask[0] = not prediction._mask[0]

    @pytest.mark.parametrize("build", PREDICTIONS.values(), ids=PREDICTIONS.keys())
    def test_equal_file_ids_classify_through_the_labels(self, build, project):
        """A project whose file-id tuple is equal, not the same, reads the labels dict."""
        twin = Project._from_arrays(
            project.id,
            project.relationship,
            tuple(list(project._file_ids)),
            project.sizes,
            *project._member_csr,
            _defect_ids=project._defect_ids,
        )
        assert twin._file_ids == project._file_ids and twin._file_ids is not project._file_ids
        expected = classify(project, build(project))
        prediction = build(project)
        outcome = classify(twin, prediction)
        assert "labels" in vars(prediction)
        for name in ("cm", "predicted_defects", "missed_defects", "predicted_artifacts"):
            assert getattr(outcome, name) == getattr(expected, name)

    @pytest.mark.parametrize("target", Relationship)
    def test_classify_reads_the_mask_on_any_view(self, target, project):
        prediction = simulate_prediction(project, 0.6, 3)
        view = project_view(project, target)
        outcome = classify(view, prediction)
        assert "labels" not in vars(prediction) and outcome._picked is prediction._mask
        assert outcome == classify(view, Prediction(prediction.labels))


def same_project(built, reference):
    """``==`` both ways, equal hashes and equal reprs."""
    assert built == reference and reference == built
    assert hash(built) == hash(reference)
    assert repr(built) == repr(reference)


class TestArrayBuilt:
    """Projects, views and outcomes built from arrays against objects.

    ``matrix_reference`` builds every view and outcome from the ``Artifact``
    and ``Defect`` objects; the projects here are array-built by
    ``parse_matrix`` and ``project_view``.
    """

    @given(labeled_projects())
    def test_views_and_outcomes_match_reference(self, case):
        project, prediction = case
        parsed = parse_matrix(format_matrix(project), project_id=project.id)
        same_project(parsed, project)
        for relationship in Relationship:
            expected = matrix_reference.project_view(project, relationship)
            reference_outcome = matrix_reference.classify(expected, prediction)
            for source in (project, parsed):
                view = project_view(source, relationship)
                same_project(view, expected)
                assert [d.id for d in view.defects] == [d.id for d in expected.defects]
                outcome = classify(view, prediction)
                assert outcome.cm == reference_outcome.cm
                assert outcome.predicted_artifacts == reference_outcome.predicted_artifacts
                assert outcome.predicted_defects == reference_outcome.predicted_defects
                assert outcome.missed_defects == reference_outcome.missed_defects
                assert outcome == reference_outcome
                assert hash(outcome) == hash(reference_outcome)
                assert repr(outcome) == repr(reference_outcome)

    def test_generated_projects_equal_constructed(self, rng):
        spec = next(s for s in SAMPLE_AGGREGATES if s.name == "falcon")
        for project in (project_from_aggregates(spec, seed=7), random_project(rng)):
            same_project(project, Project(project.id, project.artifacts, project.defects))

    def test_arrays_are_read_only(self, project_e):
        for project in (project_e, project_view(project_e, Relationship.ONE_TO_M)):
            for array in (project.sizes, project.defective_mask, *project._member_csr):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_outcome_priced_on_another_project(self, project_e, prediction_e, outcome_e):
        params = CostParams(c_ratio=10.0, p_qf=0.25)
        # an outcome made on another project is priced through its ids: the
        # same artifacts in another order
        shuffled = Project("E", project_e.artifacts[::-1], project_e.defects)
        kind = ALL_KINDS[0]
        assert cost_init(shuffled, outcome_e, params, kind) == cost_init(
            project_e, outcome_e, params, kind
        )
        # a view of the same artifacts, with other defects
        for kind in ALL_KINDS[1:3]:
            view = project_view(project_e, kind.relationship)
            assert cost_init(view, outcome_e, params, kind) == cost_init(
                view, classify(view, prediction_e), params, kind
            )


def count_built(monkeypatch) -> list:
    """From now on, every ``Artifact`` and ``Defect`` built is appended to the list returned."""
    built = []
    for cls in (Artifact, Defect):
        check = cls.__post_init__

        def counted(self, check=check):
            built.append(self)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


class TestObjectFreePath:
    def test_single_prediction_path_builds_no_objects(self, monkeypatch):
        """The single-prediction path runs on arrays: no ``Artifact`` or ``Defect`` is built."""
        spec = next(s for s in SAMPLE_AGGREGATES if s.name == "cayenne")
        project = project_from_aggregates(spec, seed=2024)
        matrix = format_matrix(project)
        labels = simulate_prediction(project, 0.6, 12345).labels
        prediction = "file,label\n" + "".join(f"{f},{label}\n" for f, label in labels.items())
        built = count_built(monkeypatch)
        parsed = parse_matrix(matrix, project_id=spec.name)
        for kind in ALL_KINDS:
            view = project_view(parsed, kind.relationship)
            outcome = classify(view, parse_prediction(prediction, view))
            params = CostParams(c_ratio=10.0, p_qf=0.5, qa_mode=kind.qa_mode)
            cost_init(view, outcome, params, kind)
            cost_random(view, 0.0, params)
            cost_random(view, 1.0, params)
            boundary_interval(view, outcome, params, kind)
            cost_general(view, outcome, induced_inputs(view, params))
        assert built == []
        # the objects are still there when asked for, and counted
        assert len(parsed.artifacts) == spec.n_artifacts and len(built) == spec.n_artifacts

    def test_grid_path_builds_no_objects(self, monkeypatch):
        """``run_grid`` on a corpus project builds no ``Artifact`` or ``Defect``."""
        project = sample_corpus(seed=2024)[1]
        built = count_built(monkeypatch)
        records = run_grid(project, GridConfig(accuracies=(0.3, 0.8), repetitions=3, seed=5))
        assert len(records) == 2 * 3 * 2 * 6
        assert built == []
