import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from defectcost import (
    ALL_KINDS,
    Artifact,
    CostParams,
    Defect,
    GeneralCostInputs,
    InputContractError,
    ModelKind,
    OutcomeSummary,
    Prediction,
    Project,
    QAMode,
    Relationship,
    classify,
    constant_prediction,
    cost_general,
    cost_init,
    cost_random,
    induced_inputs,
    project_view,
)
from defectcost.costs import qa_cost_vector

from . import cost_reference
from .strategies import (
    distinct_cardinalities, drift_bound, priced_cases, random_prediction, random_project,
)

CONST_NM = ModelKind(QAMode.CONSTANT, Relationship.N_TO_M)


def unit_inputs(project, loss=10.0, qf=0.0):
    return GeneralCostInputs(
        qa_costs={a.id: 1.0 for a in project.artifacts},
        losses={d.id: loss for d in project.defects},
        qf_values={d.id: qf for d in project.defects},
    )


def qa_failure(p_qf, cardinality):
    """qf of one defect over ``cardinality`` artifacts, as ``induced_inputs`` gives it."""
    artifacts = tuple(Artifact(f"f{i}", 1) for i in range(cardinality))
    project = Project("qf", artifacts, (Defect("d", frozenset(a.id for a in artifacts)),))
    return induced_inputs(project, CostParams(p_qf=p_qf)).qf_values["d"]


class TestQaFailure:
    def test_perfect_qa(self):
        assert qa_failure(0.0, 1) == 0.0
        assert qa_failure(0.0, 7) == 0.0

    def test_single_artifact_collapses(self):
        assert qa_failure(0.5, 1) == 0.5

    def test_two_artifacts(self):
        assert qa_failure(0.5, 2) == 0.75

    @given(
        st.floats(0.0, 0.99), st.floats(0.0, 0.99), st.integers(1, 50), st.integers(1, 50)
    )
    def test_monotone_in_both_arguments(self, p1, p2, k1, k2):
        if p1 > p2:
            p1, p2 = p2, p1
        if k1 > k2:
            k1, k2 = k2, k1
        assert qa_failure(p1, k1) <= qa_failure(p2, k1) + 1e-15
        assert qa_failure(p1, k1) <= qa_failure(p1, k2) + 1e-15


class TestCostGeneral:
    def test_worked_example(self, project_e, outcome_e):
        assert cost_general(project_e, outcome_e, unit_inputs(project_e)) == 11.0

    def test_imperfect_qa_on_predicted_defect(self, project_e, outcome_e):
        inputs = GeneralCostInputs(
            qa_costs={a.id: 1.0 for a in project_e.artifacts},
            losses={"d1": 10.0, "d2": 10.0},
            qf_values={"d1": 0.5, "d2": 0.0},
        )
        assert cost_general(project_e, outcome_e, inputs) == 16.0

    def test_predict_nothing_pays_all_losses(self, project_e):
        outcome = classify(project_e, constant_prediction(project_e, 0))
        inputs = unit_inputs(project_e, loss=7.0)
        assert cost_general(project_e, outcome, inputs) == 14.0

    def test_overheads_are_added(self, project_e, outcome_e):
        inputs = GeneralCostInputs(
            qa_costs={a.id: 1.0 for a in project_e.artifacts},
            losses={d.id: 10.0 for d in project_e.defects},
            qf_values={d.id: 0.0 for d in project_e.defects},
            c_init=3.0,
            c_exec=2.5,
        )
        assert cost_general(project_e, outcome_e, inputs) == 16.5

    def test_missing_entry_names_id(self, project_e, outcome_e):
        inputs = unit_inputs(project_e)
        broken = GeneralCostInputs(
            qa_costs={"s1": 1.0, "s2": 1.0},
            losses=inputs.losses,
            qf_values=inputs.qf_values,
        )
        with pytest.raises(InputContractError, match="s3"):
            cost_general(project_e, outcome_e, broken)
        broken = GeneralCostInputs(
            qa_costs=inputs.qa_costs, losses={"d1": 1.0}, qf_values=inputs.qf_values
        )
        with pytest.raises(InputContractError, match="d2"):
            cost_general(project_e, outcome_e, broken)
        broken = GeneralCostInputs(
            qa_costs=inputs.qa_costs, losses=inputs.losses, qf_values={"d1": 0.5}
        )
        with pytest.raises(InputContractError, match="missing qf value for defect 'd2'"):
            cost_general(project_e, outcome_e, broken)

    def test_hand_built_outcome_hits_come_from_predicted_artifacts(self, project_e, outcome_e):
        # s1 alone predicted: d1 is hit and d2 missed, whatever the id sets say
        claimed = OutcomeSummary(
            outcome_e.cm, frozenset({"d1", "d2"}), frozenset(), frozenset({"s1"})
        )
        inputs = unit_inputs(project_e)
        assert cost_general(project_e, claimed, inputs) == 11.0

    def test_hand_built_outcome_naming_unknown_artifact(self, project_e, outcome_e):
        outcome = OutcomeSummary(outcome_e.cm, frozenset(), frozenset({"d1"}), frozenset({"zz"}))
        params = CostParams()
        with pytest.raises(InputContractError, match="unknown artifact 'zz' in outcome"):
            cost_init(project_e, outcome, params, ALL_KINDS[0])
        with pytest.raises(InputContractError, match="unknown artifact 'zz' in outcome"):
            cost_general(project_e, outcome, unit_inputs(project_e))


class TestCostInit:
    def test_constant_n_to_m(self, project_e, outcome_e):
        params = CostParams(c_ratio=10.0, p_qf=0.0)
        assert cost_init(project_e, outcome_e, params, CONST_NM) == 11.0

    def test_constant_n_to_m_imperfect_qa(self, project_e, outcome_e):
        params = CostParams(c_ratio=10.0, p_qf=0.5)
        assert cost_init(project_e, outcome_e, params, CONST_NM) == 16.0

    def test_size_aware_n_to_m(self, project_e, outcome_e):
        params = CostParams(c_ratio=10.0, qa_mode=QAMode.SIZE_AWARE)
        kind = ModelKind(QAMode.SIZE_AWARE, Relationship.N_TO_M)
        assert cost_init(project_e, outcome_e, params, kind) == 110.0

    def test_wrong_view_rejected(self, project_e, outcome_e):
        params = CostParams(c_ratio=10.0)
        kind = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_M)
        with pytest.raises(InputContractError, match="view"):
            cost_init(project_e, outcome_e, params, kind)

    def test_mismatched_qa_mode_rejected(self, project_e, outcome_e):
        params = CostParams(c_ratio=10.0, qa_mode=QAMode.SIZE_AWARE)
        with pytest.raises(InputContractError, match="qa_mode"):
            cost_init(project_e, outcome_e, params, CONST_NM)

    def test_matches_general_model_on_all_six_kinds(self, rng):
        for _ in range(50):
            project = random_project(rng)
            prediction = random_prediction(project, rng)
            c = float(rng.uniform(0.1, 50.0))
            p_qf = float(rng.uniform(0.0, 0.95))
            ci = float(rng.uniform(0.0, 5.0))
            ce = float(rng.uniform(0.0, 5.0))
            for kind in ALL_KINDS:
                params = CostParams(
                    c_ratio=c, p_qf=p_qf, c_init=ci, c_exec=ce, qa_mode=kind.qa_mode
                )
                view = project_view(project, kind.relationship)
                outcome = classify(view, prediction)
                closed_form = cost_init(view, outcome, params, kind)
                general = cost_general(view, outcome, induced_inputs(view, params))
                assert closed_form == pytest.approx(general, abs=1e-12 * max(1.0, general))

    def test_perfect_qa_drops_predicted_defect_term(self, project_e, outcome_e):
        params = CostParams(c_ratio=123.0, p_qf=0.0)
        qa_spent = outcome_e.cm.tp + outcome_e.cm.fp
        missed = len(outcome_e.missed_defects) * params.c_ratio
        assert cost_init(project_e, outcome_e, params, CONST_NM) == qa_spent + missed

    def test_affine_in_cost_ratio(self, project_e, outcome_e):
        p_qf = 0.3
        slope = len(outcome_e.missed_defects) + sum(
            cost_reference.qa_failure(p_qf, len(d.members))
            for d in project_e.defects
            if d.id in outcome_e.predicted_defects
        )
        c1, c2 = 2.0, 9.0
        cost1 = cost_init(project_e, outcome_e, CostParams(c_ratio=c1, p_qf=p_qf), CONST_NM)
        cost2 = cost_init(project_e, outcome_e, CostParams(c_ratio=c2, p_qf=p_qf), CONST_NM)
        assert cost2 - cost1 == pytest.approx(slope * (c2 - c1), abs=1e-12)
        assert slope >= 0

    def test_degeneration_across_views(self, rng):
        # every defect touches exactly one artifact, some artifacts twice
        project = Project(
            "deg",
            tuple(Artifact(f"f{i}", int(s)) for i, s in enumerate(rng.integers(1, 90, 6))),
            (
                Defect("d0", frozenset({"f0"})),
                Defect("d1", frozenset({"f0"})),
                Defect("d2", frozenset({"f3"})),
            ),
        )
        prediction = random_prediction(project, rng)
        for qa_mode in QAMode:
            params = CostParams(c_ratio=7.5, p_qf=0.4, qa_mode=qa_mode)
            costs = {}
            for relationship in (Relationship.N_TO_M, Relationship.ONE_TO_M):
                view = project_view(project, relationship)
                outcome = classify(view, prediction)
                costs[relationship] = cost_init(
                    view, outcome, params, ModelKind(qa_mode, relationship)
                )
            assert costs[Relationship.N_TO_M] == pytest.approx(
                costs[Relationship.ONE_TO_M], abs=1e-12
            )


class TestOverflow:
    def test_initialized_costs_raise_on_overflow(self):
        # two one-file defects at 1e308 each, both missed: the sum exceeds a float
        artifacts = (Artifact("a", 1), Artifact("b", 1))
        defects = (Defect("d1", frozenset({"a"})), Defect("d2", frozenset({"b"})))
        project = Project("o", artifacts, defects)
        outcome = classify(project, constant_prediction(project, 0))
        params = CostParams(c_ratio=1e308)
        with pytest.raises(OverflowError, match="overflow"):
            cost_init(project, outcome, params, CONST_NM)
        with pytest.raises(OverflowError, match="overflow"):
            cost_random(project, 0.0, params)

    def test_general_cost_raises_on_overflow(self):
        # each sum is finite alone: QA spent on b is 1e308, the loss of the missed d1 1e308
        artifacts = (Artifact("a", 1), Artifact("b", 1))
        project = Project("o", artifacts, (Defect("d1", frozenset({"a"})),))
        outcome = classify(project, Prediction({"a": 0, "b": 1}))
        inputs = GeneralCostInputs({"a": 1.0, "b": 1e308}, {"d1": 1e308}, {"d1": 0.0})
        with pytest.raises(OverflowError, match="the cost overflows a float"):
            cost_general(project, outcome, inputs)


class TestCostRandom:
    def test_no_qa_pays_every_defect(self, project_e):
        params = CostParams(c_ratio=10.0)
        assert cost_random(project_e, 0.0, params) == 20.0

    def test_full_qa_with_perfect_qa(self, project_e):
        params = CostParams(c_ratio=10.0, p_qf=0.0)
        assert cost_random(project_e, 1.0, params) == 3.0

    def test_half_qa_hand_value(self, project_e):
        params = CostParams(c_ratio=10.0, p_qf=0.0)
        assert cost_random(project_e, 0.5, params) == 14.0

    def test_endpoints_general(self, rng):
        for _ in range(25):
            project = random_project(rng)
            c = float(rng.uniform(0.5, 20.0))
            p_qf = float(rng.uniform(0.0, 0.9))
            for qa_mode in QAMode:
                params = CostParams(c_ratio=c, p_qf=p_qf, qa_mode=qa_mode)
                nothing = cost_random(project, 0.0, params)
                assert nothing == pytest.approx(len(project.defects) * c, abs=1e-12)
                everything = cost_random(project, 1.0, params)
                qa_total = (
                    float(project.sizes.sum())
                    if qa_mode is QAMode.SIZE_AWARE
                    else len(project.artifacts)
                )
                escaped = sum(
                    cost_reference.qa_failure(p_qf, len(d.members)) * c
                    for d in project.defects
                )
                assert everything == pytest.approx(qa_total + escaped, abs=1e-9)

    def test_p_qa_out_of_range(self, project_e):
        with pytest.raises(InputContractError):
            cost_random(project_e, 1.5, CostParams())


class TestParamValidation:
    def test_c_ratio_positive(self):
        with pytest.raises(InputContractError):
            CostParams(c_ratio=0.0)

    def test_p_qf_below_one(self):
        with pytest.raises(InputContractError):
            CostParams(p_qf=1.0)

    def test_overheads_non_negative(self):
        with pytest.raises(InputContractError):
            CostParams(c_init=-1.0)

    @pytest.mark.parametrize("name", ["c_ratio", "p_qf", "c_init", "c_exec"])
    @pytest.mark.parametrize("value", ["1", None, True])
    def test_scalars_are_numbers(self, name, value):
        with pytest.raises(InputContractError, match=name):
            CostParams(**{name: value})

    def test_qa_mode_is_a_qa_mode(self):
        with pytest.raises(InputContractError, match="qa_mode"):
            CostParams(qa_mode="size")

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("x", Relationship.N_TO_M), "qa_mode must be a QAMode, got 'x'"),
            (("const", Relationship.N_TO_M), "qa_mode must be a QAMode, got 'const'"),
            ((QAMode.CONSTANT, "n-m"), "relationship must be a Relationship, got 'n-m'"),
            ((Relationship.N_TO_M, QAMode.CONSTANT), "qa_mode must be a QAMode"),
        ],
    )
    def test_model_kind_fields_are_checked(self, fields, message):
        with pytest.raises(InputContractError, match=message):
            ModelKind(*fields)

    @pytest.mark.parametrize("name", ["c_ratio", "c_init", "c_exec"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scalars_finite(self, name, value):
        with pytest.raises(InputContractError, match=name):
            CostParams(**{name: value})

    @pytest.mark.parametrize("name", ["c_ratio", "c_init", "c_exec"])
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
    )
    def test_integers_too_large_for_a_float(self, name, value):
        with pytest.raises(InputContractError, match=f"{name} must be a finite number"):
            CostParams(**{name: value})


class TestAgainstReference:
    """The kernel-based costs against the per-view routes in ``cost_reference``."""

    def test_general_model_bitwise(self, rng):
        """``induced_inputs`` and ``cost_general`` against the object-walking routes, for
        outcomes classified on the view priced, on an equal view built apart (its
        artifacts reversed), and built by hand from a classified outcome's id sets."""
        for view, outcome, params, _ in priced_cases(rng, 300):
            inputs = induced_inputs(view, params)
            assert repr(inputs) == repr(cost_reference.induced_inputs(view, params))
            twin = Project(view.id, view.artifacts[::-1], view.defects, view.relationship)
            picked = outcome.predicted_artifacts
            prediction = Prediction({f: int(f in picked) for f in view._file_ids})
            by_hand = OutcomeSummary(
                outcome.cm,
                outcome.predicted_defects,
                outcome.missed_defects,
                outcome.predicted_artifacts,
            )
            for priced in (outcome, classify(twin, prediction), by_hand):
                cost = cost_general(view, priced, inputs)
                assert repr(cost) == repr(cost_reference.cost_general(view, priced, inputs))

    def test_cost_random_bitwise(self, rng):
        """Bitwise where the escape-weight sum has one term (K <= 1 distinct defect
        cardinalities, as in every 1-m and 1-1 view): n_1 times a term rounds as
        the fsum of n_1 copies of it does.  Otherwise the sum over k rounds each
        term at most K times and the reference's fsum once, and one addition
        follows in both: K + 1 against 2 roundings."""
        for view, _, params, _ in priced_cases(rng, 500):
            k = distinct_cardinalities(view)
            for p_qa in (0.0, 1.0, float(rng.uniform(0.0, 1.0))):
                cost = cost_random(view, p_qa, params)
                reference = cost_reference.cost_random(view, p_qa, params)
                if k <= 1:
                    assert cost == reference
                else:
                    assert abs(cost - reference) <= drift_bound(k + 1, 2) * reference

    def test_cost_init(self, rng):
        for view, outcome, params, kind in priced_cases(rng, 500):
            cost = cost_init(view, outcome, params, kind)
            reference = cost_reference.cost_init(view, outcome, params, kind)
            k = distinct_cardinalities(view)
            if kind.relationship is Relationship.N_TO_M and k <= 1:
                assert cost == reference
            elif kind.relationship is Relationship.N_TO_M:
                # the escaped sum: K roundings against the reference's fsum's
                # one, then a product by c_ratio and two additions in both
                assert abs(cost - reference) <= drift_bound(k + 3, 4) * reference
            else:
                # the old 1-m and 1-1 routes priced an escape as p_qf, the
                # kernel as 1 - (1 - p_qf), which rounding 1 - p_qf moves by
                # up to 2^-54 per predicted defect: c_ratio times that at most
                hits = len(outcome.predicted_defects)
                assert abs(cost - reference) <= 1e-15 * (reference + params.c_ratio * hits)


def _exact_cost_init(view, outcome, params, sign=-1):
    """Exact rational ``cost_init`` on the same float inputs; with ``sign`` 1, its scale.

    The escape weights are exact powers of the float 1 - p_qf, the base every
    route uses.  The scale is the same expression with every term taken
    positive: each 1 - x taken as 1 + x."""
    keep, c = Fraction(1.0 - params.p_qf), Fraction(params.c_ratio)
    qa = qa_cost_vector(view, params.qa_mode)
    spent = sum(int(q) for a, q in zip(view.artifacts, qa) if a.id in outcome.predicted_artifacts)
    cost = Fraction(params.c_init) + Fraction(params.c_exec) + spent
    for d in view.defects:
        hit = d.id in outcome.predicted_defects
        cost += c * (1 + sign * keep ** len(d.members)) if hit else c
    return cost


def _exact_cost_random(view, p_qa, params, sign=-1):
    """Exact rational ``cost_random`` on the same float inputs; with ``sign`` 1, its
    scale, as for ``_exact_cost_init``."""
    keep, p, c = Fraction(1.0 - params.p_qf), Fraction(p_qa), Fraction(params.c_ratio)
    cost = p * int(qa_cost_vector(view, params.qa_mode).sum())
    for d in view.defects:
        weight, covered = keep ** len(d.members), p ** len(d.members)
        cost += (1 + sign * covered) * c + covered * (1 + sign * weight) * c
    return cost


class TestExactArithmetic:
    """The initialized costs against exact rational arithmetic on the same float inputs.

    As for the boundaries (``TestExactArithmetic`` in tests/test_boundaries.py),
    each cost is within 1e-15 of the exact value, relative to the same
    expression with every term taken positive.  Plain relative error is not
    bounded so: where p_qf is small, the rounding of the float w(d) itself is
    large against 1 - w(d) (2.3e-15 of a cost at p_qf 0.0016)."""

    def test_cost_init(self, rng):
        for view, outcome, params, kind in priced_cases(rng, 250):
            cost = Fraction(cost_init(view, outcome, params, kind))
            exact = _exact_cost_init(view, outcome, params)
            assert abs(cost - exact) <= Fraction(1e-15) * _exact_cost_init(view, outcome, params, 1)

    def test_cost_random(self, rng):
        for view, _, params, _ in priced_cases(rng, 250):
            for p_qa in (0.0, 1.0, float(rng.uniform(0.0, 1.0))):
                cost = Fraction(cost_random(view, p_qa, params))
                exact = _exact_cost_random(view, p_qa, params)
                scale = _exact_cost_random(view, p_qa, params, 1)
                assert abs(cost - exact) <= Fraction(1e-15) * scale
