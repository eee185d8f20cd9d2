import math
from fractions import Fraction

import pytest

from defectcost import (
    ALL_KINDS,
    Artifact,
    BoundKind,
    CostParams,
    Defect,
    GridConfig,
    InputContractError,
    ModelKind,
    Prediction,
    Project,
    QAMode,
    Relationship,
    boundary_interval,
    classify,
    constant_prediction,
    cost_general,
    cost_random,
    induced_inputs,
    lower_boundary,
    perfect_prediction,
    precision,
    project_view,
    run_grid,
    theorem_boundary,
    upper_boundary,
)
from defectcost.costs import qa_cost_vector

from . import cost_reference
from .strategies import (
    distinct_cardinalities, drift_bound, priced_cases, random_prediction, random_project,
)

CONST = CostParams()
CONST_NM = ModelKind(QAMode.CONSTANT, Relationship.N_TO_M)


class TestTheoremBoundary:
    def test_hand_computed_half_random(self, project_e, outcome_e):
        condition = theorem_boundary(project_e, outcome_e, 0.5, CONST)
        assert condition.defect_coeff == pytest.approx(-0.25, abs=1e-15)
        assert condition.qa_margin == pytest.approx(0.5, abs=1e-15)
        assert condition.kind is BoundKind.LOWER_BOUND
        assert condition.threshold == pytest.approx(-2.0, abs=1e-15)
        # a negative lower threshold means every positive ratio is profitable
        assert condition.allows(0.001) and condition.allows(1e9)

    def test_p_qa_zero_reduces_to_lower_boundary(self, project_e, outcome_e):
        condition = theorem_boundary(project_e, outcome_e, 0.0, CONST)
        assert condition.kind is BoundKind.LOWER_BOUND
        assert condition.threshold == lower_boundary(project_e, outcome_e, CONST)

    def test_p_qa_one_reduces_to_upper_boundary(self, project_e, outcome_e):
        condition = theorem_boundary(project_e, outcome_e, 1.0, CONST)
        assert condition.kind is BoundKind.UPPER_BOUND
        assert condition.threshold == upper_boundary(project_e, outcome_e, CONST)

    def test_sign_analysis(self, rng):
        for _ in range(100):
            project = random_project(rng)
            prediction = random_prediction(project, rng)
            outcome = classify(project, prediction)
            params = CostParams(p_qf=float(rng.uniform(0.0, 0.9)))
            if outcome.predicted_defects:
                assert theorem_boundary(project, outcome, 0.0, params).defect_coeff < 0
            if outcome.missed_defects:
                assert theorem_boundary(project, outcome, 1.0, params).defect_coeff > 0

    def test_zero_coeff_never_profitable_without_savings(self):
        # no defects at all: the model can only spend QA, never save it
        project = Project("p", (Artifact("a", 3), Artifact("b", 4)), ())
        outcome = classify(project, Prediction({"a": 1, "b": 0}))
        condition = theorem_boundary(project, outcome, 0.0, CONST)
        assert condition.defect_coeff == 0.0
        assert condition.kind is BoundKind.NEVER_PROFITABLE
        assert not condition.allows(5.0)

    def test_zero_coeff_always_profitable_with_savings(self):
        # no defects, but the random baseline spends QA while the model spends none
        project = Project("p", (Artifact("a", 3), Artifact("b", 4)), ())
        outcome = classify(project, constant_prediction(project, 0))
        condition = theorem_boundary(project, outcome, 0.7, CONST)
        assert condition.defect_coeff == 0.0
        assert condition.qa_margin > 0
        assert condition.kind is BoundKind.ALWAYS_PROFITABLE
        assert condition.allows(1e12)

    @pytest.mark.parametrize(
        "predicted, p_qa, margin, kind",
        [
            # nothing predicted, no QA: no QA spent on either side, a margin of exactly 0
            ((), 0.0, 0.0, BoundKind.NEVER_PROFITABLE),
            # the defect's file and a clean one, QA on all: one QA unit saved
            (("a", "b"), 1.0, 1.0, BoundKind.ALWAYS_PROFITABLE),
        ],
        ids=["none-at-0", "two-at-1"],
    )
    def test_zero_coeff_verdict_at_small_margins(self, predicted, p_qa, margin, kind):
        project = Project(
            "p", tuple(Artifact(f, 1) for f in "abc"), (Defect("d", frozenset({"a"})),)
        )
        outcome = classify(project, Prediction({f: int(f in predicted) for f in "abc"}))
        condition = theorem_boundary(project, outcome, p_qa, CONST)
        assert (condition.defect_coeff, condition.qa_margin) == (0.0, margin)
        assert condition.kind is kind

    def test_corollaries_are_the_theorem_at_p_qa_zero_and_one(self, rng):
        """Bit for bit, on all six kinds, both QA modes and non-zero overheads."""
        for view, outcome, params, kind in priced_cases(rng, 300):
            lower = theorem_boundary(view, outcome, 0.0, params).threshold
            upper = max(theorem_boundary(view, outcome, 1.0, params).threshold, 0.0)
            assert lower_boundary(view, outcome, params) == lower
            assert upper_boundary(view, outcome, params) == upper
            interval = boundary_interval(view, outcome, params, kind)
            assert (interval.lower, interval.upper) == (lower, upper)

    def test_profit_sign_oracle(self, rng):
        """The condition must agree with an explicit profit computation."""
        checked = 0
        for _ in range(300):
            project = random_project(rng, max_artifacts=12, max_defects=6)
            prediction = random_prediction(project, rng)
            outcome = classify(project, prediction)
            p_qa = float(rng.uniform(0.0, 1.0))
            params = CostParams(
                c_ratio=float(rng.uniform(0.05, 30.0)),
                p_qf=float(rng.uniform(0.0, 0.9)),
                c_init=float(rng.uniform(0.0, 2.0)),
                c_exec=float(rng.uniform(0.0, 2.0)),
                qa_mode=QAMode.CONSTANT if rng.integers(2) else QAMode.SIZE_AWARE,
            )
            condition = theorem_boundary(project, outcome, p_qa, params)
            model_cost = cost_general(project, outcome, induced_inputs(project, params))
            profit = cost_random(project, p_qa, params) - model_cost
            if abs(profit) < 1e-9 * max(1.0, model_cost):
                continue  # skip exact-boundary ties
            assert (profit > 0) == condition.allows(params.c_ratio)
            checked += 1
        assert checked > 200


class TestCorollaryBoundaries:
    def test_lower_constant(self, project_e, outcome_e):
        assert lower_boundary(project_e, outcome_e, CONST) == 1.0

    def test_lower_unbounded_for_predict_nothing(self, project_e):
        outcome = classify(project_e, constant_prediction(project_e, 0))
        assert lower_boundary(project_e, outcome, CONST) == math.inf

    def test_lower_size_aware(self, project_e, outcome_e):
        params = CostParams(qa_mode=QAMode.SIZE_AWARE)
        assert lower_boundary(project_e, outcome_e, params) == 100.0

    def test_upper_constant(self, project_e, outcome_e):
        assert upper_boundary(project_e, outcome_e, CONST) == 2.0

    def test_upper_unbounded_for_perfect_prediction(self, project_e):
        outcome = classify(project_e, perfect_prediction(project_e))
        assert upper_boundary(project_e, outcome, CONST) == math.inf

    def test_upper_uses_per_defect_escape_weight(self, project_e, outcome_e):
        # the missed defect touches two artifacts, so its escape weight is 0.25
        assert upper_boundary(project_e, outcome_e, CostParams(p_qf=0.5)) == 8.0

    def test_upper_clamps_when_overheads_exceed_saved_qa(self, project_e, outcome_e):
        params = CostParams(c_init=10.0)
        assert upper_boundary(project_e, outcome_e, params) == 0.0
        interval = boundary_interval(project_e, outcome_e, params, CONST_NM)
        assert interval.upper == 0.0
        assert not interval.cost_saving_possible

    def test_overheads_raise_lower_boundary(self, project_e, outcome_e):
        params = CostParams(c_init=1.0, c_exec=0.5)
        assert lower_boundary(project_e, outcome_e, params) == 2.5


class TestBoundaryInterval:
    def test_constant_n_to_m(self, project_e, outcome_e):
        interval = boundary_interval(project_e, outcome_e, CONST, CONST_NM)
        assert (interval.lower, interval.upper) == (1.0, 2.0)
        assert interval.cost_saving_possible

    def test_constant_one_to_m(self, project_e, prediction_e):
        view = project_view(project_e, Relationship.ONE_TO_M)
        outcome = classify(view, prediction_e)
        kind = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_M)
        interval = boundary_interval(view, outcome, CONST, kind)
        assert (interval.lower, interval.upper) == (0.5, 2.0)
        at_half = boundary_interval(view, outcome, CostParams(p_qf=0.5), kind)
        assert at_half.upper == 4.0

    def test_constant_one_to_one(self, project_e, prediction_e):
        view = project_view(project_e, Relationship.ONE_TO_ONE)
        outcome = classify(view, prediction_e)
        kind = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_ONE)
        interval = boundary_interval(view, outcome, CONST, kind)
        assert (interval.lower, interval.upper) == (1.0, 2.0)

    def test_wrong_view_rejected(self, project_e, outcome_e):
        kind = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_ONE)
        with pytest.raises(InputContractError):
            boundary_interval(project_e, outcome_e, CONST, kind)

    def test_matches_corollary_boundaries_on_views(self, rng):
        for _ in range(60):
            project = random_project(rng)
            prediction = random_prediction(project, rng)
            p_qf = float(rng.uniform(0.0, 0.9))
            for kind in ALL_KINDS:
                params = CostParams(p_qf=p_qf, qa_mode=kind.qa_mode)
                view = project_view(project, kind.relationship)
                outcome = classify(view, prediction)
                interval = boundary_interval(view, outcome, params, kind)
                assert interval.lower == lower_boundary(view, outcome, params)
                assert interval.upper == upper_boundary(view, outcome, params)

    def test_inverse_precision_identity(self, project_e, prediction_e):
        view = project_view(project_e, Relationship.ONE_TO_ONE)
        outcome = classify(view, prediction_e)
        kind = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_ONE)
        interval = boundary_interval(view, outcome, CONST, kind)
        assert interval.lower * precision(outcome.cm) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_p_qf(self, rng):
        for _ in range(40):
            project = random_project(rng)
            prediction = random_prediction(project, rng)
            for kind in ALL_KINDS:
                view = project_view(project, kind.relationship)
                outcome = classify(view, prediction)
                low = boundary_interval(
                    view, outcome, CostParams(p_qf=0.0, qa_mode=kind.qa_mode), kind
                )
                high = boundary_interval(
                    view, outcome, CostParams(p_qf=0.5, qa_mode=kind.qa_mode), kind
                )
                assert high.lower >= low.lower - 1e-12
                assert high.upper >= low.upper - 1e-12

    def test_equal_bounds_not_cost_saving(self):
        # one defect predicted, one missed, one artifact on each side
        project = Project(
            "p",
            (Artifact("a", 1), Artifact("b", 1)),
            (Defect("d1", frozenset({"a"})), Defect("d2", frozenset({"b"}))),
        )
        outcome = classify(project, Prediction({"a": 1, "b": 0}))
        interval = boundary_interval(project, outcome, CONST, CONST_NM)
        assert interval.lower == interval.upper == 1.0
        assert not interval.cost_saving_possible


class TestAgainstReference:
    def test_interval_bitwise_equal_to_per_view_routes(self, rng):
        """Bitwise where the escape-weight sums have one term (K <= 1 distinct defect
        cardinalities, as in every 1-m and 1-1 view): n_1 times a weight rounds as
        the fsum of n_1 copies of it does.  Otherwise each sum over k rounds each
        term at most K times and the reference's fsum once, and one division
        follows in both: K + 1 against 2 roundings.  The verdicts may then differ
        only where the two ends are that close."""
        for view, outcome, params, kind in priced_cases(rng, 500):
            interval = boundary_interval(view, outcome, params, kind)
            reference = cost_reference.boundary_interval(view, outcome, params, kind)
            k = distinct_cardinalities(view)
            if k <= 1:
                assert interval == reference
                continue
            bound = drift_bound(k + 1, 2)
            ends = ((interval.lower, reference.lower), (interval.upper, reference.upper))
            for value, expected in ends:
                if math.isinf(expected):
                    assert value == expected
                else:
                    assert abs(value - expected) <= bound * expected
            lower, upper = reference.lower, reference.upper
            tie = math.isfinite(upper) and abs(upper - lower) <= bound * (lower + upper)
            assert interval.cost_saving_possible == reference.cost_saving_possible or tie

    def test_results_are_python_scalars(self, rng):
        for view, outcome, params, kind in priced_cases(rng, 50):
            interval = boundary_interval(view, outcome, params, kind)
            assert type(interval.lower) is float and type(interval.upper) is float
            assert type(interval.cost_saving_possible) is bool
            assert type(lower_boundary(view, outcome, params)) is float
            assert type(upper_boundary(view, outcome, params)) is float
            for p_qa in (0.0, 0.5, 1.0):
                assert type(theorem_boundary(view, outcome, p_qa, params).threshold) is float


def _exact_terms(view, outcome, params, p_qa):
    """Exact rational (coeff, coeff scale, margin, margin scale) of the profit condition.

    The escape weights are exact powers of the float 1 - p_qf, the base every
    route uses; each scale is its sum with every term taken positive.
    """
    keep, p = Fraction(1.0 - params.p_qf), Fraction(p_qa)
    coeff = scale = Fraction(0)
    for d in view.defects:
        weight, covered = keep ** len(d.members), p ** len(d.members)
        hit = d.id in outcome.predicted_defects
        coeff += weight * (covered - hit)
        scale += weight * (covered + hit)
    qa = qa_cost_vector(view, params.qa_mode)
    spent = sum(int(q) for a, q in zip(view.artifacts, qa) if a.id in outcome.predicted_artifacts)
    overheads = Fraction(params.c_init) + Fraction(params.c_exec)
    total = int(qa.sum())
    return coeff, scale, p * total - spent - overheads, p * total + spent + overheads


def _error(value, exact, scale):
    """|value - exact| / scale, both unbounded counting as no error."""
    if math.isinf(value) or math.isinf(exact):
        return 0.0 if value == exact else math.inf
    return abs(Fraction(value) - exact) / scale if scale else abs(value)


class TestExactArithmetic:
    """The boundaries against exact rational arithmetic on the same float inputs.

    Each result is within 1e-15 of the exact value, relative to the same
    expression with every term taken positive: plain relative error for the
    lower boundary, whose terms share one sign.  Summing 1 - qf(d) with
    qf(d) = 1 - (1 - p_qf)^|d| in place of the escape weight misses this by
    up to about 5e-6.
    """

    def test_corollary_boundaries(self, rng):
        for view, outcome, params, _ in priced_cases(rng, 250):
            coeff, _, margin, _ = _exact_terms(view, outcome, params, 0.0)
            lower = math.inf if coeff == 0 else margin / coeff
            assert _error(lower_boundary(view, outcome, params), lower, abs(lower)) <= 1e-15
            coeff, _, margin, margin_scale = _exact_terms(view, outcome, params, 1.0)
            upper = math.inf if coeff == 0 else max(margin / coeff, Fraction(0))
            scale = margin_scale / coeff if coeff else 1
            assert _error(upper_boundary(view, outcome, params), upper, scale) <= 1e-15

    def test_theorem_terms(self, rng):
        for view, outcome, params, _ in priced_cases(rng, 120):
            for p_qa in (0.0, 1.0, float(rng.uniform(0.0, 1.0))):
                condition = theorem_boundary(view, outcome, p_qa, params)
                coeff, coeff_scale, margin, margin_scale = _exact_terms(view, outcome, params, p_qa)
                assert _error(condition.defect_coeff, coeff, coeff_scale) <= 1e-15
                assert _error(condition.qa_margin, margin, margin_scale) <= 1e-15
                if p_qa in (0.0, 1.0) and coeff:
                    # at the ends every coefficient term has one sign
                    scale = abs(margin_scale / coeff)
                    assert _error(condition.threshold, margin / coeff, scale) <= 1e-15


class TestTinyEscapeWeight:
    """One fully predicted 80-file defect at p_qf 0.5 has escape weight 2^-80.

    1 - (1 - 2^-80) rounds to 0, so the old corollary divided by zero and the
    old theorem saw no defect term; the weight itself is exact.
    """

    @pytest.fixture
    def wide(self):
        artifacts = tuple(Artifact(f"f{i}", 1) for i in range(80))
        project = Project("wide", artifacts, (Defect("d", frozenset(a.id for a in artifacts)),))
        return project, classify(project, constant_prediction(project, 1))

    def test_grid_overflow_is_the_interval_without_a_warning(self):
        # escape weight 2^-1070 is subnormal: 1070 / 2^-1070 overflows to inf,
        # as boundary_interval's float division gives it, with no RuntimeWarning
        artifacts = tuple(Artifact(f"f{i}", 1) for i in range(1070))
        project = Project("wide", artifacts, (Defect("d", frozenset(a.id for a in artifacts)),))
        config = GridConfig(accuracies=(1.0,), repetitions=1, p_qf_values=(0.5,), seed=1)
        records = run_grid(project, config)
        assert records[0].lower == math.inf
        for record in records:
            view = project_view(project, record.kind.relationship)
            params = CostParams(p_qf=0.5, qa_mode=record.kind.qa_mode)
            outcome = classify(view, constant_prediction(view, 1))
            interval = boundary_interval(view, outcome, params, record.kind)
            assert (record.lower, record.upper, record.cost_saving) == (
                interval.lower, interval.upper, interval.cost_saving_possible
            )

    def test_lower_boundary_is_the_interval_lower(self, wide):
        project, outcome = wide
        params = CostParams(p_qf=0.5)
        lower = lower_boundary(project, outcome, params)
        assert lower == boundary_interval(project, outcome, params, CONST_NM).lower == 80 * 2.0**80
        condition = theorem_boundary(project, outcome, 0.0, params)
        assert condition.kind is BoundKind.LOWER_BOUND
        assert condition.threshold == lower
