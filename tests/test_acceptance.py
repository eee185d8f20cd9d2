"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every numeric tolerance is pinned in the assertions below.
"""

import hashlib
import math
import statistics
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from defectcost import (
    ALL_KINDS,
    Artifact,
    BoundKind,
    ConfusionMatrix,
    CostParams,
    Defect,
    GridConfig,
    ModelKind,
    Project,
    QAMode,
    Relationship,
    boundary_interval,
    classify,
    constant_prediction,
    cost_init,
    emit_records,
    lower_boundary,
    parse_records,
    precision,
    project_from_aggregates,
    project_view,
    run_grid,
    sample_corpus,
    theorem_boundary,
    upper_boundary,
)
from defectcost.cli import cli_dispatch
from defectcost.synthetic import SAMPLE_AGGREGATES

from .strategies import random_prediction, random_project

CONST_NM = ModelKind(QAMode.CONSTANT, Relationship.N_TO_M)
CONST_1M = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_M)
CONST_11 = ModelKind(QAMode.CONSTANT, Relationship.ONE_TO_ONE)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] PASS {description} ({elapsed:.2f}s)")


def project_with_defects(rng, **kwargs) -> Project:
    while True:
        project = random_project(rng, **kwargs)
        if project.defects:
            return project


def scaled(tol: float, value: float) -> float:
    return tol * max(1.0, abs(value))


def test_criterion_01_worked_example_classification(project_e, prediction_e):
    with criterion(1, "worked-example classification is exact"):
        outcome = classify(project_e, prediction_e)
        assert outcome.cm == ConfusionMatrix(tp=1, fp=0, tn=1, fn=1)
        assert outcome.predicted_defects == frozenset({"d1"})
        assert outcome.missed_defects == frozenset({"d2"})


def test_criterion_02_boundary_algebra(project_e, prediction_e):
    with criterion(2, "worked-example boundary algebra at 1e-12"):
        outcome = classify(project_e, prediction_e)
        interval = boundary_interval(project_e, outcome, CostParams(), CONST_NM)
        assert interval.lower == pytest.approx(1.0, abs=1e-12)
        assert interval.upper == pytest.approx(2.0, abs=1e-12)
        assert interval.cost_saving_possible

        view_1m = project_view(project_e, Relationship.ONE_TO_M)
        outcome_1m = classify(view_1m, prediction_e)
        interval_1m = boundary_interval(view_1m, outcome_1m, CostParams(), CONST_1M)
        assert interval_1m.lower == pytest.approx(0.5, abs=1e-12)

        # imperfect QA at p_qf = 0.5: one missed single-member defect in the
        # 1-m view gives 2 / 0.5 = 4; the n-m view weighs the two-artifact
        # missed defect by 0.25, giving 2 / 0.25 = 8
        at_half_1m = boundary_interval(view_1m, outcome_1m, CostParams(p_qf=0.5), CONST_1M)
        assert at_half_1m.upper == pytest.approx(4.0, abs=1e-12)
        at_half_nm = boundary_interval(project_e, outcome, CostParams(p_qf=0.5), CONST_NM)
        assert at_half_nm.upper == pytest.approx(8.0, abs=1e-12)


def test_criterion_03_inverse_precision_identity():
    with criterion(3, "1/1 lower boundary is inverse precision on 10,000+ pairs"):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10_000:
            project = project_with_defects(rng, max_artifacts=20, max_defects=6)
            view = project_view(project, Relationship.ONE_TO_ONE)
            for _ in range(40):
                prediction = random_prediction(project, rng)
                outcome = classify(view, prediction)
                if outcome.cm.tp == 0:
                    continue
                interval = boundary_interval(view, outcome, CostParams(), CONST_11)
                product = interval.lower * precision(outcome.cm)
                assert abs(product - 1.0) <= 1e-12
                checked += 1
        assert checked >= 10_000


def test_criterion_04_corollary_theorem_consistency():
    with criterion(4, "theorem at p_qa in {0,1} equals the corollary boundaries"):
        rng = np.random.default_rng(4)
        for _ in range(1_000):
            project = random_project(rng, max_artifacts=15, max_defects=6)
            prediction = random_prediction(project, rng)
            outcome = classify(project, prediction)
            params = CostParams(
                p_qf=float(rng.uniform(0.0, 0.9)),
                c_init=float(rng.uniform(0.0, 3.0)),
                c_exec=float(rng.uniform(0.0, 3.0)),
                qa_mode=QAMode.CONSTANT if rng.integers(2) else QAMode.SIZE_AWARE,
            )
            at_zero = theorem_boundary(project, outcome, 0.0, params)
            lower = lower_boundary(project, outcome, params)
            if outcome.predicted_defects:
                assert at_zero.kind is BoundKind.LOWER_BOUND
                assert abs(at_zero.threshold - lower) <= scaled(1e-12, lower)
            else:
                assert at_zero.defect_coeff == 0.0
                assert lower == math.inf
            at_one = theorem_boundary(project, outcome, 1.0, params)
            upper = upper_boundary(project, outcome, params)
            if outcome.missed_defects:
                assert at_one.kind is BoundKind.UPPER_BOUND
                if at_one.threshold >= 0:
                    assert abs(at_one.threshold - upper) <= scaled(1e-12, upper)
                else:
                    # overheads exceed the QA saved; the corollary clamps to 0
                    assert upper == 0.0
            else:
                assert at_one.defect_coeff == 0.0
                assert upper == math.inf


def test_criterion_05_profit_cross_check():
    with criterion(5, "any C inside a finite interval beats both trivial baselines"):
        rng = np.random.default_rng(5)
        accepted = 0
        attempts = 0
        while accepted < 1_000:
            attempts += 1
            assert attempts < 50_000, "instance generator starved"
            project = project_with_defects(rng, max_artifacts=15, max_defects=6)
            kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
            view = project_view(project, kind.relationship)
            prediction = random_prediction(project, rng)
            outcome = classify(view, prediction)
            p_qf = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
            params = CostParams(p_qf=p_qf, qa_mode=kind.qa_mode)
            interval = boundary_interval(view, outcome, params, kind)
            if not (
                interval.cost_saving_possible
                and math.isfinite(interval.upper)
                and interval.lower < interval.upper
            ):
                continue
            c = float(rng.uniform(interval.lower, interval.upper))
            if c <= interval.lower or c >= interval.upper:
                continue
            priced = CostParams(c_ratio=c, p_qf=p_qf, qa_mode=kind.qa_mode)
            model_cost = cost_init(view, outcome, priced, kind)
            nothing = cost_init(
                view, classify(view, constant_prediction(view, 0)), priced, kind
            )
            everything = cost_init(
                view, classify(view, constant_prediction(view, 1)), priced, kind
            )
            margin = min(nothing, everything) - model_cost
            assert margin > 1e-9 * max(1.0, min(nothing, everything))
            accepted += 1
        assert accepted >= 1_000


def test_criterion_06_degeneration_suite():
    with criterion(6, "single-member data collapses n-m to 1-m (and to 1-1)"):
        rng = np.random.default_rng(6)
        settings = [
            CostParams(
                c_ratio=float(rng.uniform(0.2, 40.0)),
                p_qf=float(rng.uniform(0.0, 0.9)),
                qa_mode=qa_mode,
            )
            for qa_mode in QAMode
            for _ in range(3)
        ]
        assert len(settings) == 6

        def check_agreement(project, relationships):
            prediction = random_prediction(project, rng)
            for params in settings:
                results = []
                for relationship in relationships:
                    kind = ModelKind(params.qa_mode, relationship)
                    view = project_view(project, relationship)
                    outcome = classify(view, prediction)
                    cost = cost_init(view, outcome, params, kind)
                    interval = boundary_interval(view, outcome, params, kind)
                    results.append((cost, interval.lower, interval.upper))
                reference = results[0]
                for other in results[1:]:
                    for a, b in zip(reference, other):
                        if math.isfinite(a) or math.isfinite(b):
                            assert abs(a - b) <= scaled(1e-12, a)

        for _ in range(40):
            n = int(rng.integers(2, 12))
            artifacts = tuple(
                Artifact(f"f{i}", int(s)) for i, s in enumerate(rng.integers(1, 300, n))
            )
            # single-member defects, artifacts may repeat across defects
            owners = rng.integers(0, n, size=int(rng.integers(1, 8)))
            defects = tuple(
                Defect(f"d{j}", frozenset({f"f{owner}"})) for j, owner in enumerate(owners)
            )
            project = Project("deg", artifacts, defects)
            check_agreement(project, (Relationship.N_TO_M, Relationship.ONE_TO_M))

            # additionally at most one defect per artifact: all three views agree
            unique_owners = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            defects = tuple(
                Defect(f"d{j}", frozenset({f"f{owner}"}))
                for j, owner in enumerate(unique_owners)
            )
            project = Project("deg11", artifacts, defects)
            check_agreement(
                project,
                (Relationship.N_TO_M, Relationship.ONE_TO_M, Relationship.ONE_TO_ONE),
            )


def test_criterion_07_model_divergence_on_realistic_data():
    with criterion(7, "n-m and 1-1 lower boundaries diverge >5% on realistic data"):
        spec = next(s for s in SAMPLE_AGGREGATES if s.name == "falcon")
        project = project_from_aggregates(spec, seed=7)
        config = GridConfig(
            accuracies=(0.9,),
            repetitions=100,
            p_qf_values=(0.0,),
            seed=77,
            model_kinds=(CONST_NM, CONST_11),
        )
        records = run_grid(project, config)
        by_kind = {CONST_NM: [], CONST_11: []}
        for record in records:
            if math.isfinite(record.lower):
                by_kind[record.kind].append(record.lower)
        median_nm = statistics.median(by_kind[CONST_NM])
        median_11 = statistics.median(by_kind[CONST_11])
        relative = abs(median_nm - median_11) / median_11
        assert relative > 0.05


def test_criterion_08_p_qf_monotonicity():
    with criterion(8, "boundaries do not decrease when p_qf rises to 0.5"):
        rng = np.random.default_rng(8)
        for _ in range(1_000):
            project = random_project(rng, max_artifacts=15, max_defects=6)
            prediction = random_prediction(project, rng)
            kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
            view = project_view(project, kind.relationship)
            outcome = classify(view, prediction)
            sharp = boundary_interval(
                view, outcome, CostParams(p_qf=0.0, qa_mode=kind.qa_mode), kind
            )
            dull = boundary_interval(
                view, outcome, CostParams(p_qf=0.5, qa_mode=kind.qa_mode), kind
            )
            if math.isfinite(sharp.lower) and math.isfinite(dull.lower):
                assert dull.lower >= sharp.lower - scaled(1e-12, sharp.lower)
            if math.isfinite(sharp.upper) and math.isfinite(dull.upper):
                assert dull.upper >= sharp.upper - scaled(1e-12, sharp.upper)


# sha256 of the concatenated emit_records(run_grid(p, GridConfig(seed=424242)))
# over sample_corpus(seed=2024), in corpus order
CORPUS_FINGERPRINT = "c7b77ae31f58051bfd8cba3bb0311177fed17bbd80b416d814656a5fdf98f4ac"


def test_criterion_09_grid_scale_and_determinism():
    with criterion(9, "full corpus grid is reproducible and fast"):
        start = time.perf_counter()
        corpus = sample_corpus(seed=2024)
        assert len(corpus) == 15
        config = GridConfig(seed=424242)
        digest = hashlib.sha256()
        for project in corpus:
            serial = emit_records(run_grid(project, config))
            again = emit_records(run_grid(project, config))
            assert serial == again
            assert serial.count("\n") - 1 == 22_800
            digest.update(serial.encode("utf-8"))
        assert digest.hexdigest() == CORPUS_FINGERPRINT
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"corpus grid took {elapsed:.1f}s"


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    with criterion(10, "CLI matrix -> simulate -> plot pipeline and exit codes"):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("file,loc,d1,d2\ns1,100,1,1\ns2,50,0,1\ns3,10,0,0\n")
        records_path = tmp_path / "records.csv"
        svg_path = tmp_path / "plot.svg"
        assert (
            cli_dispatch(
                [
                    "simulate",
                    "--matrix", str(matrix),
                    "--seed", "21",
                    "--reps", "10",
                    "--out", str(records_path),
                ]
            )
            == 0
        )
        text = records_path.read_text()
        records = parse_records(text)
        assert len(records) == 19 * 10 * 2 * 6
        assert emit_records(records) == text
        assert (
            cli_dispatch(
                [
                    "plot",
                    "--in", str(records_path),
                    "--metric", "recall",
                    "--kind", "size-n-m",
                    "--out", str(svg_path),
                ]
            )
            == 0
        )
        root = ET.fromstring(svg_path.read_text())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

        bad = tmp_path / "bad.csv"
        bad.write_text("file,loc,d1\ns1,10,2\n")
        assert cli_dispatch(["validate", str(bad)]) == 1
        assert cli_dispatch(["nonsense"]) == 2
        assert cli_dispatch(["validate", str(matrix)]) == 0
