import hashlib
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from defectcost import (
    ALL_KINDS,
    AggregateSpec,
    Artifact,
    CostParams,
    Defect,
    GridConfig,
    InputContractError,
    ModelKind,
    Project,
    QAMode,
    Relationship,
    boundary_interval,
    cell_seed,
    classify,
    emit_records,
    perfect_prediction,
    project_from_aggregates,
    project_view,
    run_grid,
    simulate_prediction,
)
from defectcost import simulation
from defectcost.model import _defects_hit, _members_hit

from .grid_reference import dense_cell_sums, reference_grid
from .strategies import random_project


def small_project() -> Project:
    return Project(
        "g",
        tuple(Artifact(f"f{i}", 1 + i) for i in range(12)),
        (Defect("d0", frozenset({"f0", "f1"})), Defect("d1", frozenset({"f5"}))),
    )


class TestSeeding:
    def test_splitmix64_reference_vector(self):
        # first output of the reference SplitMix64 stream seeded with 0
        assert simulation._splitmix64(0) == 16294208416658607535
        assert simulation._splitmix64(1) == 10451216379200822465

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_splitmix64_of_an_array_is_that_of_each_word(self, words):
        """One body mixes Python ints and uint64 arrays alike; an array wraps
        without a numpy overflow warning, which the test settings turn into an error."""
        words = [0, 2**64 - 1, *words]
        mixed = simulation._splitmix64(np.array(words, dtype=np.uint64))
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [simulation._splitmix64(word) for word in words]

    def test_cell_seed_golden_values(self):
        assert cell_seed(0, 0, 0) == 2558736989570252433
        assert cell_seed(42, 3, 17) == 11412059272541287833
        assert cell_seed(2**64 - 1, 18, 99) == 4592239064361437029

    def test_cell_seeds_distinct(self):
        seeds = {
            cell_seed(7, a, r) for a in range(19) for r in range(100)
        }
        assert len(seeds) == 19 * 100

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_cell_seeds_at_once(self, seed):
        expected = [cell_seed(seed, a, r) for a in range(19) for r in range(100)]
        assert simulation._cell_seeds(seed, 19, 100).tolist() == expected


def numpy_pcg64_state(seed: int) -> tuple[int, int]:
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


class TestPCG64States:
    """``_pcg64_states`` derives exactly the state numpy's own seeding gives."""

    @settings(max_examples=500)
    @given(st.integers(0, 2**64 - 1))
    def test_any_uint64_seed(self, seed):
        assert simulation._pcg64_states([seed]) == [numpy_pcg64_state(seed)]

    def test_edge_seeds(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        assert simulation._pcg64_states(seeds) == list(map(numpy_pcg64_state, seeds))

    def test_paper_grid_cell_seeds(self):
        seeds = [cell_seed(424242, a, r) for a in range(19) for r in range(100)]
        assert simulation._pcg64_states(seeds) == list(map(numpy_pcg64_state, seeds))

    def test_no_seeds(self):
        assert simulation._pcg64_states([]) == []


class TestSimulatePrediction:
    def test_accuracy_one_is_truth(self, project_e):
        prediction = simulate_prediction(project_e, 1.0, cell_seed(1, 0, 0))
        assert prediction.labels == {"s1": 1, "s2": 1, "s3": 0}

    def test_accuracy_zero_flips_everything(self, project_e):
        prediction = simulate_prediction(project_e, 0.0, cell_seed(1, 0, 0))
        assert prediction.labels == {"s1": 0, "s2": 0, "s3": 1}

    def test_a_uniform_equal_to_the_accuracy_flips_its_file(self, project_e):
        """A file keeps its true label only where its uniform is below the accuracy."""
        seed = cell_seed(1, 0, 0)
        uniforms = np.random.Generator(np.random.PCG64(seed)).random(3)
        for accuracy in uniforms.tolist():
            prediction = simulate_prediction(project_e, accuracy, seed)
            kept = uniforms < accuracy
            assert prediction._mask.tolist() == (kept == project_e.defective_mask).tolist()
            assert kept.sum() < 3

    def test_golden_labels(self):
        prediction = simulate_prediction(small_project(), 0.7, cell_seed(42, 3, 17))
        assert [prediction.labels[f"f{i}"] for i in range(12)] == [
            0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0,
        ]

    def test_same_seed_same_labels(self):
        project = small_project()
        seed = cell_seed(9, 4, 2)
        assert simulate_prediction(project, 0.3, seed) == simulate_prediction(project, 0.3, seed)

    def test_accuracy_out_of_range(self, project_e):
        with pytest.raises(InputContractError):
            simulate_prediction(project_e, 1.2, 1)

    @pytest.mark.parametrize("accuracy", ["0.5", None, True])
    def test_accuracy_must_be_a_number(self, project_e, accuracy):
        with pytest.raises(InputContractError, match="accuracy"):
            simulate_prediction(project_e, accuracy, 1)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, True, "1", None])
    def test_cell_seed_must_be_a_uint64(self, project_e, seed):
        with pytest.raises(InputContractError, match="cell_seed"):
            simulate_prediction(project_e, 0.5, seed)

    def test_largest_cell_seed_accepted(self, project_e):
        prediction = simulate_prediction(project_e, 1.0, 2**64 - 1)
        assert prediction.labels == {"s1": 1, "s2": 1, "s3": 0}

    def test_correctness_rate_within_binomial_bounds(self):
        # 99.9% two-sided normal interval around the configured accuracy
        n = 10_000
        accuracy = 0.7
        project = Project(
            "big",
            tuple(Artifact(f"f{i}", 1) for i in range(n)),
            tuple(Defect(f"d{i}", frozenset({f"f{i}"})) for i in range(0, n, 10)),
        )
        prediction = simulate_prediction(project, accuracy, cell_seed(123, 0, 0))
        truth = project.defective_mask
        labels = np.array([prediction.labels[f"f{i}"] for i in range(n)], dtype=bool)
        correct = float(np.mean(labels == truth))
        half_width = 3.2905 * math.sqrt(accuracy * (1 - accuracy) / n)
        assert abs(correct - accuracy) <= half_width


class TestGridConfig:
    def test_defaults(self):
        config = GridConfig()
        assert len(config.accuracies) == 19
        assert config.accuracies[0] == 0.05 and config.accuracies[-1] == 0.95
        assert config.repetitions == 100
        assert config.p_qf_values == (0.0, 0.5)
        assert len(config.model_kinds) == 6

    def test_validation(self):
        with pytest.raises(InputContractError):
            GridConfig(accuracies=())
        with pytest.raises(InputContractError):
            GridConfig(accuracies=(1.5,))
        with pytest.raises(InputContractError):
            GridConfig(repetitions=0)
        with pytest.raises(InputContractError):
            GridConfig(p_qf_values=(1.0,))
        with pytest.raises(InputContractError):
            GridConfig(seed=-1)
        with pytest.raises(InputContractError):
            GridConfig(seed=2**64)
        with pytest.raises(InputContractError):
            GridConfig(model_kinds=())

    @pytest.mark.parametrize(
        "settings",
        [
            {"accuracies": ("0.5",)},
            {"accuracies": (None,)},
            {"accuracies": 0.5},
            {"accuracies": (True,)},
            {"p_qf_values": (None,)},
            {"p_qf_values": 0.5},
            {"p_qf_values": (0.5, "0.5")},
            {"model_kinds": ("const-n-m",)},
            {"model_kinds": (10**5000,)},
        ],
    )
    def test_settings_must_be_numbers_and_kinds(self, settings):
        with pytest.raises(InputContractError, match=next(iter(settings))):
            GridConfig(**settings)

    def test_kind_of_unknown_fields_is_refused_where_it_is_built(self):
        # GridConfig orders kinds by their place in ALL_KINDS, so each must be one
        with pytest.raises(InputContractError, match="qa_mode must be a QAMode, got 'x'"):
            GridConfig(model_kinds=(ModelKind("x", "y"),))
        kinds = (ALL_KINDS[5], ALL_KINDS[0], ALL_KINDS[3], ALL_KINDS[0])
        ordered = (ALL_KINDS[0], ALL_KINDS[3], ALL_KINDS[5])
        assert GridConfig(model_kinds=kinds).model_kinds == ordered

    @pytest.mark.parametrize("repetitions", [2.5, True, 3.0, "3", None])
    def test_repetitions_must_be_an_integer(self, repetitions):
        with pytest.raises(InputContractError, match="repetitions"):
            GridConfig(repetitions=repetitions)

    @pytest.mark.parametrize("seed", [1.5, True, False, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InputContractError, match="seed"):
            GridConfig(seed=seed)


class TestRunGrid:
    def test_perfect_predictor_records(self, project_e):
        config = GridConfig(accuracies=(1.0,), repetitions=1, p_qf_values=(0.0,), seed=5)
        records = run_grid(project_e, config)
        assert len(records) == 6
        for record in records:
            assert record.cm.fp == 0 and record.cm.fn == 0
            assert record.upper == math.inf

    def test_record_cardinality(self, project_e):
        config = GridConfig(
            accuracies=(0.2, 0.8), repetitions=3, p_qf_values=(0.0, 0.5), seed=1
        )
        records = run_grid(project_e, config)
        assert len(records) == 2 * 3 * 2 * 6

    def test_default_grid_cardinality(self, project_e):
        records = run_grid(project_e, GridConfig(seed=3))
        assert len(records) == 19 * 100 * 2 * 6

    def test_canonical_order(self, project_e):
        # accuracies out of order are refused, not sorted: cell seeds follow the
        # accuracy index, so the records of an accepted grid come in grid order
        for accuracies in ((0.9, 0.1), (0.5, 0.5), (0.0, -0.0)):
            with pytest.raises(InputContractError) as refused:
                GridConfig(accuracies=accuracies, repetitions=2, seed=8)
            assert str(refused.value) == f"accuracies must be strictly ascending, got {accuracies}"
        config = GridConfig(accuracies=(0.1, 0.9), repetitions=2, seed=8)
        records = run_grid(project_e, config)
        kind_order = {kind: i for i, kind in enumerate(ALL_KINDS)}
        keys = [(r.accuracy, r.repetition, r.p_qf, kind_order[r.kind]) for r in records]
        assert keys == sorted(keys) and len(set(keys)) == len(keys) == 2 * 2 * 2 * 6

    def test_negative_zero_is_stored_as_zero(self, project_e):
        # -0.0 == 0.0, so each config equals its twin and must write the same bytes
        for name, values, twin_values in (
            ("accuracies", (-0.0, 0.5), (0.0, 0.5)),
            ("p_qf_values", (-0.0, 0.0), (0.0,)),
        ):
            config = GridConfig(**{name: values}, repetitions=2, seed=8)
            twin = GridConfig(**{name: twin_values}, repetitions=2, seed=8)
            assert config == twin
            stored = config.accuracies + config.p_qf_values
            assert all(math.copysign(1.0, v) == 1.0 for v in stored)
            written = emit_records(run_grid(project_e, config))
            assert written == emit_records(run_grid(project_e, twin))

    def test_prediction_shared_across_p_qf_and_kinds(self, project_e):
        config = GridConfig(accuracies=(0.4,), repetitions=2, seed=11)
        records = run_grid(project_e, config)
        by_cell = {}
        for record in records:
            by_cell.setdefault((record.accuracy, record.repetition), set()).add(record.cm)
        for cms in by_cell.values():
            assert len(cms) == 1

    def test_deterministic_across_runs(self, project_e):
        config = GridConfig(accuracies=(0.3, 0.6), repetitions=4, seed=99)
        first = run_grid(project_e, config)
        second = run_grid(project_e, config)
        assert emit_records(first) == emit_records(second)

    def test_requires_n_to_m_project(self, project_e):
        view = project_view(project_e, Relationship.ONE_TO_ONE)
        with pytest.raises(InputContractError):
            run_grid(view, GridConfig())

    def test_records_match_public_route(self, rng):
        """Grid output must equal classify + boundary_interval on each view."""
        project = random_project(rng, max_artifacts=25, max_defects=8)
        assert_matches_public_route(
            project, GridConfig(accuracies=(0.35, 0.75), repetitions=3, seed=1234)
        )

    def test_records_match_public_route_at_non_dyadic_p_qf(self, rng):
        # no escape weight (1 - p_qf)^k is dyadic here, yet the grid sums the
        # weights over the cardinalities as boundary_interval does: bit for bit
        for _ in range(20):
            project = random_project(rng, max_artifacts=25, max_defects=10)
            p_qf_values = (0.3, float(rng.uniform(0.0, 0.95)))
            config = GridConfig(accuracies=(0.35, 0.75), repetitions=3, p_qf_values=p_qf_values)
            assert_matches_public_route(project, config)

    def test_records_independent_of_the_blas_kernel(self):
        """A p_qf 0.3 grid writes the same bytes whichever OpenBLAS kernel numpy's
        matrix products run: as detected, and forced to Prescott (SSE3 only)."""
        script = textwrap.dedent(
            """
            import hashlib
            from defectcost import GridConfig, emit_records, run_grid, sample_corpus
            config = GridConfig(repetitions=10, p_qf_values=(0.3,), seed=424242)
            digest = hashlib.sha256()
            for project in sample_corpus(2024)[:6]:
                digest.update(emit_records(run_grid(project, config)).encode())
            print(digest.hexdigest())
            """
        )
        package_root = str(Path(simulation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = path
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=env | coretype,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            ).stdout
            for coretype in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
        ]
        assert digests[0] == digests[1] and len(digests[0]) == 65

    def test_missed_escape_weight_summed_exactly(self):
        # Ten one-file defects and one twelve-file defect at p_qf 0.7: the big
        # defect's escape weight 0.3**12 is 2e-7 of the total, so the total
        # minus the predicted weight would keep only part of its bits.
        files = tuple(Artifact(f"f{i}", 1) for i in range(12))
        defects = tuple(Defect(f"d{i}", frozenset({f"f{i}"})) for i in range(10))
        defects += (Defect("big", frozenset(a.id for a in files)),)
        project = Project("p", files, defects)
        kind = ModelKind(QAMode.CONSTANT, Relationship.N_TO_M)
        config = GridConfig(
            accuracies=(0.9,), repetitions=40, p_qf_values=(0.7,), seed=3, model_kinds=(kind,)
        )
        escape = (1.0 - 0.7) ** project.defect_cardinalities.astype(np.float64)
        weight = {d.id: Fraction(float(w)) for d, w in zip(defects, escape)}
        checked = 0
        for record in run_grid(project, config):
            prediction = simulate_prediction(project, 0.9, cell_seed(3, 0, record.repetition))
            missed = classify(project, prediction).missed_defects
            if "big" in missed:
                exact = (record.cm.tn + record.cm.fn) / sum(weight[d] for d in missed)
                assert abs(Fraction(record.upper) - exact) <= Fraction(1e-15) * exact
                checked += 1
        assert checked >= 5

    def test_perfect_prediction_matches_simulated_at_accuracy_one(self, project_e):
        prediction = simulate_prediction(project_e, 1.0, cell_seed(0, 0, 0))
        assert prediction == perfect_prediction(project_e)


def assert_matches_public_route(project, config):
    """Each record equals classify + boundary_interval of its cell on its view, bit for bit."""
    views = {rel: project_view(project, rel) for rel in Relationship}
    for record in run_grid(project, config):
        acc_idx = config.accuracies.index(record.accuracy)
        seed = cell_seed(config.seed, acc_idx, record.repetition)
        prediction = simulate_prediction(project, record.accuracy, seed)
        view = views[record.kind.relationship]
        outcome = classify(view, prediction)
        assert outcome.cm == record.cm
        params = CostParams(p_qf=record.p_qf, qa_mode=record.kind.qa_mode)
        interval = boundary_interval(view, outcome, params, record.kind)
        assert record.lower == interval.lower
        assert record.upper == interval.upper
        assert record.cost_saving == interval.cost_saving_possible


def assert_matches_reference(table, reference, rel=0.0):
    """Rows equal the reference loop's; with ``rel``, bounds agree to that relative tolerance."""
    assert len(table) == len(reference)
    for mine, ref in zip(table, reference):
        if rel == 0.0:
            assert mine == ref
            continue
        assert (mine.project, mine.accuracy, mine.repetition, mine.p_qf, mine.kind) == (
            ref.project, ref.accuracy, ref.repetition, ref.p_qf, ref.kind
        )
        assert (mine.cm, mine.precision, mine.recall) == (ref.cm, ref.precision, ref.recall)
        for value, expected in ((mine.lower, ref.lower), (mine.upper, ref.upper)):
            if math.isinf(expected):
                assert value == expected
            else:
                assert abs(value - expected) <= rel * max(1.0, abs(expected))
        tie = math.isfinite(ref.lower) and abs(ref.lower - ref.upper) <= rel * max(1.0, ref.upper)
        assert mine.cost_saving == ref.cost_saving or tie


class TestAgainstReferenceLoop:
    """The columnar kernel against the per-cell loop it replaced (tests/grid_reference.py)."""

    def test_random_projects(self, rng):
        config = GridConfig(accuracies=(0.1, 0.5, 0.9), repetitions=5, seed=77)
        for _ in range(25):
            project = random_project(rng, max_artifacts=40, max_defects=10)
            assert_matches_reference(run_grid(project, config), reference_grid(project, config))

    def test_subset_of_model_kinds(self, rng):
        project = random_project(rng, max_artifacts=30, max_defects=8)
        kinds = (ModelKind(QAMode.SIZE_AWARE, Relationship.ONE_TO_M), ALL_KINDS[0])
        config = GridConfig(accuracies=(0.4, 0.8), repetitions=4, seed=6, model_kinds=kinds)
        table = run_grid(project, config)
        assert {r.kind for r in table} == set(kinds)
        assert_matches_reference(table, reference_grid(project, config))

    def test_project_without_defects(self):
        project = Project("clean", tuple(Artifact(f"f{i}", 3 + i) for i in range(9)), ())
        config = GridConfig(accuracies=(0.2, 0.7), repetitions=3, seed=7)
        table = run_grid(project, config)
        assert all(r.recall is None and r.lower == math.inf for r in table)
        assert_matches_reference(table, reference_grid(project, config))

    def test_one_cell_per_block(self, rng, monkeypatch):
        project = random_project(rng, max_artifacts=30, max_defects=8)
        config = GridConfig(accuracies=(0.25, 0.75), repetitions=7, seed=8)
        expected = reference_grid(project, config)
        for labels in (1, 3 * len(project.artifacts)):
            monkeypatch.setattr(simulation, "_BLOCK_LABELS", labels)
            assert_matches_reference(run_grid(project, config), expected)

    @pytest.mark.parametrize("cells", [1, 3])
    def test_blocks_of_mixed_accuracies(self, rng, monkeypatch, cells):
        # blocks of 1 and 3 cells: a block of 3 holds cells of different
        # accuracies, whose labels are thresholded together
        project = random_project(rng, max_artifacts=30, max_defects=8)
        config = GridConfig(accuracies=(0.0, 0.3, 0.5, 0.7, 0.9, 1.0), repetitions=4, seed=12)
        expected = reference_grid(project, config)
        monkeypatch.setattr(simulation, "_BLOCK_CELLS", cells)
        assert_matches_reference(run_grid(project, config), expected)

    def test_non_dyadic_p_qf_within_tolerance(self, rng):
        # (1 - 0.3)^|d| is not a dyadic fraction, so the n-m escape weights
        # summed in another order may differ in the last bits
        config = GridConfig(accuracies=(0.2, 0.6, 0.95), repetitions=5, p_qf_values=(0.3,), seed=9)
        for _ in range(25):
            project = random_project(rng, max_artifacts=40, max_defects=10)
            assert_matches_reference(
                run_grid(project, config), reference_grid(project, config), rel=1e-12
            )


@st.composite
def grid_cases(draw):
    """A project that is defect-free, all-defective, one file or mixed, and a small grid."""
    shape = draw(st.sampled_from(["mixed", "defect-free", "all-defective", "one-file"]))
    n = 1 if shape == "one-file" else draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    groups = []
    if shape != "defect-free":
        groups = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
    if shape == "all-defective":
        covered = set().union(*groups)
        groups += [{i} for i in range(n) if i not in covered]
    project = Project(
        "k",
        tuple(Artifact(f"f{i}", size) for i, size in enumerate(sizes)),
        tuple(Defect(f"d{j}", frozenset(f"f{i}" for i in g)) for j, g in enumerate(groups)),
    )
    config = GridConfig(
        accuracies=tuple(
            sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True)))
        ),
        repetitions=draw(st.integers(1, 4)),
        p_qf_values=tuple(
            draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3))
        ),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return project, config


class TestKernelAgainstDense:
    """``_cell_sums`` against the dense kernel it replaced (tests/grid_reference.py)."""

    @settings(max_examples=200, deadline=None)
    @given(grid_cases(), st.sampled_from([1, 3]), st.sampled_from([None, 1, 3]))
    def test_bitwise_equal(self, case, block_cells, labels_per_file):
        # _BLOCK_LABELS of 1, n and 3n: one cell per block, or up to three
        project, config = case
        block_labels = labels_per_file * len(project.sizes) if labels_per_file else 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_BLOCK_CELLS", block_cells)
            patch.setattr(simulation, "_BLOCK_LABELS", block_labels)
            views = {rel: project_view(project, rel) for rel in Relationship}
            spent, hits = simulation._cell_sums(project, config, views)
        dense_spent, dense_hits = dense_cell_sums(project, config, block_cells, block_labels)
        assert list(hits) == list(dense_hits) == list(Relationship)
        for mine, dense in zip([spent, *hits.values()], [dense_spent, *dense_hits.values()]):
            assert mine.shape == dense.shape and mine.dtype == dense.dtype
            assert mine.tobytes() == dense.tobytes()  # signbit of zeros included


class TestDefectsHit:
    """``_defects_hit`` on every view of a grid case: the all-members minimum of
    ``np.minimum.reduceat``, or zero columns without defects; shape and dtype kept.
    ``_members_hit`` on the gathered member labels gives the same."""

    @settings(max_examples=150, deadline=None)
    @given(
        grid_cases(),
        st.sampled_from(list(Relationship)),
        st.sampled_from([(bool, ()), (np.float64, (3,)), (np.int8, (2,))]),
        st.data(),
    )
    def test_equals_reduceat(self, case, rel, layout, data):
        project, _ = case
        view = project_view(project, rel)
        dtype, rows = layout
        predicted = data.draw(
            arrays(dtype, (*rows, len(project.sizes)), elements=st.sampled_from([0, 1]))
        )
        indices, starts = view._member_csr
        if len(starts) > 1:
            expected = np.minimum.reduceat(predicted[..., indices], starts[:-1], axis=-1)
        else:
            expected = np.zeros((*rows, 0), dtype=dtype)
        got = _defects_hit(view, predicted)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        grid_cases(),
        st.sampled_from(list(Relationship)),
        st.sampled_from([(bool, ()), (np.float64, (3,)), (np.int8, (2,))]),
        st.data(),
    )
    def test_members_hit_of_the_gather(self, case, rel, layout, data):
        # the grid's route: one gather of the member labels, then the hit rule
        project, _ = case
        view = project_view(project, rel)
        dtype, rows = layout
        predicted = data.draw(
            arrays(dtype, (*rows, len(project.sizes)), elements=st.sampled_from([0, 1]))
        )
        expected = _defects_hit(view, predicted)
        got = _members_hit(view, predicted[..., view._member_csr[0]])
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(grid_cases())
    def test_grid_cases_match_public_route(self, case):
        # single-member n-m projects take the gather on both paths
        assert_matches_public_route(*case)


@pytest.fixture(scope="module")
def large_project() -> Project:
    return project_from_aggregates(AggregateSpec("large", 100_000, 2_000, 1_500, 2.5, 100.0), 2024)


class TestLargeProject:
    """The benchmark's 100k-file project: more files than ``_BLOCK_LABELS``, so one
    cell per block."""

    def test_records_pinned(self, large_project):
        # sha256 of the records as the dense kernel drew them
        text = emit_records(run_grid(large_project, GridConfig(repetitions=2, seed=424242)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1edfdff3bc9175da5d40cc00b890ce88a6e3fff49ff60c829bc7cea450043305"
        )

    def test_traced_peak_stays_flat(self, large_project):
        # The kernel holds the signed QA rows (2 n-vectors) and one label row
        # (1); the traced peak of run_grid is 3.61 n-length float64 vectors
        # (7.0 with the dense (n, 4) column matrix).
        bound = 4 * 8 * len(large_project.sizes)
        config = GridConfig(repetitions=1, seed=424242)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_grid(large_project, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < bound


class TestRecordTable:
    def test_sequence_of_row_views(self, project_e):
        config = GridConfig(accuracies=(0.3, 0.8), repetitions=2, seed=10)
        table = run_grid(project_e, config)
        reference = reference_grid(project_e, config)
        assert len(table) == len(reference) == 2 * 2 * 2 * 6
        assert table[0] == reference[0] and table[-1] == reference[-1]
        assert table[3:7] == reference[3:7]
        assert list(table) == reference
        assert table == reference and reference == table
        assert table == run_grid(project_e, config)
        with pytest.raises(IndexError):
            table[len(table)]

    def test_differs_from_other_records(self, project_e):
        config = GridConfig(accuracies=(0.5,), repetitions=1, seed=11)
        table = run_grid(project_e, config)
        records = list(table)
        assert repr(table) == "<RecordTable of 12 records>"
        assert (table == 5) is False
        assert table != records[:-1]
        records[0] = replace(records[0], lower=records[0].lower + 1.0)
        assert table != records
