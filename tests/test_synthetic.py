"""The synthetic project generator against its reference, and the specs it rejects."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectcost import (
    AggregateSpec,
    InputContractError,
    parse_matrix,
    project_from_aggregates,
    sample_corpus,
)
from defectcost.synthetic import SAMPLE_AGGREGATES

from . import synthetic_reference


def arrays(project) -> tuple:
    """Everything the generator draws: file ids, sizes, member CSR and defect ids."""
    indices, starts = project._member_csr
    return (
        project._file_ids,
        project.sizes.tolist(),
        indices.tolist(),
        starts.tolist(),
        project._defect_ids,
        [array.dtype for array in (project.sizes, indices, starts)],
    )


def digest(project) -> str:
    h = hashlib.sha256()
    h.update("\n".join(project._file_ids).encode())
    for array in (project.sizes, *project._member_csr):
        h.update(b"\0")
        h.update(array.astype("<i8").tobytes())
    h.update(b"\0")
    h.update("\n".join(project._defect_ids).encode())
    return h.hexdigest()


@st.composite
def specs(draw, min_files=1, max_files=60):
    """Specs ``project_from_aggregates`` can meet, defect-free and capped ones included."""
    n_files = draw(st.integers(min_files, max_files))
    n_defective = draw(st.integers(0, min(n_files, 40)))
    n_defects = draw(st.integers(1, 30)) if n_defective else 0
    slots = draw(st.integers(max(n_defects, n_defective), n_defects * n_defective))
    total_size = draw(st.integers(n_files, 300 * n_files))
    return AggregateSpec(
        "p", n_files, n_defective, n_defects, slots / n_defects if n_defects else 0.0,
        total_size / n_files,
    )


def same_draws(spec, seed):
    """The generator and its reference build the same arrays and leave the same Generator."""
    if isinstance(seed, int):
        assert arrays(project_from_aggregates(spec, seed)) == arrays(
            synthetic_reference.project_from_aggregates(spec, seed)
        )
    else:
        reference = np.random.Generator(np.random.PCG64())
        reference.bit_generator.state = seed.bit_generator.state
        assert arrays(project_from_aggregates(spec, seed)) == arrays(
            synthetic_reference.project_from_aggregates(spec, reference)
        )
        assert seed.bit_generator.state == reference.bit_generator.state


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(specs(), st.integers(0, 2**64 - 1))
    @example(AggregateSpec("capped", 12, 2, 9, 2.0, 3.0), 0)
    @example(AggregateSpec("one", 5, 1, 1, 1.0, 1.0), 3)
    @example(AggregateSpec("clean", 7, 0, 0, 0.0, 4.5), 11)
    def test_int_seed(self, spec, seed):
        same_draws(spec, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(specs(), min_size=1, max_size=4), st.integers(0, 2**32))
    def test_shared_generator(self, spec_list, seed):
        rng = np.random.default_rng(seed)
        for spec in spec_list:
            same_draws(spec, rng)

    @settings(max_examples=10, deadline=None)
    @given(specs(min_files=9_990, max_files=12_000), st.integers(0, 2**32))
    @example(AggregateSpec("wide", 12_000, 40, 30, 3.5, 20.0), 5)
    def test_ten_thousand_files_and_more(self, spec, seed):
        # ids past f9999 sort before it, as text: f10000 < f9999
        same_draws(spec, np.random.default_rng(seed))

    def test_sample_corpus(self):
        rng, reference = np.random.default_rng(2024), np.random.default_rng(2024)
        for spec in SAMPLE_AGGREGATES:
            assert arrays(project_from_aggregates(spec, rng)) == arrays(
                synthetic_reference.project_from_aggregates(spec, reference)
            )
        assert rng.bit_generator.state == reference.bit_generator.state


def test_large_spec_digest():
    # sha256 of the large benchmark project's arrays, as the reference drew them
    spec = AggregateSpec("large", 100_000, 2_000, 1_500, 2.5, 100.0)
    assert digest(project_from_aggregates(spec, 2024)) == (
        "eac6de57b73f5527bccd0fd3d823a871a27d2cb7113ad887fd375eae47701246"
    )


class TestRejectedSpecs:
    @pytest.mark.parametrize(
        "spec, message",
        [
            (AggregateSpec(5, 10, 2, 1, 1.0, 5.0), "name must be a string"),
            (AggregateSpec("a", 10, 0, 2, 1.0, 5.0), "2 member slots exceed the 0"),
            (AggregateSpec("e", 10, 2, 1, 3.0, 5.0), "3 member slots exceed the 2"),
            (AggregateSpec("n", 10, 2, 1, float("nan"), 5.0), "mean_members must be a finite"),
            (AggregateSpec("s", 10, 2, 1, 1.0, float("nan")), "mean_size must be a finite"),
            (AggregateSpec("i", 10, 2, 1, 1.0, float("inf")), "mean_size must be a finite"),
            (AggregateSpec("o", 10, 2, 2, 1e308, 5.0), "overflow"),
            (AggregateSpec("f", 10.5, 2, 1, 2.0, 5.0), "n_artifacts must be an integer"),
            (AggregateSpec("b", 10, True, 1, 1.0, 5.0), "n_defective must be an integer"),
            (AggregateSpec("m", 10, -1, 1, 1.0, 5.0), "n_defective must be >= 0"),
            (AggregateSpec("z", 10, 3, 0, 2.0, 5.0), "cannot cover 0 defects and 3 defective"),
            (AggregateSpec("x", 3, 4, 4, 1.0, 5.0), "n_defective cannot exceed n_artifacts"),
            (AggregateSpec("t", 10, 2, 1, 2.0, 0.5), "cannot place total size 5 on 10 files"),
        ],
    )
    def test_rejected_before_any_draw(self, spec, message):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(InputContractError, match=message):
            project_from_aggregates(spec, rng)
        assert rng.bit_generator.state == state

    def test_no_files(self):
        # no 0/0 warning: the suite turns warnings into errors
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        project = project_from_aggregates(AggregateSpec("empty", 0, 0, 0, 0.0, 7.0), rng)
        assert rng.bit_generator.state == state
        assert project == parse_matrix("file,loc\n", project_id="empty")
        assert arrays(project) == arrays(parse_matrix("file,loc\n", project_id="empty"))

    def test_numpy_integer_counts_accepted(self):
        spec = AggregateSpec("np", np.int64(30), np.int64(4), np.int64(3), 2.0, 9.0)
        reference = AggregateSpec("np", 30, 4, 3, 2.0, 9.0)
        assert arrays(project_from_aggregates(spec, np.uint64(1))) == arrays(
            project_from_aggregates(reference, 1)
        )

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), -(2**70), 1.5, "3", True, None], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InputContractError, match="seed must be a non-negative integer"):
            project_from_aggregates(AggregateSpec("a", 10, 2, 2, 1.5, 5.0), seed)
        with pytest.raises(InputContractError, match="seed must be a non-negative integer"):
            sample_corpus(seed)
