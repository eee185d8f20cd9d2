import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectcost.io
from defectcost import (
    AggregateSpec,
    Artifact,
    Defect,
    InputContractError,
    ParseError,
    Prediction,
    Project,
    Relationship,
    classify,
    format_matrix,
    parse_matrix,
    parse_prediction,
    project_view,
    sample_corpus,
    summarize,
)
from defectcost.synthetic import SAMPLE_AGGREGATES, project_from_aggregates

from . import matrix_reference
from .strategies import labeled_projects, projects

MATRIX_E = "file,loc,d1,d2\ns1,100,1,1\ns2,50,0,1\ns3,10,0,0\n"

# ids matrix CSV can hold: non-empty, without a comma or a line break
MATRIX_IDS = st.one_of(
    st.sampled_from(["inf", "é", "a\x85b", "a b", "file", "loc", "0", "1", " ", "\u2028"]),
    st.text(st.characters(blacklist_characters=",\n\r"), min_size=1, max_size=6),
)


@st.composite
def renamed_projects(draw):
    """A small project whose artifact and defect ids are drawn from ``MATRIX_IDS``."""
    project = draw(projects())
    n, m = len(project.artifacts), len(project.defects)
    files = draw(st.lists(MATRIX_IDS, min_size=n, max_size=n, unique=True))
    defects = draw(st.lists(MATRIX_IDS, min_size=m, max_size=m, unique=True))
    name = dict(zip((a.id for a in project.artifacts), files))
    return Project(
        project.id,
        tuple(Artifact(name[a.id], a.size) for a in project.artifacts),
        tuple(
            Defect(defect_id, frozenset(name[f] for f in d.members))
            for defect_id, d in zip(defects, project.defects)
        ),
    )


class TestParseMatrix:
    def test_worked_example(self, project_e):
        assert parse_matrix(MATRIX_E, project_id="E") == project_e

    def test_crlf_accepted(self, project_e):
        assert parse_matrix(MATRIX_E.replace("\n", "\r\n"), project_id="E") == project_e

    def test_corpus_matrices_across_blocks(self):
        """Corpus matrices that span several blocks parse as they do in one."""
        blocks = []
        for project in sample_corpus(2024):
            text = format_matrix(project)
            per_block = defectcost.io._BLOCK // (2 * len(project.defects))
            blocks.append(-(-len(project.artifacts) // per_block))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(defectcost.io, "_BLOCK", 1 << 30)
                whole = parse_matrix(text, project_id=project.id)
            assert parse_matrix(text, project_id=project.id) == whole == project
        assert max(blocks) > 1

    def test_header_only_is_empty_project(self):
        project = parse_matrix("file,loc\n")
        assert project.artifacts == () and project.defects == ()
        assert project.relationship is Relationship.N_TO_M

    def test_non_binary_cell_located(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("file,loc,d1\ns1,10,2\n")
        assert err.value.line == 2 and err.value.column == 3
        assert "0 or 1" in str(err.value)

    def test_duplicate_file_id(self):
        with pytest.raises(ParseError, match="duplicate file id"):
            parse_matrix("file,loc,d1\ns1,10,1\ns1,20,0\n")

    def test_duplicate_defect_id(self):
        with pytest.raises(ParseError, match="duplicate defect id"):
            parse_matrix("file,loc,d1,d1\ns1,10,1,1\n")

    def test_size_below_one(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("file,loc,d1\ns1,0,1\n")
        assert err.value.line == 2 and err.value.column == 2

    def test_size_not_an_integer(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_matrix("file,loc,d1\ns1,ten,1\n")

    @pytest.mark.parametrize("size", ["1_000", " 5", "5 ", "+5", "\u0663", "05", "-3", ""])
    def test_size_must_be_plain_ascii_digits(self, size):
        with pytest.raises(ParseError, match="not an integer") as err:
            parse_matrix(f"file,loc,d1\ns0,7,0\ns1,{size},1\n")
        assert err.value.line == 3 and err.value.column == 2

    def test_large_plain_size_accepted(self):
        assert parse_matrix("file,loc,d1\ns1,1000000,1\n").artifacts[0].size == 1_000_000

    def test_total_size_up_to_2_53_accepted(self):
        project = parse_matrix(f"file,loc,d1\ns1,{2**53 - 1},1\ns2,1,0\n")
        assert project.sizes.tolist() == [2**53 - 1, 1]
        assert int(project.sizes.sum()) == 2**53

    @pytest.mark.parametrize(
        "sizes, line",
        [
            (["99999999999999999999999"], 2),  # past int64
            ([str(2**64 + 1)], 2),  # 1 modulo 2^64
            (["9" * 5000], 2),  # past the length int() converts
            ([str(2**53 + 1)], 2),
            ([str(2**62), str(2**62)], 2),  # their int64 sum would wrap to -2^63
            (["7", str(2**53 - 7), "1"], 4),
            ([str(2**53)] * 1100, 3),  # the int64 running total wraps further on
            ([str(2**53), "9" * 20], 3),  # past int64: read as 2^63 - 1
            ([str(2**53), str(2**63 - 1)], 3),  # the int64 running total would wrap negative
        ],
    )
    def test_total_size_above_2_53_located(self, sizes, line):
        rows = "".join(f"s{i},{size},1\n" for i, size in enumerate(sizes))
        with pytest.raises(ParseError, match="total size above 2\\^53") as err:
            parse_matrix("file,loc,d1\n" + rows)
        assert (err.value.line, err.value.column) == (line, 2)

    def test_all_zero_defect_column(self):
        with pytest.raises(ParseError, match="d2"):
            parse_matrix("file,loc,d1,d2\ns1,10,1,0\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("file,loc,d1\ns1,10\n")
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError, match="file,loc"):
            parse_matrix("name,size,d1\ns1,10,1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="header"):
            parse_matrix("")

    def test_round_trip_example(self, project_e):
        assert parse_matrix(format_matrix(project_e), project_id="E") == project_e

    @given(projects())
    def test_round_trip_generated(self, project):
        assert parse_matrix(format_matrix(project), project_id=project.id) == project

    @given(renamed_projects())
    def test_round_trip_any_writable_id(self, project):
        assert parse_matrix(format_matrix(project), project_id=project.id) == project

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("file,loc,d1\na\rb,1,1\n", 2, 1),
            ("file,loc,d\r1\na,1,1\n", 1, 3),
            ("file,loc,d1\r\ns1,1,1\r\n\rb,1,0\r\n", 3, 1),
            ("file,loc,d1,d\r2\r\ns1,1,1,1\r\n", 1, 4),
        ],
    )
    def test_carriage_return_inside_id(self, text, line, column):
        with pytest.raises(ParseError, match="carriage return") as err:
            parse_matrix(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("bad", ["", "a,b", "a\nb", "d\r", "\r", 5])
    @pytest.mark.parametrize("where", ["artifact", "defect"])
    def test_format_rejects_unwritable_id(self, bad, where):
        file_id = bad if where == "artifact" else "f"
        defect_id = bad if where == "defect" else "d"
        # an id that is not a str is refused where it enters, before it is written
        match = "cannot be written" if isinstance(bad, str) else f"{where} id 5 must be a str"
        with pytest.raises(InputContractError, match=match):
            format_matrix(
                Project("p", (Artifact(file_id, 1),), (Defect(defect_id, frozenset({file_id})),))
            )

# What the mutations below insert or write over one character: cell values,
# separators, a two-character cell, a letter, a non-ASCII letter, a digit that
# is not a cell value, a space and nothing (which deletes the character).
EDIT_TOKENS = ["0", "1", ",", "\n", "\r", "01", "a", "é", "2", " ", ""]


@st.composite
def mutated(draw, text):
    """``text`` after one to four insertions, deletions or replacements.

    An edit after the first is often within a few characters of the one
    before, so that one row often holds two errors."""
    at = len(text) // 2
    for _ in range(draw(st.integers(1, 4))):
        near = draw(st.booleans())
        low, high = (max(0, at - 4), min(len(text), at + 4)) if near else (0, len(text))
        at = draw(st.integers(low, high))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        token = draw(st.sampled_from(EDIT_TOKENS))
        if op == "insert":
            text = text[:at] + token + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + token + text[at + 1 :]
    return text


def outcome(parse, *args):
    """What ``parse`` returns, or the message, line and column of its ``ParseError``."""
    try:
        return parse(*args)
    except ParseError as error:
        return str(error), error.line, error.column


@st.composite
def mutated_matrices(draw):
    project = draw(st.one_of(projects(), renamed_projects()))
    return draw(mutated(format_matrix(project)))


class TestParseMatrixAgainstReference:
    """``parse_matrix`` against the cell-by-cell parser in ``matrix_reference``."""

    @settings(max_examples=400)
    @given(mutated_matrices())
    def test_mutated_matrix(self, text):
        assert outcome(parse_matrix, text) == outcome(matrix_reference.parse_matrix, text)

    @settings(max_examples=300)
    @given(mutated_matrices(), st.integers(1, 24))
    def test_mutated_matrix_in_small_blocks(self, text, block):
        """Rows split over many blocks give the result of the whole file in one."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(defectcost.io, "_BLOCK", block)
            assert outcome(parse_matrix, text) == outcome(matrix_reference.parse_matrix, text)

    @settings(max_examples=400)
    @given(mutated_matrices())
    def test_accepted_matrix_can_be_written(self, text):
        result = outcome(parse_matrix, text)
        if isinstance(result, Project):
            assert parse_matrix(format_matrix(result), project_id=result.id) == result

    @settings(max_examples=300)
    @given(mutated_matrices(), st.data())
    def test_mutated_matrix_views_and_outcomes(self, text, data):
        """Views and outcomes of an array-built project equal the object-built ones."""
        project = outcome(parse_matrix, text)
        if not isinstance(project, Project):
            return
        reference = matrix_reference.parse_matrix(text)
        ids = [a.id for a in reference.artifacts]
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(ids), max_size=len(ids)))
        prediction = Prediction(dict(zip(ids, labels)))
        for relationship in Relationship:
            view = project_view(project, relationship)
            expected = matrix_reference.project_view(reference, relationship)
            assert view == expected and hash(view) == hash(expected)
            assert [d.id for d in view.defects] == [d.id for d in expected.defects]
            result = classify(view, prediction)
            assert result == matrix_reference.classify(expected, prediction)

    @pytest.mark.parametrize(
        "text, error",
        [
            (f"file,loc,d1\ns1,{2**53},1\n", None),
            (f"file,loc,d1\ns1,{2**53},1\ns2,1,2\n", ("total size above 2^53", 3, 2)),
            (f"file,loc,d1\ns1,{2**53},2\ns2,1,0\n", ("cell must be 0 or 1", 2, 3)),
            (f"file,loc,d1\ns1,{2**53}\ns2,1,0\n", ("expected 3 fields, found 2", 2, 2)),
            (f"file,loc,d1\ns1,1{'0' * 30},1\ns1,1,0\n", ("total size above 2^53", 2, 2)),
            (f"file,loc,d1\ns1,{2**53},1\ns1,1,0\n", ("duplicate file id 's1'", 3, 1)),
        ],
    )
    def test_total_size_edge_case(self, text, error):
        result = outcome(parse_matrix, text)
        assert result == outcome(matrix_reference.parse_matrix, text)
        if error is None:
            assert isinstance(result, Project)
        else:
            message, line, column = error
            assert message in result[0] and result[1:] == (line, column)

    @pytest.mark.parametrize(
        "text, error",
        [
            # no defect columns: a row has exactly two fields
            ("file,loc\ns1,1\n", None),
            ("file,loc\ns1,1,\n", ("expected 2 fields, found 3", 2, 3)),
            ("file,loc\ns1\n", ("expected 2 fields, found 1", 2, 1)),
            # CRLF, a trailing \r at the end, and blank lines
            (MATRIX_E.replace("\n", "\r\n"), None),
            ("file,loc,d1\r\ns1,1,1\r", None),
            ("file,loc,d1\ns1,1,1\n\n\r\n\n", None),
            ("file,loc,d1\ns1,1,1\n\ns2,1,0\n", ("expected 3 fields, found 1", 3, 1)),
            ("file,loc,d1\ns1,1,1\r\r\n", ("cell must be 0 or 1, got '1\\r'", 2, 3)),
            # the first bad row wins, and within a row: id, size, then each cell
            ("file,loc,d1,d2\ns1,1,0,2\n,1,1,0\n", ("cell must be 0 or 1, got '2'", 2, 4)),
            ("file,loc,d1,d2\ns1,1,1,0\n,x,2,0\n", ("empty file id", 3, 1)),
            ("file,loc,d1,d2\ns1,1,1,0\ns1,1,2,0\n", ("duplicate file id 's1'", 3, 1)),
            ("file,loc,d1,d2\ns1,x,2,0\n", ("size 'x' is not an integer", 2, 2)),
            ("file,loc,d1,d2\ns1,1,0,é\n", ("cell must be 0 or 1, got 'é'", 2, 4)),
            # cells that are not one character each
            ("file,loc,d1,d2\ns1,1,01,1\n", ("cell must be 0 or 1, got '01'", 2, 3)),
            ("file,loc,d1,d2\ns1,1,11,0\n", ("cell must be 0 or 1, got '11'", 2, 3)),
            ("file,loc,d1,d2\ns1,1,1,\n", ("cell must be 0 or 1, got ''", 2, 4)),
            ("file,loc,d1,d2\ns1,1, 1,0\n", ("cell must be 0 or 1, got ' 1'", 2, 3)),
            ("file,loc,d1,d2\ns1,1,1,0,\n", ("expected 4 fields, found 5", 2, 5)),
            ("file,loc,d1,d2\ns1,1,10\n", ("expected 4 fields, found 3", 2, 3)),
            # a \r inside an id, found after a bad row above it and before its own size
            ("file,loc,d1\ns\r1,x,1\n", ("file id 's\\r1' holds a carriage return", 2, 1)),
            ("file,loc,d1\ns1,1,2\ns\r2,1,1\n", ("cell must be 0 or 1, got '2'", 2, 3)),
            ("file,loc,d\r1\ns1,1,2\n", ("defect id 'd\\r1' holds a carriage return", 1, 3)),
        ],
    )
    def test_edge_case(self, text, error):
        result = outcome(parse_matrix, text)
        assert result == outcome(matrix_reference.parse_matrix, text)
        if error is None:
            assert isinstance(result, Project)
        else:
            message, line, column = error
            assert message in result[0] and result[1:] == (line, column)


class TestFormatMatrix:
    @given(st.one_of(projects(), renamed_projects()))
    def test_same_bytes_as_reference(self, project):
        assert format_matrix(project) == matrix_reference.format_matrix(project)

    def test_corpus_fingerprint(self):
        # sha256 of the concatenated format_matrix(p) over sample_corpus(2024),
        # as the cell-by-cell writer wrote it
        digest = hashlib.sha256()
        for project in sample_corpus(2024):
            digest.update(format_matrix(project).encode())
        assert digest.hexdigest() == (
            "cc46dde016bbc662d3e588d39b547ef12d62304fd7613b44293f0ce3b58b8320"
        )


class TestParsePrediction:
    def test_worked_example(self, project_e, prediction_e):
        text = "file,label\ns1,1\ns2,0\ns3,0\n"
        assert parse_prediction(text, project_e) == prediction_e

    def test_missing_artifact(self, project_e):
        with pytest.raises(ParseError, match="unlabeled artifact 's3'"):
            parse_prediction("file,label\ns1,1\ns2,0\n", project_e)

    def test_unknown_artifact(self, project_e):
        with pytest.raises(ParseError, match="unknown artifact 's4'"):
            parse_prediction("file,label\ns1,1\ns2,0\ns3,0\ns4,1\n", project_e)

    def test_duplicate_row(self, project_e):
        with pytest.raises(ParseError, match="duplicate"):
            parse_prediction("file,label\ns1,1\ns1,0\ns2,0\ns3,0\n", project_e)

    def test_non_binary_label(self, project_e):
        with pytest.raises(ParseError, match="0 or 1"):
            parse_prediction("file,label\ns1,maybe\ns2,0\ns3,0\n", project_e)

    def test_bad_header(self, project_e):
        with pytest.raises(ParseError, match="file,label"):
            parse_prediction("path,label\ns1,1\n", project_e)

    def test_project_without_artifacts(self):
        assert parse_prediction("file,label\n", Project("p", (), ())).labels == {}

    @settings(max_examples=300)
    @given(labeled_projects(), st.data())
    def test_mutated_prediction_against_reference(self, case, data):
        project, prediction = case
        if data.draw(st.booleans()):  # ids that are not ASCII, " " or "a\x85b"
            project = data.draw(renamed_projects())
            n = len(project.artifacts)
            labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            prediction = Prediction(dict(zip(project._file_ids, labels)))
        rows = [f"{a.id},{prediction.labels[a.id]}\n" for a in project.artifacts]
        in_order = parse_prediction("file,label\n" + "".join(rows), project)
        assert "labels" not in vars(in_order)  # read by the layout path
        assert in_order == prediction
        if data.draw(st.booleans()):
            rows = data.draw(st.permutations(rows))
        text = data.draw(mutated("file,label\n" + "".join(rows)))
        result = outcome(parse_prediction, text, project)
        expected = outcome(matrix_reference.parse_prediction, text, project)
        assert result == expected
        if isinstance(result, Prediction):  # the same labels, in the same order
            assert list(result.labels.items()) == list(expected.labels.items())

    @pytest.mark.parametrize(
        "rows, error",
        [
            ("s1,1\ns2,0\ns3,0\n", None),
            ("s3,0\r\ns1,1\r\n\ns2,0\n", ("expected 2 fields, found 1", 4, 1)),
            ("s1,1\ns2,0\ns3,0\ns1,1\n", ("duplicate row for artifact 's1'", 5, 1)),
            ("s1,1\ns2,0\ns3,2\ns4,1\n", ("label must be 0 or 1, got '2'", 4, 2)),
            ("s1,1\ns4,5\ns3,2\n", ("unknown artifact 's4'", 3, 1)),
            ("s1,1\ns2,0,1\ns3,0\n", ("expected 2 fields, found 3", 3, 3)),
            ("s1,1\ns3,0\n", ("unlabeled artifact 's2'", None, None)),
        ],
    )
    def test_edge_case(self, project_e, rows, error):
        text = "file,label\n" + rows
        result = outcome(parse_prediction, text, project_e)
        assert result == outcome(matrix_reference.parse_prediction, text, project_e)
        if error is None:
            assert result.labels == {"s1": 1, "s2": 0, "s3": 0}
        else:
            message, line, column = error
            assert message in result[0] and result[1:] == (line, column)


# Pinned prediction texts: the project's file ids, the text, and the labels or the
# message, line and column of the ParseError that parse_prediction gives.
PINNED_PREDICTIONS = {
    "lone surrogate": (("a\ud800", "b"), "file,label\na\ud800,1\nb,0\n", {"a\ud800": 1, "b": 0}),
    "comma in an id": (
        ("a,b", "c"), "file,label\na,b,1\nc,0\n", ("expected 2 fields, found 3", 2, 3)
    ),
    "line break in an id": (
        ("a\nb", "c"), "file,label\na\nb,1\nc,0\n", ("expected 2 fields, found 1", 2, 1)
    ),
    # the text equals the template of the id "x,0\ny": as many line breaks,
    # one comma too many
    "template of an id": (("x,0\ny",), "file,label\nx,0\ny,0\n", ("unknown artifact 'x'", 2, 1)),
    "CRLF": (("s1", "s2"), "file,label\r\ns1,1\r\ns2,0\r\n", {"s1": 1, "s2": 0}),
    "trailing blank line": (("s1", "s2"), "file,label\ns1,1\ns2,0\n\n", {"s1": 1, "s2": 0}),
    "no final line break": (("s1", "s2"), "file,label\ns1,0\ns2,1", {"s1": 0, "s2": 1}),
    "another header": (("s1",), "path,label\ns1,1\n", ("header must be 'file,label'", 1, 1)),
    "no text": (("s1",), "", ("header must be 'file,label'", 1, 1)),
    "no files": ((), "file,label\n", {}),
    "no files, a row": ((), "file,label\n,0\n", ("unknown artifact ''", 2, 1)),
}


@pytest.mark.parametrize("case", PINNED_PREDICTIONS.values(), ids=PINNED_PREDICTIONS.keys())
def test_pinned_prediction(case):
    file_ids, text, expected = case
    project = Project("p", tuple(Artifact(i, 1) for i in file_ids), ())
    result = outcome(parse_prediction, text, project)
    assert result == outcome(matrix_reference.parse_prediction, text, project)
    if isinstance(expected, dict):
        assert list(result.labels.items()) == list(expected.items())
        assert result._mask.tolist() == [bool(expected[i]) for i in file_ids]
    else:
        message, line, column = expected
        assert message in result[0] and result[1:] == (line, column)


def test_lone_surrogate_id_takes_the_layout_path():
    project = Project("p", (Artifact("a\ud800", 1), Artifact("é", 2)), ())
    result = parse_prediction("file,label\na\ud800,1\né,0\n", project)
    assert "labels" not in vars(result) and result._mask.tolist() == [True, False]
    assert list(result.labels.items()) == [("a\ud800", 1), ("é", 0)]


def test_rows_in_another_order_are_read_at_once(project_e, monkeypatch):
    """Valid rows in any order are read without the row-by-row reader."""
    monkeypatch.setattr(defectcost.io, "_labels_by_row", None)
    result = parse_prediction("file,label\ns3,0\ns1,1\ns2,0\n", project_e)
    assert list(result.labels.items()) == [("s3", 0), ("s1", 1), ("s2", 0)]
    assert result._mask.tolist() == [True, False, False]


class TestSummarize:
    def test_worked_example(self, project_e):
        stats = summarize(project_e)
        assert stats.n_artifacts == 3
        assert stats.n_defective == 2
        assert stats.n_defects == 2
        assert stats.mean_members == 1.5
        assert stats.mean_size == pytest.approx(160 / 3)
        assert stats == AggregateSpec("E", 3, 2, 2, 1.5, 160 / 3)

    def test_empty_project(self):
        stats = summarize(parse_matrix("file,loc\n"))
        assert stats.n_artifacts == 0 and stats.n_defects == 0
        assert stats.mean_members == 0.0 and stats.mean_size == 0.0

    def test_synthetic_project_hits_target_aggregates(self):
        spec = next(s for s in SAMPLE_AGGREGATES if s.name == "falcon")
        stats = summarize(project_from_aggregates(spec, seed=7))
        assert stats.n_artifacts == 577
        assert stats.n_defective == 38
        assert stats.n_defects == 33
        assert stats.mean_members == pytest.approx(2.91, abs=0.01)
        assert stats.mean_size == pytest.approx(121.82, abs=0.5)

    def test_a_corpus_project_has_a_synthetic_twin(self):
        for project in sample_corpus(seed=3):
            spec = summarize(project)
            assert summarize(project_from_aggregates(spec, seed=4)) == spec

    @given(projects(), st.sampled_from(Relationship), st.integers(0, 2**32))
    def test_a_synthetic_twin_has_the_same_aggregates(self, project, target, seed):
        spec = summarize(project_view(project, target))
        assert summarize(project_from_aggregates(spec, seed)) == spec

    @given(projects())
    def test_one_to_m_defect_count_is_total_spread(self, project):
        spread = sum(len(d.members) for d in project.defects)
        assert summarize(project_view(project, Relationship.ONE_TO_M)).n_defects == spread
