import pytest
from hypothesis import given
from hypothesis import strategies as st

from defectcost import (
    Artifact,
    Defect,
    InputContractError,
    ParseError,
    Prediction,
    Project,
    Relationship,
    format_matrix,
    parse_matrix,
    parse_prediction,
    project_view,
    summarize,
)
from defectcost.synthetic import SAMPLE_AGGREGATES, project_from_aggregates

from .strategies import projects

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

    @pytest.mark.parametrize("bad", ["", "a,b", "a\nb", "d\r", "\r"])
    @pytest.mark.parametrize("where", ["artifact", "defect"])
    def test_format_rejects_unwritable_id(self, bad, where):
        file_id = bad if where == "artifact" else "f"
        defect_id = bad if where == "defect" else "d"
        project = Project("p", (Artifact(file_id, 1),), (Defect(defect_id, frozenset({file_id})),))
        with pytest.raises(InputContractError, match="cannot be written"):
            format_matrix(project)


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


class TestSummarize:
    def test_worked_example(self, project_e):
        stats = summarize(project_e)
        assert stats.n_artifacts == 3
        assert stats.n_defective == 2
        assert stats.n_defects == 2
        assert stats.mean_members == 1.5
        assert stats.mean_size == pytest.approx(160 / 3)
        assert not stats.defect_free

    def test_empty_project(self):
        stats = summarize(parse_matrix("file,loc\n"))
        assert stats.n_artifacts == 0 and stats.n_defects == 0
        assert stats.mean_members == 0.0 and stats.mean_size == 0.0
        assert stats.defect_free

    def test_synthetic_project_hits_target_aggregates(self):
        spec = next(s for s in SAMPLE_AGGREGATES if s.name == "falcon")
        stats = summarize(project_from_aggregates(spec, seed=7))
        assert stats.n_artifacts == 577
        assert stats.n_defective == 38
        assert stats.n_defects == 33
        assert stats.mean_members == pytest.approx(2.91, abs=0.01)
        assert stats.mean_size == pytest.approx(121.82, abs=0.5)

    @given(projects())
    def test_one_to_m_defect_count_is_total_spread(self, project):
        spread = sum(len(d.members) for d in project.defects)
        assert summarize(project_view(project, Relationship.ONE_TO_M)).n_defects == spread
