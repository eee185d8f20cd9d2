import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectcost.reporting
from defectcost import (
    ALL_KINDS,
    Artifact,
    ConfusionMatrix,
    ExperimentRecord,
    GridConfig,
    InputContractError,
    ModelKind,
    ParseError,
    Project,
    QAMode,
    Relationship,
    emit_records,
    parse_records,
    render_scatter,
    run_grid,
    sample_corpus,
    trend,
)
from defectcost.reporting import BOUNDS, CSV_COLUMNS, METRICS
from defectcost.simulation import RecordTable

from .record_reference import reference_parse_records, reference_trend
from .strategies import projects

CONST_NM = ModelKind(QAMode.CONSTANT, Relationship.N_TO_M)


def record(
    accuracy=0.5,
    repetition=0,
    p_qf=0.0,
    kind=CONST_NM,
    precision=0.8,
    recall=0.4,
    lower=1.0,
    upper=2.0,
):
    return ExperimentRecord(
        project="p",
        accuracy=accuracy,
        repetition=repetition,
        p_qf=p_qf,
        kind=kind,
        cm=ConfusionMatrix(tp=4, fp=1, tn=10, fn=6),
        precision=precision,
        recall=recall,
        lower=lower,
        upper=upper,
        cost_saving=math.isfinite(lower) and lower < upper,
    )


class TestEmitRecords:
    def test_single_record_csv(self):
        text = emit_records([record()])
        lines = text.strip().split("\n")
        assert lines[0].startswith("project,accuracy,repetition,p_qf,qa_mode,relationship")
        assert len(lines) == 2
        assert lines[1] == "p,0.5,0,0.0,const,n-m,4,1,10,6,0.8,0.4,1.0,2.0,true"

    def test_unbounded_rendered_as_inf(self):
        text = emit_records([record(upper=math.inf)])
        assert ",inf," in text

    def test_undefined_metric_is_empty_field(self):
        text = emit_records([record(precision=None)])
        row = text.strip().split("\n")[1]
        assert ",,0.4," in row

    def test_csv_round_trip(self):
        records = [
            record(),
            record(accuracy=0.25, precision=None, upper=math.inf),
            record(p_qf=0.5, kind=ModelKind(QAMode.SIZE_AWARE, Relationship.ONE_TO_ONE)),
        ]
        assert parse_records(emit_records(records)) == records

    def test_numpy_float_boundaries_round_trip(self):
        records = [
            record(lower=np.float64(1.0), upper=np.float64(2.5)),
            record(accuracy=0.25, lower=np.float64(3.0), upper=np.float64(math.inf)),
        ]
        text = emit_records(records)
        assert text.split("\n")[2].endswith(",3.0,inf,true")
        assert parse_records(text) == records

    def test_grid_round_trip(self, project_e):
        records = run_grid(project_e, GridConfig(accuracies=(0.5,), repetitions=2, seed=4))
        assert parse_records(emit_records(records)) == records

    def test_integer_settings_round_trip(self, project_e):
        config = GridConfig(accuracies=(1,), repetitions=2, p_qf_values=(0,), seed=4)
        text = emit_records(run_grid(project_e, config))
        assert emit_records(parse_records(text)) == text

    def test_unknown_format(self):
        for format in ("xml", "json"):
            with pytest.raises(InputContractError, match="unknown format"):
                emit_records([record()], format=format)
            with pytest.raises(InputContractError, match="unknown format"):
                parse_records(emit_records([record()]), format=format)

    def test_bad_header_rejected(self):
        with pytest.raises(Exception, match="header"):
            parse_records("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("project", ["a,b", "a\nb", "a\rb"])
    def test_csv_rejects_project_id_it_cannot_hold(self, project):
        with pytest.raises(InputContractError, match="comma or a line break"):
            emit_records([record(), replace(record(), project=project)])
        table = run_grid(
            Project(project, (Artifact("f", 1),), ()), GridConfig(accuracies=(0.5,), repetitions=1)
        )
        with pytest.raises(InputContractError):
            emit_records(table)


class TestParseRecordsStrict:
    @pytest.mark.parametrize(
        "column, value",
        [
            ("accuracy", "nan"),
            ("accuracy", "1.5"),
            ("accuracy", "-0.1"),
            ("p_qf", "nan"),
            ("p_qf", "1.0"),
            ("p_qf", "-0.5"),
            ("repetition", "-1"),
            ("tp", "-4"),
            ("tn", "-1"),
            ("precision", "7.0"),
            ("recall", "nan"),
            ("lower", "-1.0"),
            ("lower", "-inf"),
            ("upper", "nan"),
        ],
    )
    def test_csv_field_out_of_range(self, column, value):
        header, row = emit_records([record()]).split("\n")[:2]
        fields = row.split(",")
        fields[header.split(",").index(column)] = value
        with pytest.raises(ParseError, match=column) as err:
            parse_records(f"{header}\n{','.join(fields)}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "column, value",
        [
            ("tp", "+4"),
            ("tp", "1_0"),
            ("fp", " 6 "),
            ("tn", "\u0661\u0660"),
            ("fn", "06"),
            ("fn", ""),
            ("repetition", "+0"),
            ("repetition", "0_0"),
            ("accuracy", "\u0664"),
            ("accuracy", " 0.5 "),
            ("p_qf", "0_0.0"),
            ("precision", "0.5 "),
            ("recall", "\u0660.4"),
            ("lower", "Infinity"),
            ("lower", "INF"),
            ("lower", "infinity"),
            ("upper", "+inf"),
            ("upper", "1_0.0"),
            ("upper", " 1.0 "),
            ("lower", "\u0664"),
            *(
                (column, text)
                for column in ("accuracy", "p_qf", "precision", "recall")
                for text in ("+0.5", "0.50", "00.5", "5e-1", "1e0")
            ),
        ],
    )
    def test_csv_number_not_as_written(self, column, value):
        header, row = emit_records([record()]).split("\n")[:2]
        fields = row.split(",")
        fields[header.split(",").index(column)] = value
        with pytest.raises(ParseError, match=column) as err:
            parse_records(f"{header}\n{row}\n{','.join(fields)}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("text", ["1e999", "1e309"])
    def test_bound_overflowing_to_inf_is_located(self, text, bound):
        # only the text inf may read as an unbounded boundary; 1e308 is finite
        header, row = emit_records([record()]).split("\n")[:2]
        fields = row.split(",")
        fields[CSV_COLUMNS.index(bound)] = text
        with pytest.raises(ParseError, match=bound) as err:
            parse_records(f"{header}\n{row}\n{','.join(fields)}\n")
        assert err.value.line == 3
        fields[CSV_COLUMNS.index(bound)] = "1e308"
        table = parse_records(f"{header}\n{row}\n{','.join(fields)}\n")
        assert getattr(table, bound)[1] == 1e308

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789.e+-infINFty _\u0664", max_size=8), st.sampled_from(BOUNDS))
    def test_bound_text_as_repr_writes_it(self, text, bound):
        # the column check and the row-by-row check agree: every text is
        # either read as repr or inf writes it, or reported at its line
        header, row = emit_records([record()]).split("\n")[:2]
        fields = row.split(",")
        fields[CSV_COLUMNS.index(bound)] = text
        try:
            table = parse_records(f"{header}\n{row}\n{','.join(fields)}\n")
        except ParseError as error:
            assert error.line == 3
            return
        assert text == "inf" or set(text) <= set("0123456789.e+-")
        assert getattr(table, bound)[1] == float(text)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_unbounded_boundary_spelled_otherwise_is_located(self, project_e, bound):
        text = emit_records(run_grid(project_e, GridConfig(repetitions=1, seed=2)))
        lines = text.split("\n")
        column = CSV_COLUMNS.index(bound)
        at = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[column] == "inf")
        fields = lines[at].split(",")
        fields[column] = "Infinity"
        lines[at] = ",".join(fields)
        with pytest.raises(ParseError, match=bound) as err:
            parse_records("\n".join(lines))
        assert err.value.line == at + 1


class TestTrend:
    def test_hand_binned(self):
        records = [
            record(precision=0.1, lower=1.0),
            record(precision=0.9, lower=3.0),
        ]
        series = trend(records, "precision", CONST_NM, "lower", n_bins=2)
        assert series.bins == ((0.25, 1.0, 1), (0.75, 3.0, 1))
        assert series.excluded == 0

    def test_metric_value_one_lands_in_last_bin(self):
        records = [record(precision=1.0, lower=5.0) for _ in range(3)]
        series = trend(records, "precision", CONST_NM, "lower", n_bins=4)
        assert series.bins[-1] == (0.875, 5.0, 3)
        assert all(count == 0 for _, _, count in series.bins[:-1])

    def test_unbounded_records_excluded(self):
        records = [record(upper=math.inf), record(upper=math.inf)]
        series = trend(records, "precision", CONST_NM, "upper", n_bins=2)
        assert series.excluded == 2
        assert all(count == 0 for _, _, count in series.bins)

    def test_undefined_metric_excluded(self):
        series = trend([record(precision=None)], "precision", CONST_NM, "lower")
        assert series.excluded == 1

    def test_other_kinds_ignored(self):
        other = record(kind=ModelKind(QAMode.SIZE_AWARE, Relationship.N_TO_M))
        series = trend([record(), other], "precision", CONST_NM, "lower", n_bins=2)
        assert sum(count for _, _, count in series.bins) == 1

    def test_permutation_invariant(self, rng):
        records = [
            record(precision=float(p), lower=float(b))
            for p, b in zip(rng.random(60), rng.uniform(0.5, 9.0, 60))
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert trend(records, "precision", CONST_NM, "lower") == trend(
            shuffled, "precision", CONST_NM, "lower"
        )

    def test_bins_cover_unit_interval(self):
        series = trend([record()], "recall", CONST_NM, "lower", n_bins=10)
        midpoints = [m for m, _, _ in series.bins]
        assert midpoints == [round(0.05 + 0.1 * i, 2) for i in range(10)]

    def test_n_bins_minimum(self):
        with pytest.raises(InputContractError):
            trend([record()], "precision", CONST_NM, "lower", n_bins=1)

    def test_unknown_metric(self):
        with pytest.raises(InputContractError):
            trend([record()], "accuracy", CONST_NM, "lower")


class TestRenderScatter:
    def test_three_records_give_six_points_two_polylines(self):
        records = [
            record(precision=0.2, lower=1.0, upper=4.0),
            record(precision=0.5, lower=1.5, upper=3.0),
            record(precision=0.8, lower=2.0, upper=2.5),
        ]
        svg = render_scatter(records, "precision", CONST_NM)
        root = ET.fromstring(svg)
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(circles) == 6
        assert len(polylines) == 2

    def test_axes_labeled(self):
        svg = render_scatter([record()], "recall", CONST_NM)
        assert ">recall<" in svg
        assert "cost ratio boundary" in svg

    def test_deterministic_bytes(self):
        records = [record(precision=0.3), record(precision=0.6, lower=2.0)]
        assert render_scatter(records, "precision", CONST_NM) == render_scatter(
            records, "precision", CONST_NM
        )

    def test_unbounded_points_dropped(self):
        records = [
            record(precision=0.2, lower=1.0, upper=math.inf),
            record(precision=0.7, lower=2.0, upper=3.0),
        ]
        svg = render_scatter(records, "precision", CONST_NM)
        root = ET.fromstring(svg)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 3

    def test_nothing_to_plot(self):
        with pytest.raises(InputContractError, match="nothing to plot"):
            render_scatter([record(precision=None)], "precision", CONST_NM)
        with pytest.raises(InputContractError, match="nothing to plot"):
            render_scatter([], "precision", CONST_NM)


# Legal project ids that str.splitlines would break apart or that read like values.
ADVERSARIAL_IDS = ("", "inf", "é", "a\x85b", "a\u2028b", "a\x0bb", "p")
unit_floats = st.floats(0.0, 1.0)


@st.composite
def record_lists(draw, max_cells=6, max_rows=30):
    """Records over a few cells, so cells repeat, in no particular order."""
    cells = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ADVERSARIAL_IDS),
                unit_floats,
                st.integers(0, 10**6),
                st.builds(ConfusionMatrix, *[st.integers(0, 10**6)] * 4),
                st.none() | unit_floats,
                st.none() | unit_floats,
            ),
            min_size=1,
            max_size=max_cells,
        )
    )
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(cells),
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(ALL_KINDS),
                st.floats(min_value=0.0),
                st.floats(min_value=0.0),
                st.booleans(),
            ),
            max_size=max_rows,
        )
    )
    return [
        ExperimentRecord(project, accuracy, repetition, p_qf, kind, cm, precision, recall,
                         lower, upper, saving)
        for (project, accuracy, repetition, cm, precision, recall), p_qf, kind, lower, upper, saving
        in rows
    ]


class TestRecordTableParse:
    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_round_trip_with_adversarial_ids(self, records):
        text = emit_records(records)
        parsed = parse_records(text)
        assert isinstance(parsed, RecordTable)
        assert parsed == records
        assert emit_records(parsed) == text

    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_equals_the_per_row_parser(self, records):
        text = emit_records(records)
        table = parse_records(text)
        reference = reference_parse_records(text)
        assert table == reference
        assert emit_records(table) == emit_records(reference)

    def test_shuffled_grid_equals_the_per_row_parser(self, project_e, rng):
        records = list(run_grid(project_e, GridConfig(accuracies=(0.7, 0.2, 0.7), repetitions=3)))
        rng.shuffle(records)
        text = emit_records(records)
        assert parse_records(text) == reference_parse_records(text)

    def test_each_cell_and_setting_stored_once(self, project_e):
        config = GridConfig(accuracies=(0.2, 0.8), repetitions=4, seed=3)
        table = parse_records(emit_records(run_grid(project_e, config)))
        assert len(table.accuracy) == 2 * 4
        assert len(table.settings) == 2 * 6
        assert len(table) == 2 * 4 * 2 * 6

    def test_plot_fingerprint(self):
        # sha256 of the concatenated render_scatter(parse_records(emit_records(
        # run_grid(p, GridConfig(seed=424242)))), "precision", const-n-m) over
        # sample_corpus(2024), as the per-row parser and list scans drew it
        digest = hashlib.sha256()
        for project in sample_corpus(2024):
            text = emit_records(run_grid(project, GridConfig(seed=424242)))
            digest.update(render_scatter(parse_records(text), "precision", CONST_NM).encode())
        assert digest.hexdigest() == (
            "c297c9f68da920c7a87fd586d7b4d44d60c582eefee9ea2cb4a2b9ec01ee3706"
        )


def _grid_csv_lines(project, repetitions):
    config = GridConfig(accuracies=(0.3, 0.6), repetitions=repetitions, seed=5)
    return emit_records(run_grid(project, config)).split("\n")


def _corrupt(line: str, column: str, value: str) -> str:
    fields = line.split(",")
    fields[CSV_COLUMNS.index(column)] = value
    return ",".join(fields)


@st.composite
def spaced_grid_texts(draw):
    """Emitted grid text with blank lines mixed in and at most one field corrupted."""
    config = GridConfig(
        accuracies=(0.3, 0.6), repetitions=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99))
    )
    project = draw(projects(max_artifacts=5, max_defects=3))
    lines = emit_records(run_grid(project, config)).split("\n")
    if draw(st.booleans()):
        at = draw(st.integers(1, len(lines) - 2))
        value = draw(st.sampled_from(["x", "", "x,y"]))
        lines[at] = _corrupt(lines[at], draw(st.sampled_from(CSV_COLUMNS)), value)
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=30)), reverse=True):
        lines.insert(at, "")
    return "\n".join(lines)


def _outcome(parse, text):
    """What ``parse`` returns, or the message and line of its ``ParseError``."""
    try:
        return parse(text)
    except ParseError as error:
        return str(error), error.line


class TestParseErrorLines:
    @pytest.mark.parametrize("line", [3, 2_000, 5_000, 9_601])
    def test_bad_row_reported_at_its_own_line(self, project_e, line):
        lines = _grid_csv_lines(project_e, 400)  # header, 9,600 rows, ""
        lines[line - 1] = _corrupt(lines[line - 1], "upper", "x")
        with pytest.raises(ParseError, match="upper") as err:
            parse_records("\n".join(lines))
        assert err.value.line == line

    def test_first_bad_row_wins_whatever_its_column(self, project_e):
        lines = _grid_csv_lines(project_e, 100)
        lines[20] = _corrupt(lines[20], "cost_saving", "maybe")
        lines[29] = _corrupt(lines[29], "accuracy", "2")
        lines[39] = lines[39] + ",extra"
        with pytest.raises(ParseError, match="cost_saving") as err:
            parse_records("\n".join(lines))
        assert err.value.line == 21

    def test_blank_lines_are_counted(self, project_e):
        header, *rows = _grid_csv_lines(project_e, 1)[:-1]
        rows[2] = _corrupt(rows[2], "lower", "-1.0")
        text = "\n".join([header, "", "", rows[0], "", rows[1], "", rows[2]]) + "\n\n"
        with pytest.raises(ParseError, match="lower") as err:
            parse_records(text)
        assert err.value.line == 8
        crlf = "\r\n".join([header, "", rows[0], "", rows[1]]) + "\r\n"
        assert parse_records(crlf) == parse_records("\n".join([header] + rows[:2]))

    def test_blank_lines_across_chunks(self, project_e):
        lines = _grid_csv_lines(project_e, 400)
        spaced = [line for i, line in enumerate(lines) for line in ([line, ""] if i % 7 else [line])]
        spaced[1:1] = [""] * 5_000  # a chunk of blank lines only
        bad = len(spaced) - 3 if spaced[-3] else len(spaced) - 4
        spaced[bad] = _corrupt(spaced[bad], "tp", "-3")
        with pytest.raises(ParseError, match="tp") as err:
            parse_records("\n".join(spaced))
        assert err.value.line == bad + 1

    @settings(max_examples=200, deadline=None)
    @given(spaced_grid_texts(), st.integers(1, 24))
    def test_chunks_of_any_size(self, text, chunk_lines):
        """Records read in chunks of any size give the result of the whole text in one."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(defectcost.reporting, "_CHUNK_LINES", 1 << 30)
            whole = _outcome(parse_records, text)
            patch.setattr(defectcost.reporting, "_CHUNK_LINES", chunk_lines)
            assert _outcome(parse_records, text) == whole
        expected = _outcome(reference_parse_records, text)
        if isinstance(whole, RecordTable):
            assert whole == expected
        else:
            # the per-row parser numbers only the lines that are not blank
            assert expected[1] == len(list(filter(None, text.split("\n")[: whole[1]])))

    def test_header_after_blank_lines(self, project_e):
        lines = _grid_csv_lines(project_e, 1)
        assert len(parse_records("\n\n" + "\n".join(lines))) == 2 * 12
        with pytest.raises(ParseError, match="header") as err:
            parse_records("\n\n" + "\n".join(lines[1:]))
        assert err.value.line == 3


class TestColumnFedTrend:
    def test_table_and_list_agree_with_the_scan(self, project_e):
        table = run_grid(project_e, GridConfig(accuracies=(0.1, 0.5, 0.9), repetitions=20, seed=8))
        records = list(table)
        for kind in ALL_KINDS:
            for metric in METRICS:
                for bound in BOUNDS:
                    series = trend(table, metric, kind, bound, n_bins=7)
                    assert series == trend(records, metric, kind, bound, n_bins=7)
                    assert series == reference_trend(records, metric, kind, bound, n_bins=7)
                assert render_scatter(table, metric, kind) == render_scatter(records, metric, kind)

    def test_scan_reference_on_shuffled_records(self, rng):
        records = [
            record(precision=None if p > 0.9 else float(p), lower=float(b),
                   upper=math.inf if b > 8 else float(b) + 1.0,
                   kind=ALL_KINDS[int(k)])
            for p, b, k in zip(rng.random(300), rng.uniform(0.0, 9.0, 300), rng.integers(0, 6, 300))
        ]
        rng.shuffle(records)
        for bound in BOUNDS:
            assert trend(records, "precision", CONST_NM, bound) == reference_trend(
                records, "precision", CONST_NM, bound
            )

    def test_unknown_bound(self):
        with pytest.raises(InputContractError, match="bound"):
            trend([record()], "precision", CONST_NM, "middle")
