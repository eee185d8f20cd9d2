import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from defectcost import (
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
    trend,
)

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

    def test_json_round_trip(self):
        records = [record(), record(precision=None, upper=math.inf)]
        text = emit_records(records, format="json")
        assert parse_records(text, format="json") == records

    def test_grid_round_trip(self, project_e):
        records = run_grid(project_e, GridConfig(accuracies=(0.5,), repetitions=2, seed=4))
        for fmt in ("csv", "json"):
            assert parse_records(emit_records(records, format=fmt), format=fmt) == records

    def test_unknown_format(self):
        with pytest.raises(InputContractError):
            emit_records([record()], format="xml")

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
        records = [replace(record(), project=project)]
        assert parse_records(emit_records(records, format="json"), format="json") == records

    def test_json_output_unchanged(self):
        text = emit_records([record(precision=None, upper=math.inf)], format="json")
        assert text == (
            '[{"project":"p","accuracy":0.5,"repetition":0,"p_qf":0.0,"qa_mode":"const",'
            '"relationship":"n-m","tp":4,"fp":1,"tn":10,"fn":6,"precision":null,'
            '"recall":0.4,"lower":1.0,"upper":"inf","cost_saving":true}]\n'
        )


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
        ],
    )
    def test_csv_field_out_of_range(self, column, value):
        header, row = emit_records([record()]).split("\n")[:2]
        fields = row.split(",")
        fields[header.split(",").index(column)] = value
        with pytest.raises(ParseError, match=column) as err:
            parse_records(f"{header}\n{','.join(fields)}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("saving", [1, 0, None, 1.0])
    def test_json_cost_saving_must_be_boolean(self, saving):
        rows = json.loads(emit_records([record()], format="json"))
        rows[0]["cost_saving"] = saving
        with pytest.raises(ParseError, match="cost_saving"):
            parse_records(json.dumps(rows), format="json")

    def test_json_null_number_rejected(self):
        rows = json.loads(emit_records([record()], format="json"))
        rows[0]["tp"] = None
        with pytest.raises(ParseError, match="tp"):
            parse_records(json.dumps(rows), format="json")


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
