"""Record serialization, trend summaries, and SVG scatter plots.

Records round-trip losslessly: floats are written with the shortest decimal
that reads back to the same value, an unbounded boundary is written as the
literal ``inf``, and an undefined metric becomes an empty CSV field (``null``
in JSON).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .costs import KIND_BY_CODE, ModelKind
from .errors import InputContractError, ParseError
from .model import ConfusionMatrix
from .simulation import ExperimentRecord, RecordTable

CSV_COLUMNS = (
    "project",
    "accuracy",
    "repetition",
    "p_qf",
    "qa_mode",
    "relationship",
    "tp",
    "fp",
    "tn",
    "fn",
    "precision",
    "recall",
    "lower",
    "upper",
    "cost_saving",
)

METRICS = ("precision", "recall")
BOUNDS = ("lower", "upper")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if value == math.inf else repr(value)
    return str(value)


def _csv_text(table: RecordTable) -> str:
    """The record CSV, formatting each cell's and each setting's fields once.

    Boundaries are floats, so ``repr`` writes them as ``_csv_cell`` would, an
    unbounded one as ``inf``."""
    for project in set(table.project):
        if "," in project or "\n" in project or "\r" in project:
            raise InputContractError(
                f"project id {project!r} contains a comma or a line break, "
                "which record CSV cannot hold"
            )
    heads = [
        f"{_csv_cell(p)},{_csv_cell(a)},{_csv_cell(r)}"
        for p, a, r in zip(table.project, table.accuracy, table.repetition)
    ]
    outcomes = [
        ",".join(map(_csv_cell, fields))
        for fields in zip(table.tp, table.fp, table.tn, table.fn, table.precision, table.recall)
    ]
    settings = [
        f"{_csv_cell(p_qf)},{kind.qa_mode.value},{kind.relationship.value}"
        for p_qf, kind in table.settings
    ]
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(
        f"{heads[c]},{settings[s]},{outcomes[c]},{lo!r},{up!r},{'true' if saving else 'false'}"
        for c, s, lo, up, saving in zip(
            table.cell, table.setting, table.lower, table.upper, table.cost_saving
        )
    )
    lines.append("")
    return "\n".join(lines)


def _json_text(table: RecordTable) -> str:
    rows = []
    for c, s, lo, up, saving in zip(
        table.cell, table.setting, table.lower, table.upper, table.cost_saving
    ):
        p_qf, kind = table.settings[s]
        values = (
            table.project[c], table.accuracy[c], table.repetition[c], p_qf,
            kind.qa_mode.value, kind.relationship.value,
            table.tp[c], table.fp[c], table.tn[c], table.fn[c],
            table.precision[c], table.recall[c],
            "inf" if lo == math.inf else lo, "inf" if up == math.inf else up, saving,
        )
        rows.append(dict(zip(CSV_COLUMNS, values)))
    return json.dumps(rows, indent=None, separators=(",", ":")) + "\n"


def emit_records(records, format: str = "csv") -> str:
    """Serialize experiment records to CSV or JSON, one row/object per record.

    ``records`` is a ``run_grid`` table or any iterable of records, which is
    gathered into the same columns first.  Record CSV has no quoting, so a
    project id holding a comma or a line break is rejected."""
    if format not in ("csv", "json"):
        raise InputContractError(f"unknown format {format!r}, expected 'csv' or 'json'")
    table = RecordTable.from_records(records)
    return _csv_text(table) if format == "csv" else _json_text(table)


def _build_record(row: dict, line: int) -> ExperimentRecord:
    def number(name, convert):
        try:
            return convert(row[name])
        except (ValueError, TypeError, KeyError):
            raise ParseError(f"bad value for {name!r}", line=line) from None

    def optional_float(name):
        value = row.get(name)
        if value in (None, ""):
            return None
        return number(name, float)

    def bound(name):
        value = row[name]
        if value == "inf":
            return math.inf
        return number(name, float)

    qa_mode = row.get("qa_mode")
    relationship = row.get("relationship")
    kind = KIND_BY_CODE.get(f"{qa_mode}-{relationship}")
    if kind is None:
        raise ParseError(f"unknown model kind {qa_mode!r}/{relationship!r}", line=line)
    saving = row["cost_saving"]
    if isinstance(saving, str):
        if saving not in ("true", "false"):
            raise ParseError(f"bad value for 'cost_saving': {saving!r}", line=line)
        saving = saving == "true"
    elif not isinstance(saving, bool):
        raise ParseError(f"bad value for 'cost_saving': {saving!r}", line=line)
    # the ranges GridConfig accepts; the comparisons also reject nan
    accuracy = number("accuracy", float)
    if not 0.0 <= accuracy <= 1.0:
        raise ParseError(f"accuracy {accuracy} outside [0, 1]", line=line)
    repetition = number("repetition", int)
    if repetition < 0:
        raise ParseError(f"repetition must be >= 0, got {repetition}", line=line)
    p_qf = number("p_qf", float)
    if not 0.0 <= p_qf < 1.0:
        raise ParseError(f"p_qf {p_qf} outside [0, 1)", line=line)
    return ExperimentRecord(
        project=str(row["project"]),
        accuracy=accuracy,
        repetition=repetition,
        p_qf=p_qf,
        kind=kind,
        cm=ConfusionMatrix(
            tp=number("tp", int),
            fp=number("fp", int),
            tn=number("tn", int),
            fn=number("fn", int),
        ),
        precision=optional_float("precision"),
        recall=optional_float("recall"),
        lower=bound("lower"),
        upper=bound("upper"),
        cost_saving=saving,
    )


def parse_records(text: str, format: str = "csv") -> list[ExperimentRecord]:
    """Read records back from ``emit_records`` output."""
    if format == "json":
        rows = json.loads(text)
        return [_build_record(row, line=i + 1) for i, row in enumerate(rows)]
    if format != "csv":
        raise InputContractError(f"unknown format {format!r}, expected 'csv' or 'json'")
    lines = [line for line in text.replace("\r\n", "\n").split("\n") if line != ""]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ParseError("bad record CSV header", line=1)
    records = []
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ParseError(
                f"expected {len(CSV_COLUMNS)} fields, found {len(fields)}", line=line_number
            )
        records.append(_build_record(dict(zip(CSV_COLUMNS, fields)), line=line_number))
    return records


@dataclass(frozen=True)
class TrendSeries:
    """Mean boundary value per metric bin; excluded counts undefined/unbounded cells."""

    metric: str
    kind: ModelKind
    bound: str
    bins: tuple[tuple[float, float, int], ...]
    excluded: int


def _usable_points(records, metric: str, kind: ModelKind, bound: str):
    """(metric value, bound value) pairs for one kind, plus the exclusion count."""
    if metric not in METRICS:
        raise InputContractError(f"metric must be one of {METRICS}, got {metric!r}")
    if bound not in BOUNDS:
        raise InputContractError(f"bound must be one of {BOUNDS}, got {bound!r}")
    points = []
    excluded = 0
    for record in records:
        if record.kind != kind:
            continue
        m = getattr(record, metric)
        b = getattr(record, bound)
        if m is None or not math.isfinite(b):
            excluded += 1
            continue
        points.append((m, b))
    return points, excluded


def trend(records, metric: str, kind: ModelKind, bound: str, n_bins: int = 20) -> TrendSeries:
    """Mean finite boundary value in equal-width metric bins over [0, 1].

    Cells with an undefined metric or an unbounded boundary are excluded and
    counted; empty bins keep count 0 and a filler mean of 0.  The result does
    not depend on the order of the input records.
    """
    if n_bins < 2:
        raise InputContractError(f"n_bins must be >= 2, got {n_bins}")
    points, excluded = _usable_points(records, metric, kind, bound)
    sums = [[] for _ in range(n_bins)]
    for m, b in points:
        index = min(int(m * n_bins), n_bins - 1)
        sums[index].append(b)
    bins = []
    for i, values in enumerate(sums):
        midpoint = (i + 0.5) / n_bins
        count = len(values)
        mean = math.fsum(values) / count if count else 0.0
        bins.append((midpoint, mean, count))
    return TrendSeries(metric=metric, kind=kind, bound=bound, bins=tuple(bins), excluded=excluded)


_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 20, 20, 50
_COLORS = {"lower": "#1f77b4", "upper": "#d62728"}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_scatter(records, metric: str, kind: ModelKind, n_bins: int = 20) -> str:
    """An SVG scatter of boundary values against a metric, with binned trend lines.

    Lower and upper boundaries are drawn in two colors; the polylines connect
    the non-empty bin means of ``trend``.  Equal inputs produce byte-identical
    output."""
    point_sets = {}
    trends = {}
    total_points = 0
    for bound in BOUNDS:
        points, _ = _usable_points(records, metric, kind, bound)
        point_sets[bound] = points
        trends[bound] = trend(records, metric, kind, bound, n_bins=n_bins)
        total_points += len(points)
    if total_points == 0:
        raise InputContractError("nothing to plot")
    y_max = max(b for points in point_sets.values() for _, b in points)
    y_max = y_max * 1.05 if y_max > 0 else 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(m: float) -> float:
        return _MARGIN_LEFT + m * plot_w

    def sy(b: float) -> float:
        return _MARGIN_TOP + (1.0 - b / y_max) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    for i in range(5):
        m = i / 4
        parts.append(
            f'<text x="{_fmt(sx(m))}" y="{axis_y + 18}" font-size="11" '
            f'text-anchor="middle">{_fmt(m)}</text>'
        )
        value = y_max * m
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_fmt(sy(value) + 4)}" font-size="11" '
            f'text-anchor="end">{value:.3g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w // 2}" y="{_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{metric}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h // 2})">cost ratio boundary '
        f'({kind.code})</text>'
    )
    for bound in BOUNDS:
        color = _COLORS[bound]
        for m, b in point_sets[bound]:
            parts.append(
                f'<circle cx="{_fmt(sx(m))}" cy="{_fmt(sy(b))}" r="2" fill="{color}" '
                f'fill-opacity="0.45" class="point-{bound}"/>'
            )
        visible = [(mid, mean) for mid, mean, count in trends[bound].bins if count > 0]
        if visible:
            coords = " ".join(f"{_fmt(sx(m))},{_fmt(sy(b))}" for m, b in visible)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2" class="trend-{bound}"/>'
            )
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w - 4}" '
            f'y="{_MARGIN_TOP + (16 if bound == "lower" else 32)}" font-size="12" '
            f'text-anchor="end" fill="{color}">{bound} boundary</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
