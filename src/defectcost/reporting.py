"""Record CSV, trend summaries, and SVG scatter plots.

Records round-trip losslessly through record CSV: floats are written with the
shortest decimal that reads back to the same value, an unbounded boundary is
written as the literal ``inf``, and an undefined metric becomes an empty field.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import count, islice, repeat

import numpy as np

from .costs import KIND_BY_CODE, ModelKind, _is_failure_probability
from .errors import InputContractError, ParseError, _id, _instance, _number, _shown
from .io import _UNWRITABLE
from .model import ConfusionMatrix, _is_count
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
    return "" if value is None else str(value)


def _check_project_ids(projects) -> None:
    """``InputContractError`` unless every project id can be held by record CSV."""
    for project in set(projects):
        if not _UNWRITABLE.isdisjoint(project):
            raise InputContractError(
                f"project id {project!r} contains a comma or a line break, "
                "which record CSV cannot hold"
            )


def _record_lines(cells, settings, rows):
    """Record CSV: a list of its header line, then lists of ``_CHUNK_LINES`` record lines.

    ``cells`` and ``rows`` are the columns of ``RecordTable.CELL_COLUMNS`` and
    ``ROW_COLUMNS`` in order, and ``settings`` the (p_qf, kind) pairs.  Each
    cell's and setting's fields are formatted once, with ``_csv_cell``; a float
    boundary's ``str`` is its shortest ``repr``, or ``inf``.  The project ids
    are checked before anything is yielded."""
    _check_project_ids(cells[0])
    heads = [f"{_csv_cell(p)},{_csv_cell(a)},{_csv_cell(r)}" for p, a, r in zip(*cells[:3])]
    outcomes = [
        f"{_csv_cell(tp)},{_csv_cell(fp)},{_csv_cell(tn)},{_csv_cell(fn)},"
        f"{_csv_cell(pr)},{_csv_cell(rc)}"
        for tp, fp, tn, fn, pr, rc in zip(*cells[3:])
    ]
    settings = [f"{_csv_cell(p)},{k.qa_mode.value},{k.relationship.value}" for p, k in settings]
    yield [",".join(CSV_COLUMNS) + "\n"]
    lines = zip(*rows)
    while chunk := [
        f"{heads[c]},{settings[s]},{outcomes[c]},{lo!s},{up!s},{'true' if saving else 'false'}\n"
        for c, s, lo, up, saving in islice(lines, _CHUNK_LINES)
    ]:
        yield chunk


def _record_text(cells, settings, rows) -> str:
    """The record CSV of ``_record_lines``, joined once from one list of its lines: a
    text joined per chunk first stayed on the malloc heap and raised the peak RSS."""
    lines = []
    for chunk in _record_lines(cells, settings, rows):
        lines += chunk
    return "".join(lines)


def _columns(table: RecordTable) -> tuple:
    """A table's cell columns, settings and row columns, as ``_record_lines`` takes them."""
    cells = [getattr(table, name) for name in RecordTable.CELL_COLUMNS]
    return cells, table.settings, [getattr(table, name) for name in RecordTable.ROW_COLUMNS]


def _table(records) -> tuple[RecordTable, str | None]:
    """``records`` as a table, with the record CSV read back when they are not one.

    Other records must be an iterable of records with a ``str`` project, a
    ``ModelKind`` kind and a ``ConfusionMatrix`` cm.  Each is taken as one flat
    tuple of its fields, in a table's order, then its and its cm's types, and
    written as its own cell and setting.  ``InputContractError`` unless
    ``parse_records`` accepts the text and gives the same tuples, exact types
    included as the records' ``__eq__`` requires; no record is built to compare."""
    if isinstance(records, RecordTable):
        return records, None
    try:
        items = iter(records)
    except TypeError:
        raise InputContractError(
            f"records must be a RecordTable or an iterable of records, got {_shown(records)}"
        ) from None
    fields = []
    for i, r in enumerate(items):
        try:
            _id("project", r.project)
            _instance("kind", r.kind, ModelKind)
            _instance("cm", r.cm, ConfusionMatrix)
            fields.append((
                r.project, r.accuracy, r.repetition, r.cm.tp, r.cm.fp, r.cm.tn, r.cm.fn,
                r.precision, r.recall, r.p_qf, r.kind, r.lower, r.upper, r.cost_saving,
                type(r), type(r.cm),
            ))
        except AttributeError as error:
            raise InputContractError(f"record {i} lacks a record field: {error}") from None
    columns = list(zip(*fields)) or [()] * 16  # no records: 16 empty columns
    own = range(len(fields))  # each record is its own cell and its own setting
    bounds = [map(_csv_cell, column) for column in columns[11:13]]  # None as an empty field
    text = _record_text(columns[:9], zip(*columns[9:11]), (own, own, *bounds, columns[13]))
    try:
        table = parse_records(text)
    except ParseError as error:
        raise InputContractError(f"records do not read back as written: {error}") from None
    cells, settings, rows = _columns(table)
    cells = list(zip(*cells))
    for i, (written, (c, s, *ends)) in enumerate(zip(fields, zip(*rows))):
        if written != (*cells[c], *settings[s], *ends, ExperimentRecord, ConfusionMatrix):
            raise InputContractError(f"record {i} reads back as {table[i]!r}, not as written")
    return table, text


def emit_records(records) -> str:
    """Serialize experiment records to record CSV, one row per record.

    ``records`` is a table from ``run_grid`` or ``parse_records``, or any
    iterable of records, which is written and read back as ``trend`` reads it.
    Record CSV has no quoting, so a project id holding a comma or a line break
    is rejected."""
    table, text = _table(records)
    return _record_text(*_columns(table)) if text is None else text


def _optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


def _as_written(texts, values) -> bool:
    """Whether each text is ``_csv_cell`` of its value, as ``emit_records`` writes it:
    a count in ASCII digits with no leading 0, space, separator or sign other
    than a minus, and a float as its shortest ``repr``."""
    written = _csv_cell if None in values else str  # the same but for None
    return all(map(operator.eq, map(written, values), texts))


def _floats_written(texts, values) -> bool:
    """Whether boundaries hold only the characters ``repr`` writes, or are the text ``inf``.

    Once those characters are deleted from the joined texts, in one pass (a
    non-ASCII character is left as ``?``), what is left must be one ``inf``
    per text that is exactly ``inf``, and only those texts may read as inf
    (``1e999`` overflows to it).  The range checks reject an ``inf`` where
    only a boundary may be unbounded."""
    left = "".join(texts).encode("ascii", "replace").translate(None, b"0123456789.e+-")
    infs = texts.count("inf")
    return left == b"inf" * infs and values.count(math.inf) == infs


def _in_unit(value) -> bool:
    return value is None or 0.0 <= value <= 1.0


_SAVING_VALUES = {"true": True, "false": False}
# How each record field other than project, qa_mode and relationship is read
# from its text: (convert, whether the texts are written as emit_records writes
# them, check, what the check requires).  Texts and values go in as columns.
# The fields read once per cell or setting must be exactly their _csv_cell
# text; the boundaries, read on every row, are checked only for the characters
# repr writes, in one pass over them all, which costs a 25th of writing each
# one again.  The checks take the ranges the grid produces; they reject nan.
_FIELD_RULES = {
    "accuracy": (float, _as_written, _in_unit, "in [0, 1]"),
    "repetition": (int, _as_written, _is_count, ">= 0"),
    "p_qf": (float, _as_written, _is_failure_probability, "in [0, 1)"),
    **{name: (int, _as_written, _is_count, ">= 0") for name in ("tp", "fp", "tn", "fn")},
    **{
        name: (_optional_float, _as_written, _in_unit, "in [0, 1] or empty")
        for name in METRICS
    },
    **{name: (float, _floats_written, _is_count, ">= 0 or inf") for name in BOUNDS},
    "cost_saving": (
        _SAVING_VALUES.get, lambda texts, values: True, partial(operator.is_not, None),
        "true or false",
    ),
}
# A record's setting fields; its cell fields are RecordTable.CELL_COLUMNS.
_SETTING_FIELDS = ("p_qf", "qa_mode", "relationship")
# Record CSV is written, and split into fields, this many lines at a time.  A
# chunk of corpus records is about 60 KB of text and 0.5 MB of field strings,
# reused from the malloc heap; chunks of 4,096 lines held eight times that and
# raised the peak RSS of the corpus grid workload by about 4 MiB.  simulate
# writes each chunk as it comes, so it holds one chunk's lines, never its whole
# text.
_CHUNK_LINES = 512


def _read(name: str, texts) -> list:
    """The values of one field's texts; ValueError when one is unreadable,
    not written as ``emit_records`` writes it, or out of range, quoting the
    first text (the bad one when there is one)."""
    convert, written, check, requirement = _FIELD_RULES[name]
    try:
        values = list(map(convert, texts))
        readable = written(texts, values)
    except ValueError:
        readable = False
    if not readable:
        raise ValueError(f"bad value for {name!r}: {texts[0]!r}")
    if not all(map(check, values)):
        raise ValueError(f"{name} must be {requirement}, got {texts[0]!r}")
    return values


class _KeyNumbers(defaultdict):
    """Numbers 0, 1, ... for distinct keys, each given by the lookup that first sees it."""

    def __init__(self):
        super().__init__(count().__next__)

    def add(self, key_columns) -> tuple[list, list]:
        """The key numbers of rows given as columns of key fields, and the columns of the
        new keys: the dict's tail, taken from its end in time linear in their number."""
        before = len(self)
        numbers = list(map(self.__getitem__, zip(*key_columns)))
        new = list(islice(reversed(self), len(self) - before))[::-1]
        return numbers, list(zip(*new)) or [()] * len(key_columns)


class _TableReader:
    """Gathers record CSV lines into table columns.

    A chunk's cells and settings are numbered in one dict pass (``_KeyNumbers``);
    only new ones are converted and checked, and each field a column at a time.
    A chunk of lines that fails is read again a line at a time, each line by a
    fresh reader, which checks its field count, its kind, then each field of
    ``_FIELD_RULES`` in turn (how it is written, then its range); the first
    bad line is reported at its own line, with the first failed check.
    """

    def __init__(self):
        self.cells = {name: [] for name in RecordTable.CELL_COLUMNS}
        self.settings = []
        self.rows = {name: [] for name in RecordTable.ROW_COLUMNS}
        self.keys = {"cell": _KeyNumbers(), "setting": _KeyNumbers()}

    def add(self, numbers, lines) -> None:
        """Append the record lines numbered ``numbers``.

        When every line holds ``len(CSV_COLUMNS)`` fields, the lines are split
        into fields at once, and each column is a slice of that one list."""
        width = len(CSV_COLUMNS)
        try:
            if not set(map(str.count, lines, repeat(",", len(lines)))) <= {width - 1}:
                raise ValueError(f"expected {width} fields, found {lines[0].count(',') + 1}")
            fields = ",".join(lines).split(",")
            self._append(dict(zip(CSV_COLUMNS, (fields[i::width] for i in range(width)))))
        except ValueError as error:
            if len(lines) == 1:
                raise ParseError(str(error), line=numbers[0]) from None
            for number, line in zip(numbers, lines):
                _TableReader().add([number], [line])
            raise

    def _append(self, columns: dict) -> None:
        """Append rows given as the column of texts of each field name."""
        for key, names in (("cell", RecordTable.CELL_COLUMNS), ("setting", _SETTING_FIELDS)):
            # each row's cell or setting number; only a new one's fields are read
            columns[key], new = self.keys[key].add([columns[name] for name in names])
            columns.update(zip(names, new))
        # a kind's code joins its two fields with "-", which no QAMode value holds
        kinds = [
            None if "-" in mode else KIND_BY_CODE.get(f"{mode}-{relationship}")
            for mode, relationship in zip(columns["qa_mode"], columns["relationship"])
        ]
        if None in kinds:
            mode, relationship = columns["qa_mode"][0], columns["relationship"][0]
            raise ValueError(f"unknown model kind {mode!r}/{relationship!r}")
        values = {name: _read(name, columns[name]) for name in _FIELD_RULES}
        for name in RecordTable.CELL_COLUMNS:
            self.cells[name].extend(values.get(name, columns[name]))  # the project as text
        self.settings.extend(zip(values["p_qf"], kinds))
        for name in RecordTable.ROW_COLUMNS:
            self.rows[name].extend(values.get(name, columns[name]))

    def table(self) -> RecordTable:
        return RecordTable(self.cells, self.settings, self.rows)


def _csv_chunks(text: str):
    """(line numbers, lines) of the record lines, ``_CHUNK_LINES`` lines at a time.

    Only one chunk of 512 lines is split into fields at once, so its field
    strings are reused from the malloc heap.  Lines are numbered as they
    stand in the text; blank lines are skipped.  Only ``\\n`` and ``\\r\\n``
    end a line; the text is searched for ``\\r\\n`` only when it holds a
    ``\\r``, and any other ``\\r`` is an error, as no field can hold one."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        at = text.find("\r")
        if at >= 0:
            raise ParseError("a \\r that does not end a line", line=text.count("\n", 0, at) + 1)
    lines = text.split("\n")
    header = next((i for i, line in enumerate(lines) if line), None)
    if header is None or tuple(lines[header].split(",")) != CSV_COLUMNS:
        raise ParseError("bad record CSV header", line=1 if header is None else header + 1)
    for start in range(header + 1, len(lines), _CHUNK_LINES):
        chunk = lines[start : start + _CHUNK_LINES]
        numbers = range(start + 1, start + 1 + len(chunk))
        if "" in chunk:
            numbers = [n for n, line in zip(numbers, chunk) if line]
            chunk = [line for line in chunk if line]
        if chunk:
            yield numbers, chunk


def parse_records(text: str) -> RecordTable:
    """Read records back from ``emit_records`` output.

    Returns a ``RecordTable``: a ``Sequence`` of ``ExperimentRecord`` row
    views over columns, equal to the list of records that was written.  A
    value outside the range the grid produces is rejected: an accuracy,
    precision or recall outside [0, 1], a ``p_qf`` outside [0, 1), a
    negative count or repetition, and a negative or ``nan`` boundary.  So
    is a ``\\r`` that does not end a line, which no field can hold, and a
    number not written the way ``emit_records`` writes it: a count,
    repetition, accuracy, ``p_qf``, precision or recall that is not the
    ``str`` of its value (so ``06``, ``+4``, ``0.50`` and ``5e-1`` are
    rejected), a boundary with a character other than the digits, ``.``,
    ``e``, ``+`` and ``-`` that ``repr`` uses, and an unbounded boundary
    other than the text ``inf`` (such as ``1e999``, which overflows a
    float).  ``ParseError.line`` is the line in the text, counting blank
    lines.
    """
    reader = _TableReader()
    for numbers, lines in _csv_chunks(text):
        reader.add(numbers, lines)
    return reader.table()


@dataclass(frozen=True, slots=True)
class TrendSeries:
    """Mean boundary value per metric bin; excluded counts undefined/unbounded cells."""

    metric: str
    kind: ModelKind
    bound: str
    bins: tuple[tuple[float, float, int], ...]
    excluded: int


def _points(records, metric: str, kind: ModelKind, bounds) -> dict:
    """Per bound, the metric and bound values of one kind's usable records, in order.

    Maps each bound to (metric values, bound values, excluded count); a
    record is excluded when its metric is undefined or its bound unbounded.
    Records that are not a ``RecordTable`` are written as record CSV and read
    back first (``_table``), so they are checked as ``parse_records`` checks
    a file."""
    if metric not in METRICS:
        raise InputContractError(f"metric must be one of {METRICS}, got {_shown(metric)}")
    for bound in bounds:
        if bound not in BOUNDS:
            raise InputContractError(f"bound must be one of {BOUNDS}, got {_shown(bound)}")
    _instance("kind", kind, ModelKind)
    table, _ = _table(records)
    settings = [s for s, (_, k) in enumerate(table.settings) if k == kind]
    rows = np.flatnonzero(np.isin(np.asarray(table.setting, dtype=np.intp), settings))
    cell_metric = [math.nan if m is None else m for m in getattr(table, metric)]
    metric_values = np.asarray(cell_metric, dtype=np.float64)[
        np.asarray(table.cell, dtype=np.intp)[rows]
    ]
    points = {}
    for bound in bounds:
        bound_values = np.asarray(getattr(table, bound), dtype=np.float64)[rows]
        usable = np.isfinite(bound_values) & ~np.isnan(metric_values)
        excluded = len(rows) - int(np.count_nonzero(usable))
        points[bound] = (metric_values[usable], bound_values[usable], excluded)
    return points


_MAX_BINS = 10_000  # far past the plot's 550-px width: every bin is allocated


def _bins(metric_values, bound_values, n_bins: int) -> tuple:
    """(midpoint, mean, count) per equal-width metric bin; bin means are exact sums."""
    requirement = f"an integer in [2, {_MAX_BINS}]"
    n_bins = _number("n_bins", n_bins, requirement, lambda n: 2 <= n <= _MAX_BINS, integer=True)
    index = np.clip(metric_values * n_bins, 0, n_bins - 1).astype(np.intp)
    counts = np.bincount(index, minlength=n_bins)
    groups = np.split(bound_values[np.argsort(index, kind="stable")], np.cumsum(counts)[:-1])
    return tuple(
        ((i + 0.5) / n_bins, math.fsum(values.tolist()) / count if count else 0.0, count)
        for i, (values, count) in enumerate(zip(groups, counts.tolist()))
    )


def trend(records, metric: str, kind: ModelKind, bound: str, n_bins: int = 20) -> TrendSeries:
    """Mean finite boundary value in ``n_bins`` (an integer in [2, 10000]) equal-width
    metric bins over [0, 1].

    Cells with an undefined metric or an unbounded boundary are excluded and
    counted; empty bins keep count 0 and a filler mean of 0.  The result does
    not depend on the order of the input records, nor on whether they come
    as a ``RecordTable`` or a list.
    """
    metric_values, bound_values, excluded = _points(records, metric, kind, (bound,))[bound]
    return TrendSeries(
        metric=metric,
        kind=kind,
        bound=bound,
        bins=_bins(metric_values, bound_values, n_bins),
        excluded=excluded,
    )


_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 20, 20, 50
_COLORS = {"lower": "#1f77b4", "upper": "#d62728"}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_scatter(records, metric: str, kind: ModelKind, n_bins: int = 20) -> str:
    """An SVG scatter of boundary values against a metric, with binned trend lines.

    Lower and upper boundaries are drawn in two colors; the polylines connect
    the non-empty bin means of ``trend`` (``n_bins`` an integer in [2, 10000]).  Equal
    inputs produce byte-identical output."""
    points = _points(records, metric, kind, BOUNDS)
    if not any(len(bound_values) for _, bound_values, _ in points.values()):
        raise InputContractError("nothing to plot")
    y_max = max(float(b.max()) for _, b, _ in points.values() if len(b))
    y_max = y_max * 1.05 if y_max > 0 else 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # x and y of metric and bound values, floats or arrays
    def sx(m):
        return _MARGIN_LEFT + m * plot_w

    def sy(b):
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
        metric_values, bound_values, _ = points[bound]
        parts.extend(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}" '
            f'fill-opacity="0.45" class="point-{bound}"/>'
            for x, y in zip(sx(metric_values).tolist(), sy(bound_values).tolist())
        )
        bins = _bins(metric_values, bound_values, n_bins)
        visible = [(mid, mean) for mid, mean, count in bins if count > 0]
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
