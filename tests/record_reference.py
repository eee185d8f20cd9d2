"""The per-row record parser and list-scanning trend that ``parse_records`` and
``trend`` replaced, kept as their reference.

``parse_records`` builds one ``ExperimentRecord`` (and ``ConfusionMatrix``)
per row; ``trend`` scans a list of records for one kind and bins its points
with ``math.fsum``.
"""

import math

from defectcost import ConfusionMatrix, ExperimentRecord, InputContractError, ModelKind, ParseError
from defectcost.costs import KIND_BY_CODE
from defectcost.reporting import BOUNDS, CSV_COLUMNS, METRICS, TrendSeries


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
    if saving not in ("true", "false"):
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
        cost_saving=saving == "true",
    )


def reference_parse_records(text: str) -> list[ExperimentRecord]:
    """The records of ``parse_records(text)``, as a list, one row at a time."""
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


def reference_trend(records, metric: str, kind: ModelKind, bound: str, n_bins: int = 20):
    """The ``TrendSeries`` of ``trend(records, ...)``, by one scan of the records."""
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
