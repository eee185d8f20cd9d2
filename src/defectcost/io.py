"""Reading, writing, and summarizing defect-matrix and prediction files.

Matrix CSV grammar (strict, no quoting; ids are non-empty, without a comma,
a line break or a carriage return):

    file,loc,d1,d2
    s1,100,1,1
    s2,50,0,1
    s3,10,0,0

Row order gives the artifact order, column order the defect order, and every
cell states whether the file belongs to the defect.  Prediction CSV is a
two-column ``file,label`` table with one row per artifact.

``parse_matrix`` reads a row as three strings: the id, the size and all its
cells.  With k defect columns the cells are valid exactly when, with every
``1`` read as ``0``, they equal ``0,0,...,0`` (k zeros); the 1s are then
found with ``str.find``, cell j at position 2j, so Python code runs once
per row and once per 1, never once per cell.  Only a row that fails this comparison is looked at field by field,
which gives the first error of the file with the message, line and column
a cell-by-cell reader would give.  ``parse_prediction`` likewise builds its
labels from all rows at once, checks them with set operations, and reads the
rows one at a time only to locate an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InputContractError, ParseError
from .model import Artifact, Defect, Prediction, Project, Relationship

_UNWRITABLE = frozenset(",\n\r")  # the field and line separators
_LABELS = {"0": 0, "1": 1}


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _cell_error(cells: str, row_number: int) -> ParseError:
    """The error for the first cell of a row's cells string that is not ``0`` or ``1``."""
    column, cell = next(
        (3 + j, cell) for j, cell in enumerate(cells.split(",")) if cell not in ("0", "1")
    )
    return ParseError(f"cell must be 0 or 1, got {cell!r}", line=row_number, column=column)


def parse_matrix(text: str, project_id: str = "project") -> Project:
    """Parse a defect matrix into an n-m project.

    Rejects duplicate file ids, non-binary cells, sizes that are not ASCII
    ``[1-9][0-9]*``, ragged rows, and defect columns that touch no file; every
    rejection names the line and column."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError("missing header", line=1)
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "file" or header[1] != "loc":
        raise ParseError("header must start with 'file,loc'", line=1, column=1)
    defect_ids = header[2:]
    seen_defects: set[str] = set()
    for j, defect_id in enumerate(defect_ids):
        if defect_id == "":
            raise ParseError("empty defect id", line=1, column=3 + j)
        if "\r" in defect_id:
            raise ParseError(
                f"defect id {defect_id!r} holds a carriage return", line=1, column=3 + j
            )
        if defect_id in seen_defects:
            raise ParseError(f"duplicate defect id {defect_id!r}", line=1, column=3 + j)
        seen_defects.add(defect_id)
    width = 2 + len(defect_ids)
    parts = min(width, 3)  # id, size and, with defect columns, the cells string
    blank = ",".join("0" * len(defect_ids))  # the only valid cells string, 1s read as 0s
    artifacts: list[Artifact] = []
    seen_files: set[str] = set()
    members: list[list[str]] = [[] for _ in defect_ids]
    carriage_return = "\r" in text  # only then can a file id hold one
    for row_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",", 2)
        cells = fields[2] if len(fields) == 3 else ""
        valid = len(fields) == parts and cells.replace("1", "0") == blank
        if not valid and line.count(",") != width - 1:
            found = line.count(",") + 1
            raise ParseError(
                f"expected {width} fields, found {found}", line=row_number, column=found
            )
        file_id = fields[0]
        if file_id == "":
            raise ParseError("empty file id", line=row_number, column=1)
        if carriage_return and "\r" in file_id:
            raise ParseError(
                f"file id {file_id!r} holds a carriage return", line=row_number, column=1
            )
        if file_id in seen_files:
            raise ParseError(f"duplicate file id {file_id!r}", line=row_number, column=1)
        seen_files.add(file_id)
        size = fields[1]
        if not (size.isascii() and size.isdigit() and size[0] != "0"):
            raise ParseError(
                f"size {size!r} is not an integer >= 1 in plain digits",
                line=row_number,
                column=2,
            )
        if not valid:
            raise _cell_error(cells, row_number)
        artifacts.append(Artifact(id=file_id, size=int(size)))
        at = cells.find("1")
        while at >= 0:
            members[at >> 1].append(file_id)  # cell j sits at position 2j
            at = cells.find("1", at + 2)
    defects = []
    for j, (defect_id, files) in enumerate(zip(defect_ids, members)):
        if not files:
            raise ParseError(
                f"defect {defect_id!r} affects no file", line=1, column=3 + j
            )
        defects.append(Defect(id=defect_id, members=frozenset(files)))
    return Project(
        id=project_id,
        artifacts=tuple(artifacts),
        defects=tuple(defects),
        relationship=Relationship.N_TO_M,
    )


def format_matrix(project: Project) -> str:
    """Serialize a project back to matrix CSV; the inverse of ``parse_matrix``.

    Raises ``InputContractError`` for an artifact or defect id the format
    cannot hold: an empty one, or one with a comma or a line break."""
    for item_id in [*(d.id for d in project.defects), *(a.id for a in project.artifacts)]:
        if not item_id or not _UNWRITABLE.isdisjoint(item_id):
            raise InputContractError(f"id {item_id!r} cannot be written to matrix CSV")
    out = [",".join(["file", "loc"] + [d.id for d in project.defects])]
    k = len(project.defects)
    hits: list[list[int]] = [[] for _ in project.artifacts]  # defect positions per artifact
    defect_of = np.repeat(np.arange(k), project.defect_cardinalities)
    for i, j in zip(project._member_csr[0].tolist(), defect_of.tolist()):
        hits[i].append(j)
    template = ["0"] * k
    for a, row_hits in zip(project.artifacts, hits):
        cells = template.copy()
        for j in row_hits:
            cells[j] = "1"
        out.append(",".join([a.id, str(a.size), *cells]))
    return "\n".join(out) + "\n"


def parse_prediction(text: str, project: Project) -> Prediction:
    """Parse a ``file,label`` table into a total labeling of the project."""
    lines = _split_lines(text)
    if not lines or lines[0].split(",") != ["file", "label"]:
        raise ParseError("header must be 'file,label'", line=1, column=1)
    rows = lines[1:]
    try:
        labels = dict(map(str.split, rows, repeat(",")))
    except ValueError:  # a row without exactly two fields
        labels = {}
    if not (
        len(labels) == len(rows)  # no id twice
        and labels.keys() == project.artifact_index.keys()
        and _LABELS.keys() >= set(labels.values())
    ):
        labels = _labels_by_row(rows, project)
    return Prediction(labels=dict(zip(labels, map(_LABELS.__getitem__, labels.values()))))


def _labels_by_row(rows: list[str], project: Project) -> dict[str, str]:
    """Read the prediction rows one at a time; raises at the first bad row."""
    known = project.artifact_index
    labels: dict[str, str] = {}
    for row_number, line in enumerate(rows, start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(
                f"expected 2 fields, found {len(fields)}", line=row_number, column=len(fields)
            )
        file_id, label = fields
        if file_id not in known:
            raise ParseError(f"unknown artifact {file_id!r}", line=row_number, column=1)
        if file_id in labels:
            raise ParseError(f"duplicate row for artifact {file_id!r}", line=row_number, column=1)
        if label not in _LABELS:
            raise ParseError(f"label must be 0 or 1, got {label!r}", line=row_number, column=2)
        labels[file_id] = label
    for a in project.artifacts:
        if a.id not in labels:
            raise ParseError(f"unlabeled artifact {a.id!r}")
    return labels


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate statistics of one project's artifacts and defects."""

    n_artifacts: int
    n_defective: int
    n_defects: int
    mean_members: float
    mean_size: float

    @property
    def defect_free(self) -> bool:
        """True when the project has no defect; mean_members is then a filler 0."""
        return self.n_defects == 0


def summarize(project: Project) -> SummaryStats:
    """Project-level aggregates: counts, mean defect spread, mean file size."""
    n_artifacts = len(project.artifacts)
    n_defects = len(project.defects)
    member_total = sum(len(d.members) for d in project.defects)
    return SummaryStats(
        n_artifacts=n_artifacts,
        n_defective=int(project.defective_mask.sum()) if n_artifacts else 0,
        n_defects=n_defects,
        mean_members=member_total / n_defects if n_defects else 0.0,
        mean_size=sum(a.size for a in project.artifacts) / n_artifacts if n_artifacts else 0.0,
    )
