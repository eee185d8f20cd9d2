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

Both parsers check a file as a few long strings and build arrays, not
``Artifact`` and ``Defect`` objects (see ``defectcost.model``).
``parse_matrix`` splits each row once, into its id, its size and all its
cells.  With k defect columns the cells are valid exactly when, with every
``1`` read as ``0``, they equal ``0,0,...,0`` (k zeros), so the cells of a
block of rows, each followed by a line break, are compared with one blank
template, and the 1s are found in that string with ``str.find``, so Python
code runs once per block and per 1, never once per row or cell.  A block
holds about 16 Ki characters of cells, so the strings and field lists one
block makes stay in cache and on the malloc heap; blocks of a mebibyte
faulted in fresh pages for them on every call.  The sizes are checked with
one joined ``isdigit`` and converted in one call, and the ids for
duplicates by the size of their set.  Only a file that fails these checks
is read again row by row, which gives its first error with the message,
line and column a cell-by-cell reader would give.
``parse_prediction`` first compares the text with the table of the
project's files in their own order, every label ``0``, once its ``,1``
labels read ``,0``; a text equal to it gives its label mask straight from
its bytes, with no dict.  Any other text has its labels built from all rows
at once into a dict, which also gives the mask in file order, and its rows
are read one at a time only to locate an error.  Both parsers check that
their text is a ``str``.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .errors import InputContractError, ParseError, _id, _instance
from .model import _MAX_TOTAL_SIZE, Prediction, Project, Relationship, _labeled
from .synthetic import AggregateSpec

_UNWRITABLE = frozenset(",\n\r")  # the field and line separators
_LABELS = {"0": 0, "1": 1}
_ENDED_LABELS = {"0\n": 0, "1\n": 1}
# Characters of matrix cells split and compared at once.  A block's joined
# cells, their 1->0 copy and its template then stay in cache and on the
# malloc heap; blocks of 2^16 parsed the corpus about 4 % slower, and blocks
# of 2^20 faulted in about 46 fresh pages on every call.
_BLOCK = 1 << 14


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _id_error(what: str, item_id: str, seen: set[str], line: int, column: int) -> ParseError | None:
    """The error for a ``what`` (file or defect) id that is empty, holds a
    carriage return or is in ``seen``; else None, and the id joins ``seen``."""
    if item_id == "":
        problem = f"empty {what} id"
    elif "\r" in item_id:
        problem = f"{what} id {item_id!r} holds a carriage return"
    elif item_id in seen:
        problem = f"duplicate {what} id {item_id!r}"
    else:
        seen.add(item_id)
        return None
    return ParseError(problem, line=line, column=column)


def _cell_error(cells: str, row_number: int) -> ParseError:
    """The error for the first cell of a row's cells string that is not ``0`` or ``1``."""
    column, cell = next(
        (3 + j, cell) for j, cell in enumerate(cells.split(",")) if cell not in ("0", "1")
    )
    return ParseError(f"cell must be 0 or 1, got {cell!r}", line=row_number, column=column)


def parse_matrix(text: str, project_id: str = "project") -> Project:
    """Parse a defect matrix into an n-m project.

    Rejects duplicate file ids, non-binary cells, sizes that are not ASCII
    ``[1-9][0-9]*``, a size that takes the total size above 2^53, ragged rows,
    and defect columns that touch no file; every rejection names the line and
    column.  ``text`` and ``project_id`` must be ``str``."""
    _instance("text", text, str)
    _id("project", project_id)
    lines = _split_lines(text)
    if not lines:
        raise ParseError("missing header", line=1)
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "file" or header[1] != "loc":
        raise ParseError("header must start with 'file,loc'", line=1, column=1)
    defect_ids = header[2:]
    seen_defects: set[str] = set()
    for j, defect_id in enumerate(defect_ids):
        if error := _id_error("defect", defect_id, seen_defects, 1, 3 + j):
            raise error
    k = len(defect_ids)
    blank = ",".join("0" * k)  # the only valid cells string, 1s read as 0s
    rows = lines[1:]
    read = _read_rows(rows, min(2 + k, 3), blank, "\r" in text)
    if read is None:
        raise _row_error(rows, 2 + k, blank)
    file_ids, sizes, ones = read
    row, column = np.divmod(ones, 2 * k)  # a row of cells is 2k - 1 characters and a \n
    column >>= 1  # cell j sits at position 2j
    counts = np.bincount(column, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        j = int(empty[0])
        raise ParseError(f"defect {defect_ids[j]!r} affects no file", line=1, column=3 + j)
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return Project._from_arrays(
        project_id,
        Relationship.N_TO_M,
        file_ids,
        sizes,
        row[np.argsort(column, kind="stable")],
        starts,
        _defect_ids=tuple(defect_ids),
    )


def _read_rows(rows: list[str], parts: int, blank: str, carriage_return: bool):
    """The file ids, the int64 sizes and the positions of the 1s in the cells
    of all rows, each followed by a line break; None if a row is invalid or
    the sizes sum to more than 2^53.

    ``parts`` is 3 (id, size, cells) with defect columns and 2 without; only a
    file id can hold a carriage return, and only if the text does.  The rows
    are split and their cells compared in blocks of about ``_BLOCK`` (16 Ki)
    characters, so the copies of the cells never outgrow one block and are
    reused from the cache and the malloc heap, not faulted in fresh."""
    stride = len(blank) + 1  # row r's cells start at r * stride
    per_block = max(1, _BLOCK // stride)
    template = (blank + "\n") * min(per_block, len(rows))
    file_ids: list[str] = []
    sizes: list[str] = []
    ones: list[int] = []
    for first in range(0, len(rows), per_block):
        fields = list(map(str.split, rows[first : first + per_block], repeat(","), repeat(2)))
        if not set(map(len, fields)) <= {parts}:
            return None
        block_ids, block_sizes, *cells = zip(*fields)
        file_ids += block_ids
        sizes += block_sizes
        if cells:
            joined = "\n".join([*cells[0], ""])
            if joined.replace("1", "0") != template[: len(joined)]:
                return None
            at = joined.find("1")
            while at >= 0:
                ones.append(first * stride + at)
                at = joined.find("1", at + 2)
    if (
        len(set(file_ids)) < len(file_ids)
        or "" in file_ids
        or (carriage_return and "\r" in "".join(file_ids))
    ):
        return None
    digits = "".join(sizes)
    # all digits, and the least size is neither empty nor led by a 0
    if sizes and not (digits.isascii() and digits.isdigit() and min(sizes)[:1] > "0"):
        return None
    values = np.fromstring(",".join(sizes), dtype=np.int64, sep=",")
    # a size past int64 reads as 2^63 - 1; with every size at most 2^53 the
    # running total cannot wrap before it first passes 2^53
    if values.max(initial=0) > _MAX_TOTAL_SIZE or (np.cumsum(values) > _MAX_TOTAL_SIZE).any():
        return None
    return tuple(file_ids), values, np.array(ones, dtype=np.int64)


def _row_error(rows: list[str], width: int, blank: str) -> ParseError:
    """The first error in rows that ``_read_rows`` refused, read field by field."""
    parts = min(width, 3)  # id, size and, with defect columns, the cells string
    seen_files: set[str] = set()
    total = 0
    for row_number, line in enumerate(rows, start=2):
        fields = line.split(",", 2)
        cells = fields[2] if len(fields) == 3 else ""
        valid = len(fields) == parts and cells.replace("1", "0") == blank
        if not valid and line.count(",") != width - 1:
            found = line.count(",") + 1
            return ParseError(
                f"expected {width} fields, found {found}", line=row_number, column=found
            )
        if error := _id_error("file", fields[0], seen_files, row_number, 1):
            return error
        size = fields[1]
        if not (size.isascii() and size.isdigit() and size[0] != "0"):
            return ParseError(
                f"size {size!r} is not an integer >= 1 in plain digits",
                line=row_number,
                column=2,
            )
        # a size of 17 digits or more is above 2^53 on its own, and int() of
        # a very long string raises
        total += int(size) if len(size) <= 16 else _MAX_TOTAL_SIZE + 1
        if total > _MAX_TOTAL_SIZE:
            return ParseError(
                f"size {size!r} takes the total size above 2^53", line=row_number, column=2
            )
        if not valid:
            return _cell_error(cells, row_number)
    raise AssertionError("_row_error called on valid rows")


def format_matrix(project: Project) -> str:
    """Serialize a project back to matrix CSV; the inverse of ``parse_matrix``.

    Raises ``InputContractError`` for an artifact or defect id the format
    cannot hold: an empty one, or one with a comma or a line break."""
    file_ids, defect_ids = project._file_ids, project._defect_ids
    for item_id in chain(defect_ids, file_ids):
        if not item_id or not _UNWRITABLE.isdisjoint(item_id):
            raise InputContractError(f"id {item_id!r} cannot be written to matrix CSV")
    out = [",".join(["file", "loc", *defect_ids])]
    k = len(defect_ids)
    hits: list[list[int]] = [[] for _ in file_ids]  # defect positions per artifact
    defect_of = np.repeat(np.arange(k), project.defect_cardinalities)
    for i, j in zip(project._member_csr[0].tolist(), defect_of.tolist()):
        hits[i].append(j)
    template = ["0"] * k
    for file_id, size, row_hits in zip(file_ids, project.sizes.tolist(), hits):
        cells = template.copy()
        for j in row_hits:
            cells[j] = "1"
        out.append(",".join([file_id, str(size), *cells]))
    return "\n".join(out) + "\n"


def parse_prediction(text: str, project: Project) -> Prediction:
    """Parse a ``file,label`` table into a total labeling of the project."""
    _instance("text", text, str)
    _instance("project", project, Project)
    file_ids = project._file_ids
    n = len(file_ids)
    # the rows in file order, every label read as 0; with no "," or "\n" in an
    # id, a text equal to it once its ",1\n" read ",0\n" is that table
    template = "file,label\n" + ",0\n".join(file_ids) + ",0\n"
    if text.replace(",1\n", ",0\n") == template and (
        template.count(",") == template.count("\n") == n + 1
    ):
        # UTF-8 writes "," only as itself: each label is the byte after a row's comma
        data = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
        return Prediction._from_mask(file_ids, data[np.flatnonzero(data == 44)[1:] + 1] == 49)
    lines = _split_lines(text)
    if not lines or lines[0].split(",") != ["file", "label"]:
        raise ParseError("header must be 'file,label'", line=1, column=1)
    rows = lines[1:]
    # every row ends in "\n" here, so if there are two fields per row and
    # every second one is a label and "\n", no row holds more or fewer fields
    fields = ("\n,".join(rows) + "\n").split(",")
    texts = fields[1::2]
    if len(fields) == 2 * len(rows) == 2 * n and _ENDED_LABELS.keys() >= set(texts):
        labels = dict(zip(fields[::2], map(_ENDED_LABELS.__getitem__, texts)))
        try:  # n rows that label all n files, so no id twice
            return Prediction._from_mask(file_ids, _labeled(labels, file_ids), labels)
        except KeyError:
            pass  # an id twice, or an unknown one
    labels = _labels_by_row(rows, project)
    return Prediction._from_mask(file_ids, _labeled(labels, file_ids), labels)


def _labels_by_row(rows: list[str], project: Project) -> dict[str, int]:
    """Read the prediction rows one at a time; raises at the first bad row."""
    known = project.artifact_index
    labels: dict[str, int] = {}
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
        labels[file_id] = _LABELS[label]
    for file_id in project._file_ids:
        if file_id not in labels:
            raise ParseError(f"unlabeled artifact {file_id!r}")
    return labels


def summarize(project: Project) -> AggregateSpec:
    """The aggregates of ``project``, named by its id: counts, mean defect spread,
    mean file size; ``project_from_aggregates`` builds a project that matches them."""
    n_artifacts = len(project.sizes)
    cardinalities = project.defect_cardinalities
    n_defects = len(cardinalities)
    return AggregateSpec(
        name=project.id,
        n_artifacts=n_artifacts,
        n_defective=int(np.count_nonzero(project.defective_mask)),
        n_defects=n_defects,
        mean_members=int(cardinalities.sum()) / n_defects if n_defects else 0.0,
        mean_size=int(project.sizes.sum()) / n_artifacts if n_artifacts else 0.0,
    )
