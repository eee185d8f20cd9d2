"""The per-cell matrix parser and per-row prediction parser that ``io`` replaced,
kept as their reference, with the per-cell ``format_matrix`` and the
object-building ``project_view`` and ``classify`` that ``model`` replaced.

``parse_matrix`` splits every row into all its fields and checks the cells
one at a time; ``parse_prediction`` checks every row as it inserts it;
``format_matrix`` tests each artifact against every defect's member set;
``project_view`` builds a ``Defect`` per derived defect and ``classify`` a
frozenset of ids per outcome, from the ``artifacts`` and ``defects`` objects.
"""

from dataclasses import replace

import numpy as np

from defectcost import (
    Artifact,
    ConfusionMatrix,
    Defect,
    InputContractError,
    OutcomeSummary,
    ParseError,
    Prediction,
    Project,
    Relationship,
)

_UNWRITABLE = frozenset(",\n\r")


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def parse_matrix(text: str, project_id: str = "project") -> Project:
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
    artifacts: list[Artifact] = []
    seen_files: set[str] = set()
    members: list[list[str]] = [[] for _ in defect_ids]
    total = 0
    for row_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(fields)}",
                line=row_number,
                column=len(fields),
            )
        file_id = fields[0]
        if file_id == "":
            raise ParseError("empty file id", line=row_number, column=1)
        if "\r" in file_id:
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
        total += int(size) if len(size) <= 16 else 2**53 + 1
        if total > 2**53:
            raise ParseError(
                f"size {size!r} takes the total size above 2^53", line=row_number, column=2
            )
        artifacts.append(Artifact(id=file_id, size=int(size)))
        for j, cell in enumerate(fields[2:]):
            if cell == "1":
                members[j].append(file_id)
            elif cell != "0":
                raise ParseError(
                    f"cell must be 0 or 1, got {cell!r}", line=row_number, column=3 + j
                )
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
    for item_id in [*(d.id for d in project.defects), *(a.id for a in project.artifacts)]:
        if not item_id or not _UNWRITABLE.isdisjoint(item_id):
            raise InputContractError(f"id {item_id!r} cannot be written to matrix CSV")
    out = [",".join(["file", "loc"] + [d.id for d in project.defects])]
    membership = [d.members for d in project.defects]
    for a in project.artifacts:
        cells = ["1" if a.id in m else "0" for m in membership]
        out.append(",".join([a.id, str(a.size)] + cells))
    return "\n".join(out) + "\n"


def parse_prediction(text: str, project: Project) -> Prediction:
    lines = _split_lines(text)
    if not lines or lines[0].split(",") != ["file", "label"]:
        raise ParseError("header must be 'file,label'", line=1, column=1)
    known = {a.id for a in project.artifacts}
    labels: dict[str, int] = {}
    for row_number, line in enumerate(lines[1:], start=2):
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
        if label not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, got {label!r}", line=row_number, column=2)
        labels[file_id] = int(label)
    for a in project.artifacts:
        if a.id not in labels:
            raise ParseError(f"unlabeled artifact {a.id!r}")
    return Prediction(labels=labels)


def _label_vector(project: Project, prediction: Prediction) -> np.ndarray:
    labels = prediction.labels
    extra = labels.keys() - {a.id for a in project.artifacts}
    if extra:
        raise InputContractError(f"unknown artifact {sorted(extra)[0]!r} in prediction")
    out = np.empty(len(project.artifacts), dtype=np.int8)
    for i, artifact in enumerate(project.artifacts):
        try:
            out[i] = labels[artifact.id]
        except KeyError:
            raise InputContractError(f"unlabeled artifact {artifact.id!r}") from None
    return out


def classify(project: Project, prediction: Prediction) -> OutcomeSummary:
    labels = _label_vector(project, prediction)
    ids = [a.id for a in project.artifacts]
    picked = frozenset(a for a, lab in zip(ids, labels) if lab == 1)
    defective = frozenset(member for d in project.defects for member in d.members)
    clean = frozenset(ids) - defective
    cm = ConfusionMatrix(
        tp=len(picked & defective),
        fp=len(picked & clean),
        tn=len(clean - picked),
        fn=len(defective - picked),
    )
    predicted = frozenset(d.id for d in project.defects if d.members <= picked)
    missed = frozenset(d.id for d in project.defects) - predicted
    return OutcomeSummary(
        cm=cm,
        predicted_defects=predicted,
        missed_defects=missed,
        predicted_artifacts=picked,
    )


def project_view(project: Project, target: Relationship) -> Project:
    if project.relationship is not Relationship.N_TO_M:
        raise InputContractError(
            f"views are derived from n-m data, got a {project.relationship.value} project"
        )
    if target is Relationship.N_TO_M:
        return project
    position = {a.id: i for i, a in enumerate(project.artifacts)}
    if target is Relationship.ONE_TO_M:
        defects = tuple(
            Defect(id=f"{d.id}#{member}", members=frozenset((member,)))
            for d in project.defects
            for member in sorted(d.members, key=position.__getitem__)
        )
    else:
        defective = {member for d in project.defects for member in d.members}
        defects = tuple(
            Defect(id=a.id, members=frozenset((a.id,)))
            for a in project.artifacts
            if a.id in defective
        )
    return replace(project, defects=defects, relationship=target)
