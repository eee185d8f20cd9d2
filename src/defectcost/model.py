"""Domain model: artifacts, defects, their incidence, predictions, and outcomes.

A software product is a set of artifacts (files) carrying zero or more
post-release defects.  A defect belongs to one or more artifacts, so in
general the incidence between defects and artifacts is n-to-m.  A prediction
assigns a binary defective/clean label to every artifact; a defect counts as
predicted only when *all* of its artifacts are labeled defective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Mapping

import numpy as np

from .errors import InputContractError


class Relationship(Enum):
    """Which defect/artifact incidence structure a project view represents."""

    N_TO_M = "n-m"
    ONE_TO_M = "1-m"
    ONE_TO_ONE = "1-1"


@dataclass(frozen=True)
class Artifact:
    """A unit of software (a file) with a positive integer size in lines of code."""

    id: str
    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise InputContractError(
                f"artifact {self.id!r} has size {self.size!r}, must be an integer"
            )
        if self.size < 1:
            raise InputContractError(f"artifact {self.id!r} has size {self.size}, must be >= 1")


@dataclass(frozen=True)
class Defect:
    """A post-release defect and the non-empty set of artifact ids it affects."""

    id: str
    members: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise InputContractError(f"defect {self.id!r} has no members")


@dataclass(frozen=True)
class Project:
    """An immutable artifact list plus defect incidence, tagged with its view.

    Invariants checked on construction:

    * artifact ids and defect ids are unique,
    * every defect member refers to an existing artifact,
    * in a 1-to-m or 1-to-1 view every defect has exactly one member,
    * in a 1-to-1 view no artifact appears in more than one defect.
    """

    id: str
    artifacts: tuple[Artifact, ...]
    defects: tuple[Defect, ...]
    relationship: Relationship = Relationship.N_TO_M

    def __post_init__(self):
        object.__setattr__(self, "artifacts", tuple(self.artifacts))
        object.__setattr__(self, "defects", tuple(self.defects))
        known: set[str] = set()
        for a in self.artifacts:
            if a.id in known:
                raise InputContractError(f"duplicate artifact id {a.id!r} in project {self.id!r}")
            known.add(a.id)
        defect_ids = set()
        for d in self.defects:
            if d.id in defect_ids:
                raise InputContractError(f"duplicate defect id {d.id!r} in project {self.id!r}")
            defect_ids.add(d.id)
            missing = d.members - known
            if missing:
                raise InputContractError(
                    f"defect {d.id!r} references unknown artifact {sorted(missing)[0]!r}"
                )
        if self.relationship is not Relationship.N_TO_M:
            for d in self.defects:
                if len(d.members) != 1:
                    raise InputContractError(
                        f"defect {d.id!r} has {len(d.members)} members, "
                        f"but the {self.relationship.value} view requires exactly one"
                    )
        if self.relationship is Relationship.ONE_TO_ONE:
            used: set[str] = set()
            for d in self.defects:
                (member,) = d.members
                if member in used:
                    raise InputContractError(
                        f"artifact {member!r} appears in more than one defect "
                        "in a 1-1 view"
                    )
                used.add(member)

    @cached_property
    def artifact_index(self) -> dict[str, int]:
        return {a.id: i for i, a in enumerate(self.artifacts)}

    @cached_property
    def sizes(self) -> np.ndarray:
        """Artifact sizes in stored order, as an int64 vector."""
        return np.array([a.size for a in self.artifacts], dtype=np.int64)

    @cached_property
    def defective_mask(self) -> np.ndarray:
        """Boolean vector marking artifacts that belong to at least one defect."""
        mask = np.zeros(len(self.artifacts), dtype=bool)
        index = self.artifact_index
        for d in self.defects:
            for member in d.members:
                mask[index[member]] = True
        return mask

    @cached_property
    def defect_cardinalities(self) -> np.ndarray:
        """Number of member artifacts per defect, in stored defect order."""
        return np.diff(self._member_csr[1])

    @cached_property
    def _member_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened member artifact indices plus segment starts, one segment per defect.

        Members within a defect are ordered by artifact position so that all
        derived structures are deterministic.
        """
        index = self.artifact_index
        indices: list[int] = []
        starts = np.zeros(len(self.defects) + 1, dtype=np.int64)
        for i, d in enumerate(self.defects):
            rows = sorted(index[m] for m in d.members)
            indices.extend(rows)
            starts[i + 1] = len(indices)
        return np.array(indices, dtype=np.int64), starts

    def ordered_members(self, defect: Defect) -> list[str]:
        """Members of ``defect`` sorted by artifact position in this project."""
        index = self.artifact_index
        return sorted(defect.members, key=index.__getitem__)


@dataclass(frozen=True)
class Prediction:
    """A total binary labeling of artifacts: 1 = predicted defective, 0 = clean."""

    labels: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        for artifact_id, label in self.labels.items():
            if label not in (0, 1):
                raise InputContractError(
                    f"label for artifact {artifact_id!r} is {label!r}, must be 0 or 1"
                )


@dataclass(frozen=True)
class ConfusionMatrix:
    """Artifact-level outcome counts of a prediction."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise InputContractError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class OutcomeSummary:
    """Everything a cost evaluation needs to know about one prediction.

    ``predicted_artifacts`` holds the ids labeled defective; it is required
    because quality-assurance costs accrue per predicted artifact, which the
    confusion matrix alone cannot recover when costs vary by artifact.
    """

    cm: ConfusionMatrix
    predicted_defects: frozenset[str]
    missed_defects: frozenset[str]
    predicted_artifacts: frozenset[str]


def _label_vector(project: Project, prediction: Prediction) -> np.ndarray:
    labels = prediction.labels
    extra = labels.keys() - project.artifact_index.keys()
    if extra:
        raise InputContractError(f"unknown artifact {sorted(extra)[0]!r} in prediction")
    try:
        return np.fromiter(map(labels.__getitem__, project.artifact_index), np.int8)
    except KeyError as missing:
        raise InputContractError(f"unlabeled artifact {missing.args[0]!r}") from None


def _classify_labels(project: Project, labels: np.ndarray) -> tuple[ConfusionMatrix, np.ndarray]:
    """Confusion matrix plus per-defect predicted mask for a 0/1 label vector."""
    truth = project.defective_mask
    predicted = labels.astype(bool)
    tp = int(np.count_nonzero(truth & predicted))
    fp = int(np.count_nonzero(~truth & predicted))
    tn = int(np.count_nonzero(~truth & ~predicted))
    fn = int(np.count_nonzero(truth & ~predicted))
    cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
    return cm, _defects_hit(project, predicted)


def _defects_hit(project: Project, predicted: np.ndarray) -> np.ndarray:
    """Per defect: are all its artifacts marked in the boolean artifact mask ``predicted``?"""
    if not project.defects:
        return np.zeros(0, dtype=bool)
    indices, starts = project._member_csr
    return np.minimum.reduceat(predicted[indices], starts[:-1])


def classify(project: Project, prediction: Prediction) -> OutcomeSummary:
    """Evaluate a prediction: confusion matrix plus predicted and missed defects.

    A defect is predicted only if every one of its member artifacts is labeled
    defective; otherwise it is missed.  The prediction must label exactly the
    project's artifacts.
    """
    labels = _label_vector(project, prediction)
    cm, predicted_mask = _classify_labels(project, labels)
    predicted = frozenset(d.id for d, hit in zip(project.defects, predicted_mask) if hit)
    missed = frozenset(d.id for d in project.defects) - predicted
    predicted_artifacts = frozenset(compress(project.artifact_index, labels.tolist()))
    return OutcomeSummary(
        cm=cm,
        predicted_defects=predicted,
        missed_defects=missed,
        predicted_artifacts=predicted_artifacts,
    )


def project_view(project: Project, target: Relationship) -> Project:
    """Project the full n-to-m incidence data onto a simpler relationship view.

    * ``N_TO_M``: the project itself, unchanged.
    * ``ONE_TO_M``: every (defect, member) incidence pair becomes its own
      single-member defect, as in bug-count data sets.  Derived defect ids are
      ``"<defect-id>#<artifact-id>"``.
    * ``ONE_TO_ONE``: one single-member defect per defective artifact, i.e. a
      plain binary labeling; the derived defect id is the artifact id.

    Artifacts and sizes are untouched in every view.
    """
    if project.relationship is not Relationship.N_TO_M:
        raise InputContractError(
            f"views are derived from n-m data, got a {project.relationship.value} project"
        )
    if target is Relationship.N_TO_M:
        return project
    if target is Relationship.ONE_TO_M:
        defects = tuple(
            Defect(id=f"{d.id}#{member}", members=frozenset((member,)))
            for d in project.defects
            for member in project.ordered_members(d)
        )
    else:
        mask = project.defective_mask
        defects = tuple(
            Defect(id=a.id, members=frozenset((a.id,)))
            for a, defective in zip(project.artifacts, mask)
            if defective
        )
    return replace(project, defects=defects, relationship=target)


def precision(cm: ConfusionMatrix) -> float | None:
    """tp / (tp + fp), or None when no artifact was predicted defective."""
    denominator = cm.tp + cm.fp
    if denominator == 0:
        return None
    return cm.tp / denominator


def recall(cm: ConfusionMatrix) -> float | None:
    """tp / (tp + fn), or None when the project has no defective artifact."""
    denominator = cm.tp + cm.fn
    if denominator == 0:
        return None
    return cm.tp / denominator


def perfect_prediction(project: Project) -> Prediction:
    """The indicator labeling of the defective artifacts."""
    mask = project.defective_mask
    return Prediction(
        labels={a.id: int(m) for a, m in zip(project.artifacts, mask)}
    )


def constant_prediction(project: Project, label: int) -> Prediction:
    """Label every artifact with the same value (predict nothing or everything)."""
    return Prediction(labels={a.id: label for a in project.artifacts})
