"""Domain model: artifacts, defects, their incidence, predictions, and outcomes.

A software product is a set of artifacts (files) carrying zero or more
post-release defects.  A defect belongs to one or more artifacts, so in
general the incidence between defects and artifacts is n-to-m.  A prediction
assigns a binary defective/clean label to every artifact; a defect counts as
predicted only when *all* of its artifacts are labeled defective.

Arrays are the source of truth.  Every ``Project`` holds its file ids
``_file_ids``, its int64 ``sizes``, its defect ids ``_defect_ids``, the member
incidence ``_member_csr = (indices, starts)`` (defect j's members are the
artifact positions ``indices[starts[j]:starts[j + 1]]``, ascending) and
``defective_mask``, all read-only.  ``Project(...)`` checks its artifacts and
defects and derives these arrays; ``parse_matrix``, ``project_view`` and the
synthetic generators build a project from the arrays alone with
``Project._from_arrays``, and its ``artifacts``, ``defects`` and
``artifact_index``, and a view's derived defect ids, are built on first access.
Likewise ``classify`` returns an ``OutcomeSummary`` that holds the
predicted-artifact and defect-hit masks and builds its three id sets on first
access.

Each public value type checks its values in its one constructor.  Every
prediction the library builds comes from ``Prediction._from_mask``, the only
trusted path: it holds the project's file-id tuple and a read-only bool mask
in file order and builds its ``labels`` dict when first read.  ``classify``
reads that mask itself when the prediction holds the very file-id tuple of
the project it classifies, which every view of that project shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Mapping

import numpy as np

from .errors import InputContractError, _id, _ids, _instance, _number, _shown

# QA sums of whole-number costs stay exact in float64 while a project's total
# size is at most this.
_MAX_TOTAL_SIZE = 2**53


class Relationship(Enum):
    """Which defect/artifact incidence structure a project view represents."""

    N_TO_M = "n-m"
    ONE_TO_M = "1-m"
    ONE_TO_ONE = "1-1"


@dataclass(frozen=True, slots=True)
class Artifact:
    """A unit of software (a file) with a size in lines of code: an integer >= 1,
    stored as ``int``."""

    id: str
    size: int

    def __post_init__(self):
        _id("artifact", self.id)
        name = f"the size of artifact {self.id!r}"
        size = _number(name, self.size, "an integer >= 1", lambda n: n >= 1, integer=True)
        object.__setattr__(self, "size", size)


@dataclass(frozen=True, slots=True)
class Defect:
    """A post-release defect and the non-empty set of artifact ids it affects."""

    id: str
    members: frozenset[str]

    def __post_init__(self):
        _id("defect", self.id)
        members = _ids(f"the members of defect {self.id!r}", "artifact", self.members)
        object.__setattr__(self, "members", members)
        if not self.members:
            raise InputContractError(f"defect {self.id!r} has no members")


def _check_total_size(project_id: str, total: int) -> None:
    if total > _MAX_TOTAL_SIZE:
        raise InputContractError(f"project {project_id!r} has a total size above 2^53")


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Member ``(indices, starts)`` from each defect's list of artifact positions."""
    return (
        np.array(list(chain.from_iterable(rows)), dtype=np.int64),
        np.cumsum([0, *map(len, rows)], dtype=np.int64),
    )


def _set_arrays(project, file_ids, sizes, indices, starts, **known) -> None:
    """Store a project's arrays, read-only, in its ``__dict__``; ``known`` as
    for ``Project._from_arrays``."""
    if "defective_mask" not in known:
        known["defective_mask"] = np.zeros(len(sizes), dtype=bool)
        known["defective_mask"][indices] = True
    for array in (sizes, indices, starts, known["defective_mask"]):
        array.flags.writeable = False  # views share them
    project.__dict__.update(
        _file_ids=file_ids, sizes=sizes, _member_csr=(indices, starts), **known
    )


@dataclass(frozen=True)
class Project:
    """An immutable artifact list plus defect incidence, tagged with its view.

    Invariants checked on construction:

    * artifact ids and defect ids are unique,
    * every defect member refers to an existing artifact,
    * in a 1-to-m or 1-to-1 view every defect has exactly one member,
    * in a 1-to-1 view no artifact appears in more than one defect,
    * the artifact sizes sum to at most 2^53.

    The module docstring lists the arrays every project holds; a project built
    from them alone builds ``artifacts`` and ``defects`` when first read.
    """

    id: str
    artifacts: tuple[Artifact, ...]
    defects: tuple[Defect, ...]
    relationship: Relationship = Relationship.N_TO_M

    def __post_init__(self):
        _id("project", self.id)
        _instance("relationship", self.relationship, Relationship)
        object.__setattr__(self, "artifacts", tuple(self.artifacts))
        object.__setattr__(self, "defects", tuple(self.defects))
        index: dict[str, int] = {}
        for a in self.artifacts:
            if a.id in index:
                raise InputContractError(f"duplicate artifact id {a.id!r} in project {self.id!r}")
            index[a.id] = len(index)
        defect_ids = set()
        for d in self.defects:
            if d.id in defect_ids:
                raise InputContractError(f"duplicate defect id {d.id!r} in project {self.id!r}")
            defect_ids.add(d.id)
            missing = d.members - index.keys()
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
        _check_total_size(self.id, sum(a.size for a in self.artifacts))
        _set_arrays(
            self,
            tuple(index),
            np.array([a.size for a in self.artifacts], dtype=np.int64),
            *_csr([sorted(map(index.__getitem__, d.members)) for d in self.defects]),
            _defect_ids=tuple(d.id for d in self.defects),
            artifact_index=index,
        )

    @classmethod
    def _from_arrays(cls, id, relationship, file_ids, sizes, indices, starts, **known) -> Project:
        """A project from its arrays alone; the caller guarantees every invariant.

        ``known`` holds whatever else the caller has at hand: ``_defect_ids``
        (a 1-m or 1-1 view passes ``_source``, the n-m project it is derived
        from, instead), ``defective_mask`` and ``artifact_index``."""
        project = object.__new__(cls)
        project.__dict__.update(id=id, relationship=relationship)
        _set_arrays(project, file_ids, sizes, indices, starts, **known)
        return project

    def __getattr__(self, name):
        """Build ``artifacts``, ``defects`` or a view's derived defect ids on first access."""
        if name == "artifacts":
            value = tuple(map(Artifact, self._file_ids, self.sizes.tolist()))
        elif name == "defects":
            members = list(map(self._file_ids.__getitem__, self._member_csr[0].tolist()))
            starts = self._member_csr[1].tolist()
            value = tuple(
                Defect(defect_id, frozenset(members[start:stop]))
                for defect_id, start, stop in zip(self._defect_ids, starts, starts[1:])
            )
        elif name == "_defect_ids" and "_source" in self.__dict__:
            members = map(self._file_ids.__getitem__, self._member_csr[0].tolist())
            if self.relationship is Relationship.ONE_TO_ONE:
                value = tuple(members)
            else:  # "<defect-id>#<artifact-id>" per (defect, member) pair of the source
                source = self._source
                owners = map(repeat, source._defect_ids, source.defect_cardinalities.tolist())
                value = tuple(map("{}#{}".format, chain.from_iterable(owners), members))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = value
        return value

    @cached_property
    def artifact_index(self) -> dict[str, int]:
        return dict(zip(self._file_ids, range(len(self._file_ids))))

    @cached_property
    def defect_cardinalities(self) -> np.ndarray:
        """Number of member artifacts per defect, in stored defect order."""
        return np.diff(self._member_csr[1])

    @cached_property
    def _cardinality_table(self) -> tuple[list[int], list[int], np.ndarray]:
        """(k, n_k, index): the distinct defect cardinalities k ascending, the number
        of defects n_k of each, and per defect the index of its k."""
        n_k = np.bincount(self.defect_cardinalities)
        k = np.flatnonzero(n_k)
        return k.tolist(), n_k[k].tolist(), np.cumsum(n_k > 0)[self.defect_cardinalities] - 1


def _label(name: str, value) -> int:
    """A label: the integer 0 or 1, returned as ``int``."""
    return _number(name, value, "0 or 1", lambda label: 0 <= label <= 1, integer=True)


@dataclass(frozen=True)
class Prediction:
    """A total binary labeling of artifacts: 1 = predicted defective, 0 = clean.

    ``Prediction(...)`` copies its labels and checks each by ``_label``;
    library code builds one from a label mask with ``Prediction._from_mask``.
    Pickles and copies hold the labels alone, as those of ``Prediction(labels)``."""

    labels: Mapping[str, int]

    _file_ids = None  # not a field: set only by _from_mask, with _mask

    def __post_init__(self):
        if not isinstance(self.labels, Mapping):
            raise InputContractError(
                f"labels must be a mapping of artifact ids to 0 or 1, got {_shown(self.labels)}"
            )
        labels = {
            artifact_id: _label(f"label for artifact {artifact_id!r}", label)
            for artifact_id, label in dict(self.labels).items()
        }
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _from_mask(
        cls, file_ids: tuple, mask: np.ndarray, labels: dict | None = None
    ) -> Prediction:
        """A prediction labeling ``file_ids`` by the bool ``mask``, in file order, made
        read-only; ``labels``, if given, is the equal dict the caller already holds."""
        mask.flags.writeable = False
        prediction = object.__new__(cls)
        prediction.__dict__.update(_file_ids=file_ids, _mask=mask)
        if labels is not None:
            prediction.__dict__["labels"] = labels
        return prediction

    def __getattr__(self, name):
        """Build ``labels`` from the mask on first access: int 0 or 1 in file order."""
        if name != "labels" or self._file_ids is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = dict(zip(self._file_ids, self._mask.view(np.int8).tolist()))
        self.__dict__[name] = value
        return value

    def __getstate__(self):
        return {"labels": self.labels}


# The one "value >= 0" test, of a Python int or float; nan fails it.
_is_count = (0.0).__le__


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Artifact-level outcome counts of a prediction: integers >= 0, stored as ``int``."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            count = _number(name, getattr(self, name), "an integer >= 0", _is_count, integer=True)
            object.__setattr__(self, name, count)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class OutcomeSummary:
    """Everything a cost evaluation needs to know about one prediction.

    ``predicted_artifacts`` holds the ids labeled defective; it is required
    because quality-assurance costs accrue per predicted artifact, which the
    confusion matrix alone cannot recover when costs vary by artifact.  Each
    id set is an iterable of ``str`` ids, not itself a ``str``, stored as a
    ``frozenset``, and ``cm`` is a ``ConfusionMatrix``.

    An outcome from ``classify`` holds the project it was classified on as
    ``_project``, and the boolean masks ``_picked`` (per artifact: labeled
    defective) and ``_hit`` (per defect: predicted); it builds its three id
    sets from them on first access.
    """

    cm: ConfusionMatrix
    predicted_defects: frozenset[str]
    missed_defects: frozenset[str]
    predicted_artifacts: frozenset[str]

    _project = None  # not a field: set only by classify

    def __post_init__(self):
        _instance("cm", self.cm, ConfusionMatrix)
        for name in ("predicted_defects", "missed_defects", "predicted_artifacts"):
            what = "artifact" if name == "predicted_artifacts" else "defect"
            object.__setattr__(self, name, _ids(name, what, getattr(self, name)))

    def __getattr__(self, name):
        """Build an id set from the masks on first access."""
        project = self._project
        if project is None or name not in (
            "predicted_defects", "missed_defects", "predicted_artifacts"
        ):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "predicted_artifacts":
            value = frozenset(compress(project._file_ids, self._picked.tolist()))
        elif name == "predicted_defects":
            value = frozenset(compress(project._defect_ids, self._hit.tolist()))
        else:  # built as classify always built it, so that it iterates in the same order
            value = frozenset(project._defect_ids) - self.predicted_defects
        self.__dict__[name] = value
        return value


def _labeled(labels: Mapping[str, int], file_ids: tuple) -> np.ndarray:
    """The bool mask of ``labels`` in file order; ``KeyError`` on a file it does not label."""
    return np.fromiter(map(labels.__getitem__, file_ids), bool, len(file_ids))


def _label_vector(project: Project, prediction: Prediction) -> np.ndarray:
    if getattr(prediction, "_file_ids", None) is project._file_ids:  # views share the tuple
        return prediction._mask
    labels = prediction.labels
    file_ids = project._file_ids
    if len(labels) == len(file_ids):
        try:
            return _labeled(labels, file_ids)
        except KeyError:
            pass  # then some label names an unknown artifact
    extra = labels.keys() - project.artifact_index.keys()
    if extra:
        raise InputContractError(f"unknown artifact {sorted(extra)[0]!r} in prediction")
    missing = next(file_id for file_id in file_ids if file_id not in labels)
    raise InputContractError(f"unlabeled artifact {missing!r}")


def _members_hit(project: Project, member_labels: np.ndarray) -> np.ndarray:
    """The one hit rule: per defect, are all its members marked in ``member_labels``,
    what ``_defects_hit`` takes gathered at ``_member_csr[0]`` (dtype kept)?"""
    indices, starts = project._member_csr
    if len(indices) == len(starts) - 1:  # one member per defect, or no defect: its label
        return member_labels
    return np.minimum.reduceat(member_labels, starts[:-1], axis=-1)


def _defects_hit(project: Project, predicted: np.ndarray) -> np.ndarray:
    """Per defect: are all its artifacts marked in ``predicted``, an artifact mask or
    stacked label rows (leading axes rows, last axis artifacts; dtype kept)?"""
    return _members_hit(project, predicted[..., project._member_csr[0]])


def classify(project: Project, prediction: Prediction) -> OutcomeSummary:
    """Evaluate a prediction: confusion matrix plus predicted and missed defects.

    A defect is predicted only if every one of its member artifacts is labeled
    defective; otherwise it is missed.  The prediction must label exactly the
    project's artifacts.
    """
    picked = _label_vector(project, prediction)
    truth = project.defective_mask
    tp = int(np.count_nonzero(truth & picked))  # fp, tn, fn from totals, as run_grid counts
    predicted = int(np.count_nonzero(picked))
    fn = int(np.count_nonzero(truth)) - tp
    cm = ConfusionMatrix(tp=tp, fp=predicted - tp, tn=len(picked) - predicted - fn, fn=fn)
    outcome = object.__new__(OutcomeSummary)
    outcome.__dict__.update(
        cm=cm, _project=project, _picked=picked, _hit=_defects_hit(project, picked)
    )
    return outcome


def project_view(project: Project, target: Relationship) -> Project:
    """Project the full n-to-m incidence data onto a simpler relationship view.

    * ``N_TO_M``: the project itself, unchanged.
    * ``ONE_TO_M``: every (defect, member) incidence pair becomes its own
      single-member defect, as in bug-count data sets.  Derived defect ids are
      ``"<defect-id>#<artifact-id>"``.
    * ``ONE_TO_ONE``: one single-member defect per defective artifact, i.e. a
      plain binary labeling; the derived defect id is the artifact id.

    Artifacts and sizes are untouched in every view.  A view shares the
    project's arrays; only its member incidence is new, and its defect ids are
    derived when first read.
    """
    _instance("project", project, Project)
    _instance("target", target, Relationship)
    if project.relationship is not Relationship.N_TO_M:
        raise InputContractError(
            f"views are derived from n-m data, got a {project.relationship.value} project"
        )
    if target is Relationship.N_TO_M:
        return project
    if target is Relationship.ONE_TO_M:
        indices = project._member_csr[0]
    else:
        indices = np.flatnonzero(project.defective_mask)
    starts = np.arange(len(indices) + 1, dtype=np.int64)
    return Project._from_arrays(
        project.id,
        target,
        project._file_ids,
        project.sizes,
        indices,
        starts,
        defective_mask=project.defective_mask,
        _source=project,
    )


def _share(part: int, whole: int) -> float | None:
    """part / whole, or None when whole is 0: the one formula of precision and recall."""
    return part / whole if whole else None


def precision(cm: ConfusionMatrix) -> float | None:
    """tp / (tp + fp), or None when no artifact was predicted defective."""
    return _share(cm.tp, cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> float | None:
    """tp / (tp + fn), or None when the project has no defective artifact."""
    return _share(cm.tp, cm.tp + cm.fn)


def perfect_prediction(project: Project) -> Prediction:
    """The indicator labeling of the defective artifacts."""
    return Prediction._from_mask(project._file_ids, project.defective_mask)


def constant_prediction(project: Project, label: int) -> Prediction:
    """Label every artifact with the same value (predict nothing or everything)."""
    file_ids = project._file_ids
    return Prediction._from_mask(file_ids, np.full(len(file_ids), _label("label", label), bool))
