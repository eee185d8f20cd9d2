"""Cost evaluation for defect prediction models.

The total cost of acting on a prediction is

    cost = c_init + c_exec
         + sum of qa(s) over artifacts predicted defective
         + sum of loss(d) over missed defects
         + sum of qf(d) * loss(d) over predicted defects

where qa(s) is the quality-assurance cost of artifact s, loss(d) the cost of
defect d escaping into production, and qf(d) the probability that quality
assurance fails to reveal d even though it was predicted.

``cost_general`` evaluates this with arbitrary per-artifact and per-defect
inputs.  ``cost_init`` evaluates the six standard initializations: quality
assurance costed per artifact (constant, one unit) or per line (size-aware),
crossed with the three incidence views (n-m, 1-m, 1-1).  All defect losses are
the single ratio ``c_ratio`` = mean defect cost per quality-assurance unit,
and quality-assurance failure is a per-artifact Bernoulli miss with
probability ``p_qf``, so qf(d) = 1 - w(d) with the escape weight
w(d) = (1 - p_qf)^|d|, the chance that QA on all of d's artifacts reveals d.

One private kernel, ``_terms``, gives the initialized costs and the
boundaries (``defectcost.boundaries``) all they read about an outcome: QA
spent and unspent, each defect's escape weight and whether it was predicted.
The 1-m and 1-1 views are n-m data with single-member defects, so no formula
depends on the view.  ``boundaries._ends`` turns QA spent and unspent and the
escape weight prevented and lost into the lower end, the upper end and the
cost-saving verdict, both for ``boundary_interval`` and, as arrays over every
grid cell, for ``defectcost.simulation.run_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .errors import InputContractError
from .model import OutcomeSummary, Project, Relationship, _defects_hit


class QAMode(Enum):
    """How quality-assurance cost scales: one unit per artifact, or per size unit."""

    CONSTANT = "const"
    SIZE_AWARE = "size"


@dataclass(frozen=True)
class ModelKind:
    """One of the six cost-model initializations: a QA mode plus an incidence view."""

    qa_mode: QAMode
    relationship: Relationship

    @property
    def code(self) -> str:
        return f"{self.qa_mode.value}-{self.relationship.value}"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (list(QAMode).index(self.qa_mode), list(Relationship).index(self.relationship))


ALL_KINDS: tuple[ModelKind, ...] = tuple(
    ModelKind(qa_mode, relationship) for qa_mode in QAMode for relationship in Relationship
)

KIND_BY_CODE: dict[str, ModelKind] = {kind.code: kind for kind in ALL_KINDS}


def _is_number(value) -> bool:
    """An int or float (numpy's float64 included) that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CostParams:
    """Scalar parameters of the initialized cost models.

    ``c_ratio`` is the mean cost of one defect expressed in quality-assurance
    cost units (the QA unit is normalized to 1).  ``p_qf`` is the probability
    that quality assurance misses a defect in one artifact; it must stay below
    1 so that quality assurance always has a chance to reveal every defect.
    ``c_init`` and ``c_exec`` are the one-time and continuous overheads of
    running the prediction model; the standard initializations set them to 0
    but every operation honors them.  ``c_ratio``, ``c_init`` and ``c_exec``
    must be finite.
    """

    c_ratio: float = 1.0
    p_qf: float = 0.0
    c_init: float = 0.0
    c_exec: float = 0.0
    qa_mode: QAMode = QAMode.CONSTANT

    def __post_init__(self):
        for name in ("c_ratio", "p_qf", "c_init", "c_exec"):
            if not _is_number(getattr(self, name)):
                raise InputContractError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.qa_mode, QAMode):
            raise InputContractError(f"qa_mode must be a QAMode, got {self.qa_mode!r}")
        for name in ("c_ratio", "c_init", "c_exec"):
            if not math.isfinite(getattr(self, name)):
                raise InputContractError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.c_ratio > 0:
            raise InputContractError(f"c_ratio must be positive, got {self.c_ratio}")
        if not 0.0 <= self.p_qf < 1.0:
            raise InputContractError(f"p_qf must be in [0, 1), got {self.p_qf}")
        if self.c_init < 0 or self.c_exec < 0:
            raise InputContractError("c_init and c_exec must be non-negative")


@dataclass(frozen=True)
class GeneralCostInputs:
    """Fully general per-artifact QA costs and per-defect losses and failure rates."""

    qa_costs: Mapping[str, float]
    losses: Mapping[str, float]
    qf_values: Mapping[str, float]
    c_init: float = 0.0
    c_exec: float = 0.0


def qa_failure(p_qf: float, cardinality: int) -> float:
    """Probability that QA misses a defect touching ``cardinality`` artifacts.

    Each artifact is an independent Bernoulli miss with probability ``p_qf``;
    the defect escapes when it is missed in at least one artifact, giving
    1 - (1 - p_qf)^cardinality.  Strictly increasing in both arguments.
    """
    if not 0.0 <= p_qf < 1.0:
        raise InputContractError(f"p_qf must be in [0, 1), got {p_qf}")
    if cardinality < 1:
        raise InputContractError(f"cardinality must be >= 1, got {cardinality}")
    return 1.0 - (1.0 - p_qf) ** cardinality


def qa_cost_vector(project: Project, qa_mode: QAMode) -> np.ndarray:
    """Per-artifact QA cost in stored order: all ones, or the artifact sizes."""
    if qa_mode is QAMode.SIZE_AWARE:
        return project.sizes.astype(np.float64)
    return np.ones(len(project.artifacts), dtype=np.float64)


def induced_inputs(project: Project, params: CostParams) -> GeneralCostInputs:
    """The general cost inputs that an initialized model implicitly uses.

    QA cost per artifact follows ``params.qa_mode``, every defect loses
    ``c_ratio``, and the failure rate of a defect is the Bernoulli escape
    probability for its member count.
    """
    qa = qa_cost_vector(project, params.qa_mode)
    return GeneralCostInputs(
        qa_costs={a.id: float(q) for a, q in zip(project.artifacts, qa)},
        losses={d.id: params.c_ratio for d in project.defects},
        qf_values={d.id: qa_failure(params.p_qf, len(d.members)) for d in project.defects},
        c_init=params.c_init,
        c_exec=params.c_exec,
    )


def cost_general(project: Project, outcome: OutcomeSummary, inputs: GeneralCostInputs) -> float:
    """Evaluate the general cost model with explicit qa/loss/qf mappings.

    The mappings must be total on the project's artifacts and defects.
    """
    for a in project.artifacts:
        if a.id not in inputs.qa_costs:
            raise InputContractError(f"missing qa cost for artifact {a.id!r}")
    for d in project.defects:
        if d.id not in inputs.losses:
            raise InputContractError(f"missing loss for defect {d.id!r}")
        if d.id not in inputs.qf_values:
            raise InputContractError(f"missing qf value for defect {d.id!r}")
    qa_spent = math.fsum(inputs.qa_costs[a] for a in outcome.predicted_artifacts)
    missed = math.fsum(inputs.losses[d] for d in outcome.missed_defects)
    escaped = math.fsum(inputs.qf_values[d] * inputs.losses[d] for d in outcome.predicted_defects)
    return inputs.c_init + inputs.c_exec + qa_spent + missed + escaped


def _check_kind(project: Project, params: CostParams, kind: ModelKind) -> None:
    if project.relationship is not kind.relationship:
        raise InputContractError(
            f"project view is {project.relationship.value} but the cost model "
            f"expects {kind.relationship.value}; derive the view first"
        )
    if params.qa_mode is not kind.qa_mode:
        raise InputContractError(
            f"params.qa_mode is {params.qa_mode.value} but the cost model is {kind.qa_mode.value}"
        )


def _powers(base: float, cardinalities: np.ndarray) -> np.ndarray:
    """base^|d| per defect, by Python ``pow`` once per distinct cardinality.

    numpy's ``power`` can differ from ``pow`` in the last bit; every route,
    ``simulation.run_grid`` included, takes its powers from here."""
    counts = np.bincount(cardinalities)
    distinct = np.flatnonzero(counts)
    table = np.empty(len(counts))
    table[distinct] = [base**k for k in distinct.tolist()]
    return table[cardinalities]


class _Terms(NamedTuple):
    spent: float  # QA cost of the predicted artifacts
    unspent: float  # QA cost of the other artifacts
    weight: np.ndarray  # escape weight (1 - p_qf)^|d| per defect
    hit: np.ndarray  # True where all of the defect's artifacts are predicted


def _terms(project: Project, outcome: OutcomeSummary, params: CostParams) -> _Terms:
    """The kernel.

    QA costs are whole numbers (ones or sizes), so the QA sums are exact in
    any order while the project's total QA cost is below 2^53."""
    index = project.artifact_index
    predicted = outcome.predicted_artifacts
    picked = np.zeros(len(project.artifacts), dtype=bool)
    picked[np.fromiter(map(index.__getitem__, predicted), np.intp, len(predicted))] = True
    qa = qa_cost_vector(project, params.qa_mode)
    weight = _powers(1.0 - params.p_qf, project.defect_cardinalities)
    spent, unspent = float(qa[picked].sum()), float(qa[~picked].sum())
    return _Terms(spent, unspent, weight, _defects_hit(project, picked))


def cost_init(project: Project, outcome: OutcomeSummary, params: CostParams, kind: ModelKind) -> float:
    """Cost under one of the six initialized models.

    The project must already be in the view that ``kind`` expects.  The cost
    is c_init + c_exec + QA spent + c_ratio * (missed defects + the sum of
    1 - w(d) over predicted defects), w(d) being the escape weight.
    """
    _check_kind(project, params, kind)
    terms = _terms(project, outcome, params)
    c = params.c_ratio
    missed = int(np.count_nonzero(~terms.hit))
    escaped = math.fsum((1.0 - terms.weight[terms.hit]).tolist())
    return params.c_init + params.c_exec + terms.spent + (missed * c + escaped * c)


def cost_random(project: Project, p_qa: float, params: CostParams) -> float:
    """Expected cost when QA is applied to each artifact independently with probability ``p_qa``.

    A defect is prevented only when all of its artifacts receive QA (probability
    p_qa^|d|) and QA does not fail on it.  With p_qa = 0 this is the cost of no
    quality assurance at all (every defect escapes); with p_qa = 1 it is the
    cost of quality assurance on everything.  The prediction model's own
    overheads c_init/c_exec do not apply to this baseline.
    """
    if not 0.0 <= p_qa <= 1.0:
        raise InputContractError(f"p_qa must be in [0, 1], got {p_qa}")
    cards = project.defect_cardinalities
    covered = _powers(p_qa, cards)
    qf = 1.0 - _powers(1.0 - params.p_qf, cards)
    c = params.c_ratio
    defect_terms = (1.0 - covered) * c + covered * qf * c
    qa_expected = p_qa * float(np.sum(qa_cost_vector(project, params.qa_mode)))
    return qa_expected + math.fsum(defect_terms.tolist())
