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

Each term has one definition, read by every route, the simulation grid's
included: ``qa_cost_vector`` per artifact, ``model._members_hit`` per defect,
and the escape weight, a function of the defect's cardinality k, in
``_escape_sum`` over the distinct k.  One private kernel, ``_terms``, gives
the initialized costs and the boundaries (``defectcost.boundaries``) all they
read about an outcome: QA spent, QA unspent as the total minus spent (as the
grid takes it per cell), and n_k defects and h_k predicted ones per k.  The
1-m and 1-1 views are n-m data with single-member defects from
``model.project_view``, for one prediction and the grid alike, so no formula
on either path depends on the view.  ``boundaries._ends`` reads the profit
condition that ``boundaries._condition`` states on these terms at p_qa = 0 and 1
for the lower end, the upper end and the cost-saving verdict, of one outcome
(``boundary_interval``) and of every grid cell (``defectcost.simulation.run_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Mapping

import numpy as np

from .errors import InputContractError, _instance, _number
from .model import OutcomeSummary, Project, Relationship, _defects_hit


class QAMode(Enum):
    """How quality-assurance cost scales: one unit per artifact, or per size unit."""

    CONSTANT = "const"
    SIZE_AWARE = "size"


@dataclass(frozen=True, slots=True)
class ModelKind:
    """One of the six cost-model initializations: a QA mode plus an incidence view."""

    qa_mode: QAMode
    relationship: Relationship

    def __post_init__(self):
        _instance("qa_mode", self.qa_mode, QAMode)
        _instance("relationship", self.relationship, Relationship)

    @property
    def code(self) -> str:
        return f"{self.qa_mode.value}-{self.relationship.value}"


ALL_KINDS: tuple[ModelKind, ...] = tuple(
    ModelKind(qa_mode, relationship) for qa_mode in QAMode for relationship in Relationship
)

KIND_BY_CODE: dict[str, ModelKind] = {kind.code: kind for kind in ALL_KINDS}


def _is_probability(value) -> bool:
    return 0 <= value <= 1


def _is_failure_probability(value) -> bool:
    return 0 <= value < 1


# name -> (requirement, test) of each number of CostParams; GeneralCostInputs
# and BoundaryCondition.allows check their numbers of these names by it too
_PARAM_RULES = {
    "c_ratio": ("a finite number > 0", lambda c: c > 0 and math.isfinite(c)),
    "p_qf": ("a number in [0, 1)", _is_failure_probability),
    **dict.fromkeys(
        ("c_init", "c_exec"), ("a finite number >= 0", lambda c: c >= 0 and math.isfinite(c))
    ),
}


@dataclass(frozen=True, slots=True)
class CostParams:
    """Scalar parameters of the initialized cost models.

    ``c_ratio`` is the mean cost of one defect expressed in quality-assurance
    cost units (the QA unit is normalized to 1).  ``p_qf`` is the probability
    that quality assurance misses a defect in one artifact; it must stay below
    1 so that quality assurance always has a chance to reveal every defect.
    ``c_init`` and ``c_exec`` are the one-time and continuous overheads of
    running the prediction model; the standard initializations set them to 0
    but every operation honors them.  ``c_ratio`` is a finite number > 0,
    ``p_qf`` a number in [0, 1), and ``c_init`` and ``c_exec`` finite numbers
    >= 0; each is stored as the equal Python ``int`` or ``float``.
    """

    c_ratio: float = 1.0
    p_qf: float = 0.0
    c_init: float = 0.0
    c_exec: float = 0.0
    qa_mode: QAMode = QAMode.CONSTANT

    def __post_init__(self):
        for name, rule in _PARAM_RULES.items():
            object.__setattr__(self, name, _number(name, getattr(self, name), *rule))
        _instance("qa_mode", self.qa_mode, QAMode)


@dataclass(frozen=True, slots=True)
class GeneralCostInputs:
    """Fully general per-artifact QA costs and per-defect losses and failure rates.

    ``c_init`` and ``c_exec`` are checked and stored as in ``CostParams``."""

    qa_costs: Mapping[str, float]
    losses: Mapping[str, float]
    qf_values: Mapping[str, float]
    c_init: float = 0.0
    c_exec: float = 0.0

    def __post_init__(self):
        for name in ("c_init", "c_exec"):
            value = _number(name, getattr(self, name), *_PARAM_RULES[name])
            object.__setattr__(self, name, value)


def qa_cost_vector(project: Project, qa_mode: QAMode) -> np.ndarray:
    """Per-artifact QA cost in stored order: all ones, or the artifact sizes."""
    if qa_mode is QAMode.SIZE_AWARE:
        return project.sizes.astype(np.float64)
    return np.ones(len(project.sizes), dtype=np.float64)


def induced_inputs(project: Project, params: CostParams) -> GeneralCostInputs:
    """The general cost inputs that an initialized model implicitly uses.

    QA cost per artifact follows ``params.qa_mode``, every defect loses
    ``c_ratio``, and the failure rate of a defect is 1 - w(d), w(d) being its
    escape weight.
    """
    defect_ids = project._defect_ids
    ks, _, position = project._cardinality_table
    qf = [1.0 - (1.0 - params.p_qf) ** k for k in ks]
    return GeneralCostInputs(
        qa_costs=dict(zip(project._file_ids, qa_cost_vector(project, params.qa_mode).tolist())),
        losses=dict.fromkeys(defect_ids, params.c_ratio),
        qf_values=dict(zip(defect_ids, map(qf.__getitem__, position.tolist()))),
        c_init=params.c_init,
        c_exec=params.c_exec,
    )


def cost_general(project: Project, outcome: OutcomeSummary, inputs: GeneralCostInputs) -> float:
    """Evaluate the general cost model with explicit qa/loss/qf mappings.

    The mappings must be total on the project's artifacts and defects.
    """
    defect_ids = project._defect_ids
    for artifact_id in project._file_ids:
        if artifact_id not in inputs.qa_costs:
            raise InputContractError(f"missing qa cost for artifact {artifact_id!r}")
    for defect_id in defect_ids:
        if defect_id not in inputs.losses:
            raise InputContractError(f"missing loss for defect {defect_id!r}")
        if defect_id not in inputs.qf_values:
            raise InputContractError(f"missing qf value for defect {defect_id!r}")
    picked, hit = _masks(project, outcome)
    qa_spent = math.fsum(map(inputs.qa_costs.__getitem__, compress(project._file_ids, picked)))
    missed = math.fsum(map(inputs.losses.__getitem__, compress(defect_ids, ~hit)))
    escaped = math.fsum(inputs.qf_values[d] * inputs.losses[d] for d in compress(defect_ids, hit))
    return _finite(inputs.c_init + inputs.c_exec + qa_spent + missed + escaped)


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


def _escape_sum(p_qf, term, ks, *columns):
    """The one escape-weight sum: ``term(k, w_k, *columns at k)`` added from 0.0 over the
    distinct defect cardinalities ``ks`` in ascending k, w_k = (1 - p_qf)^k by Python
    ``pow`` (numpy's ``power`` can differ in the last bit).  A column holds Python numbers
    (one outcome) or numpy columns (every grid cell); each of K terms is rounded K times."""
    keep, total = 1.0 - p_qf, 0.0
    for k, *values in zip(ks, *columns):
        total = total + term(k, keep**k, *values)
    return total


def _finite(cost: float) -> float:
    """``cost``, unless its finite inputs overflowed a float."""
    if math.isinf(cost):
        raise OverflowError("the cost overflows a float")
    return cost


def _masks(project: Project, outcome: OutcomeSummary) -> tuple[np.ndarray, np.ndarray]:
    """The outcome's predicted-artifact and defect-hit masks on ``project``.

    An outcome that ``classify`` made on this project gives them as they are;
    any other outcome is mapped through the ids of its predicted artifacts."""
    if outcome._project is project:
        return outcome._picked, outcome._hit
    index = project.artifact_index
    predicted = outcome.predicted_artifacts
    try:
        positions = np.fromiter(map(index.__getitem__, predicted), np.intp, len(predicted))
    except KeyError:
        unknown = min(predicted - index.keys(), key=repr)
        raise InputContractError(f"unknown artifact {unknown!r} in outcome") from None
    picked = np.zeros(len(project.sizes), dtype=bool)
    picked[positions] = True
    return picked, _defects_hit(project, picked)


def _terms(project: Project, outcome: OutcomeSummary, params: CostParams) -> tuple:
    """The kernel: QA spent, QA unspent and (k, n_k, h_k predicted defects of k).

    QA unspent is the total minus spent, as in ``run_grid``.  QA costs are whole numbers
    (ones or sizes) and a total size is at most 2^53, so the QA sums are exact.  h_k is
    an ``np.bincount``, cheaper for one outcome of a fresh project than a one-hot."""
    picked, hit = _masks(project, outcome)
    qa = qa_cost_vector(project, params.qa_mode)
    ks, counts, position = project._cardinality_table
    hits = np.bincount(position[hit], minlength=len(ks)).tolist()
    spent = float(qa[picked].sum())
    return spent, float(qa.sum()) - spent, (ks, counts, hits)


def cost_init(project: Project, outcome: OutcomeSummary, params: CostParams, kind: ModelKind) -> float:
    """Cost under one of the six initialized models.

    The project must already be in the view that ``kind`` expects.  The cost
    is c_init + c_exec + QA spent + c_ratio * (missed defects + the sum of
    1 - w(d) over predicted defects), w(d) being the escape weight.  A cost
    too large for a float raises ``OverflowError``.
    """
    _check_kind(project, params, kind)
    spent, _, (ks, counts, hits) = _terms(project, outcome, params)
    c = params.c_ratio
    missed = sum(counts) - sum(hits)
    # 1 - w_k as it is: n - (the sum of n_k * w_k) would cancel where w_k is near 1
    escaped = _escape_sum(params.p_qf, lambda k, w, h: h * (1.0 - w), ks, hits)
    return _finite(params.c_init + params.c_exec + spent + (missed * c + escaped * c))


def cost_random(project: Project, p_qa: float, params: CostParams) -> float:
    """Expected cost when QA is applied to each artifact independently with probability ``p_qa``.

    A defect is prevented only when all of its artifacts receive QA (probability
    p_qa^|d|) and QA does not fail on it.  With p_qa = 0 this is the cost of no
    quality assurance at all (every defect escapes); with p_qa = 1 it is the
    cost of quality assurance on everything.  The prediction model's own
    overheads c_init/c_exec do not apply to this baseline.  ``p_qa`` is a
    number in [0, 1].  A cost too large for a float raises ``OverflowError``.
    """
    p_qa = _number("p_qa", p_qa, "a number in [0, 1]", _is_probability)
    ks, counts, _ = project._cardinality_table
    c = params.c_ratio
    escaped = _escape_sum(
        params.p_qf, lambda k, w, n: n * ((1.0 - p_qa**k) * c + p_qa**k * (1.0 - w) * c), ks, counts
    )
    return _finite(p_qa * float(np.sum(qa_cost_vector(project, params.qa_mode))) + escaped)
