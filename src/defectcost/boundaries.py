"""Provable cost-saving boundary conditions on the defect cost ratio.

Whether a prediction model saves cost depends on the unknown ratio C between
the mean cost of a defect and one quality-assurance cost unit.  Comparing the
model's expected cost against randomly applying quality assurance with
probability ``p_qa`` yields a linear condition

    C * defect_coeff < qa_margin

whose sign pattern turns into an upper bound (defect_coeff > 0), a lower bound
(defect_coeff < 0), or a C-independent verdict (defect_coeff = 0) on C.
``theorem_boundary`` evaluates it from the terms of the kernel in
``defectcost.costs``; its two ends are the corollary boundaries:

* ``lower_boundary`` (p_qa = 0, no quality assurance at all): the model saves
  cost for every C above (QA spent + overheads) / escape weight predicted.
* ``upper_boundary`` (p_qa = 1, quality assurance on everything): the model
  saves cost for every C below (QA saved - overheads) / escape weight missed.

``boundary_interval`` returns both ends for one of the six initialized cost
models, in any view; cost saving is possible at all only when the interval
is non-empty.  Unbounded boundaries (a zero escape weight predicted for the
lower, missed for the upper) are represented as ``math.inf``.

The condition is written once: ``_condition`` gives its coefficient and margin,
element-wise, to ``theorem_boundary`` at its ``p_qa`` and to ``_ends`` at
p_qa = 0 and 1.  ``_ends`` gives the lower end, the upper end and the verdict to
``boundary_interval`` (one outcome) and ``defectcost.simulation.run_grid``
(every grid cell at once, as arrays).  Divisions go through ``_threshold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costs import (
    _PARAM_RULES, CostParams, ModelKind, _check_kind, _escape_sum, _is_probability, _terms,
)
from .errors import _number
from .model import OutcomeSummary, Project

UNBOUNDED = math.inf


class BoundKind(Enum):
    """What the comparison against a random-QA baseline implies for the cost ratio."""

    LOWER_BOUND = "lower"
    UPPER_BOUND = "upper"
    ALWAYS_PROFITABLE = "always"
    NEVER_PROFITABLE = "never"


@dataclass(frozen=True, slots=True)
class BoundaryCondition:
    """The linear profit condition C * defect_coeff < qa_margin, solved for C.

    ``defect_coeff`` is the per-unit-C difference in expected defect cost
    between the prediction model and the random baseline; ``qa_margin`` is the
    expected quality-assurance spending of the baseline minus the model's
    (including overheads).  ``threshold`` is qa_margin / defect_coeff when the
    coefficient is nonzero, otherwise ``math.inf`` as a placeholder.
    """

    defect_coeff: float
    qa_margin: float
    kind: BoundKind
    threshold: float

    def allows(self, c_ratio: float) -> bool:
        """True when a defect cost ratio of ``c_ratio`` yields positive expected profit.

        ``c_ratio`` is checked as ``CostParams.c_ratio`` is, whatever the kind."""
        c_ratio = _number("c_ratio", c_ratio, *_PARAM_RULES["c_ratio"])
        if self.kind is BoundKind.UPPER_BOUND:
            return c_ratio < self.threshold
        if self.kind is BoundKind.LOWER_BOUND:
            return c_ratio > self.threshold
        return self.kind is BoundKind.ALWAYS_PROFITABLE


@dataclass(frozen=True, slots=True)
class BoundaryInterval:
    """The range of cost ratios for which a prediction beats both trivial baselines."""

    lower: float
    upper: float
    cost_saving_possible: bool


def _threshold(coeff, margin):
    """margin / coeff, or UNBOUNDED where coeff is 0; a float coeff skips numpy's call cost.

    That branch is not a dead twin of the array one: without it
    ``boundary_interval`` took 33.8 against 16.6 us per call (medians of 8
    alternating rounds, slower in 8 of 8) over 180 requests on the sample
    corpus, on a 2-core x86 host.  A subnormal coeff can overflow the quotient
    to inf, as Python's float division gives it, without a warning."""
    if isinstance(coeff, float):
        return margin / coeff if coeff else UNBOUNDED
    out = np.full(np.broadcast_shapes(np.shape(coeff), np.shape(margin)), UNBOUNDED)
    with np.errstate(over="ignore"):
        return np.divide(margin, coeff, out=out, where=coeff != 0)


def _condition(p_qf, p_qa, spent, unspent, table, c_init, c_exec):
    """(defect_coeff, qa_margin) of ``theorem_boundary`` element-wise, from QA spent and
    unspent and the (k, n_k, h_k) table of ``costs._terms``."""
    coeff = _escape_sum(p_qf, lambda k, w, n, h: w * (n * p_qa**k - h), *table)
    return coeff, p_qa * (spent + unspent) - spent - c_init - c_exec


def _ends(p_qf, spent, unspent, table, c_init=0.0, c_exec=0.0):
    """(lower, upper, cost_saving) element-wise: ``_threshold`` of ``_condition`` at p_qa = 0
    and 1, the corollaries' quotients bit for bit; upper clamps to 0.  Cost saving is
    lower < upper: lower is never nan, and inf is below nothing."""
    lower = _threshold(*_condition(p_qf, 0.0, spent, unspent, table, c_init, c_exec))
    upper = _threshold(*_condition(p_qf, 1.0, spent, unspent, table, c_init, c_exec))
    upper = np.maximum(upper, 0.0)
    return lower, upper, lower < upper


def _interval(project: Project, outcome: OutcomeSummary, params: CostParams) -> BoundaryInterval:
    """``_ends`` of one outcome."""
    terms = _terms(project, outcome, params)
    lower, upper, possible = _ends(params.p_qf, *terms, params.c_init, params.c_exec)
    return BoundaryInterval(float(lower), float(upper), bool(possible))


def theorem_boundary(
    project: Project, outcome: OutcomeSummary, p_qa: float, params: CostParams
) -> BoundaryCondition:
    """Boundary on the cost ratio versus random QA with probability ``p_qa``.

    defect_coeff = sum over defects of w(d) * (p_qa^|d| - hit(d)), with the
                   escape weight w(d) = (1 - p_qf)^|d| and hit(d) = 1 for a
                   predicted defect, 0 for a missed one
    qa_margin    = p_qa * total QA cost - QA cost of predicted artifacts
                 - c_init - c_exec

    Expected profit is positive iff C * defect_coeff < qa_margin, i.e. iff C
    is below (coefficient positive) or above (negative) the threshold; when
    the coefficient is zero the verdict is independent of C and decided by the
    sign of qa_margin.  ``p_qa`` is a number in [0, 1].
    """
    p_qa = _number("p_qa", p_qa, "a number in [0, 1]", _is_probability)
    terms = _terms(project, outcome, params)
    coeff, margin = _condition(params.p_qf, p_qa, *terms, params.c_init, params.c_exec)
    if coeff > 0:
        kind = BoundKind.UPPER_BOUND
    elif coeff < 0:
        kind = BoundKind.LOWER_BOUND
    elif margin > 0:
        kind = BoundKind.ALWAYS_PROFITABLE
    else:
        kind = BoundKind.NEVER_PROFITABLE
    return BoundaryCondition(coeff, margin, kind, _threshold(coeff, margin))


def lower_boundary(project: Project, outcome: OutcomeSummary, params: CostParams) -> float:
    """Smallest cost ratio at which the model beats doing no quality assurance.

    The p_qa = 0 threshold of ``theorem_boundary``: (QA cost of predicted
    artifacts + c_init + c_exec) divided by the escape weight of the predicted
    defects; unbounded when that weight is 0 (no defect is fully predicted).
    """
    return _interval(project, outcome, params).lower


def upper_boundary(project: Project, outcome: OutcomeSummary, params: CostParams) -> float:
    """Largest cost ratio at which the model beats quality assurance on everything.

    The p_qa = 1 threshold of ``theorem_boundary``: (QA cost saved on
    unpredicted artifacts - c_init - c_exec) divided by the escape weight of
    the missed defects; unbounded when that weight is 0 (nothing is missed).
    A negative numerator (overheads exceed the QA saved) clamps to 0: no
    positive cost ratio qualifies.
    """
    return _interval(project, outcome, params).upper


def boundary_interval(
    project: Project, outcome: OutcomeSummary, params: CostParams, kind: ModelKind
) -> BoundaryInterval:
    """The cost-saving interval of one of the six initialized models.

    The project must already be in the view ``kind`` expects; the interval is
    (``lower_boundary``, ``upper_boundary``) in that view.
    """
    _check_kind(project, params, kind)
    return _interval(project, outcome, params)
