"""The cost and boundary routes that the escape-weight kernel replaced, kept as its reference.

``cost_init`` and ``boundary_interval`` branch on the incidence view;
``lower_boundary``, ``upper_boundary`` and ``theorem_boundary`` read the QA
failure probability qf(d) = 1 - (1 - p_qf)^|d| and use 1 - qf(d) as the
escape weight; ``cost_random`` loops over the defects in Python.
``induced_inputs`` and ``cost_general`` walk the ``Artifact`` and ``Defect``
objects and the outcome's id sets.  The view and QA-mode checks are left
out: tests call these only with matching views.
"""

import math

from defectcost import (
    UNBOUNDED,
    BoundaryCondition,
    BoundaryInterval,
    BoundKind,
    GeneralCostInputs,
    InputContractError,
    QAMode,
    Relationship,
)
from defectcost.costs import qa_cost_vector


def qa_failure(p_qf, cardinality):
    """1 - (1 - p_qf)^cardinality: QA misses a defect in at least one of its artifacts."""
    if not 0.0 <= p_qf < 1.0:
        raise InputContractError(f"p_qf must be in [0, 1), got {p_qf}")
    if cardinality < 1:
        raise InputContractError(f"cardinality must be >= 1, got {cardinality}")
    return 1.0 - (1.0 - p_qf) ** cardinality


def induced_inputs(project, params):
    qa = qa_cost_vector(project, params.qa_mode)
    return GeneralCostInputs(
        qa_costs={a.id: float(q) for a, q in zip(project.artifacts, qa)},
        losses={d.id: params.c_ratio for d in project.defects},
        qf_values={d.id: qa_failure(params.p_qf, len(d.members)) for d in project.defects},
        c_init=params.c_init,
        c_exec=params.c_exec,
    )


def cost_general(project, outcome, inputs):
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


def _qf_by_defect(project, params):
    return {d.id: qa_failure(params.p_qf, len(d.members)) for d in project.defects}


def _qa_sums(project, outcome, qa_mode):
    qa = qa_cost_vector(project, qa_mode)
    predicted = outcome.predicted_artifacts
    spent = math.fsum(q for a, q in zip(project.artifacts, qa) if a.id in predicted)
    unspent = math.fsum(q for a, q in zip(project.artifacts, qa) if a.id not in predicted)
    return spent, unspent


def _qa_spent(project, outcome, qa_mode):
    if qa_mode is QAMode.CONSTANT:
        return float(outcome.cm.tp + outcome.cm.fp)
    index = project.artifact_index
    sizes = project.sizes
    return float(sum(int(sizes[index[a]]) for a in outcome.predicted_artifacts))


def cost_init(project, outcome, params, kind):
    qa_spent = _qa_spent(project, outcome, kind.qa_mode)
    c = params.c_ratio
    cm = outcome.cm
    if kind.relationship is Relationship.N_TO_M:
        cardinality = {d.id: len(d.members) for d in project.defects}
        escaped = math.fsum(
            qa_failure(params.p_qf, cardinality[d]) for d in outcome.predicted_defects
        )
        defect_term = len(outcome.missed_defects) * c + escaped * c
    elif kind.relationship is Relationship.ONE_TO_M:
        defect_term = len(outcome.missed_defects) * c + len(outcome.predicted_defects) * params.p_qf * c
    else:
        defect_term = cm.fn * c + cm.tp * params.p_qf * c
    return params.c_init + params.c_exec + qa_spent + defect_term


def cost_random(project, p_qa, params):
    qa = qa_cost_vector(project, params.qa_mode)
    qa_expected = p_qa * float(qa.sum())
    defect_terms = []
    for d in project.defects:
        covered = p_qa ** len(d.members)
        qf = qa_failure(params.p_qf, len(d.members))
        defect_terms.append((1.0 - covered) * params.c_ratio + covered * qf * params.c_ratio)
    return qa_expected + math.fsum(defect_terms)


def theorem_boundary(project, outcome, p_qa, params):
    qf = _qf_by_defect(project, params)
    coeff = math.fsum(qf[d] - 1.0 for d in outcome.predicted_defects) + math.fsum(
        p_qa ** len(d.members) * (1.0 - qf[d.id]) for d in project.defects
    )
    spent, unspent = _qa_sums(project, outcome, params.qa_mode)
    margin = p_qa * (spent + unspent) - spent - params.c_init - params.c_exec
    if coeff > 0:
        kind = BoundKind.UPPER_BOUND
    elif coeff < 0:
        kind = BoundKind.LOWER_BOUND
    elif margin > 0:
        kind = BoundKind.ALWAYS_PROFITABLE
    else:
        kind = BoundKind.NEVER_PROFITABLE
    threshold = margin / coeff if coeff != 0 else UNBOUNDED
    return BoundaryCondition(defect_coeff=coeff, qa_margin=margin, kind=kind, threshold=threshold)


def lower_boundary(project, outcome, params):
    if not outcome.predicted_defects:
        return UNBOUNDED
    qf = _qf_by_defect(project, params)
    prevented = math.fsum(1.0 - qf[d] for d in outcome.predicted_defects)
    spent, _ = _qa_sums(project, outcome, params.qa_mode)
    return (spent + params.c_init + params.c_exec) / prevented


def upper_boundary(project, outcome, params):
    if not outcome.missed_defects:
        return UNBOUNDED
    qf = _qf_by_defect(project, params)
    lost = math.fsum(1.0 - qf[d] for d in outcome.missed_defects)
    _, unspent = _qa_sums(project, outcome, params.qa_mode)
    numerator = unspent - params.c_init - params.c_exec
    if numerator < 0:
        return 0.0
    return numerator / lost


def boundary_interval(project, outcome, params, kind):
    keep = 1.0 - params.p_qf
    cm = outcome.cm
    if kind.relationship is Relationship.N_TO_M:
        cardinality = {d.id: len(d.members) for d in project.defects}
        lower_den = math.fsum(keep ** cardinality[d] for d in outcome.predicted_defects)
        upper_den = math.fsum(keep ** cardinality[d] for d in outcome.missed_defects)
    elif kind.relationship is Relationship.ONE_TO_M:
        lower_den = len(outcome.predicted_defects) * keep
        upper_den = len(outcome.missed_defects) * keep
    else:
        lower_den = cm.tp * keep
        upper_den = cm.fn * keep
    spent, unspent = _qa_sums(project, outcome, kind.qa_mode)
    if lower_den == 0:
        lower = UNBOUNDED
    else:
        lower = (spent + params.c_init + params.c_exec) / lower_den
    if upper_den == 0:
        upper = UNBOUNDED
    else:
        upper_num = unspent - params.c_init - params.c_exec
        upper = upper_num / upper_den if upper_num >= 0 else 0.0
    possible = math.isfinite(lower) and lower < upper
    return BoundaryInterval(lower=lower, upper=upper, cost_saving_possible=possible)
