"""The per-cell grid evaluator that ``run_grid`` replaced, kept as its reference.

One cell at a time: draw the labeling, count it, and build one
``ExperimentRecord`` per (p_qf, kind) with Python float arithmetic; then sort
all records into canonical order.  The n-m escape weights are summed by
numpy over the predicted defects, and the missed weight is the total minus
that sum.

``dense_cell_sums`` keeps the dense kernel that ``simulation._cell_sums``
replaced: every cell's 0/1 labels, stacked into the same blocks, times one
column per sum over all files, the n-m defect hits of the labels counted per
distinct defect cardinality, and the 1-m and 1-1 hits by their own formulas,
not through ``project_view``.
"""

import math

import numpy as np

from defectcost import (
    ALL_KINDS,
    ConfusionMatrix,
    ExperimentRecord,
    QAMode,
    Relationship,
    cell_seed,
    precision,
    recall,
)
from defectcost.costs import qa_cost_vector


def _labels(project, accuracy, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    truth = project.defective_mask
    correct = rng.random(len(truth)) < accuracy
    return np.where(correct, truth, ~truth).astype(np.int8)


class _Evaluator:
    def __init__(self, project, config):
        self.project = project
        self.config = config
        self.truth = project.defective_mask
        self.sizes = project.sizes.astype(np.float64)
        self.total_size = float(self.sizes.sum())
        self.cards = project.defect_cardinalities
        self.indices, self.starts = project._member_csr
        self.nm_weights = {
            p: (1.0 - p) ** self.cards.astype(np.float64) for p in config.p_qf_values
        }
        self.nm_weight_totals = {p: float(w.sum()) for p, w in self.nm_weights.items()}
        degree = np.zeros(len(project.artifacts), dtype=np.int64)
        if len(self.indices):
            np.add.at(degree, self.indices, 1)
        self.degree = degree.astype(np.float64)
        self.total_pairs = float(self.cards.sum())

    def cell_records(self, accuracy_index, repetition):
        config = self.config
        accuracy = config.accuracies[accuracy_index]
        labels = _labels(self.project, accuracy, cell_seed(config.seed, accuracy_index, repetition))
        predicted = labels.astype(bool)
        tp = int(np.count_nonzero(self.truth & predicted))
        fp = int(np.count_nonzero(predicted)) - tp
        fn = int(np.count_nonzero(self.truth)) - tp
        tn = len(labels) - tp - fp - fn
        cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        size_pred = float(self.sizes[predicted].sum())
        qa_terms = {
            QAMode.CONSTANT: (float(tp + fp), float(tn + fn)),
            QAMode.SIZE_AWARE: (size_pred, self.total_size - size_pred),
        }
        if len(self.cards):
            pred_defects = np.minimum.reduceat(predicted[self.indices], self.starts[:-1])
        else:
            pred_defects = np.zeros(0, dtype=bool)
        n_pred_1m = float(self.degree[predicted].sum())
        records = []
        for p_qf in config.p_qf_values:
            keep = 1.0 - p_qf
            lower_den_nm = float(self.nm_weights[p_qf][pred_defects].sum())
            denominators = {
                Relationship.N_TO_M: (lower_den_nm, self.nm_weight_totals[p_qf] - lower_den_nm),
                Relationship.ONE_TO_M: (n_pred_1m * keep, (self.total_pairs - n_pred_1m) * keep),
                Relationship.ONE_TO_ONE: (tp * keep, fn * keep),
            }
            for kind in config.model_kinds:
                qa_spent, qa_unspent = qa_terms[kind.qa_mode]
                lower_den, upper_den = denominators[kind.relationship]
                lower = qa_spent / lower_den if lower_den != 0 else math.inf
                upper = qa_unspent / upper_den if upper_den != 0 else math.inf
                records.append(
                    ExperimentRecord(
                        project=self.project.id,
                        accuracy=accuracy,
                        repetition=repetition,
                        p_qf=p_qf,
                        kind=kind,
                        cm=cm,
                        precision=precision(cm),
                        recall=recall(cm),
                        lower=lower,
                        upper=upper,
                        cost_saving=math.isfinite(lower) and lower < upper,
                    )
                )
        return records


def reference_grid(project, config):
    """The records of ``run_grid(project, config)``, as a list, by the per-cell loop."""
    evaluator = _Evaluator(project, config)
    records = [
        record
        for a in range(len(config.accuracies))
        for r in range(config.repetitions)
        for record in evaluator.cell_records(a, r)
    ]
    kind_order = {kind: i for i, kind in enumerate(ALL_KINDS)}
    records.sort(key=lambda r: (r.accuracy, r.repetition, r.p_qf, kind_order[r.kind]))
    return records


def dense_cell_sums(project, config, block_labels):
    """QA spent per mode (cells, 2) and the hits per view (cells, K) of
    ``simulation._cell_sums`` under its block rule, from dense label rows, by the
    per-view formulas it replaced: QA spent is ``labels @ QA cost per mode``; n-m
    hits are the all-members minimum of the labels times one indicator column per
    distinct defect cardinality, ascending; a 1-m defect is an incidence pair, so
    its one column is the labels weighted by each file's member count, and a 1-1
    defect a defective file, so its one column is the defective files' labels.
    Without defects each view has zero columns."""
    n = len(project.sizes)
    truth = project.defective_mask
    indices, starts = project._member_csr
    qa = np.column_stack([qa_cost_vector(project, mode) for mode in QAMode])
    members = np.bincount(indices, minlength=n)
    ks, cardinality = np.unique(project.defect_cardinalities, return_inverse=True)
    indicators = np.eye(len(ks))[cardinality]
    width = min(1, len(ks))  # one column per single-member view, none without defects
    cells = [(a, r) for a in range(len(config.accuracies)) for r in range(config.repetitions)]
    block = max(1, block_labels // max(n, 1))
    spent, hits = [], {rel: [] for rel in Relationship}
    for start in range(0, len(cells), block):
        rows = np.array(
            [
                _labels(project, config.accuracies[a], cell_seed(config.seed, a, r))
                for a, r in cells[start : start + block]
            ],
            dtype=np.float64,
        )
        spent.append(rows @ qa)
        all_members = (
            np.minimum.reduceat(rows[:, indices], starts[:-1], axis=1) if len(ks) else rows[:, :0]
        )
        hits[Relationship.N_TO_M].append(all_members @ indicators)
        hits[Relationship.ONE_TO_M].append((rows @ members)[:, None][:, :width])
        hits[Relationship.ONE_TO_ONE].append((rows @ truth)[:, None][:, :width])
    return np.concatenate(spent), {rel: np.concatenate(h) for rel, h in hits.items()}
