"""Bernoulli simulation of defect predictors over an accuracy grid.

A simulated predictor of a given expected accuracy runs one Bernoulli
experiment per artifact: with probability equal to the accuracy the artifact
keeps its true label, otherwise the label is flipped.  ``run_grid`` sweeps a
grid of accuracies and repetitions, evaluates every labeling under the
requested failure probabilities and cost-model kinds, and emits one record
per grid cell.

Determinism contract
--------------------
The labels of a cell are drawn from the PCG64 stream of
``np.random.PCG64(seed)``, where the seed of each grid cell is derived from
the master seed and the cell's (accuracy index, repetition index) by chaining
the SplitMix64 finalizer:

    h = splitmix64(master_seed)
    h = splitmix64(h ^ accuracy_index)
    h = splitmix64(h ^ repetition_index)

so results are a pure function of the inputs, independent of evaluation
order.  ``simulate_prediction`` seeds ``np.random.PCG64(cell_seed)`` itself;
``run_grid`` derives every cell's seed at once, as uint64 array arithmetic
(``_cell_seeds``), and from those the seeded (state, inc) of every cell
(``_pcg64_states``: numpy's ``SeedSequence`` hash, NEP 19, then the PCG64
seeding step of M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
2014) and sets one reused generator to each.  ``TestPCG64States`` in
``tests/test_simulation.py`` pins that derivation to numpy's own seeding.
One labeling per (accuracy, repetition) cell is shared by all failure
probabilities and model kinds, which isolates their effect from sampling
noise.  Records come in canonical order: by accuracy value, repetition, p_qf
and kind, with cells of equal accuracy values in grid order within each
(repetition, p_qf, kind).

Which terms read which files
----------------------------
``run_grid`` reduces each labeling to QA spent under each QA mode, true
positives, predicted (defect, artifact) incidence pairs and predicted defects
per defect cardinality: counts, exact in any order and BLAS kernel, weighted
afterwards as for ``boundary_interval``, which the bounds equal bit for bit.
Only the QA sums read every file.  The other terms come from the defective
files alone, usually a small minority of a project.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .boundaries import _ends, _escaped
from .costs import (
    ALL_KINDS, ModelKind, QAMode, _is_failure_probability, _is_probability, qa_cost_vector,
)
from .errors import InputContractError, _instance, _number, _shown
from .model import ConfusionMatrix, Prediction, Project, Relationship, _defects_hit, _share

_MASK64 = (1 << 64) - 1

DEFAULT_ACCURACIES: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))
DEFAULT_P_QF_VALUES: tuple[float, ...] = (0.0, 0.5)

# run_grid stacks the labelings of up to _BLOCK_CELLS cells and reduces them
# together, but never more than _BLOCK_LABELS labels at once, so memory stays
# flat: a project of _BLOCK_LABELS files or more is evaluated one cell at a time.
# Every per-cell sum is exact in any block, so the cell cap is for speed alone:
# without it the paper_grid benchmark's stage1_ref rose 2.0 % (median of 10
# alternating 20 s pairs, higher in 8) on a 2-core x86 host.
_BLOCK_CELLS = 64
_BLOCK_LABELS = 1 << 16


def _splitmix64(value):
    """One step of the SplitMix64 finalizer, a fixed, portable 64-bit mixer, of a
    Python int in [0, 2^64) or of every word of a uint64 array, whose arithmetic
    wraps modulo 2^64 silently, so that the masks change nothing on it."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uint64(name: str, value) -> int:
    return _number(
        name, value, "an integer in [0, 2^64)", lambda v: 0 <= v <= _MASK64, integer=True
    )


def cell_seed(master_seed: int, accuracy_index: int, repetition_index: int) -> int:
    """Deterministic per-cell seed of three integers in [0, 2^64); see the module docstring."""
    mixed = _splitmix64(_uint64("master_seed", master_seed))
    mixed = _splitmix64(mixed ^ _uint64("accuracy_index", accuracy_index))
    return _splitmix64(mixed ^ _uint64("repetition_index", repetition_index))


def _cell_seeds(master_seed: int, n_accuracies: int, repetitions: int) -> np.ndarray:
    """``cell_seed(master_seed, a, r)`` of every cell ``a * repetitions + r``, at once."""
    mixed = _splitmix64(np.array([master_seed], dtype=np.uint64))
    mixed = _splitmix64(mixed ^ np.arange(n_accuracies, dtype=np.uint64))
    return _splitmix64(mixed[:, None] ^ np.arange(repetitions, dtype=np.uint64)).ravel()


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constants of ``count`` successive SeedSequence hashes."""
    pairs = []
    for _ in range(count):
        pairs.append((np.uint32(init), np.uint32(init * mult & 0xFFFFFFFF)))
        init = init * mult & 0xFFFFFFFF
    return pairs


# numpy's SeedSequence with a pool of 4 words: 16 hashes (INIT_A, MULT_A) mix
# the entropy into the pool, 8 more (INIT_B, MULT_B) draw PCG64's 4 uint64 words
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash(value: np.ndarray, constants: tuple[np.uint32, np.uint32]) -> np.ndarray:
    """SeedSequence's hash of uint32 words: xor, multiply, then xorshift 16."""
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 pool words into one."""
    value = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return value ^ (value >> np.uint32(16))


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) of ``np.random.PCG64(seed)`` for every seed in [0, 2^64), at once.

    The SeedSequence pool hash runs as uint32 arithmetic across all seeds: the
    seed's two 32-bit words, padded with zeros to the pool of 4, are hashed in,
    every ordered pair of pool words is mixed, and 8 hashes of the pool give
    ``initstate = w0 << 64 | w1`` and ``initseq = w2 << 64 | w3``.  PCG64 then
    seeds with ``inc = initseq << 1 | 1`` and ``state = (inc + initstate) * M + inc``
    modulo 2^128.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    hashes = iter(_POOL_HASHES)
    pool = [_hash(word, next(hashes)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(hashes)))
    words = [_hash(pool[i % 4], c).astype(np.uint64) for i, c in enumerate(_STATE_HASHES)]
    w0, w1, w2, w3 = (
        (words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
    )
    states = []
    for state_high, state_low, seq_high, seq_low in zip(w0, w1, w2, w3):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _items(name: str, values, what: str) -> tuple:
    """``values`` as a tuple; it must be a non-empty iterable."""
    if not isinstance(values, Iterable):
        raise InputContractError(f"{name} must be a sequence of {what}, got {_shown(values)}")
    values = tuple(values)
    if not values:
        raise InputContractError(f"{name} must not be empty")
    return values


def simulate_prediction(project: Project, accuracy: float, cell_seed: int) -> Prediction:
    """Draw one simulated labeling at the given expected accuracy.

    Artifacts are processed in the project's stored order, by one uniform per
    file; each keeps its true label with probability ``accuracy`` and is
    flipped otherwise.  The result is fully determined by ``cell_seed``, an
    integer in [0, 2^64); ``accuracy`` is a number in [0, 1].
    """
    accuracy = _number("accuracy", accuracy, "a number in [0, 1]", _is_probability)
    cell_seed = _uint64("cell_seed", cell_seed)
    truth = project.defective_mask
    uniforms = np.random.Generator(np.random.PCG64(cell_seed)).random(len(truth))
    labels = ((uniforms < accuracy) == truth).astype(np.int8)
    return Prediction._from_labels(dict(zip(project._file_ids, labels.tolist())))


@dataclass(frozen=True)
class GridConfig:
    """Sweep settings: accuracy grid, repetitions, failure probabilities, seed, kinds.

    Accuracies are numbers in [0, 1] and p_qf values numbers in [0, 1), stored
    as floats; ``repetitions`` is an integer >= 1 and ``seed`` one in [0, 2^64)."""

    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES
    repetitions: int = 100
    p_qf_values: tuple[float, ...] = DEFAULT_P_QF_VALUES
    seed: int = 0
    model_kinds: tuple[ModelKind, ...] = ALL_KINDS

    def __post_init__(self):
        accuracies = [
            _number("accuracies", a, "numbers in [0, 1]", _is_probability)
            for a in _items("accuracies", self.accuracies, "numbers")
        ]
        repetitions = _number(
            "repetitions", self.repetitions, "an integer >= 1", lambda r: r >= 1, integer=True
        )
        p_qf_values = [
            _number("p_qf_values", p, "numbers in [0, 1)", _is_failure_probability)
            for p in _items("p_qf_values", self.p_qf_values, "numbers")
        ]
        seed = _uint64("seed", self.seed)
        kinds = _items("model_kinds", self.model_kinds, "ModelKinds")
        for kind in kinds:
            _instance("model_kinds", kind, ModelKind)
        object.__setattr__(self, "repetitions", repetitions)
        object.__setattr__(self, "seed", seed)
        # floats, so that an integer setting is written as the parser reads it back
        object.__setattr__(self, "accuracies", tuple(map(float, accuracies)))
        object.__setattr__(self, "p_qf_values", tuple(sorted(set(map(float, p_qf_values)))))
        kinds = tuple(sorted(set(kinds), key=ALL_KINDS.index))
        object.__setattr__(self, "model_kinds", kinds)


@dataclass(frozen=True)
class ExperimentRecord:
    """One grid cell: the simulated outcome, its metrics, and its cost boundaries."""

    project: str
    accuracy: float
    repetition: int
    p_qf: float
    kind: ModelKind
    cm: ConfusionMatrix
    precision: float | None
    recall: float | None
    lower: float
    upper: float
    cost_saving: bool


class RecordTable(Sequence):
    """Experiment records stored as columns; items are ``ExperimentRecord`` row views.

    A cell is one labeling: its project, accuracy, repetition, confusion
    counts and metrics are stored once, in the cell columns.  A setting is one
    (p_qf, kind) pair.  Row ``i`` evaluates cell ``cell[i]`` under setting
    ``setting[i]``, and has its own ``lower``, ``upper`` and ``cost_saving``.
    Every column is a list of the values a record holds.  Records are built on
    access; a table equals any sequence of the same records.  Only ``run_grid``
    and ``parse_records`` build tables, so their values are in the reader's ranges.
    """

    CELL_COLUMNS = (
        "project", "accuracy", "repetition", "tp", "fp", "tn", "fn", "precision", "recall",
    )
    ROW_COLUMNS = ("cell", "setting", "lower", "upper", "cost_saving")

    def __init__(self, cells: dict, settings: Sequence, rows: dict):
        for name in self.CELL_COLUMNS:
            setattr(self, name, cells[name])
        self.settings = tuple(settings)
        for name in self.ROW_COLUMNS:
            setattr(self, name, rows[name])

    def __len__(self) -> int:
        return len(self.cell)

    def _record(self, i: int, cm: ConfusionMatrix | None = None) -> ExperimentRecord:
        c = self.cell[i]
        p_qf, kind = self.settings[self.setting[i]]
        return ExperimentRecord(
            project=self.project[c],
            accuracy=self.accuracy[c],
            repetition=self.repetition[c],
            p_qf=p_qf,
            kind=kind,
            cm=cm or ConfusionMatrix(self.tp[c], self.fp[c], self.tn[c], self.fn[c]),
            precision=self.precision[c],
            recall=self.recall[c],
            lower=self.lower[i],
            upper=self.upper[i],
            cost_saving=self.cost_saving[i],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        return self._record(range(len(self))[index])

    def __iter__(self):
        cms = [ConfusionMatrix(*counts) for counts in zip(self.tp, self.fp, self.tn, self.fn)]
        for i, c in enumerate(self.cell):
            yield self._record(i, cms[c])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<RecordTable of {len(self)} records>"


def _cell_sums(project: Project, config: GridConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw every cell's labeling and reduce it; cell ``a * repetitions + r``.

    Returns the (cells, 4) label sums [QA spent per ``QAMode`` (``qa_cost_vector``),
    true positives, predicted (defect, artifact) incidence pairs] and the (cells,
    k) defects that ``_defects_hit`` finds predicted per cardinality k of
    ``Project._cardinality_table``, ``hit @ onehot(cardinality)``.

    Cells are drawn in blocks of label rows.  Only two steps read every file:
    the uniforms are thresholded in place into 0/1 "kept" flags, and one
    two-column product gives QA spent, ``clean totals + kept @ signed``, where
    ``signed`` is each file's QA cost negated on the clean files (a clean file
    is predicted when flipped, a defective one when kept).  The true positives,
    incidence pairs and defect hits read only the defective files, where kept
    is the label.  Every sum is an integer, exact in float64 in any order.
    """
    n = len(project.sizes)
    truth = project.defective_mask
    defective = np.flatnonzero(truth)
    clean = ~truth[:, None]
    signed = np.empty((n, len(QAMode)))
    for column, mode in enumerate(QAMode):
        signed[:, column] = qa_cost_vector(project, mode)
    clean_totals = signed.sum(axis=0, where=clean)
    np.negative(signed, out=signed, where=clean)
    members = np.bincount(project._member_csr[0], minlength=n)[defective]
    counts = np.column_stack([np.ones(len(defective)), members])
    ks, _, position = project._cardinality_table
    onehot = (position[:, None] == np.arange(len(ks))).astype(np.float64)
    repetitions = config.repetitions
    n_cells = len(config.accuracies) * repetitions
    sums = np.empty((n_cells, 4))
    hits = np.empty((n_cells, len(ks)))
    block = max(1, min(_BLOCK_CELLS, _BLOCK_LABELS // max(n, 1)))
    uniforms = np.empty((block, n))
    states = _pcg64_states(_cell_seeds(config.seed, len(config.accuracies), repetitions))
    accuracies = np.repeat(config.accuracies, repetitions)[:, None]
    # one generator for every cell; its PCG64 is set to each cell's state in turn
    generator = np.random.Generator(np.random.PCG64(0))
    bitgen = generator.bit_generator
    for start in range(0, n_cells, block):
        stop = min(start + block, n_cells)
        kept = uniforms[: stop - start]
        for row, (state, inc) in zip(kept, states[start:stop]):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            generator.random(out=row)
        np.less(kept, accuracies[start:stop], out=kept)
        np.add(kept @ signed, clean_totals, out=sums[start:stop, :2])
        sums[start:stop, 2:] = kept[:, defective] @ counts
        hits[start:stop] = _defects_hit(project, kept) @ onehot
    return sums, hits


def _canonical_rows(config: GridConfig, n_settings: int) -> tuple[np.ndarray, np.ndarray]:
    """(cell, setting) of every row, sorted by accuracy value, repetition and setting.

    Cells whose accuracies are equal interleave in grid order at the finest
    level, as a stable sort on (accuracy, repetition, p_qf, kind) puts them.
    """
    repetitions = config.repetitions
    order = sorted(range(len(config.accuracies)), key=config.accuracies.__getitem__)
    cells, settings = [], []
    for _, group in itertools.groupby(order, key=config.accuracies.__getitem__):
        members = np.array(list(group))
        shape = (repetitions, n_settings, len(members))
        cell = members * repetitions + np.arange(repetitions)[:, None, None]
        cells.append(np.broadcast_to(cell, shape).ravel())
        settings.append(np.broadcast_to(np.arange(n_settings)[:, None], shape).ravel())
    return np.concatenate(cells), np.concatenate(settings)


def run_grid(project: Project, config: GridConfig) -> RecordTable:
    """Evaluate the full simulation grid on an n-m project.

    Returns exactly ``len(accuracies) * repetitions * len(p_qf_values) *
    len(model_kinds)`` records in canonical order.  Equal inputs produce equal
    outputs.
    """
    if project.relationship is not Relationship.N_TO_M:
        raise InputContractError("run_grid expects the full n-m project")
    sums, hits = _cell_sums(project, config)
    n = len(project.sizes)
    n_defective = int(np.count_nonzero(project.defective_mask))
    *spent, tp, predicted_pairs = sums.T
    # QA spent and unspent per QA mode (cells,)
    qa = {
        mode: (mode_spent, qa_cost_vector(project, mode).sum() - mode_spent)
        for mode, mode_spent in zip(QAMode, spent)
    }
    # (k, n_k, h_k per cell) per view: a 1-m defect is an incidence pair, a 1-1 defect a file
    ks, counts, _ = project._cardinality_table
    tables = {
        Relationship.N_TO_M: (ks, counts, hits.T),
        Relationship.ONE_TO_M: ([1], [int(project.defect_cardinalities.sum())], [predicted_pairs]),
        Relationship.ONE_TO_ONE: ([1], [n_defective], [tp]),
    }
    settings = [(p_qf, kind) for p_qf in config.p_qf_values for kind in config.model_kinds]
    # lower, upper and verdict (cells, settings): _ends of every cell, per setting
    lower, upper, saving = (np.empty((len(sums), len(settings)), t) for t in (float, float, bool))
    for s, (p_qf, kind) in enumerate(settings):
        prevented, lost = _escaped(p_qf, *tables[kind.relationship])
        lower[:, s], upper[:, s], saving[:, s] = _ends(*qa[kind.qa_mode], prevented, lost)
    row_cell, row_setting = _canonical_rows(config, len(settings))
    lower, upper, cost_saving = (e[row_cell, row_setting] for e in (lower, upper, saving))
    predicted = qa[QAMode.CONSTANT][0]  # one QA unit per predicted artifact
    tps = tp.astype(np.int64).tolist()
    fps = (predicted - tp).astype(np.int64).tolist()
    fns = [n_defective - t for t in tps]
    cells = {
        "project": [project.id] * len(sums),
        "accuracy": [a for a in config.accuracies for _ in range(config.repetitions)],
        "repetition": list(range(config.repetitions)) * len(config.accuracies),
        "tp": tps,
        "fp": fps,
        "tn": [n - t - f - m for t, f, m in zip(tps, fps, fns)],
        "fn": fns,
        "precision": [_share(t, t + f) for t, f in zip(tps, fps)],
        "recall": [_share(t, n_defective) for t in tps],
    }
    rows = {
        "cell": row_cell.tolist(),
        "setting": row_setting.tolist(),
        "lower": lower.tolist(),
        "upper": upper.tolist(),
        "cost_saving": cost_saving.tolist(),
    }
    return RecordTable(cells, settings, rows)
