"""Synthetic project generators for experiments and tests.

``project_from_aggregates`` builds a random project whose artifact count,
defective-artifact count, defect count, mean defect spread, and mean file size
match a target aggregate exactly (counts) or to rounding (means).
``SAMPLE_AGGREGATES`` lists the aggregates of fifteen open-source Java
projects, giving realistically shaped data without shipping any real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputContractError
from .model import Project, Relationship, _check_total_size, _csr


@dataclass(frozen=True)
class AggregateSpec:
    """Target aggregates for a generated project."""

    name: str
    n_artifacts: int
    n_defective: int
    n_defects: int
    mean_members: float
    mean_size: float


SAMPLE_AGGREGATES: tuple[AggregateSpec, ...] = (
    AggregateSpec("archiva", 508, 6, 4, 2.00, 108.85),
    AggregateSpec("cayenne", 2121, 281, 74, 5.12, 73.46),
    AggregateSpec("commons-math", 789, 2, 2, 1.00, 112.94),
    AggregateSpec("deltaspike", 793, 14, 13, 1.31, 56.17),
    AggregateSpec("falcon", 577, 38, 33, 2.91, 121.82),
    AggregateSpec("kafka", 1119, 201, 212, 2.00, 87.54),
    AggregateSpec("kylin", 1094, 170, 138, 1.95, 105.98),
    AggregateSpec("nutch", 414, 37, 30, 1.73, 106.74),
    AggregateSpec("storm", 1981, 173, 138, 1.88, 114.68),
    AggregateSpec("struts", 1334, 61, 38, 2.26, 79.36),
    AggregateSpec("tez", 803, 94, 71, 1.98, 129.33),
    AggregateSpec("tika", 694, 44, 35, 1.62, 105.06),
    AggregateSpec("wss4j", 501, 10, 7, 2.00, 110.55),
    AggregateSpec("zeppelin", 394, 89, 142, 1.63, 177.53),
    AggregateSpec("zookeeper", 380, 41, 27, 1.85, 113.21),
)


def _sizes_with_total(rng: np.random.Generator, n: int, target_total: int) -> np.ndarray:
    """Positive integer sizes with an exact total, drawn from a skewed distribution."""
    if target_total < n:
        raise InputContractError(f"cannot place total size {target_total} on {n} files")
    raw = rng.lognormal(mean=0.0, sigma=0.8, size=n)
    sizes = np.maximum(1, np.rint(raw * (target_total / raw.sum())).astype(np.int64))
    diff = target_total - int(sizes.sum())
    while diff != 0:
        if diff > 0:
            bump = rng.integers(0, n, size=diff)
            np.add.at(sizes, bump, 1)
            diff = 0
        else:
            shrinkable = np.flatnonzero(sizes >= 2)
            take = min(len(shrinkable), -diff)
            chosen = rng.choice(shrinkable, size=take, replace=False)
            sizes[chosen] -= 1
            diff += take
    return sizes


def project_from_aggregates(
    spec: AggregateSpec, seed: int | np.random.Generator = 0
) -> Project:
    """Generate a random n-m project matching the given aggregates.

    The artifact and defect counts match exactly; the total defect spread is
    the rounded product mean_members * n_defects; every defective artifact is
    covered by at least one defect; file sizes sum to the rounded product
    mean_size * n_artifacts.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if spec.n_defective > spec.n_artifacts:
        raise InputContractError("n_defective cannot exceed n_artifacts")
    total_slots = int(round(spec.mean_members * spec.n_defects))
    if spec.n_defects and total_slots < max(spec.n_defects, spec.n_defective):
        raise InputContractError(
            f"{total_slots} member slots cannot cover {spec.n_defects} defects "
            f"and {spec.n_defective} defective files"
        )
    total_size = int(round(spec.mean_size * spec.n_artifacts))
    _check_total_size(spec.name, total_size)
    sizes = _sizes_with_total(rng, spec.n_artifacts, total_size)
    file_ids = tuple(f"{spec.name}/f{i:04d}" for i in range(spec.n_artifacts))
    defective = rng.permutation(spec.n_artifacts)[: spec.n_defective]
    defective_ids = [file_ids[i] for i in defective]

    # one slot per defect first, then spread the remaining slots at random,
    # capped so no defect can exceed the defective population
    counts = np.ones(spec.n_defects, dtype=np.int64)
    for _ in range(total_slots - spec.n_defects):
        open_defects = np.flatnonzero(counts < spec.n_defective)
        counts[rng.choice(open_defects)] += 1

    members: list[set[str]] = [set() for _ in range(spec.n_defects)]
    if spec.n_defects:
        # cover every defective artifact, then fill the leftover capacity
        for artifact_id in rng.permutation(np.array(defective_ids, dtype=object)):
            free = np.flatnonzero(counts > np.array([len(m) for m in members]))
            members[rng.choice(free)].add(str(artifact_id))
        for j in range(spec.n_defects):
            missing = int(counts[j]) - len(members[j])
            if missing > 0:
                pool = np.array(sorted(set(defective_ids) - members[j]), dtype=object)
                for artifact_id in rng.choice(pool, size=missing, replace=False):
                    members[j].add(str(artifact_id))
    index = dict(zip(file_ids, range(spec.n_artifacts)))
    return Project._from_arrays(
        spec.name,
        Relationship.N_TO_M,
        file_ids,
        sizes,
        *_csr([sorted(map(index.__getitem__, m)) for m in members]),
        _defect_ids=tuple(f"{spec.name}-d{j:04d}" for j in range(spec.n_defects)),
        artifact_index=index,
    )


def sample_corpus(seed: int = 0) -> list[Project]:
    """One generated project per entry of ``SAMPLE_AGGREGATES``."""
    rng = np.random.default_rng(seed)
    return [project_from_aggregates(spec, rng) for spec in SAMPLE_AGGREGATES]

