"""The ``project_from_aggregates`` that the linear-time generator replaced, kept as its reference.

It rebuilds every defect's member count for each covering draw and sorts the
defective ids afresh for each defect it fills.  The spec checks it made are
kept as they were: a spec it cannot meet may pass them and fail in a draw.
"""

import numpy as np

from defectcost import AggregateSpec, InputContractError, Project, Relationship
from defectcost.model import _check_total_size, _csr


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
