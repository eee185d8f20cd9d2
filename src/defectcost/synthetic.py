"""Synthetic project generators for experiments and tests.

``project_from_aggregates`` builds a random project whose artifact count,
defective-artifact count, defect count, mean defect spread, and mean file size
match a target aggregate exactly (counts) or to rounding (means).
``SAMPLE_AGGREGATES`` lists the aggregates that ``summarize`` gives for
fifteen open-source Java projects, rounded, giving realistically shaped data
without shipping any real data.

A project is a pure function of its spec and seed, and the sequence of draws
made from the numpy ``Generator`` is part of that contract: a ``Generator``
passed in is left in the same state for the same spec.  The bookkeeping is
done once per draw, so the cost is linear in files plus member slots, with
an O(log defects) factor on each draw that places a slot.  A spec that
cannot be met is rejected before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputContractError, _number, _shown
from .model import Project, Relationship, _check_total_size, _is_count


@dataclass(frozen=True)
class AggregateSpec:
    """A project's aggregates: what ``summarize`` measures of a project and what
    ``project_from_aggregates`` targets.  The three counts are integers >= 0 and
    the two means finite numbers."""

    name: str
    n_artifacts: int
    n_defective: int
    n_defects: int
    mean_members: float
    mean_size: float

    @property
    def defect_free(self) -> bool:
        """True when the project has no defect; mean_members is then a filler 0."""
        return self.n_defects == 0


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
    if n == 0:
        return np.zeros(0, dtype=np.int64)
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


def _generator(seed) -> np.random.Generator:
    """``seed`` itself if it is a ``Generator``, else a new one seeded by it."""
    if isinstance(seed, np.random.Generator):
        return seed
    requirement = "a non-negative integer or a Generator"
    return np.random.default_rng(_number("seed", seed, requirement, _is_count, integer=True))


def _checked(spec: AggregateSpec) -> tuple[int, int, int, int, int]:
    """A spec's file, defective-file and defect counts, total member slots and
    total size, if the spec can be met."""
    if not isinstance(spec.name, str):
        raise InputContractError(f"name must be a string, got {_shown(spec.name)}")
    n_files, n_defective, n_defects = (
        _number(name, getattr(spec, name), "an integer >= 0", _is_count, integer=True)
        for name in ("n_artifacts", "n_defective", "n_defects")
    )
    mean_members, mean_size = (
        _number(name, getattr(spec, name), "a finite number", math.isfinite)
        for name in ("mean_members", "mean_size")
    )
    if n_defective > n_files:
        raise InputContractError("n_defective cannot exceed n_artifacts")
    try:
        total_slots, total_size = round(mean_members * n_defects), round(mean_size * n_files)
    except OverflowError:
        raise InputContractError(
            f"the member slots or total size of {spec.name!r} overflow"
        ) from None
    if total_slots < max(n_defects, n_defective):
        raise InputContractError(
            f"{total_slots} member slots cannot cover {n_defects} defects "
            f"and {n_defective} defective files"
        )
    if total_slots > n_defects * n_defective:
        raise InputContractError(
            f"{total_slots} member slots exceed the {n_defects * n_defective} "
            f"that {n_defects} defects over {n_defective} defective files can hold"
        )
    _check_total_size(spec.name, total_size)
    if total_size < n_files:
        raise InputContractError(f"cannot place total size {total_size} on {n_files} files")
    return n_files, n_defective, n_defects, total_slots, total_size


def _draw_open(
    rng: np.random.Generator, tally: list[int], caps: list[int], draws: int
) -> list[int]:
    """Make ``draws`` draws, each of a position as ``rng.choice(np.flatnonzero(tally <
    caps))`` would draw it, and add one to its tally; the positions drawn.

    A Fenwick tree over the open positions finds a drawn position, and closes
    one that reaches its cap, in O(log n) steps."""
    n = len(tally)
    tree = [0, *(int(t < c) for t, c in zip(tally, caps))]
    open_count = sum(tree)
    for i in range(1, n + 1):
        parent = i + (i & -i)
        if parent <= n:
            tree[parent] += tree[i]
    top = 1 << n.bit_length() >> 1
    drawn = []
    for _ in range(draws):
        # rng.choice(a) draws a[rng.integers(0, len(a))]: the rank-th open position
        rank, position, step = int(rng.integers(0, open_count)), 0, top
        while step:
            if position + step <= n and tree[position + step] <= rank:
                position += step
                rank -= tree[position]
            step >>= 1
        drawn.append(position)
        tally[position] += 1
        if tally[position] == caps[position]:
            open_count -= 1
            i = position + 1
            while i <= n:
                tree[i] -= 1
                i += i & -i
    return drawn


def project_from_aggregates(
    spec: AggregateSpec, seed: int | np.random.Generator = 0
) -> Project:
    """Generate a random n-m project matching the given aggregates.

    The artifact and defect counts match exactly; the total defect spread is
    the rounded product mean_members * n_defects; every defective artifact is
    covered by at least one defect; file sizes sum to the rounded product
    mean_size * n_artifacts.  A spec that cannot be met raises
    ``InputContractError`` before any draw, and so does a seed that is
    neither a non-negative integer nor a ``Generator``.
    """
    rng = _generator(seed)
    n_files, n_defective, n_defects, total_slots, total_size = _checked(spec)
    sizes = _sizes_with_total(rng, n_files, total_size)
    file_ids = tuple(f"{spec.name}/f{i:04d}" for i in range(n_files))
    defective = rng.permutation(n_files)[:n_defective]
    # defective files by id, the order the fill pools are drawn in (as text,
    # so "f10000" comes before "f9999"); rank[k] is defective[k]'s place in it
    by_id = np.array(
        sorted(range(n_defective), key=[file_ids[i] for i in defective].__getitem__),
        dtype=np.int64,
    )
    rank = np.empty(n_defective, dtype=np.int64)
    rank[by_id] = np.arange(n_defective)

    # one slot per defect first, then spread the remaining slots at random,
    # capped so no defect can exceed the defective population
    counts = [1] * n_defects
    _draw_open(rng, counts, [n_defective] * n_defects, total_slots - n_defects)

    # cover every defective artifact, in a random order, by a defect with room left
    filled = [0] * n_defects
    cover_rank = rank[rng.permutation(n_defective)]
    cover_owner = np.array(_draw_open(rng, filled, counts, n_defective), dtype=np.int64)
    # then fill each defect's leftover capacity from the defective files it
    # lacks, drawn as positions into that pool
    needy = [j for j in range(n_defects) if counts[j] > filled[j]]
    missing = [counts[j] - filled[j] for j in needy]
    fill_owner = np.repeat(np.array(needy, dtype=np.int64), missing)
    pools = [n_defective - filled[j] for j in needy]
    fill_at = np.concatenate([
        np.zeros(0, dtype=np.int64),
        *(rng.choice(pool, size=m, replace=False) for pool, m in zip(pools, missing)),
    ])
    # pool position p of defect j is rank p + c, where c counts the ranks r of
    # j's cover that precede it: the i-th of them (ascending) does if r - i <= p
    width = n_defective + 1
    cover_starts = np.cumsum([0, *filled], dtype=np.int64)
    covers = np.sort(cover_owner * width + cover_rank)
    covers -= np.arange(len(covers)) - cover_starts[covers // width]
    preceding = np.searchsorted(covers, fill_owner * width + fill_at, side="right")
    fill_rank = fill_at + preceding - cover_starts[fill_owner]

    # each defect's member positions, ascending
    owners = np.concatenate([cover_owner, fill_owner])
    positions = defective[by_id][np.concatenate([cover_rank, fill_rank])]
    indices = np.sort(owners * n_files + positions) % n_files
    return Project._from_arrays(
        spec.name,
        Relationship.N_TO_M,
        file_ids,
        sizes,
        indices,
        np.cumsum([0, *counts], dtype=np.int64),
        _defect_ids=tuple(f"{spec.name}-d{j:04d}" for j in range(n_defects)),
    )


def sample_corpus(seed: int = 0) -> list[Project]:
    """One generated project per entry of ``SAMPLE_AGGREGATES``; ``seed`` as
    for ``project_from_aggregates``."""
    rng = _generator(seed)
    return [project_from_aggregates(spec, rng) for spec in SAMPLE_AGGREGATES]

