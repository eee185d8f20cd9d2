"""A fixed reference kernel, timed between operations, that measures the machine's speed.

On a shared host the same operations run up to 1.5x slower in one minute than
in the next, for whole runs at a time, so raw times of runs of the same code
spread wider than any useful bound.  The benchmark therefore runs this kernel
after every timed operation and reports operation times in rounds of it: a
change of the host's speed slows the kernel and the operations alike and
cancels out, while a change to defectcost moves only the operations.

A round mixes the three kinds of work the workloads do: building and sorting
small Python objects, formatting and splitting CSV-like text, and comparing
and counting over a numpy vector.  No one kind tracked every workload.  The
kernel uses no defectcost code and keeps its own small data, and it runs with
garbage collection off, so that the program's heap does not make it slower.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

_VECTOR = np.random.default_rng(1).random(20_000)


def _objects() -> list:
    table = {f"a{i}": ((i * 7919) % 1009, i) for i in range(600)}
    return sorted(table.items(), key=lambda item: item[1])


def _text() -> list:
    text = "\n".join(f"p{i},{i * 0.37:.6f},{i % 7},{i * 1.5:.3f}" for i in range(300))
    return [tuple(line.split(",")) for line in text.split("\n")]


def _vector() -> int:
    total = 0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        below = _VECTOR < q
        total += int(below.sum()) + int(np.count_nonzero(below & (_VECTOR > 0.05)))
    return total


def run_rounds(min_seconds: float) -> tuple[int, float]:
    """Run whole rounds, at least one, until ``min_seconds`` pass; return (rounds, seconds)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        rounds, spent = 0, 0.0
        while rounds == 0 or spent < min_seconds:
            start = perf_counter()
            _objects()
            _text()
            _vector()
            spent += perf_counter() - start
            rounds += 1
        return rounds, spent
    finally:
        if collecting:
            gc.enable()
