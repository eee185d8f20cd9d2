"""Spans around the benchmark's calls into defectcost, and the per-layer totals.

Every call the benchmark makes into the library goes through ``call``.  The
untraced runner uses ``NullTracer``, which only forwards the call; ``Tracer``
also records a span (name, start, end, parent, request id) and counts
failures.  Spans stay in memory and are written out when the run ends.

Spans are recorded only at the benchmark's side of each call, so a layer span
has no children yet and its self time equals its busy time; the stage and
request spans above it carry the benchmark's own glue as self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

# The public functions the benchmark calls, named <module>.<function> after
# the defectcost module that defines them.
LAYER_FUNCTIONS = (
    "synthetic.sample_corpus",
    "synthetic.project_from_aggregates",
    "simulation.simulate_prediction",
    "simulation.run_grid",
    "reporting.emit_records",
    "reporting.parse_records",
    "reporting.render_scatter",
    "io.format_matrix",
    "io.parse_matrix",
    "io.parse_prediction",
    "model.project_view",
    "model.classify",
    "costs.cost_init",
    "costs.cost_random",
    "boundaries.boundary_interval",
)

# Work counters: (metric name, unit).  ``simulation.labels`` is the number of
# simulated labels (grid cells x project files); it is reported as a rate.
COUNTERS = (
    ("simulation.records", "count"),
    ("reporting.emit_bytes", "bytes"),
    ("reporting.svg_bytes", "bytes"),
    ("io.matrix_bytes", "bytes"),
)


def layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix('defectcost.')}.{fn.__name__}"


class NullTracer:
    """Forwards calls without recording anything; used for untimed and untraced work."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str, request: str | None = None):
        return nullcontext()

    def count(self, name: str, amount: float) -> None:
        pass


NULL = NullTracer()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Tracer(NullTracer):
    """Records a span around every call and block, plus failure and work counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(len(self.spans), name, 0.0, 0.0, parent.id if parent else None, request)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        name = layer_name(fn)
        with self.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def layer_metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer totals as {metric name: (value, unit)} for every listed function."""
        child_time = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        calls, busy, own = Counter(), Counter(), Counter()
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            busy[span.name] += duration
            own[span.name] += duration - child_time[span.id]
        metrics = {}
        for name in LAYER_FUNCTIONS:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.busy_s"] = (busy[name], "s")
            metrics[f"{name}.self_s"] = (own[name], "s")
            metrics[f"{name}.failed"] = (self.failed[name], "count")
        for name, unit in COUNTERS:
            metrics[name] = (self.counts[name], unit)
        grid_busy = busy["simulation.run_grid"]
        labels_per_s = self.counts["simulation.labels"] / grid_busy if grid_busy else 0.0
        metrics["simulation.labels_per_s"] = (labels_per_s, "1/s")
        metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump([asdict(span) for span in self.spans], out, separators=(",", ":"))
