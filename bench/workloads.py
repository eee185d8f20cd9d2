"""The benchmark's workloads, driven only through names in ``defectcost.__all__``.

A workload sets up its inputs, yields an endless deterministic sequence of
operations, runs one operation in two timed stages and checks its outputs.

* ``paper_grid``: the paper's experiment.  One operation is one corpus project
  through ``defectcost simulate`` (stage 1: ``run_grid``, ``emit_records``)
  and ``defectcost plot`` (stage 2: ``parse_records``, ``render_scatter``).
  Python-level record building and string work dominate; io, classify, costs
  and boundaries do no work.
* ``single_prediction``: one client in a closed loop, each request doing what
  ``defectcost cost`` and ``boundaries`` do for one simulated prediction:
  stage 1 reads it (``parse_matrix``, ``project_view``, ``parse_prediction``,
  ``classify``), stage 2 prices it (``cost_init``, ``cost_random`` twice,
  ``boundary_interval``).  The simulation and reporting layers do no work.
* ``large_project``: the ``paper_grid`` pipeline on one 100k-file project,
  where the per-cell label draw and numpy reductions dominate the grid.

The corpus and the large project are fixed data (seed ``CORPUS_SEED``), as the
paper's projects are; ``--seed`` drives the simulation and the request mix.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from time import perf_counter

import defectcost as dc

CORPUS_SEED = 2024
DEFAULT_SEED = 424242
# sha256 of the concatenated emit_records(run_grid(p, GridConfig(seed=424242)))
# over sample_corpus(seed=2024), in corpus order.
CORPUS_FINGERPRINT = "c7b77ae31f58051bfd8cba3bb0311177fed17bbd80b416d814656a5fdf98f4ac"
# project_from_aggregates grows super-linearly in the defect count, so the
# spec stays fixed: set-up is about 1.7 s.
LARGE_SPEC = dc.AggregateSpec("large", 100_000, 2_000, 1_500, 2.5, 100.0)
# 20 repetitions keep one operation near 1 s, so a run holds over ten of them.
LARGE_REPETITIONS = 20
PLOT_METRIC = "precision"
PLOT_KIND = dc.KIND_BY_CODE["const-n-m"]
# The reference grid of single_prediction covers repetitions 0-4 only.
REQUEST_REPETITIONS = 5
REQUEST_C_RATIO = 10.0
# Relative tolerance of a boundary against the grid's record of the same cell.
BOUND_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def close(value: float, reference: float) -> bool:
    if math.isinf(value) or math.isinf(reference):
        return value == reference
    return abs(value - reference) <= BOUND_TOLERANCE * max(1.0, abs(reference))


class GridWorkload:
    """Whole projects through simulate and plot, one project per operation.

    Runs stop only after whole passes over the projects, so every run times
    the same project mix.  With ``fingerprint`` set, the emitted CSV of the
    first pass, concatenated in project order, must hash to it.
    """

    warmup = 1

    def __init__(self, name, build, config: dc.GridConfig, fingerprint: str | None = None):
        self.name = name
        self.build = build
        self.config = config
        self.fingerprint = fingerprint
        self.projects: list[dc.Project] = []
        self.expected_records = (
            len(config.accuracies)
            * config.repetitions
            * len(config.p_qf_values)
            * len(config.model_kinds)
        )

    def setup(self, tracer) -> None:
        self.projects = self.build(tracer)

    def prepare(self) -> None:
        self._hasher = hashlib.sha256()
        self._hashed = 0

    @property
    def min_ops(self) -> int:
        return len(self.projects)

    # a run stops only after whole passes over the projects
    pass_len = min_ops

    def ops(self):
        return itertools.cycle(range(len(self.projects)))

    def run(self, op: int, tracer):
        project = self.projects[op]
        with tracer.span("simulate"):
            start = perf_counter()
            records = tracer.call(dc.run_grid, project, self.config)
            text = tracer.call(dc.emit_records, records)
            middle = perf_counter()
        with tracer.span("plot"):
            parsed = tracer.call(dc.parse_records, text)
            svg = tracer.call(dc.render_scatter, parsed, PLOT_METRIC, PLOT_KIND)
            end = perf_counter()
        cells = len(self.config.accuracies) * self.config.repetitions
        tracer.count("simulation.records", len(records))
        tracer.count("simulation.labels", cells * len(project.artifacts))
        tracer.count("reporting.emit_bytes", len(text))
        tracer.count("reporting.svg_bytes", len(svg))
        return (middle - start, end - middle), (records, text, parsed, svg)

    def check(self, op: int, outputs) -> None:
        records, text, parsed, svg = outputs
        if len(records) != self.expected_records or len(parsed) != self.expected_records:
            raise CheckFailed(
                f"{self.projects[op].id}: {len(records)} records emitted, {len(parsed)} "
                f"parsed, expected {self.expected_records}"
            )
        if dc.emit_records(parsed) != text:
            raise CheckFailed(f"{self.projects[op].id}: record CSV does not round-trip")
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            raise CheckFailed(f"{self.projects[op].id}: malformed SVG")
        if op == self._hashed:
            self._hasher.update(text.encode("utf-8"))
            self._hashed += 1

    def finish(self) -> list[str]:
        """Failures found only once the run is over: the corpus fingerprint."""
        if self.fingerprint is None:
            return []
        if self._hashed < len(self.projects):
            return [f"fingerprint covers {self._hashed} of {len(self.projects)} projects"]
        digest = self._hasher.hexdigest()
        if digest != self.fingerprint:
            return [f"corpus fingerprint {digest} != {self.fingerprint}"]
        return []


def prediction_csv(project: dc.Project, prediction: dc.Prediction) -> str:
    labels = prediction.labels
    return "file,label\n" + "".join(f"{a.id},{labels[a.id]}\n" for a in project.artifacts)


class SingleWorkload:
    """One client pricing simulated predictions in a closed loop, one request per operation.

    Requests come in passes.  A pass asks once for every project, kind and
    p_qf value, each with an accuracy and a repetition (0-4) drawn uniformly,
    in shuffled order.  Runs stop only after whole passes, so every run times
    the same mix of projects and kinds, and the project sizes, which set a
    request's cost, do not vary from seed to seed.  A request's prediction is
    ``simulate_prediction(p, acc, cell_seed(seed, a, r))``, written as CSV at
    set-up, so the answer must match the ``run_grid`` record of the same cell.
    """

    name = "single_prediction"
    warmup = 100

    def __init__(self, build, seed: int, accuracies=dc.DEFAULT_ACCURACIES, min_requests: int = 1000):
        self.build = build
        self.seed = seed
        self.accuracies = tuple(accuracies)
        self.min_requests = min_requests

    def setup(self, tracer) -> None:
        corpus = self.build(tracer)
        self.matrices = [tracer.call(dc.format_matrix, p) for p in corpus]
        self.predictions = {}
        for i, project in enumerate(corpus):
            for a, accuracy in enumerate(self.accuracies):
                for r in range(REQUEST_REPETITIONS):
                    seed = dc.cell_seed(self.seed, a, r)
                    prediction = tracer.call(dc.simulate_prediction, project, accuracy, seed)
                    self.predictions[i, a, r] = prediction_csv(project, prediction)
        self.corpus = corpus

    def prepare(self) -> None:
        """Build the reference answers from the grid; not part of set-up time."""
        config = dc.GridConfig(
            accuracies=self.accuracies, repetitions=REQUEST_REPETITIONS, seed=self.seed
        )
        index = {accuracy: a for a, accuracy in enumerate(self.accuracies)}
        self.reference = {
            (i, index[r.accuracy], r.repetition, r.p_qf, r.kind): r
            for i, project in enumerate(self.corpus)
            for r in dc.run_grid(project, config)
        }

    @property
    def pass_len(self) -> int:
        return len(self.corpus) * len(dc.ALL_KINDS) * len(dc.DEFAULT_P_QF_VALUES)

    @property
    def min_ops(self) -> int:
        """At least ``min_requests``, rounded up to whole passes."""
        return -(-self.min_requests // self.pass_len) * self.pass_len

    def ops(self):
        rng = random.Random(self.seed)
        cells = [
            (i, kind, p_qf)
            for i in range(len(self.corpus))
            for kind in dc.ALL_KINDS
            for p_qf in dc.DEFAULT_P_QF_VALUES
        ]
        while True:
            rng.shuffle(cells)
            for i, kind, p_qf in cells:
                yield (
                    i,
                    kind,
                    p_qf,
                    rng.randrange(len(self.accuracies)),
                    rng.randrange(REQUEST_REPETITIONS),
                )

    def run(self, op, tracer):
        i, kind, p_qf, a, r = op
        matrix = self.matrices[i]
        with tracer.span("load"):
            start = perf_counter()
            project = tracer.call(dc.parse_matrix, matrix, project_id=self.corpus[i].id)
            view = tracer.call(dc.project_view, project, kind.relationship)
            prediction = tracer.call(dc.parse_prediction, self.predictions[i, a, r], view)
            outcome = tracer.call(dc.classify, view, prediction)
            middle = perf_counter()
        with tracer.span("price"):
            params = dc.CostParams(c_ratio=REQUEST_C_RATIO, p_qf=p_qf, qa_mode=kind.qa_mode)
            cost = tracer.call(dc.cost_init, view, outcome, params, kind)
            no_qa = tracer.call(dc.cost_random, view, 0.0, params)
            all_qa = tracer.call(dc.cost_random, view, 1.0, params)
            interval = tracer.call(dc.boundary_interval, view, outcome, params, kind)
            end = perf_counter()
        tracer.count("io.matrix_bytes", len(matrix))
        return (middle - start, end - middle), (outcome, (cost, no_qa, all_qa), interval)

    def check(self, op, outputs) -> None:
        i, kind, p_qf, a, r = op
        outcome, costs, interval = outputs
        record = self.reference[i, a, r, p_qf, kind]
        where = f"{self.corpus[i].id} {kind.code} p_qf={p_qf} acc={self.accuracies[a]} rep={r}"
        if outcome.cm != record.cm:
            raise CheckFailed(f"{where}: confusion matrix {outcome.cm} != grid {record.cm}")
        if not (close(interval.lower, record.lower) and close(interval.upper, record.upper)):
            raise CheckFailed(
                f"{where}: interval ({interval.lower!r}, {interval.upper!r}) != grid "
                f"({record.lower!r}, {record.upper!r})"
            )
        if not all(math.isfinite(c) and c >= 0 for c in costs):
            raise CheckFailed(f"{where}: costs {costs} not finite and non-negative")

    def finish(self) -> list[str]:
        return []


def corpus(tracer) -> list[dc.Project]:
    return tracer.call(dc.sample_corpus, CORPUS_SEED)


def make_workload(name: str, seed: int):
    """The named workload at full size; the fingerprint applies at the default seed."""
    if name == "paper_grid":
        fingerprint = CORPUS_FINGERPRINT if seed == DEFAULT_SEED else None
        return GridWorkload(name, corpus, dc.GridConfig(seed=seed), fingerprint)
    if name == "single_prediction":
        return SingleWorkload(corpus, seed)
    if name == "large_project":
        return GridWorkload(
            name,
            lambda tracer: [tracer.call(dc.project_from_aggregates, LARGE_SPEC, CORPUS_SEED)],
            dc.GridConfig(repetitions=LARGE_REPETITIONS, seed=seed),
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper_grid", "single_prediction", "large_project")
