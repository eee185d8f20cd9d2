"""Fast checks of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import gc
import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import defectcost as dc  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_FUNCTIONS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_GRID = dc.GridConfig(accuracies=(0.3, 0.8), repetitions=2, seed=7)


def tiny_projects(tracer):
    spec = dc.AggregateSpec("tiny", 40, 6, 4, 1.5, 20.0)
    return [tracer.call(dc.project_from_aggregates, spec, seed) for seed in (1, 2)]


def tiny_corpus(tracer):
    return tracer.call(dc.sample_corpus, workloads.CORPUS_SEED)[:2]


def tiny(name, fingerprint=None):
    if name == "paper_grid":
        return workloads.GridWorkload(name, tiny_corpus, TINY_GRID, fingerprint)
    if name == "single_prediction":
        return workloads.SingleWorkload(tiny_projects, 7, accuracies=(0.3, 0.8), min_requests=30)
    return workloads.GridWorkload(name, tiny_projects, TINY_GRID)


def names(section):
    return {metric["name"] for metric in SPEC[section]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_exactly_the_named_metrics(name, trace):
    metrics, window, _, _ = run.measure(tiny(name), seconds=0, trace=trace)
    assert set(metrics) == names("per_layer" if trace else "end_to_end")
    assert window.attempted > 0 and window.failed == 0, window.failures
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_runs_span_every_layer_function():
    seen = set()
    for name in workloads.WORKLOADS:
        _, _, _, tracer = run.measure(tiny(name), seconds=0, trace=True)
        layer_spans = [s for s in tracer.spans if s.name in LAYER_FUNCTIONS]
        assert all(s.parent is not None and s.request for s in layer_spans)
        seen |= {s.name for s in layer_spans}
    assert seen == set(LAYER_FUNCTIONS)


def test_single_prediction_runs_whole_balanced_passes():
    workload = tiny("single_prediction")
    workload.setup(run.NULL)
    workload.prepare()
    first = list(islice(workload.ops(), workload.pass_len))
    cells = {(i, kind, p_qf) for i, kind, p_qf, _, _ in first}
    assert len(cells) == len(first) == 2 * len(dc.ALL_KINDS) * len(dc.DEFAULT_P_QF_VALUES)
    window = run.run_window(workload, 0, [run.NULL])
    assert len(window.latencies) == workload.min_ops
    assert workload.min_ops % workload.pass_len == 0 and workload.min_ops >= 30


def test_reference_kernel_runs_whole_rounds_with_collection_restored():
    assert gc.isenabled()
    rounds, spent = reference.run_rounds(0.0)
    assert rounds == 1 and spent > 0
    rounds, spent = reference.run_rounds(0.02)
    assert rounds >= 1 and spent >= 0.02
    assert gc.isenabled()


def test_right_fingerprint_passes_and_wrong_one_is_a_failure():
    corpus = dc.sample_corpus(workloads.CORPUS_SEED)[:2]
    digest = hashlib.sha256(
        "".join(dc.emit_records(dc.run_grid(p, TINY_GRID)) for p in corpus).encode()
    ).hexdigest()
    _, window, _, _ = run.measure(tiny("paper_grid", digest), seconds=0, trace=False)
    assert window.failed == 0, window.failures
    _, window, _, _ = run.measure(tiny("paper_grid", "0" * 64), seconds=0, trace=False)
    assert window.failed == 1
    assert "fingerprint" in window.failures[-1]


def _bad_csv(emit):
    return lambda records, *args: emit(records, *args) + "not,a,record\n"


def _bad_record(parse):
    def corrupt(text, *args):
        records = parse(text, *args)
        cm = dataclasses.replace(records[0].cm, tp=records[0].cm.tp + 1)
        records[0] = dataclasses.replace(records[0], cm=cm)
        return records

    return corrupt


def _bad_interval(interval):
    def shifted(*args):
        result = interval(*args)
        upper = result.upper
        upper = upper + 1e-9 * max(1.0, upper) if math.isfinite(upper) else 0.0
        return dataclasses.replace(result, upper=upper)

    return shifted


@pytest.mark.parametrize(
    "name, function, corrupt",
    [
        ("paper_grid", "emit_records", _bad_csv),
        ("paper_grid", "parse_records", _bad_record),
        ("large_project", "parse_records", _bad_record),
        ("single_prediction", "boundary_interval", _bad_interval),
    ],
)
def test_corrupted_output_is_counted_not_raised(monkeypatch, name, function, corrupt):
    workload = tiny(name)
    workload.setup(run.NULL)
    workload.prepare()
    monkeypatch.setattr(dc, function, corrupt(getattr(dc, function)))
    window = run.run_window(workload, 0, [run.NULL])
    assert window.attempted > 0
    assert window.failed == window.attempted
    assert not window.latencies


def test_benchmark_uses_only_public_names():
    used = set(re.findall(r"\bdc\.(\w+)", (BENCH / "workloads.py").read_text(encoding="utf-8")))
    assert used <= set(dc.__all__)
    assert "partition_artifacts" not in used
    assert "workers" not in (BENCH / "workloads.py").read_text(encoding="utf-8")


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
