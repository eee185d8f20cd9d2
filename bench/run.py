"""Run one defectcost benchmark workload and print its metrics.

    python3 bench/run.py --workload paper_grid --seed 424242 --seconds 20 --trace 0
    python3 bench/run.py --workload paper_grid --trace 1       # per-layer metrics
    python3 bench/run.py --workload paper_grid --steady 10     # spread over 10 runs

A run sets up its inputs several times (the median is ``setup_s``), warms up
until two passes over the same operations take times within 5 %, then runs
whole passes of operations for ``--seconds`` (and at least the workload's
minimum), checking every output.  Human-readable lines, the environment
among them, come first; the last line of standard output is the JSON
result.  The result, with the environment, is also written under
``bench/results/``; a traced run writes its spans there too.

``--trace 1`` runs every operation twice, untraced then traced, and reports
per-layer metrics from the traced runs; ``trace.overhead_ratio`` is the ratio
of their wall times.  ``--steady N`` runs the workload in N fresh processes,
seeds ``--seed`` to ``--seed + N - 1``, and prints each end-to-end metric's
median, quartiles and relative spread against its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

import reference
from tracing import NULL, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set up at least SETUPS times, and until set-up has taken SETUP_MIN_S in
# total, so that a set-up of 0.1 s is not a single noisy sample.
SETUPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX = 25
# After each timed operation the reference kernel runs for this share of the
# operation's time, and at least one round.
REFERENCE_SHARE = 0.1
WARMUP_TOLERANCE = 0.05
WARMUP_MAX_PASSES = 3


def import_defectcost() -> None:
    """Import defectcost from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "defectcost" / "__init__.py").is_file():
        raise SystemExit(f"error: no defectcost sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import defectcost

    if not Path(defectcost.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported defectcost from {defectcost.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, corpus_seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "defectcost": sys.modules["defectcost"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": args.seed,
        "corpus_seed": corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class Window:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    stages: tuple = field(default_factory=lambda: ([], []))
    untraced_s: float = 0.0
    traced_s: float = 0.0
    reference_rounds: int = 0
    reference_s: float = 0.0

    @property
    def round_s(self) -> float:
        """The mean time of one round of the reference kernel."""
        return self.reference_s / self.reference_rounds if self.reference_rounds else 0.0


def warm_up(workload) -> None:
    """Repeat the first operations until two passes take times within 5 %."""
    ops = list(islice(workload.ops(), workload.warmup))
    previous = None
    for _ in range(WARMUP_MAX_PASSES):
        start = perf_counter()
        try:
            for op in ops:
                workload.run(op, NULL)
        except Exception:  # the timed window records the failure
            return
        elapsed = perf_counter() - start
        if previous is not None and abs(elapsed - previous) <= WARMUP_TOLERANCE * previous:
            return
        previous = elapsed


def run_window(workload, seconds: float, tracers) -> Window:
    """Run and check operations until ``seconds`` pass and the minimum is met.

    Each operation runs once per tracer; the first tracer's runs are timed
    for the end-to-end metrics, and each is followed by rounds of the
    reference kernel.
    """
    window = Window()
    start = perf_counter()
    for n, op in enumerate(workload.ops()):
        if (
            perf_counter() - start >= seconds
            and n >= workload.min_ops
            and n % workload.pass_len == 0
        ):
            break
        for timed, tracer in enumerate(tracers):
            window.attempted += 1
            try:
                with tracer.span("op", request=f"{workload.name}:{n}"):
                    begin = perf_counter()
                    stages, outputs = workload.run(op, tracer)
                    elapsed = perf_counter() - begin
                workload.check(op, outputs)
            except Exception:  # count it and keep measuring
                window.failed += 1
                window.failures.append(f"operation {n}: {traceback.format_exc()}")
                continue
            finally:
                outputs = None  # free this operation's records before the next one runs
            if timed == 0:
                window.untraced_s += elapsed
                window.latencies.append(elapsed)
                window.stages[0].append(stages[0])
                window.stages[1].append(stages[1])
                rounds, spent = reference.run_rounds(REFERENCE_SHARE * elapsed)
                window.reference_rounds += rounds
                window.reference_s += spent
            else:
                window.traced_s += elapsed
    for message in workload.finish():
        window.failed += 1
        window.failures.append(message)
    return window


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean_ms(seconds: list) -> float:
    return statistics.fmean(seconds) * 1e3 if seconds else 0.0


def end_to_end(setup_times, window: Window) -> dict:
    """The end-to-end metrics of an untraced run.

    Operation and stage times are means over the whole window, in rounds of
    the reference kernel (``reference.py``) timed between the operations.  A
    window holds whole passes, so its mix of operations is the same in every
    run.  The mean spreads garbage collection over the whole run; the median
    of single operations jumps with it, and on a broad mix such as
    ``single_prediction`` it also jumps with the mix.
    """

    def in_rounds(seconds: list) -> float:
        return statistics.fmean(seconds) / window.round_s if seconds else 0.0

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ref": (in_rounds(window.latencies), "ref"),
        "stage1_ref": (in_rounds(window.stages[0]), "ref"),
        "stage2_ref": (in_rounds(window.stages[1]), "ref"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def measure(workload, seconds: float, trace: bool):
    """Set up, warm up and run one workload; return (metrics, window, setup times, tracer)."""
    tracer = Tracer() if trace else None
    setup_times = []
    while len(setup_times) < SETUPS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX
    ):
        with (tracer or NULL).span("setup", request=f"setup:{len(setup_times)}"):
            start = perf_counter()
            workload.setup(tracer or NULL)
            setup_times.append(perf_counter() - start)
    workload.prepare()
    warm_up(workload)
    gc.collect()
    window = run_window(workload, seconds, [NULL, tracer] if trace else [NULL])
    if trace:
        ratio = window.traced_s / window.untraced_s if window.untraced_s else 0.0
        metrics = tracer.layer_metrics(ratio)
    else:
        metrics = end_to_end(setup_times, window)
    return metrics, window, setup_times, tracer


def run_once(args, workloads) -> int:
    workload = workloads.make_workload(args.workload, args.seed)
    env = environment(args, workloads.CORPUS_SEED)
    metrics, window, setup_times, tracer = measure(workload, args.seconds, bool(args.trace))
    failed_ratio = window.failed / window.attempted
    result = {
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    lat = window.latencies
    print(
        f"workload {args.workload}: {len(lat)} timed samples, {window.attempted} attempted, "
        f"{window.failed} failed, failed_ratio {failed_ratio:g}, "
        f"op_ms {mean_ms(lat):.6g}, stage1_ms {mean_ms(window.stages[0]):.6g}, "
        f"stage2_ms {mean_ms(window.stages[1]):.6g}, "
        f"op_p50_ms {percentile(lat, 50) * 1e3:.6g}, "
        f"op_p99_ms {percentile(lat, 99) * 1e3:.6g}, "
        f"reference_round_ms {window.round_s * 1e3:.6g}, "
        f"setup_s each {', '.join(f'{t:.4f}' for t in setup_times)}"
    )
    for failure in window.failures[:5]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        environment=env,
        latencies_s=window.latencies,
        stages_s=window.stages,
        reference_rounds=window.reference_rounds,
        reference_s=window.reference_s,
        failed_ratio=failed_ratio,
        setup_times=setup_times,
        failures=window.failures[:20],
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


def steady(args, bench: dict) -> int:
    """Run the workload in ``args.steady`` fresh processes and print each metric's spread."""
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result\n{proc.stdout}", file=sys.stderr)
            return 1
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1].items()))
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run[name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(
            f"{name:15s} median {median:<11.6g} q1 {q1:<11.6g} q3 {q3:<11.6g} "
            f"spread {spread:.4f} bound {bound} {verdict}"
        )
    return 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One process, one thread: pin BLAS threads before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_defectcost()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        return steady(args, bench)
    return run_once(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
