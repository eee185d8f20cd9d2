"""Command-line interface.

Exit codes: 0 on success, 1 on data or domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path

from .boundaries import boundary_interval
from .costs import ALL_KINDS, KIND_BY_CODE, CostParams, cost_init, cost_random
from .errors import DataError, InputContractError
from .io import parse_matrix, parse_prediction, summarize
from .model import classify, project_view
from .reporting import METRICS, _columns, _record_lines, parse_records, render_scatter
from .simulation import DEFAULT_P_QF_VALUES, GridConfig, run_grid

KIND_CODES = tuple(KIND_BY_CODE)
# simulate refuses a grid of more records than this (the paper's grid has
# 22,800), before it builds the grid: a tiny --acc-step or a huge --reps
# would otherwise ask for memory without bound.
MAX_GRID_RECORDS = 1_000_000


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise DataError(f"{path}: not UTF-8 text (byte {error.start})") from None


def _load_matrix(path: str):
    """The project in the matrix file at ``path``, with the file's stem as its id."""
    return parse_matrix(_read(path), project_id=Path(path).stem)


def _load_view(args) -> tuple:
    kind = KIND_BY_CODE[args.kind]
    view = project_view(_load_matrix(args.matrix), kind.relationship)
    prediction = parse_prediction(_read(args.predictions), view)
    outcome = classify(view, prediction)
    return kind, view, outcome


def _cmd_aggregates(args) -> int:
    """Print the matrix's aggregates on the subcommand's own ``line``."""
    spec = summarize(_load_matrix(args.matrix))
    print(args.line.format_map(vars(spec)))
    return 0


def _cmd_cost(args) -> int:
    kind, view, outcome = _load_view(args)
    params = CostParams(
        c_ratio=args.c_ratio,
        p_qf=args.p_qf,
        c_init=args.c_init,
        c_exec=args.c_exec,
        qa_mode=kind.qa_mode,
    )
    cost = cost_init(view, outcome, params, kind)
    no_qa = cost_random(view, 0.0, params)
    all_qa = cost_random(view, 1.0, params)
    print(f"cost={cost:g}")
    print(f"baseline_no_qa={no_qa:g} profit_vs_no_qa={no_qa - cost:g}")
    print(f"baseline_full_qa={all_qa:g} profit_vs_full_qa={all_qa - cost:g}")
    return 0


def _cmd_boundaries(args) -> int:
    kind, view, outcome = _load_view(args)
    params = CostParams(p_qf=args.p_qf, qa_mode=kind.qa_mode)
    interval = boundary_interval(view, outcome, params, kind)
    saving = "true" if interval.cost_saving_possible else "false"
    print(f"lower={interval.lower:g} upper={interval.upper:g} cost_saving={saving}")
    return 0


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _accuracy_count(acc_min: float, acc_max: float, step: float) -> int:
    """How many accuracies acc_min, acc_min + step, ... reach acc_max (with 1e-9 slack)."""
    span = (acc_max - acc_min + 1e-9) / step
    if not math.isfinite(span):
        raise InputContractError(f"accuracy grid {acc_min}..{acc_max} by {step} is not finite")
    return math.floor(span) + 1 if span >= 0 else 0


def _cmd_simulate(args) -> int:
    if args.reps < 1:
        # checked before the bound below, which a count of 0 or less would pass
        raise InputContractError(f"repetitions must be >= 1, got {args.reps}")
    count = _accuracy_count(args.acc_min, args.acc_max, args.acc_step)
    p_qf_values = tuple(args.p_qf) if args.p_qf else DEFAULT_P_QF_VALUES
    records = count * args.reps * len(set(p_qf_values)) * len(ALL_KINDS)
    if records > MAX_GRID_RECORDS:
        raise InputContractError(
            f"the grid asks for {records} records, more than the {MAX_GRID_RECORDS} allowed"
        )
    project = _load_matrix(args.matrix)
    config = GridConfig(
        accuracies=tuple(round(args.acc_min + i * args.acc_step, 10) for i in range(count)),
        repetitions=args.reps,
        p_qf_values=p_qf_values,
        seed=args.seed,
    )
    chunks = _record_lines(*_columns(run_grid(project, config)))
    header = next(chunks)  # after the project id is checked, so a refused one writes no file
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.writelines(header)
        out.writelines(map("".join, chunks))
    return 0


def _cmd_plot(args) -> int:
    records = parse_records(_read(getattr(args, "in")))
    svg = render_scatter(records, metric=args.metric, kind=KIND_BY_CODE[args.kind])
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectcost",
        description="Costs, profit, and cost-saving boundaries of defect prediction models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a defect matrix and report its invariants")
    p.add_argument("matrix")
    p.set_defaults(
        func=_cmd_aggregates,
        line="valid: artifacts={n_artifacts} defective={n_defective} defects={n_defects}",
    )

    p = sub.add_parser("summarize", help="print aggregate statistics of a defect matrix")
    p.add_argument("matrix")
    p.set_defaults(
        func=_cmd_aggregates,
        line="artifacts={n_artifacts} defective={n_defective} defects={n_defects} "
        "mean_members={mean_members:g} mean_size={mean_size:g}",
    )

    p = sub.add_parser("cost", help="cost of a prediction and profit against both baselines")
    p.add_argument("--matrix", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--kind", required=True, choices=KIND_CODES)
    p.add_argument("--c-ratio", type=_finite_float, required=True)
    p.add_argument("--p-qf", type=_finite_float, default=0.0)
    p.add_argument("--c-init", type=_finite_float, default=0.0)
    p.add_argument("--c-exec", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("boundaries", help="cost-saving boundary interval of a prediction")
    p.add_argument("--matrix", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--kind", required=True, choices=KIND_CODES)
    p.add_argument("--p-qf", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_boundaries)

    p = sub.add_parser("simulate", help="run the accuracy-grid simulation, write record CSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--acc-min", type=_finite_float, default=0.05)
    p.add_argument("--acc-max", type=_finite_float, default=0.95)
    p.add_argument("--acc-step", type=_positive_float, default=0.05)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--p-qf", type=_finite_float, action="append")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plot", help="render an SVG scatter of boundaries against a metric")
    p.add_argument("--in", required=True)
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--kind", required=True, choices=KIND_CODES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def cli_dispatch(argv) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    try:
        return args.func(args)
    except (DataError, OSError, OverflowError) as error:
        # OverflowError: finite numbers whose costs exceed a float, e.g. --c-ratio 1e308
        print(f"error: {error}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
