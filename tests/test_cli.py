import contextlib
import io
import math
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectcost.reporting
from defectcost import (
    DEFAULT_ACCURACIES,
    KIND_BY_CODE,
    GridConfig,
    emit_records,
    format_matrix,
    parse_matrix,
    parse_records,
    run_grid,
    sample_corpus,
)
from defectcost.cli import MAX_GRID_RECORDS, cli_dispatch
from defectcost.reporting import METRICS

MATRIX_E = "file,loc,d1,d2\ns1,100,1,1\ns2,50,0,1\ns3,10,0,0\n"
PREDICTION_E = "file,label\ns1,1\ns2,0\ns3,0\n"


@pytest.fixture
def matrix_path(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(MATRIX_E)
    return str(path)


@pytest.fixture
def prediction_path(tmp_path):
    path = tmp_path / "prediction.csv"
    path.write_text(PREDICTION_E)
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self, matrix_path, capsys):
        assert cli_dispatch(["validate", matrix_path, "--bogus"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["simulate"]) == 2

    def test_data_error_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("file,loc,d1,d2\ns1,10,1,0\n")
        assert cli_dispatch(["validate", str(bad)]) == 1
        assert "d2" in capsys.readouterr().err

    def test_size_past_2_53_is_exit_one_with_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("file,loc,d1\ns1,99999999999999999999999,1\n")
        assert cli_dispatch(["validate", str(bad)]) == 1
        assert "line 2, column 2" in capsys.readouterr().err

    def test_missing_file_is_exit_one(self, capsys):
        assert cli_dispatch(["validate", "/nonexistent/matrix.csv"]) == 1

    def test_success_is_exit_zero(self, matrix_path, capsys):
        assert cli_dispatch(["validate", matrix_path]) == 0


class TestCommands:
    def test_validate_reports_counts(self, matrix_path, capsys):
        assert cli_dispatch(["validate", matrix_path]) == 0
        out = capsys.readouterr().out
        assert "artifacts=3" in out and "defects=2" in out

    def test_summarize_row(self, matrix_path, capsys):
        assert cli_dispatch(["summarize", matrix_path]) == 0
        out = capsys.readouterr().out
        assert "mean_members=1.5" in out
        assert "mean_size=53.3333" in out

    def test_boundaries_worked_example(self, matrix_path, prediction_path, capsys):
        code = cli_dispatch(
            [
                "boundaries",
                "--matrix", matrix_path,
                "--predictions", prediction_path,
                "--kind", "const-n-m",
                "--p-qf", "0",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "lower=1 upper=2 cost_saving=true"

    def test_cost_with_profit_against_baselines(self, matrix_path, prediction_path, capsys):
        code = cli_dispatch(
            [
                "cost",
                "--matrix", matrix_path,
                "--predictions", prediction_path,
                "--kind", "const-n-m",
                "--c-ratio", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost=11" in out
        assert "baseline_no_qa=20" in out and "profit_vs_no_qa=9" in out
        assert "baseline_full_qa=3" in out and "profit_vs_full_qa=-8" in out

    def test_simulate_then_plot_pipeline(self, matrix_path, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        svg_path = tmp_path / "plot.svg"
        code = cli_dispatch(
            [
                "simulate",
                "--matrix", matrix_path,
                "--seed", "7",
                "--acc-min", "0.1",
                "--acc-max", "0.9",
                "--acc-step", "0.2",
                "--reps", "4",
                "--out", str(records_path),
            ]
        )
        assert code == 0
        text = records_path.read_text()
        records = parse_records(text)
        assert len(records) == 5 * 4 * 2 * 6
        code = cli_dispatch(
            [
                "plot",
                "--in", str(records_path),
                "--metric", "precision",
                "--kind", "const-n-m",
                "--out", str(svg_path),
            ]
        )
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")

    def test_simulate_to_stdout(self, matrix_path, capsys):
        code = cli_dispatch(
            [
                "simulate",
                "--matrix", matrix_path,
                "--seed", "1",
                "--acc-min", "0.5",
                "--acc-max", "0.5",
                "--reps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("project,accuracy")
        assert len(out.strip().split("\n")) == 1 + 12

    def test_simulate_subnormal_escape_weight_is_quiet(self, tmp_path, capsys):
        # one defect over 1,070 files predicted at p_qf 0.5 has escape weight
        # 2^-1070, a subnormal, so QA spent over it overflows to an inf lower
        path = tmp_path / "wide.csv"
        path.write_text("file,loc,d1\n" + "".join(f"f{i},1,1\n" for i in range(1070)))
        argv = ["simulate", "--matrix", str(path), "--seed", "1", "--reps", "1",
                "--acc-min", "1", "--acc-max", "1", "--p-qf", "0.5"]
        assert cli_dispatch(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert parse_records(captured.out)[0].lower == math.inf


class TestSimulateArguments:
    @pytest.mark.parametrize("step", ["0", "-0.05", "nan", "inf", "-inf", "ten"])
    def test_bad_acc_step_is_usage_error(self, matrix_path, step, capsys):
        argv = ["simulate", "--matrix", matrix_path, "--seed", "1", "--acc-step", step]
        assert cli_dispatch(argv) == 2
        assert "--acc-step" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--acc-min", "--acc-max"])
    def test_non_finite_accuracy_bound_is_usage_error(self, matrix_path, flag, capsys):
        assert cli_dispatch(["simulate", "--matrix", matrix_path, "--seed", "1", flag, "nan"]) == 2

    def test_grid_too_fine_to_count_is_data_error(self, matrix_path, capsys):
        argv = ["simulate", "--matrix", matrix_path, "--seed", "1", "--acc-step", "5e-324"]
        assert cli_dispatch(argv) == 1

    @pytest.mark.parametrize(
        "grid",
        [
            ["--acc-step", "1e-12"],
            ["--reps", "1000000000000"],
            # one accuracy x 2 p_qf x 6 kinds: the smallest count over the limit
            ["--acc-min", "0.5", "--acc-max", "0.5", "--reps", str(MAX_GRID_RECORDS // 12 + 1)],
        ],
    )
    def test_grid_too_large_is_data_error(self, matrix_path, grid, tmp_path, capsys):
        out = tmp_path / "records.csv"
        argv = ["simulate", "--matrix", matrix_path, "--seed", "1", *grid, "--out", str(out)]
        assert cli_dispatch(argv) == 1
        assert f"more than the {MAX_GRID_RECORDS}" in capsys.readouterr().err
        assert not out.exists()

    def test_accuracies_rounded_together_are_data_error(self, matrix_path, tmp_path, capsys):
        # the grid's accuracies are rounded to 10 places: a step of 6e-11 repeats one
        out = tmp_path / "records.csv"
        argv = ["simulate", "--matrix", matrix_path, "--seed", "1", "--reps", "1"]
        bounds = ["--acc-min", "0.5", "--acc-max", "0.5000000002", "--acc-step", "6e-11"]
        assert cli_dispatch(argv + bounds + ["--out", str(out)]) == 1
        assert "accuracies must be strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_no_repetitions_is_data_error_before_the_grid_is_built(self, matrix_path, reps, capsys):
        # a repetition count below 1 once made the record count 0 or negative,
        # passing the bound, and then built a tuple of 10^12 accuracies
        argv = ["simulate", "--matrix", matrix_path, "--seed", "1", "--acc-step", "1e-12"]
        assert cli_dispatch(argv + ["--reps", reps]) == 1
        assert "repetitions" in capsys.readouterr().err

    def test_default_accuracy_grid(self, matrix_path, capsys):
        argv = ["simulate", "--matrix", matrix_path, "--seed", "1", "--reps", "1", "--p-qf", "0"]
        assert cli_dispatch(argv) == 0
        records = parse_records(capsys.readouterr().out)
        assert tuple(r.accuracy for r in records[::6]) == DEFAULT_ACCURACIES

    def test_project_id_with_comma_is_data_error(self, tmp_path, capsys):
        matrix = tmp_path / "a,b.csv"
        matrix.write_text(MATRIX_E)
        out = tmp_path / "records.csv"
        argv = ["simulate", "--matrix", str(matrix), "--seed", "1", "--reps", "1", "--out", str(out)]
        assert cli_dispatch(argv) == 1
        assert "comma" in capsys.readouterr().err
        assert not out.exists()
        assert cli_dispatch(argv[:-2]) == 1
        captured = capsys.readouterr()
        assert "comma" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("chunk_lines", [1, 7, defectcost.reporting._CHUNK_LINES])
    def test_output_is_emit_records_of_the_grid(
        self, matrix_path, tmp_path, chunk_lines, monkeypatch, capsys
    ):
        # written a chunk at a time, the lines cross chunk boundaries
        config = GridConfig(repetitions=3, seed=5)
        expected = emit_records(run_grid(parse_matrix(MATRIX_E, project_id="matrix"), config))
        monkeypatch.setattr(defectcost.reporting, "_CHUNK_LINES", chunk_lines)
        argv = ["simulate", "--matrix", matrix_path, "--seed", "5", "--reps", "3"]
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "records.csv"
        assert cli_dispatch(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert capsys.readouterr().out == ""

    def test_traced_peak_grows_slower_than_twice_the_output(self, tmp_path):
        # simulate writes its text a chunk at a time, so the peak grows only by
        # the record table: about 120-180 bytes per record against about 121
        # bytes of text on kafka, where the whole text and its line list grew
        # it by about 430
        (kafka,) = (p for p in sample_corpus(2024) if p.id == "kafka")
        matrix = tmp_path / "kafka.csv"
        matrix.write_text(format_matrix(kafka))
        out = tmp_path / "records.csv"
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            peaks, sizes = [], []
            for reps in (20, 100):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                argv = ["simulate", "--matrix", str(matrix), "--seed", "1", "--reps", str(reps)]
                assert cli_dispatch(argv + ["--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                sizes.append(out.stat().st_size)
        finally:
            if started:
                tracemalloc.stop()
        records = (100 - 20) * len(DEFAULT_ACCURACIES) * 2 * 6
        growth, written = (peaks[1] - peaks[0]) / records, (sizes[1] - sizes[0]) / records
        assert growth < 2 * written


class TestCostArguments:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("cost", "--c-ratio"),
            ("cost", "--p-qf"),
            ("cost", "--c-init"),
            ("cost", "--c-exec"),
            ("boundaries", "--p-qf"),
            ("simulate", "--p-qf"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_is_usage_error(
        self, matrix_path, prediction_path, command, flag, value, capsys
    ):
        if command == "simulate":
            argv = [command, "--matrix", matrix_path, "--seed", "1", "--reps", "1", flag, value]
        else:
            argv = [command, "--matrix", matrix_path, "--predictions", prediction_path]
            argv += ["--kind", "const-n-m", flag, value]
        if command == "cost" and flag != "--c-ratio":
            argv += ["--c-ratio", "10"]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_overflowing_costs_are_data_error(self, matrix_path, prediction_path, capsys):
        # two defects at 1e308 each: the no-QA baseline exceeds a float
        argv = ["cost", "--matrix", matrix_path, "--predictions", prediction_path]
        assert cli_dispatch(argv + ["--kind", "const-n-m", "--c-ratio", "1e308"]) == 1
        assert "overflow" in capsys.readouterr().err


class TestNonUtf8Input:
    @pytest.fixture
    def binary_path(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"file,loc\ns1,1\xff\n")
        return str(path)

    def test_validate(self, binary_path, capsys):
        assert cli_dispatch(["validate", binary_path]) == 1
        assert binary_path in capsys.readouterr().err

    def test_plot(self, binary_path, tmp_path, capsys):
        argv = ["plot", "--in", binary_path, "--metric", "precision", "--kind", "const-n-m"]
        assert cli_dispatch(argv + ["--out", str(tmp_path / "plot.svg")]) == 1
        assert binary_path in capsys.readouterr().err

    def test_predictions(self, matrix_path, binary_path, capsys):
        argv = ["boundaries", "--matrix", matrix_path, "--predictions", binary_path]
        assert cli_dispatch(argv + ["--kind", "const-n-m"]) == 1
        assert binary_path in capsys.readouterr().err


# Flag values for the fuzz test: non-finite, negative, zero, tiny, huge and empty.
NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1", "0.5", "1e-12", str(10**30), "1e308", ""]
# --reps never asks for more than 20 repetitions unless the grid trips MAX_GRID_RECORDS.
REPS = ["1", "20", "0", "-1", "nan", "", "1e-12", str(10**30)]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Paths by role (matrix, prediction, records, output), plus bad inputs and outputs."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {role: str(root / f"{role}.csv") for role in ("matrix", "prediction", "records")}
    (root / "matrix.csv").write_text(MATRIX_E)
    (root / "prediction.csv").write_text(PREDICTION_E)
    (root / "binary.csv").write_bytes(b"file,loc\ns1,1\xff\n")
    argv = ["simulate", "--matrix", paths["matrix"], "--seed", "1", "--reps", "1"]
    assert cli_dispatch(argv + ["--out", paths["records"]]) == 0
    paths["output"] = str(root / "out.file")
    bad = [str(root / name) for name in ("binary.csv", "missing.csv", "missing/x")]
    bad += [str(root), ""]
    return paths, bad


@st.composite
def argvs(draw, fuzz_paths):
    """An argv for one subcommand: each flag with a value that is sometimes valid."""
    paths, bad = fuzz_paths

    def path(role):
        return st.one_of(st.just(paths[role]), st.sampled_from([*paths.values(), *bad]))

    def number(valid):
        return st.one_of(st.just(valid), st.sampled_from(NUMBERS))

    kinds = st.sampled_from([*KIND_BY_CODE, "const-2-2", ""])
    # (flag, values, required)
    flags = {
        "cost": [
            ("--matrix", path("matrix"), True), ("--predictions", path("prediction"), True),
            ("--kind", kinds, True), ("--c-ratio", number("10"), True),
            ("--p-qf", number("0.5"), False), ("--c-init", number("1"), False),
            ("--c-exec", number("1"), False),
        ],
        "boundaries": [
            ("--matrix", path("matrix"), True), ("--predictions", path("prediction"), True),
            ("--kind", kinds, True), ("--p-qf", number("0.5"), False),
        ],
        "simulate": [
            ("--matrix", path("matrix"), True), ("--seed", number("1"), True),
            ("--acc-min", number("0.1"), False), ("--acc-max", number("0.9"), False),
            ("--acc-step", number("0.2"), False), ("--p-qf", number("0.3"), False),
            ("--p-qf", number("0"), False), ("--out", path("output"), False),
            ("--reps", st.sampled_from(REPS), True),
        ],
        "plot": [
            ("--in", path("records"), True),
            ("--metric", st.sampled_from([*METRICS, "size"]), True),
            ("--kind", kinds, True), ("--out", path("output"), True),
        ],
    }
    command = draw(st.sampled_from(["validate", "summarize", *flags]))
    if command in ("validate", "summarize"):
        return [command, draw(path("matrix"))]
    argv = [command]
    for flag, values, required in flags[command]:
        if required or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_argv_exits_cleanly(self, fuzz_paths, data):
        argv = data.draw(argvs(fuzz_paths))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_dispatch(argv)
        assert code in (0, 1, 2), argv
