from pathlib import Path

import numpy as np
import pytest

from fuzzycr.analysis import (CORRELATION_PAIRS, VariantId, build_system, correlation_report,
                              standard_sweep_results)
from fuzzycr.catalog import DECISION_INPUTS, DECISION_OUTPUT, DecisionId, standard_catalog
from fuzzycr.cli import (
    _FLAGS,
    _SCALAR_KEYS,
    CSV_FORMAT,
    MAX_GRID_POINTS,
    OUTPUT_DIR_ENV,
    CliError,
    _csv_text,
    _write_csv,
    build_parser,
    load_config,
    main,
)
from fuzzycr.engine import EmptyAggregateError, FuzzySystem
from fuzzycr.ruledsl import RuleParseError, builtin_rulebase, parse_catalog_rules, parse_rules


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_handoff_example(self, capsys):
        code, out, _ = run_cli(
            "eval", "--decision", "handoff-status", "--variant", "triangular-mamdani",
            "--in", "snr=50", "--in", "interference=100", capsys=capsys,
        )
        assert code == 0
        assert abs(float(out) - 33.33) <= 0.35

    def test_defaults_fill_remaining_inputs_at_midpoint(self, capsys):
        code, out, _ = run_cli(
            "eval", "--decision", "channel-selection",
            "--variant", "triangular-mamdani", capsys=capsys,
        )
        assert code == 0
        assert abs(float(out) - 50.0) <= 0.5

    def test_sugeno_gain_example(self, capsys):
        code, out, _ = run_cli(
            "eval", "--decision", "channel-gain", "--variant", "constant-sugeno",
            "--in", "channel_quality=10", "--in", "susceptibility=50", capsys=capsys,
        )
        assert code == 0
        assert float(out) <= 0.5

    def test_four_significant_digits(self, capsys):
        code, out, _ = run_cli(
            "eval", "--decision", "handoff-status", "--variant", "constant-sugeno",
            "--in", "snr=100", "--in", "interference=50", capsys=capsys,
        )
        assert code == 0
        assert out.strip() == "94.44"

    def test_bad_decision_fails_nonzero(self, capsys):
        code, _, err = run_cli("eval", "--decision", "nonsense", capsys=capsys)
        assert code == 1
        assert "unknown decision" in err

    def test_bad_input_name_fails(self, capsys):
        code, _, err = run_cli(
            "eval", "--decision", "handoff-status", "--in", "volume=3", capsys=capsys,
        )
        assert code == 1
        assert "not an input" in err

    def test_nan_input_fails_naming_the_input(self, capsys):
        code, out, err = run_cli(
            "eval", "--decision", "handoff-status", "--in", "snr=nan", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err.strip() == "error: --in snr must be finite, got nan"

    def test_inference_failure_is_one_line(self, capsys, monkeypatch):
        def fail(self, x):
            raise EmptyAggregateError(row=0)

        monkeypatch.setattr(FuzzySystem, "evaluate", fail)
        code, _, err = run_cli("eval", "--decision", "handoff-status", capsys=capsys)
        assert code == 1
        assert err == "error: empty aggregate\n"


class TestTables:
    def test_writes_all_csvs_byte_stable(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli("tables", "--out-dir", str(out1), capsys=capsys)[0] == 0
        assert run_cli("tables", "--out-dir", str(out2), capsys=capsys)[0] == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [f"table{n:02d}.csv" for n in range(9, 24)]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_table09_layout(self, tmp_path, capsys):
        run_cli("tables", "--out-dir", str(tmp_path), capsys=capsys)
        lines = (tmp_path / "table09.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "signal_strength"
        assert len(lines) == 11  # header + ten grid rows
        assert [row.split(",")[0] for row in lines[1:]] == [
            "10", "20", "30", "40", "50", "60", "70", "80", "90", "100",
        ]

    def test_table23_layout(self, tmp_path, capsys):
        run_cli("tables", "--out-dir", str(tmp_path), capsys=capsys)
        lines = (tmp_path / "table23.csv").read_text().splitlines()
        assert len(lines) == 15  # header + fourteen sweeps
        assert lines[0] == (
            "input_parameter,gaussian_vs_triangular_mamdani,"
            "constant_vs_linear_sugeno,gaussian_mamdani_vs_linear_sugeno"
        )


def test_csv_rows_are_formatted_cell_by_cell(tmp_path):
    rows = [
        ("snr", np.float64(0.1), 3, -0.0),
        ("interference", 5e-324, np.float64(1e22), np.float64(-0.0)),
        ("channel_quality", 100, 0.1, np.float64(2) / 3),
    ]
    path = tmp_path / "t.csv"
    _write_csv(path, ["input_parameter", "a", "b", "c"], rows)
    expected = "input_parameter,a,b,c\n" + "".join(
        ",".join([row[0], *(CSV_FORMAT % v for v in row[1:])]) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode()
    assert path.read_text().splitlines()[1] == "snr,0.10000000000000001,3,-0"


def reference_csv_text(header, rows):
    """One line per row, each cell formatted on its own."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else CSV_FORMAT % v for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("header,rows", [
    # the table23 shape: a str first cell, then floats
    (["input_parameter", "a", "b"], [["snr", 0.5, -0.25], ["interference", 1e-300, 100.0]]),
    (["x", "y"], [[v, -v] for v in (0.0, -0.0, 5e-324, 1e-300, 0.1, 100.0, 1e17)]),
    (["only", "a", "header"], []),  # the header line alone, with its LF
], ids=["str-first", "floats", "no-rows"])
def test_the_csv_template_equals_cell_by_cell_formatting(header, rows):
    assert _csv_text(header, rows) == reference_csv_text(header, rows)


@pytest.mark.parametrize("argv", [("tables",), ("surface", "--decision", "handoff-status",
                                               "--vary-a", "snr", "--vary-b", "interference",
                                               "--step", "25")])
def test_written_csvs_are_lf_only_utf8(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out-dir", str(tmp_path), capsys=capsys)[0] == 0
    files = sorted(tmp_path.glob("*.csv"))
    assert files
    for path in files:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        data.decode("utf-8")


class TestSweepAndSurface:
    @staticmethod
    def fail_batches(monkeypatch):
        def fail(self, x):
            raise EmptyAggregateError(row=0)

        monkeypatch.setattr(FuzzySystem, "evaluate_batch", fail)

    def test_sweep_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        self.fail_batches(monkeypatch)
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            "sweep", "--decision", "handoff-status", "--vary", "snr",
            "--variants", "constant-sugeno", "--out", str(out), capsys=capsys,
        )
        assert code == 1
        assert err == (
            "error: handoff-status/constant-sugeno failed at snr=10: empty aggregate\n"
        )
        assert not out.exists()

    def test_surface_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        self.fail_batches(monkeypatch)
        code, _, err = run_cli(
            "surface", "--decision", "handoff-status", "--vary-a", "snr",
            "--vary-b", "interference", "--variants", "constant-sugeno",
            "--out-dir", str(tmp_path), capsys=capsys,
        )
        assert code == 1
        assert err == (
            "error: handoff-status/constant-sugeno failed at snr=0, interference=0: "
            "empty aggregate\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_tables_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        self.fail_batches(monkeypatch)
        code, _, err = run_cli("tables", "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 1
        assert err == (
            "error: channel-selection/gaussian-mamdani failed at signal_strength=10: "
            "empty aggregate\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_correlate_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        self.fail_batches(monkeypatch)
        out = tmp_path / "table23.csv"
        code, _, err = run_cli("correlate", "--out", str(out), capsys=capsys)
        assert code == 1
        assert err == (
            "error: channel-selection/gaussian-mamdani failed at signal_strength=10: "
            "empty aggregate\n"
        )
        assert not out.exists()

    def test_oversized_grids_fail_fast(self, tmp_path, capsys):
        code, _, err = run_cli(
            "sweep", "--decision", "handoff-status", "--vary", "snr",
            "--grid", "0:100:1e-7", "--out", str(tmp_path / "s.csv"), capsys=capsys,
        )
        assert code == 1
        assert f"more than {MAX_GRID_POINTS} points" in err
        code, _, err = run_cli(
            "surface", "--decision", "handoff-status", "--vary-a", "snr",
            "--vary-b", "interference", "--step", "1e-7",
            "--out-dir", str(tmp_path), capsys=capsys,
        )
        assert code == 1
        assert f"more than {MAX_GRID_POINTS} points" in err
        assert list(tmp_path.iterdir()) == []

    def test_range_grids_match_the_accumulated_ones(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--decision", "handoff-status", "--vary", "snr",
            "--grid", "0:100:25", "--variants", "constant-sugeno",
            "--out", str(out), capsys=capsys,
        )
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "25", "50", "75", "100"]
        run_cli(
            "surface", "--decision", "handoff-status", "--vary-a", "snr",
            "--vary-b", "interference", "--variants", "constant-sugeno",
            "--out-dir", str(tmp_path), capsys=capsys,
        )
        (surface,) = tmp_path.glob("surface_*.csv")
        lines = surface.read_text().splitlines()
        expected = [str(x) for x in range(0, 101, 2)]
        assert lines[0].split(",")[1:] == expected
        assert [line.split(",")[0] for line in lines[1:]] == expected


    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep", "--decision", "handoff-status", "--vary", "interference",
            "--out", str(out), capsys=capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "interference,gaussian-mamdani,triangular-mamdani,"
            "constant-sugeno,linear-sugeno"
        )
        assert len(lines) == 11

    def test_surface_is_51x51_at_step_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            "surface", "--decision", "channel-selection",
            "--vary-a", "signal_strength", "--vary-b", "spectrum_demand",
            "--variants", "constant-sugeno", "--out-dir", str(tmp_path),
            capsys=capsys,
        )
        assert code == 0
        files = list(tmp_path.glob("surface_*constant-sugeno.csv"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        assert len(lines) == 52  # header + 51 rows
        assert len(lines[1].split(",")) == 52  # row label + 51 columns

    SURFACE = ("surface", "--decision", "channel-selection",
               "--vary-a", "signal_strength", "--vary-b", "spectrum_demand")

    def surface_with_batches(self, tmp_path, capsys, monkeypatch, *config):
        """The four variants' surface CSVs and the systems evaluated to write them."""
        systems = []
        evaluate_batch = FuzzySystem.evaluate_batch

        def counting(self, x):
            systems.append(self)
            return evaluate_batch(self, x)

        monkeypatch.setattr(FuzzySystem, "evaluate_batch", counting)
        out = tmp_path / "out"
        assert run_cli(*config, *self.SURFACE, "--out-dir", str(out), capsys=capsys)[0] == 0
        files = {v: out / f"surface_channel-selection_signal_strength_spectrum_demand_{v.value}.csv"
                 for v in VariantId}
        return {v: path.read_bytes() for v, path in files.items()}, systems

    def test_default_linear_sugeno_shares_the_constant_grid(self, tmp_path, capsys, monkeypatch):
        files, systems = self.surface_with_batches(tmp_path, capsys, monkeypatch)
        assert len(systems) == 3 and len(set(map(id, systems))) == 3
        assert files[VariantId.LINEAR_SUGENO] == files[VariantId.CONSTANT_SUGENO]
        assert files[VariantId.GAUSSIAN_MAMDANI] != files[VariantId.TRIANGULAR_MAMDANI]

    def test_a_nonzero_slope_evaluates_linear_sugeno_apart(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "slope.conf"
        config.write_text("[sugeno.channel-selection]\nHigh = 75, 0.1\n")
        files, systems = self.surface_with_batches(
            tmp_path, capsys, monkeypatch, "--config", str(config))
        assert len(systems) == 4 and len(set(map(id, systems))) == 4
        linear, constant = files[VariantId.LINEAR_SUGENO], files[VariantId.CONSTANT_SUGENO]
        assert linear != constant
        # row signal_strength=60, column spectrum_demand=40, snr at the midpoint
        tilted = build_system(DecisionId.CHANNEL_SELECTION, VariantId.LINEAR_SUGENO,
                              sugeno_consequents={"High": (75.0, 0.1)})
        point = {"signal_strength": 60.0, "spectrum_demand": 40.0, "snr": 50.0}
        for data, system in ((linear, tilted), (constant, build_system(
                DecisionId.CHANNEL_SELECTION, VariantId.CONSTANT_SUGENO))):
            row = data.decode().splitlines()[1 + 30]
            assert float(row.split(",")[1 + 20]) == pytest.approx(system.evaluate(point), abs=1e-9)


def test_correlate_prints_and_writes_the_same_report(tmp_path, capsys):
    code, printed, _ = run_cli("correlate", capsys=capsys)
    assert code == 0
    names = [name for name, _, _ in CORRELATION_PAIRS]
    path = tmp_path / "correlation.csv"
    assert run_cli("correlate", "--out", str(path), capsys=capsys) == (0, f"wrote {path}\n", "")
    written = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    printed = [line.split() for line in printed.splitlines()]
    assert printed[0] == written[0] == ["input_parameter", *names]
    report = correlation_report(standard_sweep_results())
    assert [row[0] for row in written[1:]] == [row[0] for row in printed[1:]] == [
        key for key, _ in report
    ]
    for (key, row), shown, cells in zip(report, printed[1:], written[1:]):
        assert shown[1:] == [f"{row[name]:.6f}" for name in names]
        assert cells[1:] == [CSV_FORMAT % row[name] for name in names]


class TestPlot:
    @pytest.mark.parametrize("flag", ["--title", "--y-label"])
    def test_an_empty_label_errors_without_writing(self, tmp_path, capsys, flag):
        csv = tmp_path / "sweep.csv"
        csv.write_text("snr,a\n10,1\n20,2\n")
        svg = tmp_path / "chart.svg"
        code, out, err = run_cli("plot", str(csv), "--out", str(svg), f"{flag}=", capsys=capsys)
        assert (code, out, err) == (1, "", f"error: {flag} must not be empty\n")
        assert not svg.exists()
        # given, the label is drawn as it is
        assert run_cli("plot", str(csv), "--out", str(svg), f"{flag}=x & y", capsys=capsys)[0] == 0
        assert "x &amp; y" in svg.read_text()

    def test_plot_has_one_polyline_per_variant(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--decision", "handoff-status", "--vary", "snr",
            "--out", str(csv), capsys=capsys,
        )
        svg = tmp_path / "chart.svg"
        code, _, _ = run_cli("plot", str(csv), "--out", str(svg), capsys=capsys)
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 4
        assert "snr" in text
        assert "gaussian-mamdani" in text
        assert "<script" not in text

    def test_empty_sweep_errors_without_writing(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("snr,triangular-mamdani\n")
        svg = tmp_path / "chart.svg"
        code, _, err = run_cli("plot", str(csv), "--out", str(svg), capsys=capsys)
        assert code == 1
        assert "no data rows" in err
        assert not svg.exists()

    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        ("snr\n10\n", "header needs an input column and at least one series"),
        ("snr,a\n10,x\n", "row 2, column 'a': 'x' is not a number"),
        ("snr,a\n10,1\n, 2\n", "row 3, column 'snr': '' is not a number"),
    ])
    def test_an_unreadable_sweep_errors_without_writing(self, tmp_path, capsys, text, message):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        svg = tmp_path / "chart.svg"
        code, out, err = run_cli("plot", str(csv), "--out", str(svg), capsys=capsys)
        assert (code, out, err) == (1, "", f"error: {csv}: {message}\n")
        assert not svg.exists()

    def test_malformed_row_reports_row_number(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("snr,a\n10,1\n20\n")
        code, _, err = run_cli("plot", str(csv), capsys=capsys)
        assert code == 1
        assert "row 3" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, capsys, cell):
        csv = tmp_path / "bad.csv"
        csv.write_text(f"snr,a,b\n10,1,2\n20,3,{cell}\n")
        svg = tmp_path / "chart.svg"
        code, _, err = run_cli("plot", str(csv), "--out", str(svg), capsys=capsys)
        assert code == 1
        assert err == f"error: {csv}: row 3, column 'b': {float(cell)} is not finite\n"
        assert not svg.exists()


# One bad input per subcommand, plus non-numeric and non-finite --in, --grid,
# --fixed and --step values: argv built from a scratch directory, and a
# fragment the error line must contain.
BAD_INPUTS = {
    "eval": (lambda tmp: ["eval", "--decision", "handoff-status", "--in", "snr=nan"],
             "--in snr must be finite, got nan"),
    "eval-inf": (lambda tmp: ["eval", "--decision", "handoff-status", "--in", "snr=inf"],
                 "--in snr must be finite, got inf"),
    "eval-minus-inf": (lambda tmp: ["eval", "--decision", "handoff-status", "--in", "snr=-inf"],
                       "--in snr must be finite, got -inf"),
    "eval-repeated-input": (
        lambda tmp: ["eval", "--decision", "handoff-status", "--in", "snr=10", "--in", "snr=90"],
        "--in snr is given twice"),
    "eval-not-a-number": (
        lambda tmp: ["eval", "--decision", "handoff-status", "--in", "snr=abc"],
        "--in snr: 'abc' is not a number"),
    "sweep": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "volume",
                           "--out", str(tmp / "sweep.csv")],
              "'volume' is not an input of handoff-status"),
    "surface": (lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                             "--vary-b", "interference", "--step", "0.01",
                             "--out-dir", str(tmp)],
                f"more than {MAX_GRID_POINTS} points"),
    "tables": (lambda tmp: ["tables", "--out-dir", str(tmp / "a-file")], "File exists"),
    "correlate": (lambda tmp: ["correlate", "--out", str(tmp / "no-such-dir" / "t.csv")],
                  "No such file or directory"),
    "plot": (lambda tmp: ["plot", str(tmp / "a-file")], "column 'a': nan is not finite"),
    "check-rules": (lambda tmp: ["check-rules", str(tmp / "no-such.rules")],
                    "No such file or directory"),
    "sweep-grid-inf": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                                    "--grid", "10,inf", "--out", str(tmp / "sweep.csv")],
                       "--grid must be finite, got inf"),
    "sweep-grid-not-a-number": (
        lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                     "--grid", "10,a", "--out", str(tmp / "sweep.csv")],
        "--grid: 'a' is not a number"),
    "sweep-grid-two-parts": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary",
                                          "snr", "--grid", "1:2", "--out", str(tmp / "s.csv")],
                             "--grid must be lo:hi:step or a comma list, got '1:2'"),
    "eval-in-no-value": (lambda tmp: ["eval", "--decision", "handoff-status", "--in", "snr"],
                         "--in expects name=value, got 'snr'"),
    "sweep-fixed-inf": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                                     "--fixed", "inf", "--out", str(tmp / "sweep.csv")],
                        "--fixed must be finite, got inf"),
    "surface-step-inf": (lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                                      "--vary-b", "interference", "--step", "inf",
                                      "--out-dir", str(tmp)],
                         "bad grid range 0:100:inf"),
    "surface-fixed-not-a-number": (
        lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                     "--vary-b", "interference", "--fixed", "abc", "--out-dir", str(tmp)],
        "--fixed: 'abc' is not a number"),
    "surface-fixed-nan": (
        lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                     "--vary-b", "interference", "--fixed=-nan", "--out-dir", str(tmp)],
        "--fixed must be finite, got nan"),
    "sweep-fixed-minus-inf": (
        lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                     "--fixed", "-inf", "--out", str(tmp / "sweep.csv")],
        "argument --fixed: expected one argument"),
    "surface-step-not-a-number": (
        lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                     "--vary-b", "interference", "--step", "abc", "--out-dir", str(tmp)],
        "argument --step: invalid float value: 'abc'"),
    # a flag given empty is an error naming it, never its default
    "eval-empty-variant": (lambda tmp: ["eval", "--decision", "handoff-status", "--variant="],
                           "--variant: unknown variant ''"),
    "sweep-empty-fixed": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                                       "--fixed=", "--out", str(tmp / "s.csv")],
                          "--fixed: '' is not a number"),
    "sweep-empty-grid": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                                      "--grid=", "--out", str(tmp / "s.csv")],
                         "--grid: '' is not a number"),
    "sweep-empty-variants": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                                          "--variants=", "--out", str(tmp / "s.csv")],
                             "--variants: unknown variant ''"),
    "surface-empty-variants": (
        lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                     "--vary-b", "interference", "--variants=", "--out-dir", str(tmp / "out")],
        "--variants: unknown variant ''"),
    "surface-empty-out-dir": (lambda tmp: ["surface", "--decision", "handoff-status",
                                           "--vary-a", "snr", "--vary-b", "interference",
                                           "--out-dir="],
                              "--out-dir must not be empty"),
    "tables-empty-out-dir": (lambda tmp: ["tables", "--out-dir="], "--out-dir must not be empty"),
    "sweep-empty-out": (lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                                     "--out="],
                        "--out must not be empty"),
    "correlate-empty-out": (lambda tmp: ["correlate", "--out="], "--out must not be empty"),
    "plot-empty-out": (lambda tmp: ["plot", str(tmp / "a-file"), "--out="],
                       "--out must not be empty"),
    "empty-config": (lambda tmp: ["--config=", "tables", "--out-dir", str(tmp / "out")],
                     "--config must not be empty"),
    "eval-no-decision": (lambda tmp: ["eval"],
                         "the following arguments are required: --decision"),
    "sweep-repeated-variant": (
        lambda tmp: ["sweep", "--decision", "handoff-status", "--vary", "snr",
                     "--variants", "linear-sugeno,linear-sugeno", "--out", str(tmp / "s.csv")],
        "error: variants repeats 'linear-sugeno'"),
    "surface-repeated-variant": (
        lambda tmp: ["surface", "--decision", "handoff-status", "--vary-a", "snr",
                     "--vary-b", "interference", "--variants", "linear-sugeno,linear-sugeno",
                     "--out-dir", str(tmp / "out")],
        "error: variants repeats 'linear-sugeno'"),
}


@pytest.mark.parametrize("command", BAD_INPUTS)
def test_every_subcommand_fails_on_one_line(command, tmp_path, capsys):
    (tmp_path / "a-file").write_text("snr,a\n10,nan\n")
    argv, fragment = BAD_INPUTS[command]
    code, out, err = run_cli(*argv(tmp_path), capsys=capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err
    assert "Traceback" not in out + err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]  # nothing written


def test_the_parser_built_once_answers_as_fresh_ones(tmp_path, capsys):
    # main reuses one parser; a failed parse must leave nothing in it
    calls = [
        ["eval", "--decision", "handoff-status", "--bogus", "1"],
        ["tables", "--out-dir", str(tmp_path)],
        ["eval", "--decision", "handoff-status", "--in", "snr=70"],
    ]

    def run_all(fresh):
        if not fresh:
            build_parser()  # built before the calls, so all three reuse it
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            results.append(run_cli(*argv, capsys=capsys))
        return results

    reused = run_all(fresh=False)
    assert [code for code, _, _ in reused] == [1, 0, 0]
    assert "unrecognized arguments: --bogus 1" in reused[0][2]
    assert run_all(fresh=True) == reused
    assert build_parser() is build_parser()


class TestCheckRules:
    def shipped(self, name):
        from importlib import resources

        return resources.files("fuzzycr.data").joinpath(name)

    def test_shipped_channel_selection_is_clean(self, capsys):
        code, out, _ = run_cli(
            "check-rules", str(self.shipped("channel_selection.rules")), capsys=capsys,
        )
        assert code == 0
        assert "125 rules, complete, no conflicts" in out

    @pytest.mark.parametrize("decision", list(DecisionId))
    def test_all_shipped_files_are_clean(self, decision, capsys):
        # and check-rules checks what the loader loads
        path = self.shipped(DECISION_OUTPUT[decision] + ".rules")
        code, out, _ = run_cli("check-rules", str(path), capsys=capsys)
        assert code == 0
        assert "complete, no conflicts" in out
        checked, loaded = parse_catalog_rules(path.read_text("utf-8")), builtin_rulebase(decision)
        assert checked == loaded
        assert checked.variable_order == loaded.variable_order == (
            *DECISION_INPUTS[decision], DECISION_OUTPUT[decision])

    def test_missing_combination_listed(self, tmp_path, capsys):
        text = self.shipped("handoff_status.rules").read_text("utf-8")
        lines = [l for l in text.splitlines() if "Moderate AND interference IS Low" not in l]
        trimmed = tmp_path / "gap.rules"
        trimmed.write_text("\n".join(lines))
        code, out, _ = run_cli("check-rules", str(trimmed), capsys=capsys)
        assert code == 1
        assert "1 missing" in out
        assert "snr=Moderate" in out and "interference=Low" in out

    def test_conflicting_duplicate_reports_both_lines(self, tmp_path, capsys):
        bad = tmp_path / "dup.rules"
        bad.write_text(
            "IF snr IS Low AND interference IS Low THEN handoff_status IS Off\n"
            "IF snr IS Low AND interference IS Low THEN handoff_status IS On\n"
        )
        code, out, _ = run_cli("check-rules", str(bad), capsys=capsys)
        assert code == 1
        assert "line 2" in out and "line 1" in out

    def test_unknown_names_report_their_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text(
            "# header\n"
            "IF snr IS Low AND interference IS Low THEN handoff_status IS Off\n"
            "IF snr IS Low AND volume IS Loud THEN handoff_status IS On\n"
        )
        code, out, _ = run_cli("check-rules", str(bad), capsys=capsys)
        assert code == 1
        assert "line 3: unknown input variable 'volume'" in out
        bad.write_text("IF snr IS Low THEN mood IS Good\n")
        code, out, _ = run_cli("check-rules", str(bad), capsys=capsys)
        assert code == 1
        assert "line 1: unknown output variable 'mood'" in out

    def test_a_rule_that_leaves_an_input_out_covers_all_its_labels(self, tmp_path, capsys):
        rules = tmp_path / "partial.rules"
        rules.write_text(
            "IF snr IS Low THEN handoff_status IS On\n"
            "IF snr IS High AND interference IS Low THEN handoff_status IS Off\n"
        )
        code, out, _ = run_cli("check-rules", str(rules), capsys=capsys)
        assert code == 1
        # snr=Low covers all five interference labels, snr=High only Low
        assert "2 rules, 19 missing combinations:" in out
        assert "snr=Low" not in out and "snr=High, interference=Low" not in out
        assert "conflicting" not in out
        rules.write_text(
            "IF snr IS Low THEN handoff_status IS On\n"
            "IF snr IS Low AND interference IS Low THEN handoff_status IS Off\n"
        )
        code, out, _ = run_cli("check-rules", str(rules), capsys=capsys)
        assert code == 1
        assert "2 rules, 1 conflicting combinations:\n  snr=Low, interference=Low: On, Off\n" in out
        labels = ("VeryLow", "Low", "Moderate", "High", "VeryHigh")
        rules.write_text("".join(f"IF snr IS {l} THEN handoff_status IS On\n" for l in labels))
        code, out, _ = run_cli("check-rules", str(rules), capsys=capsys)
        assert code == 0
        assert "5 rules, complete, no conflicts" in out

    def test_an_input_outside_the_decision_is_an_error_at_its_line(self, tmp_path, capsys):
        # check-rules used to bind any catalog input its IF clauses named,
        # and passed these five rules that the loader cannot bind
        labels = ("VeryLow", "Low", "Moderate", "High", "VeryHigh")
        rules = tmp_path / "foreign.rules"
        rules.write_text(
            "".join(f"IF signal_strength IS {l} THEN handoff_status IS On\n" for l in labels)
        )
        code, out, err = run_cli("check-rules", str(rules), capsys=capsys)
        assert (code, err) == (1, "")
        assert out == (f"{rules}: line 1: unknown input variable 'signal_strength'; "
                       "bound inputs: snr, interference\n")
        # the loader's own binding gives the same error
        catalog, handoff = standard_catalog("triangular"), DecisionId.HANDOFF_STATUS
        with pytest.raises(RuleParseError) as caught:
            parse_rules(rules.read_text(), catalog.decision_inputs(handoff),
                        catalog.decision_output(handoff))
        assert f"{rules}: {caught.value}\n" == out

    def test_empty_file_reports_zero_rules(self, tmp_path, capsys):
        empty = tmp_path / "empty.rules"
        empty.write_text("# nothing here\n")
        code, out, _ = run_cli("check-rules", str(empty), capsys=capsys)
        assert code == 0
        assert "0 rules" in out


class TestConfigFile:
    def test_round_trip_of_recognized_keys(self, tmp_path):
        path = tmp_path / "fuzzycr.conf"
        path.write_text(
            """
            resolution = 2001
            fixed_value = 40
            variant = constant-sugeno
            grid = 0:100:25

            [sugeno.handoff-status]
            On = 100, 0.25, 0
            """
        )
        config = load_config(path)
        assert config.resolution == 2001
        assert config.fixed_value == 40.0
        assert config.grid == (0.0, 25.0, 50.0, 75.0, 100.0)
        # keyed by the output's own spelling of the label
        assert config.sugeno_coefficients[DecisionId.HANDOFF_STATUS] == {
            "On": (100.0, 0.25, 0.0),
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("volume = 11\n")
        with pytest.raises(CliError, match="unknown config key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[plotting]\ncolor = red\n")
        with pytest.raises(CliError, match="unknown section"):
            load_config(path)
        path.write_text("[calibration]\nsnr = -5, 35\n")
        with pytest.raises(CliError, match="unknown section"):
            load_config(path)

    @pytest.mark.parametrize("lines", [[], ["On = 20"]])
    def test_unknown_decision_rejected_at_its_section_line(self, tmp_path, lines):
        path = tmp_path / "bad.conf"
        path.write_text("\n".join(["resolution = 1001", "[sugeno.nonsense]", *lines]))
        with pytest.raises(CliError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:2: unknown decision 'nonsense'; valid: ")

    @pytest.mark.parametrize("line,message", [
        ("resolution = 1000", "resolution must be odd and >= 101, got 1000"),
        ("fixed_value = nan", "fixed_value must be finite, got nan"),
        ("fixed_value = -inf", "fixed_value must be finite, got -inf"),
        ("fixed_value = abc", "fixed_value: 'abc' is not a number"),
        ("grid = 10,inf", "grid must be finite, got inf"),
        ("grid = 10,a", "grid: 'a' is not a number"),
        ("resolution = abc", "resolution: 'abc' is not an integer"),
        ("resolution = 1001.0", "resolution: '1001.0' is not an integer"),
        # a key given empty is an error naming it, never its default
        ("resolution =", "resolution: '' is not an integer"),
        ("fixed_value =", "fixed_value: '' is not a number"),
        ("grid =", "grid: '' is not a number"),
        ("variant =", "variant: unknown variant ''; valid: gaussian-mamdani, "
                      "triangular-mamdani, constant-sugeno, linear-sugeno"),
        ("output_dir =", "output_dir must not be empty"),
        ("resolution 1001", "expected key = value"),
    ])
    def test_values_that_would_fail_later_are_rejected_at_their_line(
        self, tmp_path, line, message
    ):
        path = tmp_path / "bad.conf"
        path.write_text(f"variant = constant-sugeno\n{line}\n")
        with pytest.raises(CliError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("lines,message", [
        (["On = nan, 1"], "On must be finite, got nan"),
        (["Off = 0, -inf"], "Off must be finite, got -inf"),
        (["On = abc, 1"], "On: 'abc' is not a number"),
        (["Off = 5", "on = 1, x"], "on: 'x' is not a number"),
        (["Nope = 1"], "variable 'handoff_status' has no label 'Nope'; valid labels: Off, On"),
        (["On = 1, 2, 3, 4"], "consequent 'On' needs a constant and at most 2 slopes, got 4 numbers"),
        (["Off = 5", "on = 1", "o n = 2"], "consequent 'On' is given twice"),
    ])
    def test_sugeno_sections_are_checked_at_their_line(self, tmp_path, lines, message):
        path = tmp_path / "bad.conf"
        path.write_text("\n".join(["resolution = 1001", "[sugeno.handoff-status]", *lines]))
        with pytest.raises(CliError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:{2 + len(lines)}: {message}"

    def test_readme_example_names_every_top_level_key(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert readme.count("```ini\n") == 1
        block = readme.split("```ini\n")[1].split("```")[0]
        path = tmp_path / "readme.conf"
        path.write_text(block)
        load_config(path)
        top_level = block.split("\n[")[0]
        keys = {
            line.split("#")[0].partition("=")[0].strip()
            for line in top_level.splitlines() if line.split("#")[0].strip()
        }
        assert keys == set(_SCALAR_KEYS)

    def test_config_drives_eval(self, tmp_path, capsys):
        path = tmp_path / "fuzzycr.conf"
        path.write_text("fixed_value = 100\n")
        code, out, _ = run_cli(
            "--config", str(path), "eval", "--decision", "handoff-status",
            "--variant", "triangular-mamdani", "--in", "snr=50", capsys=capsys,
        )
        assert code == 0
        # interference defaults to the configured fixed value of 100
        assert abs(float(out) - 33.33) <= 0.35

    def eval_handoff(self, capsys, variant, config=None):
        argv = ["--config", str(config)] if config else []
        argv += ["eval", "--decision", "handoff-status", "--variant", variant]
        return run_cli(*argv, capsys=capsys)

    def test_sugeno_section_sets_linear_consequents(self, tmp_path, capsys):
        assert self.eval_handoff(capsys, "linear-sugeno")[1].strip() == "89.19"
        path = tmp_path / "fuzzycr.conf"
        path.write_text("[sugeno.handoff-status]\nOn = 20\n")
        # the constant replaces the On level: 20 instead of 100
        code, out, _ = self.eval_handoff(capsys, "linear-sugeno", path)
        assert code == 0
        assert out.strip() == "17.84"
        # 0 + 5*50 + 5*50 leaves the universe and is clamped to it
        path.write_text("[sugeno.handoff-status]\nOn = 0, 5, 5\n")
        assert self.eval_handoff(capsys, "linear-sugeno", path)[1].strip() == "100"
        # constant-sugeno stays the catalog baseline
        assert self.eval_handoff(capsys, "constant-sugeno", path)[1].strip() == "89.19"

    def test_sugeno_section_reaches_every_subcommand(self, tmp_path, capsys):
        path = tmp_path / "fuzzycr.conf"
        path.write_text("[sugeno.handoff-status]\nOn = 20\n")

        def linear_sugeno_outputs(*config):
            out = tmp_path / ("with" if config else "without")
            out.mkdir()
            assert run_cli(*config, "sweep", "--decision", "handoff-status",
                           "--vary", "snr", "--grid", "50", "--variants", "linear-sugeno",
                           "--out", str(out / "sweep.csv"), capsys=capsys)[0] == 0
            assert run_cli(*config, "surface", "--decision", "handoff-status",
                           "--vary-a", "snr", "--vary-b", "interference", "--step", "50",
                           "--variants", "linear-sugeno", "--out-dir", str(out),
                           capsys=capsys)[0] == 0
            assert run_cli(*config, "tables", "--out-dir", str(out), capsys=capsys)[0] == 0
            sweep = out / "sweep.csv"
            surface = out / "surface_handoff-status_snr_interference_linear-sugeno.csv"
            # table12 sweeps snr for handoff status; its last column is linear-sugeno
            table = out / "table12.csv"
            return (
                float(sweep.read_text().splitlines()[1].split(",")[1]),
                float(surface.read_text().splitlines()[2].split(",")[2]),
                [line.split(",")[-1] for line in table.read_text().splitlines()[1:]],
            )

        sweep, surface, table = linear_sugeno_outputs()
        assert f"{sweep:.4g}" == f"{surface:.4g}" == "89.19"
        sweep, surface, configured_table = linear_sugeno_outputs("--config", str(path))
        # the midpoint of the sweep and of the surface is the eval default
        assert f"{sweep:.4g}" == f"{surface:.4g}" == "17.84"
        assert all(a != b for a, b in zip(table, configured_table))

    def test_sugeno_section_unknown_label_fails(self, tmp_path, capsys):
        path = tmp_path / "fuzzycr.conf"
        path.write_text("[sugeno.handoff-status]\nMaybe = 50\n")
        code, out, err = self.eval_handoff(capsys, "linear-sugeno", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # caught at load, with the line and the label as written
        assert f"{path}:2: variable 'handoff_status' has no label 'Maybe'" in err


HANDOFF = DecisionId.HANDOFF_STATUS
LAYERS = ("default", "config", "env", "flag")


def sweep_cell(tmp, out):
    return float((tmp / "s.csv").read_text().splitlines()[1].split(",")[1])


def sweep_grid(tmp, out):
    return [float(row.split(",")[0]) for row in (tmp / "s.csv").read_text().splitlines()[1:]]


def surface_dir(tmp, out):
    (path,) = tmp.glob("*/surface_*.csv")
    return path.parent.name


# Each setting: the value of each layer (None where a layer cannot set it;
# the default is the program's own), the argv of a run that uses it, what
# that run shows, and what it must show for a value.
PRECEDENCE = {
    "fixed_value": (
        {"default": "50", "config": "20", "env": None, "flag": "80"},
        ["sweep", "--decision", "handoff-status", "--vary", "snr", "--grid", "50",
         "--variants", "triangular-mamdani", "--out", "{tmp}/s.csv"],
        sweep_cell,
        lambda value: build_system(HANDOFF, VariantId.TRIANGULAR_MAMDANI).evaluate(
            [50.0, float(value)]),
    ),
    "grid": (
        {"default": "10:100:10", "config": "0:100:50", "env": None, "flag": "5,15"},
        ["sweep", "--decision", "handoff-status", "--vary", "snr",
         "--variants", "constant-sugeno", "--out", "{tmp}/s.csv"],
        sweep_grid,
        lambda value: {"10:100:10": [10.0 * i for i in range(1, 11)],
                       "0:100:50": [0.0, 50.0, 100.0], "5,15": [5.0, 15.0]}[value],
    ),
    "variant": (
        {"default": "triangular-mamdani", "config": "constant-sugeno", "env": None,
         "flag": "gaussian-mamdani"},
        ["eval", "--decision", "handoff-status", "--in", "snr=30", "--in", "interference=70"],
        lambda tmp, out: out.strip(),
        lambda value: f"{build_system(HANDOFF, VariantId.parse(value)).evaluate([30, 70]):.4g}",
    ),
    "output_dir": (  # the default, ".", is the working directory {tmp}/default
        {"default": "{tmp}/default", "config": "{tmp}/config", "env": "{tmp}/env",
         "flag": "{tmp}/flag"},
        ["surface", "--decision", "handoff-status", "--vary-a", "snr", "--vary-b",
         "interference", "--step", "50", "--variants", "constant-sugeno"],
        surface_dir,
        lambda value: Path(value).name,
    ),
}


@pytest.mark.parametrize("key,top", [
    (key, layer) for key, (values, *_) in PRECEDENCE.items()
    for layer in LAYERS if values[layer] is not None
])
def test_every_setting_takes_default_then_config_then_env_then_flag(
    key, top, tmp_path, capsys, monkeypatch
):
    values, argv, shown, shows = PRECEDENCE[key]
    given = {
        layer: values[layer].format(tmp=tmp_path)
        for layer in LAYERS[:LAYERS.index(top) + 1] if values[layer] is not None
    }
    # every layer below ``top`` sets a value of its own, and loses
    assert len({repr(shows(value)) for value in given.values()}) == len(given)
    (tmp_path / "default").mkdir()
    monkeypatch.chdir(tmp_path / "default")
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "config" in given:
        (tmp_path / "fuzzycr.conf").write_text(f"{key} = {given['config']}\n")
        argv = ["--config", str(tmp_path / "fuzzycr.conf"), *argv]
    if "env" in given:
        monkeypatch.setenv(OUTPUT_DIR_ENV, given["env"])
    if "flag" in given:
        argv += [_FLAGS[key], given["flag"]]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, err) == (0, "")
    assert shown(tmp_path, out) == shows(given[top])


def test_an_empty_output_dir_variable_counts_as_unset(tmp_path, capsys, monkeypatch):
    (tmp_path / "fuzzycr.conf").write_text(f"output_dir = {tmp_path / 'config'}\n")
    monkeypatch.setenv(OUTPUT_DIR_ENV, "")
    assert run_cli("--config", str(tmp_path / "fuzzycr.conf"), *PRECEDENCE["output_dir"][1],
                   capsys=capsys)[0] == 0
    assert surface_dir(tmp_path, "") == "config"
