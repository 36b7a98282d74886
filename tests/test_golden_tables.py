"""Regression checks against the published sweep and correlation tables.

Each golden cell carries its own tolerance; cells the shipped catalog cannot
reproduce (the source configuration is internally inconsistent there) are
marked informational and skipped by status.
"""

import importlib.util
from importlib import resources
from pathlib import Path

import pytest

from fuzzycr.analysis import (
    VariantId,
    correlation_report,
    load_golden_correlations,
    load_golden_sweeps,
    pearson,
)


@pytest.fixture(scope="module")
def golden_sweeps():
    return load_golden_sweeps()


def test_golden_file_shape(golden_sweeps):
    assert len(golden_sweeps) == 14 * 10 * 4
    tables = {row["source_table"] for row in golden_sweeps}
    assert tables == {f"table{n:02d}" for n in range(9, 23)}
    statuses = {row["status"] for row in golden_sweeps}
    assert statuses == {"assert", "info"}
    # the asserted regression net covers the bulk of the published cells
    asserted = sum(row["status"] == "assert" for row in golden_sweeps)
    assert asserted >= 420


def test_asserted_sweep_cells_match(golden_sweeps, all_sweeps):
    failures = []
    for row in golden_sweeps:
        if row["status"] != "assert":
            continue
        result = all_sweeps[row["sweep"]]
        ours = result.column(VariantId.parse(row["variant"]))[
            result.spec.grid.index(float(row["input_value"]))
        ]
        published = float(row["published_value"])
        tolerance = float(row["tolerance"])
        if abs(ours - published) > tolerance:
            failures.append(
                f"{row['source_table']} {row['sweep']}={row['input_value']} "
                f"{row['variant']}: ours {ours:.4g} vs {published} (tol {tolerance})"
            )
    assert not failures, "\n".join(failures)


def test_asserted_correlation_cells_match(all_sweeps):
    report = {key: row for key, row in correlation_report(all_sweeps)}
    for row in load_golden_correlations():
        if row["status"] != "assert":
            continue
        ours = report[row["sweep"]][row["pair"]]
        assert ours == pytest.approx(
            float(row["published_value"]), abs=float(row["tolerance"])
        ), (row["sweep"], row["pair"])


def test_published_table09_mamdani_columns_correlation(golden_sweeps):
    # data-entry check: the published correlation figure for the first sweep
    # must be recoverable from the published table values themselves
    cells = {
        (row["variant"], float(row["input_value"])): float(row["published_value"])
        for row in golden_sweeps
        if row["source_table"] == "table09"
    }
    grid = sorted({x for _, x in cells})
    gaussian = [cells[("gaussian-mamdani", x)] for x in grid]
    triangular = [cells[("triangular-mamdani", x)] for x in grid]
    assert pearson(gaussian, triangular) == pytest.approx(0.987783, abs=0.0005)


def test_golden_tool_regenerates_the_shipped_files(tmp_path, monkeypatch, capsys):
    tool = Path(__file__).resolve().parents[1] / "tools" / "make_golden_data.py"
    spec = importlib.util.spec_from_file_location("make_golden_data", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "src" / "fuzzycr" / "data").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    module.main()
    for name in ("golden_sweeps.csv", "golden_correlations.csv"):
        shipped = resources.files("fuzzycr.data").joinpath(name).read_bytes()
        assert (tmp_path / "src" / "fuzzycr" / "data" / name).read_bytes() == shipped, name
