"""Command-line frontend.

Subcommands: ``eval``, ``sweep``, ``surface``, ``tables``, ``correlate``,
``plot``, ``check-rules``. All output is deterministic for a given
configuration; CSV files use '.' decimals, comma separators, a header row,
and LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    ALL_VARIANTS,
    CORRELATION_PAIRS,
    DEFAULT_FIXED,
    DEFAULT_GRID,
    STANDARD_SWEEPS,
    SweepResult,
    SweepSpec,
    VariantId,
    build_system,
    check_inputs,
    check_sugeno_consequents,
    correlation_report,
    run_sweep,
    standard_sweep_results,
    surface_grid,
)
from .catalog import DECISION_INPUTS, DecisionId, standard_catalog
from .engine import FuzzyError, FuzzySystem, check_resolution
from .ruledsl import RuleParseError, parse_catalog_rules
from .svgplot import write_line_chart

OUTPUT_DIR_ENV = "FUZZYCR_OUTPUT_DIR"

# CSV cells carry full precision so downstream correlation is stable; the
# terminal prints 4 significant digits.
CSV_FORMAT = "%.17g"

# Most points one grid axis may have (0:100:0.1 still fits). A surface
# evaluates the square of this per variant, so a mistyped step fails at once
# instead of running for hours.
MAX_GRID_POINTS = 1001


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ``CliError`` on a bad argument; subparsers share the class."""

    def error(self, message: str):
        raise CliError(message)


def _grid_range(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Points ``lo + i*step`` up to ``hi``, at most ``MAX_GRID_POINTS`` of them."""
    if not 0 < step < math.inf or not hi >= lo:
        raise CliError(f"bad grid range {lo:g}:{hi:g}:{step:g}")
    intervals = (hi - lo + 1e-9) / step
    if intervals >= MAX_GRID_POINTS:
        raise CliError(
            f"grid {lo:g}:{hi:g}:{step:g} has more than {MAX_GRID_POINTS} points"
        )
    return tuple(round(lo + i * step, 9) for i in range(int(intervals) + 1))


def _parse_number(text: str, name: str) -> float:
    """A finite number; each parser's errors name ``name``, the key, flag or input."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name}: {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _parse_resolution(text: str, name: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name}: {text.strip()!r} is not an integer") from None
    return check_resolution(value)


def _parse_grid(text: str, name: str) -> tuple[float, ...]:
    """Grid spec: either ``lo:hi:step`` or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"{name} must be lo:hi:step or a comma list, got {text!r}")
        return _grid_range(*(_parse_number(p, name) for p in parts))
    return tuple(_parse_number(p, name) for p in text.split(","))


def _parse_variant(text: str, name: str) -> VariantId:
    try:
        return VariantId.parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _nonempty(text: str, name: str) -> str:
    if not text:
        raise ValueError(f"{name} must not be empty")
    return text


def _parse_path(text: str, name: str) -> Path:
    return Path(_nonempty(text, name))


# Top-level config keys, each the name of the ``CliConfig`` field it sets,
# with the one parser of its value, from the file or from a flag.
_SCALAR_KEYS = {
    "resolution": _parse_resolution,
    "fixed_value": _parse_number,
    "grid": _parse_grid,
    "variant": _parse_variant,
    "output_dir": _parse_path,
}
# The flag that overrides a key, on the subcommands that take it.
_FLAGS = {"fixed_value": "--fixed", "grid": "--grid", "variant": "--variant",
          "output_dir": "--out-dir"}


@dataclass
class CliConfig:
    """The settings of one run: these defaults, then a config file's
    top-level keys, then ``FUZZYCR_OUTPUT_DIR``, then the flags given."""

    resolution: int = 1001
    fixed_value: float = DEFAULT_FIXED
    grid: tuple[float, ...] = DEFAULT_GRID
    variant: VariantId = VariantId.TRIANGULAR_MAMDANI
    output_dir: Path = Path(".")
    sugeno_coefficients: dict[DecisionId, dict[str, tuple[float, ...]]] = field(
        default_factory=dict
    )

    def apply(self, key: str, text: str, name: str) -> None:
        """Set the field ``key`` from ``text``, given as ``name``."""
        if key not in _SCALAR_KEYS:
            raise CliError(f"unknown config key {key!r}")
        setattr(self, key, _SCALAR_KEYS[key](text, name))

    def system_for(self, decision: DecisionId, variant: VariantId) -> FuzzySystem:
        coefficients = self.sugeno_coefficients.get(decision)
        return build_system(decision, variant, self.resolution, coefficients)


def load_config(path: Path) -> CliConfig:
    """Parse the line-oriented config format.

    Top-level ``key = value`` pairs (the keys of ``_SCALAR_KEYS``) and
    ``[sugeno.<decision>]`` sections mapping consequent labels to
    ``constant, slope...`` (slopes follow the decision's input order), checked
    by ``check_sugeno_consequents``. Unknown keys, sections and decisions are
    rejected. Every error carries ``path:line:``.
    """
    config = CliConfig()
    decision: DecisionId | None = None
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if not section.startswith("sugeno."):
                    raise CliError(f"unknown section [{section}]")
                decision = DecisionId.parse(section.removeprefix("sugeno."))
            elif not equals:
                raise CliError("expected key = value")
            elif decision is None:
                config.apply(key.lower(), value, key.lower())
            else:
                numbers = tuple(_parse_number(p, key) for p in value.split(","))
                given = config.sugeno_coefficients.get(decision, {})
                config.sugeno_coefficients[decision] = check_sugeno_consequents(
                    decision, [*given.items(), (key, numbers)]
                )
        except Exception as exc:
            raise CliError(f"{path}:{line_no}: {exc}") from exc
    return config


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """LF-terminated lines; numbers are written with ``CSV_FORMAT``, strings
    as they are. Every row has the cell types of the first, so one row
    template, repeated once per row, formats all the cells in one call."""
    line = ",".join("%s" if isinstance(v, str) else CSV_FORMAT for v in rows[0]) if rows else ""
    cells = tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + ((line + "\n") * len(rows)) % cells


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.write_bytes(_csv_text(header, rows).encode())


def _variant_list(text: str | None) -> tuple[VariantId, ...]:
    if text is None:
        return ALL_VARIANTS
    return tuple(_parse_variant(part, "--variants") for part in text.split(","))


# --- subcommands --------------------------------------------------------------

def cmd_eval(args: argparse.Namespace, config: CliConfig) -> int:
    decision = DecisionId.parse(args.decision)
    system = config.system_for(decision, config.variant)
    names = DECISION_INPUTS[decision]
    given: dict[str, float] = {}
    for item in args.inputs or ():
        if "=" not in item:
            raise CliError(f"--in expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        check_inputs(decision, [name])
        if name in given:
            raise CliError(f"--in {name} is given twice")
        given[name] = _parse_number(value, f"--in {name}")
    print(f"{system.evaluate({name: config.fixed_value for name in names} | given):.4g}")
    return 0


def _sweep_rows(result: SweepResult) -> list[tuple[float, ...]]:
    return list(zip(result.spec.grid, *(result.columns[v] for v in result.spec.variants)))


def _sweep_header(result: SweepResult) -> list[str]:
    return [result.spec.varied, *(v.value for v in result.spec.variants)]


def cmd_sweep(args: argparse.Namespace, config: CliConfig) -> int:
    decision = DecisionId.parse(args.decision)
    variants = _variant_list(args.variants)
    spec = SweepSpec(decision, args.vary, config.fixed_value, config.grid, variants)
    result = run_sweep(spec, config.system_for)
    out = _parse_path(args.out, "--out")
    _write_csv(out, _sweep_header(result), _sweep_rows(result))
    print(f"wrote {out}")
    return 0


def cmd_surface(args: argparse.Namespace, config: CliConfig) -> int:
    decision = DecisionId.parse(args.decision)
    variants = _variant_list(args.variants)
    grid = _grid_range(0.0, 100.0, args.step)
    grids = surface_grid(
        decision, args.vary_a, args.vary_b,
        fixed_value=config.fixed_value,
        variants=variants, grid=grid, system_for=config.system_for,
    )
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    # rows run over vary_a values, columns over vary_b values
    header = [f"{args.vary_a}\\{args.vary_b}", *(CSV_FORMAT % b for b in grid)]
    texts: dict[int, bytes] = {}  # variants that share a system share its array
    for variant, values in grids.items():
        path = outdir / f"surface_{decision.value}_{args.vary_a}_{args.vary_b}_{variant.value}.csv"
        if id(values) not in texts:
            texts[id(values)] = _csv_text(header, np.column_stack((grid, values)).tolist()).encode()
        path.write_bytes(texts[id(values)])
        print(f"wrote {path}")
    return 0


def cmd_tables(args: argparse.Namespace, config: CliConfig) -> int:
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    sweeps = standard_sweep_results(config.system_for)
    for number, (key, decision, varied) in enumerate(STANDARD_SWEEPS, start=9):
        result = sweeps[key]
        path = outdir / f"table{number:02d}.csv"
        _write_csv(path, _sweep_header(result), _sweep_rows(result))
    _write_correlation_csv(outdir / "table23.csv", correlation_report(sweeps))
    print(f"wrote table09.csv..table23.csv to {outdir}")
    return 0


def _write_correlation_csv(path: Path, report) -> None:
    names = [name for name, _, _ in CORRELATION_PAIRS]
    rows = [[key, *(row[name] for name in names)] for key, row in report]
    _write_csv(path, ["input_parameter", *names], rows)


def cmd_correlate(args: argparse.Namespace, config: CliConfig) -> int:
    report = correlation_report(standard_sweep_results(config.system_for))
    if args.out is not None:
        _write_correlation_csv(_parse_path(args.out, "--out"), report)
        print(f"wrote {args.out}")
        return 0
    width = max(len(key) for key, _ in report)
    header = "  ".join(f"{name:>34s}" for name, _, _ in CORRELATION_PAIRS)
    print(f"{'input_parameter':{width}s}  {header}")
    for key, row in report:
        cells = "  ".join(f"{row[name]:>34.6f}" for name, _, _ in CORRELATION_PAIRS)
        print(f"{key:{width}s}  {cells}")
    return 0


def _read_sweep_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CliError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2:
        raise CliError(f"{path}: header needs an input column and at least one series")
    rows = []
    for row_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise CliError(
                f"{path}: row {row_no} has {len(cells)} cells, expected {len(header)}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise CliError(f"{path}: row {row_no}: {exc}") from exc
        for name, value in zip(header, row):
            if not math.isfinite(value):
                raise CliError(f"{path}: row {row_no}, column {name!r}: {value} is not finite")
        rows.append(row)
    if not rows:
        raise CliError(f"{path}: no data rows")
    return header, rows


def cmd_plot(args: argparse.Namespace, config: CliConfig) -> int:
    path = Path(args.csv)
    out = path.with_suffix(".svg") if args.out is None else _parse_path(args.out, "--out")
    title = path.stem if args.title is None else _nonempty(args.title, "--title")
    y_label = "output" if args.y_label is None else _nonempty(args.y_label, "--y-label")
    header, rows = _read_sweep_csv(path)
    xs = [row[0] for row in rows]
    series = {name: [row[i] for row in rows] for i, name in enumerate(header) if i > 0}
    write_line_chart(out, xs, series, x_label=header[0], y_label=y_label, title=title)
    print(f"wrote {out}")
    return 0


def cmd_check_rules(args: argparse.Namespace, config: CliConfig) -> int:
    path = Path(args.path)
    text = path.read_text(encoding="utf-8")
    catalog = standard_catalog("triangular")
    try:
        rulebase = parse_catalog_rules(text, catalog)
    except RuleParseError as exc:
        print(f"{path}: {exc}")
        return 1
    count = len(rulebase.rules)
    if count == 0:
        print(f"{path}: 0 rules")
        return 0
    antecedent_names = rulebase.variable_order[:-1]
    labels = [catalog.inputs[name].labels for name in antecedent_names]
    missing, conflicts = [], []
    for combo in itertools.product(*labels):
        # a rule that leaves an input out matches every label of it
        point = dict(zip(antecedent_names, combo))
        consequents = dict.fromkeys(
            rule.consequent for rule in rulebase.rules
            if all(point[name] == label for name, label in rule.antecedents)
        )
        clauses = ", ".join(f"{n}={l}" for n, l in point.items())
        if not consequents:
            missing.append(clauses)
        elif len(consequents) > 1:
            conflicts.append(f"{clauses}: {', '.join(consequents)}")
    for kind, problems in (("missing", missing), ("conflicting", conflicts)):
        if problems:
            print(f"{path}: {count} rules, {len(problems)} {kind} combinations:")
            print("\n".join(f"  {problem}" for problem in problems))
    if missing or conflicts:
        return 1
    print(f"{path}: {count} rules, complete, no conflicts")
    return 0


@functools.cache  # built on the first ``main`` call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuzzycr",
        description="Fuzzy spectrum-decision toolkit: evaluate, sweep, and compare engines.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one decision at given inputs")
    p.add_argument("--decision", required=True)
    p.add_argument("--variant", help="default: triangular-mamdani")
    p.add_argument("--in", dest="inputs", action="append", metavar="NAME=VALUE",
                   help="crisp input; unset inputs take fixed_value from --config (50)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="vary one input, write a CSV")
    p.add_argument("--decision", required=True)
    p.add_argument("--vary", required=True)
    p.add_argument("--fixed")
    p.add_argument("--grid", help="lo:hi:step or comma list (default 10:100:10)")
    p.add_argument("--variants", help="comma list (default all four)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("surface", help="vary two inputs, write one CSV grid per variant")
    p.add_argument("--decision", required=True)
    p.add_argument("--vary-a", required=True)
    p.add_argument("--vary-b", required=True)
    p.add_argument("--fixed")
    p.add_argument("--step", type=float, default=2.0)
    p.add_argument("--variants", help="comma list (default all four)")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("tables", help="write the fourteen standard sweeps plus correlations")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("correlate", help="print or write the correlation report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("plot", help="render a sweep CSV as an SVG line chart")
    p.add_argument("csv")
    p.add_argument("--out")
    p.add_argument("--title")
    p.add_argument("--y-label")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("check-rules", help="validate a rule file for gaps and conflicts")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_rules)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every setting, once, before the command: default < file < env < flag
        path = None if args.config is None else _parse_path(args.config, "--config")
        config = load_config(path) if path else CliConfig()
        if env := os.environ.get(OUTPUT_DIR_ENV):  # set but empty counts as unset
            config.apply("output_dir", env, OUTPUT_DIR_ENV)
        for key, flag in _FLAGS.items():
            text = getattr(args, flag[2:].replace("-", "_"), None)
            if text is not None:  # given, even if empty
                config.apply(key, text, flag)
        return args.func(args, config)
    except (CliError, FuzzyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
