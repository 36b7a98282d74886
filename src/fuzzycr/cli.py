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
from typing import Iterable, Sequence

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
    check_sugeno_consequents,
    correlation_report,
    run_sweep,
    standard_sweep_results,
    surface_grid,
)
from .catalog import DECISION_INPUTS, DecisionId, standard_catalog
from .engine import EngineConfig, FuzzyError
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


@dataclass
class CliConfig:
    """Options loadable from a ``key = value`` config file."""

    resolution: int = 1001
    fixed_value: float = DEFAULT_FIXED
    grid: tuple[float, ...] | None = None
    variant: VariantId | None = None
    output_dir: Path | None = None
    sugeno_coefficients: dict[DecisionId, dict[str, tuple[float, ...]]] = field(
        default_factory=dict
    )


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
    """A finite number; errors name ``name``, the config key or flag."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name}: {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _parse_grid(text: str, name: str) -> tuple[float, ...]:
    """Grid spec: either ``lo:hi:step`` or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"{name} must be lo:hi:step or a comma list, got {text!r}")
        return _grid_range(*(_parse_number(p, name) for p in parts))
    return tuple(_parse_number(p, name) for p in text.split(","))


def load_config(path: Path) -> CliConfig:
    """Parse the line-oriented config format.

    Top-level ``key = value`` pairs (the keys of ``_SCALAR_KEYS``) and
    ``[sugeno.<decision>]`` sections mapping consequent labels to
    ``constant, slope...`` (slopes follow the decision's input order), checked
    by ``check_sugeno_consequents``. Unknown keys and sections are rejected.
    Every error carries ``path:line:``.
    """
    config = CliConfig()
    section: str | None = None
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if not section.startswith("sugeno."):
                raise CliError(f"{path}:{line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if section is None:
                _apply_scalar(config, key.lower(), value)
            else:
                decision = DecisionId.parse(section.split(".", 1)[1])
                numbers = tuple(float(p) for p in value.split(","))
                given = config.sugeno_coefficients.get(decision, {})
                config.sugeno_coefficients[decision] = check_sugeno_consequents(
                    decision, [*given.items(), (key, numbers)]
                )
        except Exception as exc:
            raise CliError(f"{path}:{line_no}: {exc}") from exc
    return config


def _parse_resolution(text: str) -> int:
    # checked by EngineConfig, the one owner of the rule, at load time so the
    # error can carry the config line
    return EngineConfig.mamdani(int(text)).resolution


# Top-level config keys, each the name of the ``CliConfig`` field it sets,
# with the parser of its value.
_SCALAR_KEYS = {
    "resolution": _parse_resolution,
    "fixed_value": functools.partial(_parse_number, name="fixed_value"),
    "grid": functools.partial(_parse_grid, name="grid"),
    "variant": VariantId.parse,
    "output_dir": Path,
}


def _apply_scalar(config: CliConfig, key: str, value: str) -> None:
    if key not in _SCALAR_KEYS:
        raise CliError(f"unknown config key {key!r}")
    setattr(config, key, _SCALAR_KEYS[key](value))


def _output_dir(config: CliConfig, flag: str | None) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return config.output_dir or Path(".")


def _system_for(config: CliConfig, decision: DecisionId, variant: VariantId):
    return build_system(
        decision,
        variant,
        resolution=config.resolution,
        sugeno_consequents=config.sugeno_coefficients.get(decision),
    )


def _fixed_value(args: argparse.Namespace, config: CliConfig) -> float:
    if args.fixed is None:
        return config.fixed_value
    return _parse_number(args.fixed, "--fixed")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Numbers are written with ``CSV_FORMAT``, strings as they are."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([v if isinstance(v, str) else CSV_FORMAT % v for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _variant_list(text: str | None) -> tuple[VariantId, ...]:
    if not text:
        return ALL_VARIANTS
    return tuple(VariantId.parse(part) for part in text.split(","))


# --- subcommands --------------------------------------------------------------

def cmd_eval(args: argparse.Namespace, config: CliConfig) -> int:
    decision = DecisionId.parse(args.decision)
    variant = VariantId.parse(args.variant) if args.variant else (
        config.variant or VariantId.TRIANGULAR_MAMDANI
    )
    system = _system_for(config, decision, variant)
    assignments = {name: config.fixed_value for name in DECISION_INPUTS[decision]}
    for item in args.inputs or ():
        if "=" not in item:
            raise CliError(f"--in expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in assignments:
            raise CliError(
                f"{name!r} is not an input of {decision.value}; "
                f"inputs: {', '.join(DECISION_INPUTS[decision])}"
            )
        try:
            assignments[name] = float(value)
        except ValueError:
            raise CliError(f"--in {name}: {value!r} is not a number") from None
    print(f"{system.evaluate(assignments):.4g}")
    return 0


def _sweep_rows(result: SweepResult) -> list[list[float]]:
    return [[x, *(values[v] for v in result.spec.variants)] for x, values in result.rows]


def _sweep_header(result: SweepResult) -> list[str]:
    return [result.spec.varied, *(v.value for v in result.spec.variants)]


def cmd_sweep(args: argparse.Namespace, config: CliConfig) -> int:
    decision = DecisionId.parse(args.decision)
    spec = SweepSpec(
        decision,
        args.vary,
        fixed_value=_fixed_value(args, config),
        grid=_parse_grid(args.grid, "--grid") if args.grid else (config.grid or DEFAULT_GRID),
        variants=_variant_list(args.variants),
    )
    result = run_sweep(spec, functools.partial(_system_for, config))
    out = Path(args.out)
    _write_csv(out, _sweep_header(result), _sweep_rows(result))
    print(f"wrote {out}")
    return 0


def cmd_surface(args: argparse.Namespace, config: CliConfig) -> int:
    decision = DecisionId.parse(args.decision)
    variants = _variant_list(args.variants)
    grid = _grid_range(0.0, 100.0, args.step)
    grids = surface_grid(
        decision, args.vary_a, args.vary_b,
        fixed_value=_fixed_value(args, config),
        variants=variants, grid=grid, system_for=functools.partial(_system_for, config),
    )
    outdir = _output_dir(config, args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for variant, values in grids.items():
        path = outdir / f"surface_{decision.value}_{args.vary_a}_{args.vary_b}_{variant.value}.csv"
        # rows run over vary_a values, columns over vary_b values
        header = [f"{args.vary_a}\\{args.vary_b}", *(CSV_FORMAT % b for b in grid)]
        rows = [[a, *values[i]] for i, a in enumerate(grid)]
        _write_csv(path, header, rows)
        print(f"wrote {path}")
    return 0


def cmd_tables(args: argparse.Namespace, config: CliConfig) -> int:
    outdir = _output_dir(config, args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    sweeps = standard_sweep_results(functools.partial(_system_for, config))
    for number, (key, decision, varied) in enumerate(STANDARD_SWEEPS, start=9):
        result = sweeps[key]
        path = outdir / f"table{number:02d}.csv"
        _write_csv(path, _sweep_header(result), _sweep_rows(result))
    _write_correlation_csv(outdir / "table23.csv", sweeps)
    print(f"wrote table09.csv..table23.csv to {outdir}")
    return 0


def _write_correlation_csv(path: Path, sweeps) -> None:
    names = [name for name, _, _ in CORRELATION_PAIRS]
    rows = [[key, *(row[name] for name in names)] for key, row in correlation_report(sweeps)]
    _write_csv(path, ["input_parameter", *names], rows)


def cmd_correlate(args: argparse.Namespace, config: CliConfig) -> int:
    sweeps = standard_sweep_results(functools.partial(_system_for, config))
    report = correlation_report(sweeps)
    if args.out:
        _write_correlation_csv(Path(args.out), sweeps)
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
    header, rows = _read_sweep_csv(path)
    out = Path(args.out) if args.out else path.with_suffix(".svg")
    xs = [row[0] for row in rows]
    series = {
        name: [row[i] for row in rows] for i, name in enumerate(header) if i > 0
    }
    write_line_chart(
        out,
        xs,
        series,
        x_label=header[0],
        y_label=args.y_label or "output",
        title=args.title or path.stem,
    )
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
    seen = {
        tuple(rule.antecedent_map()[name] for name in antecedent_names)
        for rule in rulebase.rules
    }
    missing = [combo for combo in itertools.product(*labels) if combo not in seen]
    if missing:
        print(f"{path}: {count} rules, {len(missing)} missing combinations:")
        for combo in missing:
            clauses = ", ".join(f"{n}={l}" for n, l in zip(antecedent_names, combo))
            print(f"  {clauses}")
        return 1
    print(f"{path}: {count} rules, complete, no conflicts")
    return 0


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
        config = load_config(Path(args.config)) if args.config else CliConfig()
        return args.func(args, config)
    except (CliError, FuzzyError, RuleParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
