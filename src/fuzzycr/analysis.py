"""Sweep harness and model-to-model correlation analysis.

Four system variants are compared throughout: Mamdani engines with triangular
or Gaussian membership, and Sugeno engines with constant or affine
consequents. Sweeps hold every other input at the universe midpoint and are
deterministic, so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable, Mapping, Sequence

import numpy as np

from .catalog import DECISION_INPUTS, DecisionId, standard_catalog, sugeno_levels
from .engine import EngineConfig, FuzzyError, FuzzySystem, Rule, SugenoConsequent
from .membership import normalize_label
from .ruledsl import builtin_rulebase

__all__ = [
    "VariantId",
    "SweepSpec",
    "SweepResult",
    "DegenerateSeriesError",
    "build_system",
    "check_sugeno_consequents",
    "run_sweep",
    "surface_grid",
    "pearson",
    "correlation_report",
    "CORRELATION_PAIRS",
    "STANDARD_SWEEPS",
    "MONOTONE_TRENDS",
    "trend_violations",
    "load_golden_sweeps",
    "load_golden_correlations",
]

DEFAULT_FIXED = 50.0
DEFAULT_GRID = tuple(float(x) for x in range(10, 101, 10))
SURFACE_GRID = tuple(float(x) for x in range(0, 101, 2))


class VariantId(Enum):
    GAUSSIAN_MAMDANI = "gaussian-mamdani"
    TRIANGULAR_MAMDANI = "triangular-mamdani"
    CONSTANT_SUGENO = "constant-sugeno"
    LINEAR_SUGENO = "linear-sugeno"

    @staticmethod
    def parse(text: str) -> "VariantId":
        key = normalize_label(text)
        for member in VariantId:
            if normalize_label(member.value) == key:
                return member
        valid = ", ".join(m.value for m in VariantId)
        raise ValueError(f"unknown variant {text!r}; valid: {valid}")


ALL_VARIANTS = tuple(VariantId)


class DegenerateSeriesError(ValueError):
    """A correlation operand has zero variance."""


# Most distinct systems ``build_system`` keeps alive: the 24 standard ones
# (6 decisions x 4 variants) with room to spare, and a bound for a caller
# who varies resolution or consequents in a loop.
BUILD_CACHE_SIZE = 64


def build_system(
    decision: DecisionId,
    variant: VariantId,
    resolution: int = 1001,
    sugeno_consequents: Mapping[str, Sequence[float]] | None = None,
) -> FuzzySystem:
    """Assemble one decision system from the catalog and its built-in rules.

    ``sugeno_consequents`` maps output labels to ``(constant, *slopes)`` for
    the affine Sugeno variant, slopes in decision input order (missing
    trailing slopes are zero). The constant replaces the catalog level of that
    label. Labels match like rule labels. Every variant checks the mapping
    with ``check_sugeno_consequents``, but only ``linear-sugeno`` uses it.
    Labels it leaves out keep the catalog level and zero slopes, so by
    default the affine and constant variants coincide.

    Systems are memoized for the life of the process, up to
    ``BUILD_CACHE_SIZE`` of them: equal arguments return the same shared
    system, whatever the order of the mapping's keys or the sequence type of
    its values. Callers must not mutate it.
    """
    consequents = tuple(sorted(
        (label, tuple(values)) for label, values in (sugeno_consequents or {}).items()
    ))
    return _build_system(decision, variant, resolution, consequents)


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def _build_system(
    decision: DecisionId,
    variant: VariantId,
    resolution: int,
    sugeno_consequents: tuple[tuple[str, tuple[float, ...]], ...],
) -> FuzzySystem:
    family = "triangular" if variant is VariantId.TRIANGULAR_MAMDANI else "gaussian"
    catalog = standard_catalog(family)
    output = catalog.decision_output(decision)
    input_names = DECISION_INPUTS[decision]
    consequents = {label: (level,) for label, level in sugeno_levels(decision).items()}
    given = check_sugeno_consequents(decision, sugeno_consequents)
    if variant is VariantId.LINEAR_SUGENO:
        consequents.update(given)
    rules: Sequence[Rule] = builtin_rulebase(decision).rules
    if variant in (VariantId.TRIANGULAR_MAMDANI, VariantId.GAUSSIAN_MAMDANI):
        config = EngineConfig.mamdani(resolution)
    else:
        config = EngineConfig.sugeno(resolution)
        affine = {
            label: SugenoConsequent(constant, tuple(zip(input_names, slopes)))
            for label, (constant, *slopes) in consequents.items()
        }
        rules = [Rule(rule.antecedents, affine[rule.consequent]) for rule in rules]
    return FuzzySystem(catalog.decision_inputs(decision), output, rules, config)


def check_sugeno_consequents(
    decision: DecisionId, consequents: Sequence[tuple[str, Sequence[float]]]
) -> dict[str, tuple[float, ...]]:
    """Check ``(label, (constant, *slopes))`` pairs for one decision and key
    them by the output's own spelling of each label.

    An unknown label, a label given twice, more numbers than a constant and
    one slope per input, or a non-finite number is a ``ValueError``.
    """
    output = standard_catalog().decision_output(decision)
    n_inputs = len(DECISION_INPUTS[decision])
    checked = {}
    for label, values in consequents:
        try:
            label = output.term(label).label
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if label in checked:
            raise ValueError(f"consequent {label!r} is given twice")
        if not 1 <= len(values) <= 1 + n_inputs:
            raise ValueError(
                f"consequent {label!r} needs a constant and at most "
                f"{n_inputs} slopes, got {len(values)} numbers"
            )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"consequent {label!r} needs finite numbers, got {tuple(values)}")
        checked[label] = tuple(values)
    return checked


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: vary one input, pin the rest."""

    decision: DecisionId
    varied: str
    fixed_value: float = DEFAULT_FIXED
    grid: tuple[float, ...] = DEFAULT_GRID
    variants: tuple[VariantId, ...] = ALL_VARIANTS

    def __post_init__(self) -> None:
        if self.varied not in DECISION_INPUTS[self.decision]:
            raise ValueError(
                f"{self.varied!r} is not an input of {self.decision.value}; "
                f"inputs: {DECISION_INPUTS[self.decision]}"
            )
        if not self.grid:
            raise ValueError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if not self.variants:
            raise ValueError("sweep needs at least one variant")


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[tuple[float, dict[VariantId, float]], ...]

    def column(self, variant: VariantId) -> list[float]:
        return [values[variant] for _, values in self.rows]


SystemFactory = Callable[[DecisionId, VariantId], FuzzySystem]


def _evaluate_variants(
    decision: DecisionId,
    variants: Sequence[VariantId],
    system_for: SystemFactory,
    x: np.ndarray,
    point: Callable[[int], str],
) -> dict[VariantId, np.ndarray]:
    """Each variant's outputs over the rows of ``x`` (columns in decision
    input order). A failure names the variant and, through ``point``, the
    first row that fails."""
    names = DECISION_INPUTS[decision]
    out = {}
    for variant in variants:
        system = system_for(decision, variant)
        rows = x[:, [names.index(name) for name in system.input_names]]
        try:
            out[variant] = system.evaluate_batch(rows)
        except Exception:
            for i in range(len(rows)):
                try:
                    system.evaluate_batch(rows[i:i + 1])
                except Exception as exc:
                    raise FuzzyError(
                        f"{decision.value}/{variant.value} failed at {point(i)}: {exc}"
                    ) from exc
            raise
    return out


def run_sweep(spec: SweepSpec, system_for: SystemFactory = build_system) -> SweepResult:
    """Evaluate every variant across the grid with the other inputs pinned.

    ``system_for(decision, variant)`` builds each variant's system.
    """
    names = DECISION_INPUTS[spec.decision]
    x = np.full((len(spec.grid), len(names)), spec.fixed_value)
    x[:, names.index(spec.varied)] = spec.grid
    columns = _evaluate_variants(
        spec.decision, spec.variants, system_for, x,
        lambda i: f"{spec.varied}={spec.grid[i]:g}",
    )
    rows = tuple(
        (value, {v: float(columns[v][i]) for v in spec.variants})
        for i, value in enumerate(spec.grid)
    )
    return SweepResult(spec, rows)


def surface_grid(
    decision: DecisionId,
    input_a: str,
    input_b: str,
    fixed_value: float = DEFAULT_FIXED,
    variants: tuple[VariantId, ...] = ALL_VARIANTS,
    grid: tuple[float, ...] = SURFACE_GRID,
    system_for: SystemFactory = build_system,
) -> dict[VariantId, np.ndarray]:
    """Outputs over the Cartesian grid of two inputs.

    Result arrays are indexed ``[i, j]`` with ``i`` running over ``input_a``
    values and ``j`` over ``input_b`` values, both in grid order.
    ``system_for(decision, variant)`` builds each variant's system.
    """
    names = DECISION_INPUTS[decision]
    if input_a == input_b:
        raise ValueError("surface needs two distinct inputs")
    for name in (input_a, input_b):
        if name not in names:
            raise ValueError(f"{name!r} is not an input of {decision.value}")
    n = len(grid)
    x = np.full((n * n, len(names)), fixed_value)
    x[:, names.index(input_a)] = np.repeat(grid, n)
    x[:, names.index(input_b)] = np.tile(grid, n)
    values = _evaluate_variants(
        decision, variants, system_for, x,
        lambda i: f"{input_a}={grid[i // n]:g}, {input_b}={grid[i % n]:g}",
    )
    return {v: values[v].reshape(n, n) for v in variants}


def _centered(values: list[float]) -> list[float]:
    """``values`` less their mean, with the rounding of the mean taken out.

    The float mean can sit an ulp off a constant series, which would leave
    it equal nonzero deviations. The deviations' exact sum over n is that
    offset; subtracting it centres a constant series to exact zeros.
    """
    n = len(values)
    mean = math.fsum(values) / n
    deviations = [v - mean for v in values]
    offset = math.fsum(deviations) / n
    return [d - offset for d in deviations]


def _scaled_to_unit(values: list[float]) -> list[float]:
    """``values`` times the power of two that brings the largest below 1."""
    _, exponent = math.frexp(max(abs(v) for v in values))
    return [math.ldexp(v, -exponent) for v in values]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample correlation coefficient of two equal-length series.

    Computed from centered sums, which is the numerically stable equivalent
    of (N*sum(xy) - sum(x)sum(y)) / sqrt((N*sum(x^2) - sum(x)^2)(N*sum(y^2) - sum(y)^2)).
    Each series' deviations are scaled by a power of two to below 1 in size,
    which is exact and keeps the squares from overflowing or underflowing.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"series lengths differ: {n} vs {len(ys)}")
    if n < 2:
        raise ValueError("correlation needs at least two samples")
    dx = _scaled_to_unit(_centered(xs))
    dy = _scaled_to_unit(_centered(ys))
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x <= 0 or var_y <= 0:
        raise DegenerateSeriesError("degenerate series: zero variance")
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    return cov / math.sqrt(var_x * var_y)


# The fourteen standard sweeps, keyed for reports and table files. Table
# numbering starts at 09 to match the shipped CSV names.
STANDARD_SWEEPS: tuple[tuple[str, DecisionId, str], ...] = (
    ("signal_strength", DecisionId.CHANNEL_SELECTION, "signal_strength"),
    ("spectrum_demand", DecisionId.CHANNEL_SELECTION, "spectrum_demand"),
    ("snr_for_channel_selection", DecisionId.CHANNEL_SELECTION, "snr"),
    ("snr_for_handoff", DecisionId.HANDOFF_STATUS, "snr"),
    ("interference", DecisionId.HANDOFF_STATUS, "interference"),
    ("channel_quality", DecisionId.CHANNEL_GAIN, "channel_quality"),
    ("susceptibility", DecisionId.CHANNEL_GAIN, "susceptibility"),
    (
        "spectrum_utilisation_efficiency",
        DecisionId.ACCESS_SPECTRUM,
        "spectrum_utilisation_efficiency",
    ),
    ("degree_of_mobility", DecisionId.ACCESS_SPECTRUM, "degree_of_mobility"),
    ("distance_to_primary_user", DecisionId.ACCESS_SPECTRUM, "distance_to_primary_user"),
    ("su_traffic_intensity", DecisionId.ACCESS_LATENCY, "su_traffic_intensity"),
    ("ba_traffic_intensity", DecisionId.ACCESS_LATENCY, "ba_traffic_intensity"),
    ("access_latency", DecisionId.BANDWIDTH_ALLOCATION, "access_latency"),
    ("traffic_priority", DecisionId.BANDWIDTH_ALLOCATION, "traffic_priority"),
)

CORRELATION_PAIRS = (
    ("gaussian_vs_triangular_mamdani", VariantId.GAUSSIAN_MAMDANI, VariantId.TRIANGULAR_MAMDANI),
    ("constant_vs_linear_sugeno", VariantId.CONSTANT_SUGENO, VariantId.LINEAR_SUGENO),
    ("gaussian_mamdani_vs_linear_sugeno", VariantId.GAUSSIAN_MAMDANI, VariantId.LINEAR_SUGENO),
)


def standard_sweep_results(
    system_for: SystemFactory = build_system,
) -> dict[str, SweepResult]:
    """All fourteen standard sweeps, keyed by sweep name."""
    return {
        key: run_sweep(SweepSpec(decision, varied), system_for)
        for key, decision, varied in STANDARD_SWEEPS
    }


def correlation_report(
    sweeps: Mapping[str, SweepResult],
    pairs=CORRELATION_PAIRS,
) -> list[tuple[str, dict[str, float]]]:
    """Per-sweep correlation between the variant pairs."""
    report = []
    for key, result in sweeps.items():
        row = {}
        for pair_name, left, right in pairs:
            row[pair_name] = pearson(result.column(left), result.column(right))
        report.append((key, row))
    return report


# Expected qualitative behaviour of the generated sweeps: +1 for
# nondecreasing, -1 for nonincreasing. Plateaus are fine; moves against the
# trend larger than the tolerance are violations.
MONOTONE_TRENDS: tuple[tuple[str, int], ...] = (
    ("spectrum_demand", -1),
    ("snr_for_channel_selection", +1),
    ("degree_of_mobility", -1),
    ("su_traffic_intensity", +1),
    ("ba_traffic_intensity", +1),
    ("access_latency", -1),
    ("traffic_priority", +1),
)

TREND_TOLERANCE = 0.5


def trend_violations(
    values: Sequence[float], direction: int, tolerance: float = TREND_TOLERANCE
) -> list[tuple[int, float]]:
    """Steps moving against the expected direction by more than tolerance."""
    bad = []
    for i, (a, b) in enumerate(zip(values, values[1:])):
        step = (b - a) * direction
        if step < -tolerance:
            bad.append((i, step))
    return bad


# --- golden regression data --------------------------------------------------

def _read_packaged_csv(name: str) -> list[dict[str, str]]:
    text = resources.files("fuzzycr.data").joinpath(name).read_text(encoding="utf-8")
    return list(csv.DictReader(text.splitlines()))


def load_golden_sweeps() -> list[dict[str, str]]:
    """Published sweep values with per-cell tolerance and check status."""
    return _read_packaged_csv("golden_sweeps.csv")


def load_golden_correlations() -> list[dict[str, str]]:
    """Published correlation table values."""
    return _read_packaged_csv("golden_correlations.csv")
