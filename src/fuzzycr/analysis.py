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
from .engine import (EmptyAggregateError, FuzzyError, FuzzySystem, Rule, SugenoConsequent,
                     check_resolution)
from .membership import is_finite_number, parse_named
from .ruledsl import builtin_rulebase

__all__ = [
    "VariantId",
    "SweepSpec",
    "SweepResult",
    "DegenerateSeriesError",
    "build_system",
    "check_inputs",
    "check_sugeno_consequents",
    "run_sweep",
    "run_sweeps",
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
        return parse_named(VariantId, text, "variant")


ALL_VARIANTS = tuple(VariantId)
_SUGENO_VARIANTS = (VariantId.CONSTANT_SUGENO, VariantId.LINEAR_SUGENO)


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
    with ``check_sugeno_consequents``, but only ``linear-sugeno`` uses it;
    anything but ``None`` or a mapping is a ``ValueError``.
    Labels it leaves out keep the catalog level and zero slopes, so with no
    mapping ``linear-sugeno`` is the ``constant-sugeno`` system itself.

    ``resolution`` is the Mamdani output's sample count. Every variant checks
    it, but Sugeno systems sample nothing, so they ignore it.

    Systems are memoized for the life of the process, up to
    ``BUILD_CACHE_SIZE`` of them: equal arguments return the same shared
    system, whatever the order of the mapping's keys, the spelling of its
    labels or the sequence type of its values, whatever the resolution of a
    Sugeno variant, and whatever the mapping of any variant but
    ``linear-sugeno``; a nonempty mapping gives ``linear-sugeno`` a system
    of its own. Callers must not mutate it.
    """
    check_inputs(decision, ())
    if not isinstance(variant, VariantId):
        raise ValueError(f"variant must be a VariantId, got {variant!r}")
    check_resolution(resolution)
    if not isinstance(sugeno_consequents, (Mapping, type(None))):
        raise ValueError(f"sugeno_consequents must be a mapping, got {sugeno_consequents!r}")
    consequents = tuple(sorted(
        check_sugeno_consequents(decision, sugeno_consequents.items()).items()
    )) if sugeno_consequents else ()
    if variant is not VariantId.LINEAR_SUGENO:
        consequents = ()  # read by no other variant: one shared system for any mapping
    if variant in _SUGENO_VARIANTS:
        resolution = 1001  # samples nothing: one shared system for any resolution
        if not consequents:  # zero slopes and catalog levels: the constant system
            variant = VariantId.CONSTANT_SUGENO
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
    rules: Sequence[Rule] = builtin_rulebase(decision).rules
    if variant in _SUGENO_VARIANTS:
        consequents = {label: (level,) for label, level in sugeno_levels(decision).items()}
        consequents.update(sugeno_consequents)
        affine = {
            label: SugenoConsequent(constant, tuple(zip(DECISION_INPUTS[decision], slopes)))
            for label, (constant, *slopes) in consequents.items()
        }
        rules = [Rule(rule.antecedents, affine[rule.consequent]) for rule in rules]
    return FuzzySystem(catalog.decision_inputs(decision), output, rules, resolution)


def check_sugeno_consequents(
    decision: DecisionId, consequents: Sequence[tuple[str, Sequence[float]]]
) -> dict[str, tuple[float, ...]]:
    """Check ``(label, (constant, *slopes))`` pairs for one decision and key
    them by the output's own spelling of each label.

    A label that is not a str or not the output's, a label given twice,
    values that are not a tuple or list of finite numbers, or more numbers
    than a constant and one slope per input is a ``ValueError``.
    """
    output = standard_catalog().decision_output(decision)
    n_inputs = len(DECISION_INPUTS[decision])
    checked = {}
    for label, values in consequents:
        if not isinstance(label, str):
            raise ValueError(f"consequent label must be a str, got {label!r}")
        try:
            label = output.term(label).label
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if label in checked:
            raise ValueError(f"consequent {label!r} is given twice")
        if not isinstance(values, (tuple, list)) or not all(map(is_finite_number, values)):
            raise ValueError(f"consequent {label!r} needs finite numbers, got {values!r}")
        if not 1 <= len(values) <= 1 + n_inputs:
            raise ValueError(
                f"consequent {label!r} needs a constant and at most "
                f"{n_inputs} slopes, got {len(values)} numbers"
            )
        checked[label] = tuple(values)
    return checked


def check_inputs(decision: DecisionId, names: Sequence[str]) -> None:
    """Reject a ``decision`` that is not a ``DecisionId``, or one of ``names``
    that is not among its inputs, listing them."""
    if not isinstance(decision, DecisionId):
        raise ValueError(f"decision must be a DecisionId, got {decision!r}")
    inputs = DECISION_INPUTS[decision]
    for name in names:
        if name not in inputs:
            raise ValueError(
                f"{name!r} is not an input of {decision.value}; inputs: {', '.join(inputs)}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: vary one input, pin the rest. ``surface_grid``
    shares its checks. ``grid`` is kept as a tuple of floats."""

    decision: DecisionId
    varied: str
    fixed_value: float = DEFAULT_FIXED
    grid: tuple[float, ...] = DEFAULT_GRID
    variants: tuple[VariantId, ...] = ALL_VARIANTS

    def __post_init__(self) -> None:
        check_inputs(self.decision, [self.varied])
        if not is_finite_number(self.fixed_value):
            raise ValueError(f"fixed_value must be a finite number, got {self.fixed_value!r}")
        grid = tuple(self.grid)
        if not grid:
            raise ValueError("sweep grid must be nonempty")
        for value in grid:
            if not is_finite_number(value):
                raise ValueError(f"sweep grid must hold finite numbers, got {value!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if not (isinstance(self.variants, tuple)
                and all(isinstance(variant, VariantId) for variant in self.variants)):
            raise ValueError(f"variants must be a tuple of VariantId, got {self.variants!r}")
        if not self.variants:
            raise ValueError("sweep needs at least one variant")
        for i, variant in enumerate(self.variants):
            if variant in self.variants[:i]:
                raise ValueError(f"variants repeats {variant.value!r}")
        object.__setattr__(self, "grid", tuple(float(value) for value in grid))


@dataclass(frozen=True)
class SweepResult:
    """Each variant's outputs over the spec's grid, one column per variant in
    grid order."""

    spec: SweepSpec
    columns: Mapping[VariantId, tuple[float, ...]]

    def column(self, variant: VariantId) -> tuple[float, ...]:
        return self.columns[variant]


SystemFactory = Callable[[DecisionId, VariantId], FuzzySystem]


def _evaluate_grids(
    decision: DecisionId,
    grids: Sequence[tuple[Mapping[str, Sequence[float]], float]],
    variants: Sequence[VariantId],
    system_for: SystemFactory,
) -> list[dict[VariantId, np.ndarray]]:
    """Each variant's outputs over each ``(axes, fixed)`` grid, shaped by its
    axes: the C-order Cartesian product of the values ``axes`` maps inputs
    to, with every other input at ``fixed``. All grids are stacked, so each
    distinct system is evaluated once, in one batch, and variants that
    ``system_for`` gives the same system share its output arrays. An empty
    aggregate names the first variant of the system and the batch's first
    failing point by the axes of its grid."""
    names = DECISION_INPUTS[decision]
    shapes = [tuple(len(values) for values in axes.values()) for axes, _ in grids]
    blocks, bounds = [], [0]
    for (axes, fixed), shape in zip(grids, shapes):
        block = np.full((math.prod(shape), len(names)), fixed)
        indices = np.unravel_index(np.arange(len(block)), shape)
        for (name, values), index in zip(axes.items(), indices):
            block[:, names.index(name)] = np.asarray(values)[index]
        blocks.append(block)
        bounds.append(bounds[-1] + len(block))
    x = np.vstack(blocks)
    out: list[dict[VariantId, np.ndarray]] = [{} for _ in grids]
    done: dict[FuzzySystem, list[np.ndarray]] = {}  # keyed by identity
    for variant in variants:
        system = system_for(decision, variant)
        if system not in done:
            order = [names.index(name) for name in system.input_names]
            try:
                outputs = system.evaluate_batch(x[:, order])
            except EmptyAggregateError as exc:
                axes = grids[np.searchsorted(bounds, exc.row, side="right") - 1][0]
                point = ", ".join(f"{name}={x[exc.row, names.index(name)]:g}" for name in axes)
                raise FuzzyError(
                    f"{decision.value}/{variant.value} failed at {point}: {exc}") from exc
            done[system] = [outputs[start:stop].reshape(shape)
                            for start, stop, shape in zip(bounds, bounds[1:], shapes)]
        for result, values in zip(out, done[system]):
            result[variant] = values
    return out


def run_sweeps(
    specs: Sequence[SweepSpec], system_for: SystemFactory = build_system
) -> list[SweepResult]:
    """Evaluate every spec's variants across its grid with the other inputs
    pinned; results in the order of ``specs``.

    The grids of all specs with the same decision and variants are stacked
    into one input matrix, so each distinct system of those variants is
    evaluated in one batch. ``system_for(decision, variant)`` builds each
    variant's system.
    """
    groups: dict[tuple[DecisionId, tuple[VariantId, ...]], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.decision, spec.variants), []).append(i)
    results: list[SweepResult | None] = [None] * len(specs)
    for (decision, variants), members in groups.items():
        grids = [({specs[i].varied: specs[i].grid}, specs[i].fixed_value) for i in members]
        for i, outputs in zip(members, _evaluate_grids(decision, grids, variants, system_for)):
            results[i] = SweepResult(specs[i], {v: tuple(outputs[v].tolist()) for v in variants})
    return results


def run_sweep(spec: SweepSpec, system_for: SystemFactory = build_system) -> SweepResult:
    """``run_sweeps`` of the one spec."""
    return run_sweeps([spec], system_for)[0]


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
    # the fields a surface shares with a sweep get a sweep's checks
    grid = SweepSpec(decision, input_a, fixed_value, grid, variants).grid
    check_inputs(decision, [input_b])
    if input_a == input_b:
        raise ValueError("surface needs two distinct inputs")
    grids = [({input_a: grid, input_b: grid}, fixed_value)]
    return _evaluate_grids(decision, grids, variants, system_for)[0]


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
    """All fourteen standard sweeps, keyed by sweep name: one batch per
    decision and distinct system."""
    specs = [SweepSpec(decision, varied) for _, decision, varied in STANDARD_SWEEPS]
    results = run_sweeps(specs, system_for)
    return {key: result for (key, _, _), result in zip(STANDARD_SWEEPS, results)}


def correlation_report(sweeps: Mapping[str, SweepResult]) -> list[tuple[str, dict[str, float]]]:
    """Per-sweep correlation between the ``CORRELATION_PAIRS``."""
    return [(key, {name: pearson(result.column(left), result.column(right))
                   for name, left, right in CORRELATION_PAIRS})
            for key, result in sweeps.items()]


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


def trend_violations(values: Sequence[float], direction: int) -> list[tuple[int, float]]:
    """Steps moving against the expected direction by more than
    ``TREND_TOLERANCE``."""
    steps = [(i, (b - a) * direction) for i, (a, b) in enumerate(zip(values, values[1:]))]
    return [(i, step) for i, step in steps if step < -TREND_TOLERANCE]


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
