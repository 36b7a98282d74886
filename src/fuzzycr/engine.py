"""Mamdani and Sugeno inference engines.

A :class:`FuzzySystem` is immutable once built; :meth:`FuzzySystem.evaluate`
is pure and reentrant, so systems can be evaluated from many threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

from .membership import LinguisticVariable, Universe

__all__ = [
    "AndOp",
    "DefuzzMethod",
    "EngineKind",
    "EngineConfig",
    "SugenoConsequent",
    "Rule",
    "FuzzySystem",
    "AggregateCurve",
    "FuzzyError",
    "EmptyAggregateError",
    "firing_strength",
    "aggregate_clipped",
    "defuzzify",
    "defuzz_centroid",
    "defuzz_bisector",
    "defuzz_mean_of_maxima",
    "defuzz_smallest_of_maxima",
    "defuzz_largest_of_maxima",
]

# Clip levels within this distance of the curve maximum count as maximal for
# the maxima-family defuzzifiers; flat tops produced by clipping are exact in
# floating point only up to rounding.
MAXIMA_TOLERANCE = 1e-9


class FuzzyError(Exception):
    """Base error for inference failures."""


class EmptyAggregateError(FuzzyError):
    """No rule fired with positive strength, or the curve is identically zero."""


class EngineKind(Enum):
    MAMDANI = "mamdani"
    SUGENO = "sugeno"


class AndOp(Enum):
    MIN = "min"
    PRODUCT = "product"


class DefuzzMethod(Enum):
    CENTROID = "centroid"
    BISECTOR = "bisector"
    MEAN_OF_MAXIMA = "mom"
    SMALLEST_OF_MAXIMA = "som"
    LARGEST_OF_MAXIMA = "lom"


@dataclass(frozen=True)
class EngineConfig:
    """Engine wiring: conjunction, defuzzifier, and the sample count used for
    the output universe. Mamdani systems always clip by min and aggregate by
    max."""

    kind: EngineKind
    and_op: AndOp
    defuzz: DefuzzMethod = DefuzzMethod.CENTROID
    resolution: int = 1001

    def __post_init__(self) -> None:
        if self.resolution < 101 or self.resolution % 2 == 0:
            raise ValueError(
                f"resolution must be odd and >= 101, got {self.resolution}"
            )

    @staticmethod
    def mamdani(
        defuzz: DefuzzMethod = DefuzzMethod.CENTROID,
        and_op: AndOp = AndOp.MIN,
        resolution: int = 1001,
    ) -> "EngineConfig":
        return EngineConfig(EngineKind.MAMDANI, and_op, defuzz, resolution=resolution)

    @staticmethod
    def sugeno(and_op: AndOp = AndOp.PRODUCT, resolution: int = 1001) -> "EngineConfig":
        return EngineConfig(EngineKind.SUGENO, and_op, resolution=resolution)


@dataclass(frozen=True)
class SugenoConsequent:
    """Affine consequent: constant plus per-input slopes keyed by input name.

    Missing inputs contribute no slope, so an empty mapping is the constant
    consequent.
    """

    constant: float
    coefficients: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.constant):
            raise ValueError("consequent constant must be finite")
        for name, coeff in self.coefficients:
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient for {name!r} must be finite")

    def value(self, inputs: Mapping[str, float]) -> float:
        z = self.constant
        for name, coeff in self.coefficients:
            z += coeff * inputs[name]
        return z


Consequent = Union[str, SugenoConsequent]


@dataclass(frozen=True, eq=True)
class Rule:
    """Conjunction of (variable, label) antecedents with one consequent."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: Consequent

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise ValueError("rule needs at least one antecedent")
        names = [name for name, _ in self.antecedents]
        if len(set(names)) != len(names):
            raise ValueError(f"rule repeats an antecedent variable: {names}")

    @staticmethod
    def of(antecedents: Mapping[str, str], consequent: Consequent) -> "Rule":
        return Rule(tuple(antecedents.items()), consequent)

    def antecedent_map(self) -> dict[str, str]:
        return dict(self.antecedents)


def firing_strength(
    rule: Rule, fuzzified: Mapping[str, Mapping[str, float]], and_op: AndOp
) -> float:
    """Combine a rule's antecedent degrees with the chosen conjunction."""
    strength = 1.0
    for name, label in rule.antecedents:
        if name not in fuzzified:
            raise FuzzyError(f"no fuzzified value for variable {name!r}")
        degree = fuzzified[name][label]
        if and_op is AndOp.MIN:
            strength = min(strength, degree)
        else:
            strength *= degree
    return strength


@dataclass(frozen=True)
class AggregateCurve:
    """Sampled fuzzy output: uniformly spaced x with degrees in [0, 1]."""

    xs: np.ndarray
    degrees: np.ndarray

    def max_degree(self) -> float:
        return float(self.degrees.max())


def aggregate_clipped(
    xs: np.ndarray,
    term_profiles: Mapping[str, np.ndarray],
    clip_levels: Mapping[str, float],
) -> AggregateCurve:
    """Min-clip each term profile at its level and combine pointwise by max.

    Raising any clip level can only raise the combined curve, never lower it.
    """
    combined = np.zeros_like(xs)
    for label, level in clip_levels.items():
        if level <= 0.0:
            continue
        np.maximum(combined, np.minimum(level, term_profiles[label]), out=combined)
    if combined.max() <= 0.0:
        raise EmptyAggregateError("empty aggregate")
    return AggregateCurve(xs, combined)


def _end_weighted(degrees: np.ndarray) -> np.ndarray:
    """Trapezoid weights: halve the two boundary samples.

    Keeps the discrete centroid equal to the continuous one to O(h^2) even
    when the curve is nonzero at a universe edge.
    """
    weighted = degrees.copy()
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    return weighted


def defuzz_centroid(curve: AggregateCurve) -> float:
    """Discrete centroid sum(x * mu) / sum(mu) over the uniform samples."""
    weighted = _end_weighted(curve.degrees)
    total = float(weighted.sum())
    if total <= 0.0:
        raise EmptyAggregateError("empty aggregate")
    return float(np.dot(curve.xs, weighted) / total)


def defuzz_bisector(curve: AggregateCurve) -> float:
    """First sample where the running area reaches half the total area."""
    total = float(curve.degrees.sum())
    if total <= 0.0:
        raise EmptyAggregateError("empty aggregate")
    cumulative = np.cumsum(curve.degrees)
    idx = int(np.searchsorted(cumulative, 0.5 * total))
    return float(curve.xs[idx])


def _maxima(curve: AggregateCurve) -> np.ndarray:
    top = curve.max_degree()
    if top <= 0.0:
        raise EmptyAggregateError("empty aggregate")
    return curve.xs[curve.degrees >= top - MAXIMA_TOLERANCE]


def defuzz_mean_of_maxima(curve: AggregateCurve) -> float:
    return float(_maxima(curve).mean())


def defuzz_smallest_of_maxima(curve: AggregateCurve) -> float:
    return float(_maxima(curve)[0])


def defuzz_largest_of_maxima(curve: AggregateCurve) -> float:
    return float(_maxima(curve)[-1])


_DEFUZZIFIERS = {
    DefuzzMethod.CENTROID: defuzz_centroid,
    DefuzzMethod.BISECTOR: defuzz_bisector,
    DefuzzMethod.MEAN_OF_MAXIMA: defuzz_mean_of_maxima,
    DefuzzMethod.SMALLEST_OF_MAXIMA: defuzz_smallest_of_maxima,
    DefuzzMethod.LARGEST_OF_MAXIMA: defuzz_largest_of_maxima,
}


def defuzzify(curve: AggregateCurve, method: DefuzzMethod) -> float:
    return _DEFUZZIFIERS[method](curve)


class FuzzySystem:
    """Inputs, output, rule list, and engine configuration, bound together.

    For Mamdani systems ``output`` must be a full linguistic variable; Sugeno
    systems only need its name and universe, but accept the same variable for
    convenience.
    """

    def __init__(
        self,
        inputs: Sequence[LinguisticVariable],
        output: LinguisticVariable,
        rules: Sequence[Rule],
        config: EngineConfig,
    ) -> None:
        self.inputs = tuple(inputs)
        self.output = output
        self.rules = tuple(rules)
        self.config = config
        self._inputs_by_name = {v.name: v for v in self.inputs}
        if len(self._inputs_by_name) != len(self.inputs):
            raise ValueError("input variable names must be unique")
        self._validate_rules()
        self._xs = output.universe.samples(config.resolution)
        if config.kind is EngineKind.MAMDANI:
            self._term_profiles = {
                t.label: t.mf.profile(self._xs) for t in output.terms
            }
        else:
            self._term_profiles = {}

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)

    @property
    def output_name(self) -> str:
        return self.output.name

    @property
    def output_universe(self) -> Universe:
        return self.output.universe

    def _validate_rules(self) -> None:
        if not self.rules:
            raise ValueError("system needs at least one rule")
        for rule in self.rules:
            if len(rule.antecedents) > len(self.inputs):
                raise ValueError(f"rule has more antecedents than inputs: {rule}")
            for name, label in rule.antecedents:
                var = self._inputs_by_name.get(name)
                if var is None:
                    raise ValueError(f"rule references unknown input {name!r}")
                var.term(label)  # raises on unknown label
            if self.config.kind is EngineKind.MAMDANI:
                if not isinstance(rule.consequent, str):
                    raise ValueError("Mamdani rules need a label consequent")
                self.output.term(rule.consequent)
            else:
                if not isinstance(rule.consequent, SugenoConsequent):
                    raise ValueError("Sugeno rules need an affine consequent")
                for name, _ in rule.consequent.coefficients:
                    if name not in self._inputs_by_name:
                        raise ValueError(
                            f"consequent references unknown input {name!r}"
                        )

    def assignments(self, x: Union[Sequence[float], Mapping[str, float]]) -> dict[str, float]:
        """Resolve positional or named inputs to a name -> value mapping.

        Out-of-range values, ±inf included, are clamped to the input's
        universe; NaN is rejected with a ``ValueError`` naming the input.
        """
        if isinstance(x, Mapping):
            unknown = set(x) - set(self.input_names)
            if unknown:
                raise ValueError(f"unknown inputs: {sorted(unknown)}")
            missing = set(self.input_names) - set(x)
            if missing:
                raise ValueError(f"missing inputs: {sorted(missing)}")
            values = [x[name] for name in self.input_names]
        else:
            values = list(x)
            if len(values) != len(self.inputs):
                raise ValueError(
                    f"expected {len(self.inputs)} inputs, got {len(values)}"
                )
        resolved = {}
        for var, value in zip(self.inputs, values):
            value = float(value)
            if math.isnan(value):
                raise ValueError(f"input {var.name!r} is NaN")
            resolved[var.name] = var.universe.clamp(value)
        return resolved

    def fuzzify(self, assignments: Mapping[str, float]) -> dict[str, dict[str, float]]:
        return {
            name: self._inputs_by_name[name].fuzzify(value)
            for name, value in assignments.items()
        }

    def mamdani_aggregate(
        self, x: Union[Sequence[float], Mapping[str, float]]
    ) -> AggregateCurve:
        """Fire all rules, clip consequent terms, and max-combine the curves."""
        if self.config.kind is not EngineKind.MAMDANI:
            raise FuzzyError("aggregation curve only exists for Mamdani systems")
        fuzzified = self.fuzzify(self.assignments(x))
        clip_levels: dict[str, float] = {}
        for rule in self.rules:
            w = firing_strength(rule, fuzzified, self.config.and_op)
            label = rule.consequent
            if w > clip_levels.get(label, 0.0):
                clip_levels[label] = w
        return aggregate_clipped(self._xs, self._term_profiles, clip_levels)

    def sugeno_evaluate(self, x: Union[Sequence[float], Mapping[str, float]]) -> float:
        """Firing-strength-weighted average of the rule consequent values."""
        if self.config.kind is not EngineKind.SUGENO:
            raise FuzzyError("weighted-average evaluation is Sugeno-only")
        assignments = self.assignments(x)
        fuzzified = self.fuzzify(assignments)
        total_w = 0.0
        total_wz = 0.0
        for rule in self.rules:
            w = firing_strength(rule, fuzzified, self.config.and_op)
            if w == 0.0:
                continue
            total_w += w
            total_wz += w * rule.consequent.value(assignments)
        if total_w == 0.0:
            raise EmptyAggregateError("empty aggregate")
        return total_wz / total_w

    def evaluate(self, x: Union[Sequence[float], Mapping[str, float]]) -> float:
        if self.config.kind is EngineKind.MAMDANI:
            return defuzzify(self.mamdani_aggregate(x), self.config.defuzz)
        return self.sugeno_evaluate(x)
