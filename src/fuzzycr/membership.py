"""Membership functions, linguistic terms, and linguistic variables.

All value types here are immutable and evaluation is pure, so instances can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Universe",
    "Triangular",
    "Gaussian",
    "MembershipFunction",
    "LinguisticTerm",
    "LinguisticVariable",
    "normalize_label",
]

# Minimum membership degree the best-matching term must reach anywhere on the
# universe for a variable to be considered fully covered.
COVERAGE_FLOOR = 0.01
_COVERAGE_SAMPLES = 1001


def normalize_label(text: str) -> str:
    """Canonical key for matching names and labels.

    Case-insensitive; spaces, hyphens, and underscores are interchangeable.
    """
    return text.replace(" ", "").replace("_", "").replace("-", "").lower()


@dataclass(frozen=True)
class Universe:
    """Closed crisp range a variable lives on."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"universe needs lo < hi, got [{self.lo}, {self.hi}]")

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def samples(self, resolution: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, resolution)


def _ramp_up(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Rising edge: 0 below a, 1 at and above b. a == b degenerates to a step."""
    if b > a:
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    return np.where(x >= b, 1.0, 0.0)


def _ramp_down(x: np.ndarray, b: float, c: float) -> np.ndarray:
    """Falling edge: 1 at and below b, 0 above c. b == c degenerates to a step."""
    if c > b:
        return np.clip((c - x) / (c - b), 0.0, 1.0)
    return np.where(x <= b, 1.0, 0.0)


@dataclass(frozen=True)
class Triangular:
    """Triangle with feet a and c and peak b. An edge foot may coincide with
    the peak, giving a one-sided (shoulder-like) triangle."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c):
            raise ValueError(f"triangular needs a <= b <= c, got {self}")
        if self.a == self.c:
            raise ValueError(f"triangular is degenerate to a point: {self}")

    @property
    def peak(self) -> float:
        return self.b

    @property
    def ramp_width(self) -> float:
        """Widest distance from the peak to a foot."""
        return max(self.b - self.a, self.c - self.b)

    def profile(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(_ramp_up(x, self.a, self.b), _ramp_down(x, self.b, self.c))

    def degree(self, x: float) -> float:
        return float(self.profile(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class Gaussian:
    """Bell curve exp(-(x - mean)^2 / (2 sigma^2)); never reaches zero."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"gaussian needs sigma > 0, got {self.sigma}")

    def profile(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.mean) / self.sigma
        return np.exp(-0.5 * z * z)

    def degree(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return math.exp(-0.5 * z * z)


MembershipFunction = Union[Triangular, Gaussian]


@dataclass(frozen=True)
class LinguisticTerm:
    """A labelled membership function inside a variable."""

    label: str
    mf: MembershipFunction


@dataclass(frozen=True)
class LinguisticVariable:
    """Named variable over a universe, partitioned into labelled terms.

    Terms must jointly cover the universe: at every point the best-matching
    term reaches at least ``COVERAGE_FLOOR``.
    """

    name: str
    universe: Universe
    terms: tuple[LinguisticTerm, ...]
    _index: dict[str, LinguisticTerm] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if len(self.terms) < 2:
            raise ValueError(f"variable {self.name!r} needs at least 2 terms")
        index: dict[str, LinguisticTerm] = {}
        for term in self.terms:
            key = normalize_label(term.label)
            if key in index:
                raise ValueError(f"duplicate label {term.label!r} in {self.name!r}")
            index[key] = term
        object.__setattr__(self, "_index", index)
        xs = self.universe.samples(_COVERAGE_SAMPLES)
        best = np.max([t.mf.profile(xs) for t in self.terms], axis=0)
        if best.min() < COVERAGE_FLOOR:
            hole = xs[int(np.argmin(best))]
            raise ValueError(
                f"variable {self.name!r} leaves a coverage hole near x={hole:g}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def term(self, label: str) -> LinguisticTerm:
        """Look up a term; label matching is case/underscore/space-insensitive."""
        try:
            return self._index[normalize_label(label)]
        except KeyError:
            raise KeyError(
                f"variable {self.name!r} has no label {label!r}; "
                f"valid labels: {', '.join(self.labels)}"
            ) from None

    def fuzzify(self, x: float) -> dict[str, float]:
        """Degrees of every term at x. Values outside the universe are clamped."""
        cx = self.universe.clamp(x)
        return {t.label: t.mf.degree(cx) for t in self.terms}
