"""Membership functions, linguistic terms, and linguistic variables.

All value types here are immutable and evaluation is pure, so instances can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def _require_finite(value) -> None:
    """Reject a dataclass with a field that is NaN or infinite, naming it."""
    for f in fields(value):
        v = getattr(value, f.name)
        if not math.isfinite(v):
            raise ValueError(f"{type(value).__name__.lower()} needs a finite {f.name}, got {v}")


@dataclass(frozen=True)
class Universe:
    """Closed crisp range a variable lives on."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.lo < self.hi:
            raise ValueError(f"universe needs lo < hi, got [{self.lo}, {self.hi}]")

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def samples(self, resolution: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, resolution)


class _Shape:
    """A membership function evaluated by its class's one formula,
    ``degrees(x, *params)``, whose parameter arrays broadcast with x. The
    compiled kernel calls the same formula with one parameter row per field."""

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def profile(self, x: np.ndarray) -> np.ndarray:
        return self.degrees(np.asarray(x, dtype=float), *self.params)

    def degree(self, x: float) -> float:
        return float(self.profile(x))


@dataclass(frozen=True)
class Triangular(_Shape):
    """Triangle with feet a and c and peak b. An edge foot may coincide with
    the peak, giving a one-sided (shoulder-like) triangle."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _require_finite(self)
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

    @staticmethod
    def degrees(x: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Each edge is 1 from the peak on (x >= b rising, x <= b falling), so
        a foot on the peak is an exact step, and a ramp below 1 elsewhere that
        turns negative past its foot; the lower edge, floored at 0, is the degree."""
        rise = np.where(x >= b, 1.0, (x - a) / np.where(b > a, b - a, 1.0))
        fall = np.where(x <= b, 1.0, (c - x) / np.where(c > b, c - b, 1.0))
        return np.maximum(np.minimum(rise, fall), 0.0)


@dataclass(frozen=True)
class Gaussian(_Shape):
    """Bell curve exp(-(x - mean)^2 / (2 sigma^2)); never reaches zero."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.sigma > 0:
            raise ValueError(f"gaussian needs sigma > 0, got {self.sigma}")

    @staticmethod
    def degrees(x: np.ndarray, mean: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        z = (x - mean) / sigma
        return np.exp(-0.5 * z * z)


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
