"""Mamdani and Sugeno inference engines.

A :class:`FuzzySystem` compiles itself at construction into read-only index
arrays. :meth:`FuzzySystem.evaluate_batch` checks and clamps N rows and runs
that compiled kernel on them; :meth:`FuzzySystem.evaluate` is the same call on
one row. Both are pure and reentrant, so systems can be evaluated from many
threads at once.

``firing_strength``, ``aggregate_clipped`` and ``defuzz_centroid`` compute the
same inference rule by rule. No system calls them; they are the independent
reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

from .membership import LinguisticVariable, MembershipFunction, Universe

__all__ = [
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
]

# Rows per chunk of FuzzySystem.evaluate_batch. Bounds the chunk's working
# arrays, N x rules strengths and N x subsets x labels clip levels (64 x 125
# and 64 x 31 x 5 doubles, under 0.1 MB each), for any batch size.
BATCH_ROWS = 64

# Most label subsets a Mamdani output's centroid tables may hold: all subsets
# of six labels that overlap everywhere, as Gaussians do.
MAX_LABEL_SUBSETS = 63

# Distinct (output terms, universe, resolution) table sets kept for sharing.
CENTROID_CACHE_SIZE = 16

# Clip levels below which a centroid's products may leave the normal range
# of doubles and lose precision, so the kernel scales their rows up first.
SMALL_LEVEL = 2.0 ** -500


class FuzzyError(Exception):
    """Base error for inference failures."""


class EmptyAggregateError(FuzzyError):
    """No rule fired with positive strength, or the curve is identically zero."""


class EngineKind(Enum):
    MAMDANI = "mamdani"
    SUGENO = "sugeno"


@dataclass(frozen=True)
class EngineConfig:
    """Engine kind and the sample count of the output universe. The kind
    fixes the rest: Mamdani conjoins, clips and aggregates by min/min/max and
    takes the centroid (Mamdani & Assilian); Sugeno conjoins by product and
    takes the weighted average (Takagi & Sugeno)."""

    kind: EngineKind
    resolution: int = 1001

    def __post_init__(self) -> None:
        if self.resolution < 101 or self.resolution % 2 == 0:
            raise ValueError(
                f"resolution must be odd and >= 101, got {self.resolution}"
            )

    @staticmethod
    def mamdani(resolution: int = 1001) -> "EngineConfig":
        return EngineConfig(EngineKind.MAMDANI, resolution)

    @staticmethod
    def sugeno(resolution: int = 1001) -> "EngineConfig":
        return EngineConfig(EngineKind.SUGENO, resolution)


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
    rule: Rule, fuzzified: Mapping[str, Mapping[str, float]], kind: EngineKind
) -> float:
    """Conjoin a rule's antecedent degrees: min for Mamdani, product for
    Sugeno."""
    strength = 1.0
    for name, label in rule.antecedents:
        if name not in fuzzified:
            raise FuzzyError(f"no fuzzified value for variable {name!r}")
        degree = fuzzified[name][label]
        if kind is EngineKind.MAMDANI:
            strength = min(strength, degree)
        else:
            strength *= degree
    return strength


@dataclass(frozen=True)
class AggregateCurve:
    """Sampled fuzzy output: uniformly spaced x with degrees in [0, 1]."""

    xs: np.ndarray
    degrees: np.ndarray


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


def _upscale(peaks: np.ndarray) -> np.ndarray:
    """The power of two, from 1 to 2^1023, that takes each nonnegative peak
    to at least 1/2, or as near as it can: a subnormal peak to at least
    2^-51. 1 for a zero peak. Multiplying by it is exact."""
    return np.ldexp(1.0, np.clip(-np.frexp(peaks)[1], 0, 1023))


def defuzz_centroid(curve: AggregateCurve) -> float:
    """Discrete centroid sum(x * mu) / sum(mu) over the uniform samples.

    Trapezoid weights halve the two boundary samples, which keeps the discrete
    centroid equal to the continuous one to O(h^2) even when the curve is
    nonzero at a universe edge.
    """
    # scaled by a power of two, as the kernel does, so that a subnormal curve
    # keeps its precision; the ratio does not change
    weighted = curve.degrees * _upscale(curve.degrees.max())
    weighted[[0, -1]] *= 0.5
    total = float(weighted.sum())
    if total <= 0.0:
        raise EmptyAggregateError("empty aggregate")
    return float(np.dot(curve.xs, weighted) / total)


# the only defuzzifier; callers import it by name, stage tracers hook "defuzzify"
defuzzify = defuzz_centroid


def _freeze(values) -> None:
    """Make every array among ``values``, or in their nested tuples, read-only."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, tuple):
            _freeze(value)


def _label_subsets(profiles: list[np.ndarray]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Every label subset whose minimum profile is nonzero somewhere, with
    that minimum. Such subsets are closed under removing a label, so each is
    found by extending a smaller one with a later label."""
    subsets = [((label,), p) for label, p in enumerate(profiles) if p.any()]
    for members, q in subsets:  # the loop also visits the subsets it appends
        for label in range(members[-1] + 1, len(profiles)):
            overlap = np.minimum(q, profiles[label])
            if overlap.any():
                subsets.append((members + (label,), overlap))
                if len(subsets) > MAX_LABEL_SUBSETS:
                    widest = int((np.array(profiles) > 0.0).sum(axis=0).max())
                    raise ValueError(
                        f"needs at least {max(len(subsets), 2 ** widest - 1)} label "
                        f"subsets for its centroid tables; at most "
                        f"{MAX_LABEL_SUBSETS} are supported (six labels that overlap)"
                    )
    return subsets


class _CentroidTables:
    """The end-weighted centroid of max-aggregated clipped output profiles,
    as lookups in read-only tables.

    The aggregate at sample x_k is max_l min(c_l, P_l(x_k)). The maximum-
    minimums identity writes it as sum over label subsets S of
    (-1)^(|S|+1) min(c_S, Q_S(x_k)), with c_S and Q_S the minimum level and
    minimum profile over S; a subset whose Q_S is zero everywhere drops out.
    So sum_k min(c_S, Q_S(x_k)) and its x-weighted sum, piecewise linear in
    the one threshold c_S, give the centroid's mass and moment exactly.

    Subsets with equal Q_S share one table: its nonzero Q_S values sorted,
    with prefix sums of q and x q and suffix sums of x. Table k sits in the
    flat arrays as complex keys k + q i, which numpy orders by real part and
    then by imaginary part, and ends in a sentinel key k + 2i. So one
    ``np.searchsorted`` of k + c_S i finds, for every subset of every row,
    the index j that splits its table at c_S, comparing c_S with each q
    exactly. The trapezoid halves of the two end samples are subtracted
    afterwards.
    """

    def __init__(
        self, mfs: tuple[MembershipFunction, ...], universe: Universe, resolution: int
    ) -> None:
        xs = universe.samples(resolution)
        subsets = _label_subsets([mf.profile(xs) for mf in mfs])
        table_of: dict[bytes, int] = {}
        table, distinct = [], []
        for _, q in subsets:
            table.append(table_of.setdefault(q.tobytes(), len(table_of)))
            if table[-1] == len(distinct):
                distinct.append(q)
        del table_of  # free its copies before allocating the tables
        # table k fills [starts[k], starts[k + 1]): its nonzero q, then the sentinel
        starts = np.cumsum([0] + [np.count_nonzero(q) + 1 for q in distinct])
        self.keys = np.empty(starts[-1], dtype=complex)
        self.below_q = np.zeros(starts[-1])  # sum of q before each key, in its table
        self.below_xq = np.zeros(starts[-1])  # sum of x q before each key, in its table
        self.above_x = np.zeros(starts[-1])  # sum of x from each key on, in its table
        for k, q in enumerate(distinct):
            order = np.flatnonzero(q)
            order = order[np.argsort(q[order], kind="stable")]
            qs, x = q[order], xs[order]
            first, sentinel = starts[k], starts[k + 1] - 1
            self.keys[first:sentinel + 1] = k + 1j * np.append(qs, 2.0)
            self.below_q[first + 1:sentinel + 1] = np.cumsum(qs)
            self.below_xq[first + 1:sentinel + 1] = np.cumsum(x * qs)
            self.above_x[first:sentinel] = np.cumsum(x[::-1])[::-1]
        # one column per subset; there are none when every label is zero on
        # the universe, which leaves every aggregate empty
        width = max((len(members) for members, _ in subsets), default=1)
        self.members = np.array(  # width x S; a short subset repeats a label
            [members + members[:1] * (width - len(members)) for members, _ in subsets],
            dtype=np.intp,
        ).reshape(-1, width).T
        self.signs = np.array([1.0 if len(members) % 2 else -1.0 for members, _ in subsets])
        self.table = np.array(table, dtype=float)  # the subset's table index k
        self.ends = starts[1:][table] - 1  # the flat index of its table's sentinel
        # 2 x S: Q_S at the first and last sample
        self.q_ends = np.array([[q[0] for _, q in subsets], [q[-1] for _, q in subsets]])
        # 2S x 2: the share of Q_S at the first and last sample in the signed
        # mass and moment, which the trapezoid rule halves
        self.end_weights = 0.5 * np.column_stack(
            (np.tile(self.signs, 2), np.outer(xs[[0, -1]], self.signs).ravel())
        )
        _freeze(vars(self).values())


@functools.lru_cache(maxsize=CENTROID_CACHE_SIZE)
def _centroid_tables(
    mfs: tuple[MembershipFunction, ...], universe: Universe, resolution: int
) -> _CentroidTables:
    """Centroid tables of labels with these membership functions, sampled at
    ``resolution`` points; outputs with equal terms share them."""
    return _CentroidTables(mfs, universe, resolution)


class _CompiledSystem:
    """A system as read-only index arrays, evaluated one chunk of rows at a
    time.

    Terms of all inputs form one flat table of T terms, grouped by shape
    class: each group holds its class's ``degrees`` formula, the degree
    columns and input columns of its terms, and one parameter row per field
    of the shape. Degrees are computed into an N x (T + 1) matrix whose last
    column is the constant 1, so the R x k antecedent matrix pads short rules
    with index T. Mamdani rules are sorted
    by consequent label, so one ``np.maximum.reduceat`` turns rule strengths
    into one clip level per label used, and the output's shared
    :class:`_CentroidTables` turn those into centroids; Sugeno rules keep
    their order, with constants and an R x n slope matrix.
    """

    def __init__(self, system: "FuzzySystem") -> None:
        groups: dict[type, tuple[list, list, list]] = {}
        term_index = {}
        for column, var in enumerate(system.inputs):
            for term in var.terms:
                terms, inputs, params = groups.setdefault(type(term.mf), ([], [], []))
                terms.append(len(term_index))
                inputs.append(column)
                params.append(term.mf.params)
                term_index[var.name, term.label] = terms[-1]
        self.lo = np.array([v.universe.lo for v in system.inputs])
        self.hi = np.array([v.universe.hi for v in system.inputs])
        self.n_terms = len(term_index)
        self.shapes = tuple(
            (shape.degrees, np.array(terms, dtype=np.intp), np.array(inputs, dtype=np.intp),
             tuple(np.array(row, dtype=float) for row in zip(*params)))
            for shape, (terms, inputs, params) in groups.items()
        )

        self.mamdani = system.config.kind is EngineKind.MAMDANI
        rules = list(system.rules)
        if self.mamdani:
            label_index = {label: i for i, label in enumerate(system.output.labels)}
            labels = [label_index[rule.consequent] for rule in rules]
            order = np.argsort(labels, kind="stable")
            rules = [rules[r] for r in order]
            labels = np.array(labels)[order]
            self.label_starts = np.flatnonzero(np.diff(labels, prepend=-1))
            terms = system.output.terms
            try:
                self.tables = _centroid_tables(
                    tuple(terms[label].mf for label in labels[self.label_starts]),
                    system.output.universe, system.config.resolution,
                )
            except ValueError as error:
                raise ValueError(f"output {system.output.name!r} {error}") from None
        else:
            self.output_range = (system.output.universe.lo, system.output.universe.hi)
            names = system.input_names
            self.constants = np.array([rule.consequent.constant for rule in rules])
            self.slopes = np.zeros((len(rules), len(names)))
            for r, rule in enumerate(rules):
                for name, coeff in rule.consequent.coefficients:
                    self.slopes[r, names.index(name)] += coeff
        width = max(len(rule.antecedents) for rule in rules)
        self.antecedents = np.full((len(rules), width), self.n_terms, dtype=np.intp)
        for r, rule in enumerate(rules):
            for j, antecedent in enumerate(rule.antecedents):
                self.antecedents[r, j] = term_index[antecedent]
        # a system may be shared (``build_system`` memoizes), so none of its
        # arrays may change
        _freeze(vars(self).values())

    def fuzzify(self, x: np.ndarray) -> np.ndarray:
        """N x (T + 1) term degrees of clamped rows; the last column is 1."""
        degrees = np.ones((len(x), self.n_terms + 1))
        for formula, terms, inputs, params in self.shapes:
            degrees[:, terms] = formula(x[:, inputs], *params)
        return degrees

    def fire(self, degrees: np.ndarray) -> np.ndarray:
        """N x R rule strengths, conjoined in antecedent order."""
        combine = np.minimum if self.mamdani else np.multiply
        strengths = degrees[:, self.antecedents[:, 0]]
        for j in range(1, self.antecedents.shape[1]):
            combine(strengths, degrees[:, self.antecedents[:, j]], out=strengths)
        return strengths

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Crisp outputs of clamped rows, ``BATCH_ROWS`` at a time."""
        out = np.empty(len(x))
        for start in range(0, len(x), BATCH_ROWS):
            chunk = x[start:start + BATCH_ROWS]
            strengths = self.fire(self.fuzzify(chunk))
            rows = slice(start, start + len(chunk))
            if self.mamdani:
                levels = np.maximum.reduceat(strengths, self.label_starts, axis=1)
                out[rows] = self.centroids(levels)
            else:
                out[rows] = self.weighted_averages(chunk, strengths)
        return out

    def centroids(self, levels: np.ndarray) -> np.ndarray:
        """Clip each used label at its level (N x labels used, in output
        order), max-aggregate, and take the end-weighted centroid of each
        row, as ``defuzz_centroid`` does on the sampled curve, by lookups in
        ``tables``: for each subset S, sum_k min(c_S, Q_S(x_k)) is the sum of
        the table's q below c_S plus c_S once for each q from c_S on."""
        t = self.tables
        c = np.minimum.reduce(levels[:, t.members], axis=1)
        j = np.searchsorted(t.keys, t.table + 1j * c)
        below_q, below_xq = t.below_q[j], t.below_xq[j]
        ends = np.minimum(c[:, None], t.q_ends).reshape(len(c), -1)
        peaks = levels.max(axis=1, initial=0.0)
        if peaks.min() < SMALL_LEVEL:
            # Scale each row by the power of two that takes its highest level
            # to about 1/2. That is exact and leaves the ratio as it is, but
            # keeps the products of subnormal levels from rounding to a few
            # units. The q below c_S sum to at most resolution x c_S, so
            # nothing overflows.
            scale = _upscale(peaks)[:, None]
            c, ends = c * scale, ends * scale
            below_q, below_xq = below_q * scale, below_xq * scale
        mass = below_q + c * (t.ends - j)
        moment = below_xq + c * t.above_x[j]
        # the trapezoid halves of the first and last samples
        halves = ends @ t.end_weights
        totals = mass @ t.signs - halves[:, 0]
        if not (totals > 0.0).all():
            raise EmptyAggregateError("empty aggregate")
        return (moment @ t.signs - halves[:, 1]) / totals

    def weighted_averages(self, x: np.ndarray, strengths: np.ndarray) -> np.ndarray:
        """Strength-weighted average of the affine consequents, clamped to the
        output universe."""
        values = self.constants + x @ self.slopes.T
        totals = strengths.sum(axis=1)
        if not (totals > 0.0).all():
            raise EmptyAggregateError("empty aggregate")
        lo, hi = self.output_range
        return np.minimum(np.maximum((strengths * values).sum(axis=1) / totals, lo), hi)


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
        self.config = config
        self.input_names = tuple(v.name for v in self.inputs)
        self._inputs_by_name = dict(zip(self.input_names, self.inputs))
        if len(self._inputs_by_name) != len(self.inputs):
            raise ValueError("input variable names must be unique")
        self.rules = self._resolve_rules(rules)
        self._compiled = _CompiledSystem(self)

    def _resolve_rules(self, rules: Sequence[Rule]) -> tuple[Rule, ...]:
        """Check each rule against the variables and return the rules with
        the variables' own spelling of every label (see
        ``LinguisticVariable.term``), so compiling looks labels up verbatim.
        Unknown labels raise ``KeyError``."""
        if not rules:
            raise ValueError("system needs at least one rule")
        resolved = []
        for rule in rules:
            if len(rule.antecedents) > len(self.inputs):
                raise ValueError(f"rule has more antecedents than inputs: {rule}")
            antecedents = []
            for name, label in rule.antecedents:
                var = self._inputs_by_name.get(name)
                if var is None:
                    raise ValueError(f"rule references unknown input {name!r}")
                antecedents.append((name, var.term(label).label))
            antecedents = tuple(antecedents)
            consequent = rule.consequent
            if self.config.kind is EngineKind.MAMDANI:
                if not isinstance(consequent, str):
                    raise ValueError("Mamdani rules need a label consequent")
                consequent = self.output.term(consequent).label
            else:
                if not isinstance(consequent, SugenoConsequent):
                    raise ValueError("Sugeno rules need an affine consequent")
                for name, _ in consequent.coefficients:
                    if name not in self._inputs_by_name:
                        raise ValueError(
                            f"consequent references unknown input {name!r}"
                        )
            if (antecedents, consequent) != (rule.antecedents, rule.consequent):
                rule = Rule(antecedents, consequent)
            resolved.append(rule)
        return tuple(resolved)

    def evaluate(self, x: Union[Sequence[float], Mapping[str, float]]) -> float:
        """One decision: ``evaluate_batch`` on the one row ``x``, given by
        position or by name. Named inputs must be exactly ``input_names``."""
        if isinstance(x, Mapping):
            unknown = set(x) - set(self.input_names)
            if unknown:
                raise ValueError(f"unknown inputs: {sorted(unknown)}")
            missing = set(self.input_names) - set(x)
            if missing:
                raise ValueError(f"missing inputs: {sorted(missing)}")
            x = [x[name] for name in self.input_names]
        return float(self.evaluate_batch([x])[0])

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate N rows at once: an N x n_inputs array, columns in
        ``input_names`` order, to N crisp outputs.

        Inputs are clamped to their universes, a NaN or an entry that is not
        a number (``None`` converts to NaN) raises a ``ValueError`` naming its
        input, Sugeno outputs are clamped to the output universe,
        and a row whose aggregate is empty raises ``EmptyAggregateError``.
        Rows are evaluated ``BATCH_ROWS`` at a time.
        """
        rows, x = x, np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(self.inputs):
            raise ValueError(
                f"expected an N x {len(self.inputs)} input array, got shape {x.shape}"
            )
        # a single row is the common case, so scan the whole array for NaN
        # before finding its column, and clamp with maximum/minimum, which
        # cost less than np.clip on small arrays
        if np.isnan(x).any():
            nan = np.isnan(x)
            column = int(np.argmax(nan.any(axis=0)))
            entry = rows[int(np.argmax(nan[:, column]))][column]
            name = self.input_names[column]
            if not isinstance(entry, numbers.Real):
                raise ValueError(f"input {name!r} is not a number: {entry!r}")
            raise ValueError(f"input {name!r} is NaN")
        compiled = self._compiled
        return compiled.evaluate(np.minimum(np.maximum(x, compiled.lo), compiled.hi))
