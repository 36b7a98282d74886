"""Mamdani and Sugeno inference engines.

A :class:`FuzzySystem` takes its kind from its rules' consequents, binds
them with :func:`bind_rule`, as the rule parser does, and compiles them at
construction into read-only index arrays. :meth:`FuzzySystem.evaluate_batch`
checks and clamps N rows and runs its private kernel on them, term-major:
every working array holds one term, rule, label or label subset per row and
one input row per column, so each gather copies whole rows.
:meth:`FuzzySystem.evaluate` is the same call on one row. Both are pure and
reentrant, so systems can be evaluated from many threads at once.

``firing_strength``, ``aggregate_clipped`` and ``defuzz_centroid`` compute the
same inference rule by rule. No system calls them; they are the independent
reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .membership import (LinguisticVariable, MembershipFunction, Universe, is_finite_number,
                         normalize_label)

__all__ = [
    "EngineKind",
    "check_resolution",
    "SugenoConsequent",
    "Rule",
    "input_index",
    "bind_rule",
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
# arrays, rules x N strengths and labels x subsets x N clip levels (125 x 128
# and 5 x 31 x 128 doubles, about 0.13 MB and 0.16 MB), for any batch size.
BATCH_ROWS = 128

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
    """No rule fired with positive strength, or the curve is identically zero,
    first at index ``row`` of the batch; one row is row 0."""

    def __init__(self, row: int = 0) -> None:
        super().__init__("empty aggregate")
        self.row = row


class EngineKind(Enum):
    """How a system infers, as its consequents say. Mamdani (label consequents)
    conjoins, clips and aggregates by min/min/max and takes the centroid
    (Mamdani & Assilian); Sugeno (affine consequents) conjoins by product and
    takes the weighted average (Takagi & Sugeno)."""

    MAMDANI = "mamdani"
    SUGENO = "sugeno"


def check_resolution(resolution: int) -> int:
    """``resolution``, a Mamdani output's sample count, if an odd int >= 101."""
    if not isinstance(resolution, numbers.Integral) or isinstance(resolution, bool):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 101 or resolution % 2 == 0:
        raise ValueError(f"resolution must be odd and >= 101, got {resolution}")
    return resolution


def _is_named(value) -> bool:
    """Whether ``value`` is a 2-tuple whose first item, a name, is a str."""
    return isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], str)


@dataclass(frozen=True)
class SugenoConsequent:
    """Affine consequent: constant plus per-input slopes keyed by input name.

    Missing inputs contribute no slope, so an empty mapping is the constant
    consequent.
    """

    constant: float
    coefficients: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not is_finite_number(self.constant):
            raise ValueError(f"Sugeno constant must be a finite number, got {self.constant!r}")
        for i, pair in enumerate(self.coefficients):
            if not (_is_named(pair) and is_finite_number(pair[1])):
                raise ValueError(f"coefficient must be a (name, finite number) pair, got {pair!r}")
            if pair[0] in dict(self.coefficients[:i]):
                raise ValueError(f"consequent repeats a coefficient for {pair[0]!r}")


Consequent = Union[str, SugenoConsequent]


@dataclass(frozen=True, eq=True)
class Rule:
    """Conjunction of (variable, label) antecedents with one consequent."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: Consequent

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise ValueError("rule needs at least one antecedent")
        for pair in self.antecedents:
            if not (_is_named(pair) and isinstance(pair[1], str)):
                raise ValueError(f"antecedent must be a (name, label) pair of str, got {pair!r}")
        names = [name for name, _ in self.antecedents]
        if len(set(names)) != len(names):
            raise ValueError(f"variable {max(names, key=names.count)!r} appears twice in one rule")
        if not isinstance(self.consequent, (str, SugenoConsequent)):
            raise ValueError(
                f"rule consequent must be a label or SugenoConsequent, got {self.consequent!r}"
            )

    @staticmethod
    def of(antecedents: Mapping[str, str], consequent: Consequent) -> "Rule":
        return Rule(tuple(antecedents.items()), consequent)


def input_index(inputs: Sequence[LinguisticVariable]) -> dict[str, LinguisticVariable]:
    """Each input under its name and its ``normalize_label`` key, for
    ``bind_rule``; two names with one key are a ``ValueError``."""
    index = {normalize_label(var.name): var for var in inputs}
    if len(index) != len(inputs):
        raise ValueError("input variable names must be unique")
    return {**index, **{var.name: var for var in inputs}}


def _bound_input(inputs: Mapping[str, LinguisticVariable], name: str) -> LinguisticVariable:
    """The input ``name`` matches in ``inputs``, an ``input_index``."""
    var = inputs.get(name) or inputs.get(normalize_label(name))
    if var is None:
        known = ", ".join(dict.fromkeys(v.name for v in inputs.values()))
        raise ValueError(f"unknown input variable {name!r}; bound inputs: {known}")
    return var


def bind_rule(
    rule: Rule, inputs: Mapping[str, LinguisticVariable], output: LinguisticVariable
) -> Rule:
    """``rule`` in its variables' own spelling. Input names, in antecedents
    and in a ``SugenoConsequent``'s coefficients, match in ``inputs``, an
    ``input_index``, as labels do in ``LinguisticVariable.term``: exact first,
    then by ``normalize_label``. An unknown name or a repeated variable is a
    ``ValueError``, an unknown label a ``KeyError``."""
    antecedents = []
    for name, label in rule.antecedents:
        var = _bound_input(inputs, name)
        antecedents.append((var.name, var.term(label).label))
    consequent = rule.consequent
    if isinstance(consequent, str):
        consequent = output.term(consequent).label
    elif consequent.coefficients:
        coefficients = tuple((_bound_input(inputs, n).name, c) for n, c in consequent.coefficients)
        consequent = SugenoConsequent(consequent.constant, coefficients)
    bound = (tuple(antecedents), consequent)
    # a rule already in its variables' spelling passed the checks as it is
    return rule if bound == (rule.antecedents, rule.consequent) else Rule(*bound)


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
        raise EmptyAggregateError()
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
        raise EmptyAggregateError()
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
    With w_k the trapezoid weight, 1/2 at the first and last sample and 1
    elsewhere, sum_k w_k min(c_S, Q_S(x_k)) and its x-weighted sum, piecewise
    linear in the one threshold c_S, give the centroid's mass and moment
    exactly.

    Subsets with equal Q_S share one table: its nonzero Q_S values sorted,
    then a sentinel slot, with prefix sums of w x q and w q in ``below`` and
    suffix sums of w x and w in ``above``. The tables lie end to end in those
    two 2 x E arrays, a moment row over a mass row, so one gather at j reads
    a table's moment and mass terms together. The index j that splits table
    k at c_S is start[k] plus the count of its q below c_S. Every q is in
    ``q_levels``, the sorted distinct nonzero q of all tables, so q < c holds
    exactly when q < q_levels[r], with r = searchsorted(q_levels, c) the rank
    of c; ``split`` holds that j for every table and rank, the last rank of a
    table giving its sentinel. And since the rank is monotone, the rank of
    c_S is the least rank of its labels' levels: each row searches its label
    levels once, not its subset minimums, and every comparison is between
    floats, so j is exact.
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
        w = np.ones(resolution)
        w[[0, -1]] = 0.5
        wx = w * xs
        # a moment row over a mass row: sums of w x q and w q before each
        # entry, and of w x and w from each entry on, in its table
        self.below = np.zeros((2, starts[-1]))
        self.above = np.zeros((2, starts[-1]))
        below_wxq, below_wq = self.below
        above_wx, above_w = self.above
        # sorted with the repeats masked out. np.unique would import numpy.ma,
        # and np.sort's default kind would page in about 0.25 MB of SIMD sort
        # code that nothing else uses; the tables' stable argsort is resident.
        q_levels = np.concatenate([np.empty(0), *(q[q > 0.0] for q in distinct)])
        q_levels = q_levels[np.argsort(q_levels, kind="stable")]
        keep = np.ones(len(q_levels), dtype=bool)
        np.not_equal(q_levels[1:], q_levels[:-1], out=keep[1:])
        self.q_levels = q_levels[keep]
        # split[k * ranks + r] = start[k] + count of table k's q below
        # q_levels[r]; the last rank, past every level, gives the sentinel
        ranks = len(self.q_levels) + 1
        bounds = np.append(self.q_levels, np.inf)
        self.split = np.empty(len(distinct) * ranks, dtype=np.intp)
        for k, q in enumerate(distinct):
            order = np.flatnonzero(q)
            order = order[np.argsort(q[order], kind="stable")]
            qs = q[order]
            first, sentinel = starts[k], starts[k + 1] - 1
            below_wq[first + 1:sentinel + 1] = np.cumsum(w[order] * qs)
            below_wxq[first + 1:sentinel + 1] = np.cumsum(wx[order] * qs)
            above_w[first:sentinel] = np.cumsum(w[order][::-1])[::-1]
            above_wx[first:sentinel] = np.cumsum(wx[order][::-1])[::-1]
            self.split[k * ranks:(k + 1) * ranks] = first + np.searchsorted(qs, bounds)
        # one column per subset; there are none when every label is zero on
        # the universe, which leaves every aggregate empty
        width = max((len(members) for members, _ in subsets), default=1)
        self.members = np.array(  # width x S; a short subset repeats a label
            [members + members[:1] * (width - len(members)) for members, _ in subsets],
            dtype=np.intp,
        ).reshape(-1, width).T.copy()
        self.signs = np.array([1.0 if len(members) % 2 else -1.0 for members, _ in subsets])
        self.rank_rows = np.array(table, dtype=np.intp)[:, None] * ranks  # S x 1: table in split
        _freeze(vars(self).values())

    def split_at(self, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For clip levels (labels used x N), each subset's minimum level c_S
        and the index j that splits its table at c_S, both S x N."""
        c = np.minimum.reduce(levels.take(self.members, axis=0), axis=0)
        ranks = self.q_levels.searchsorted(levels).take(self.members, axis=0)
        return c, self.split[self.rank_rows + np.minimum.reduce(ranks, axis=0)]


@functools.lru_cache(maxsize=CENTROID_CACHE_SIZE)
def _centroid_tables(
    mfs: tuple[MembershipFunction, ...], universe: Universe, resolution: int
) -> _CentroidTables:
    """Centroid tables of labels with these membership functions, sampled at
    ``resolution`` points; outputs with equal terms share them."""
    return _CentroidTables(mfs, universe, resolution)


class FuzzySystem:
    """Inputs, output and rules, compiled at construction into read-only arrays.

    Label consequents make a Mamdani ``kind``, ``SugenoConsequent``s a Sugeno
    one; a mix is rejected. Only Mamdani systems sample their output, at
    ``resolution`` points, and need ``output`` to be a full linguistic
    variable; Sugeno systems read only its name and universe. ``rules`` keeps
    the caller's order, each rule as ``bind_rule`` returns it.

    The kernel is term-major: a chunk of N input rows enters as its n x N
    transpose, and every working array has one term, rule, label or subset
    per row. Terms of all inputs form one flat table of T terms, numbered
    group by group by shape class: each group holds its class's ``degrees``
    formula, the input rows of its terms, and one parameter column per field
    of the shape. Degrees fill a (T + 1) x N matrix, the groups in order and
    then a row of constant 1, so the k x R antecedent matrix, one row per
    antecedent position, pads short rules with index T. Column r, and so
    strength row r, is ``rules[r]`` for both kinds. For Mamdani, one gather of
    rule strengths through an L x m block that lists each used label's rule
    positions, padded with its first, and one max give one clip level per
    label used, and the output's shared :class:`_CentroidTables` turn those
    into centroids; Sugeno has R x 1 constants and an R x n slope matrix.
    """

    def __init__(
        self,
        inputs: Sequence[LinguisticVariable],
        output: LinguisticVariable,
        rules: Sequence[Rule],
        resolution: int = 1001,
    ) -> None:
        self.inputs = tuple(inputs)
        self.output = output
        self.resolution = check_resolution(resolution)
        self.input_names = tuple(v.name for v in self.inputs)
        self._names = frozenset(self.input_names)
        index = input_index(self.inputs)
        if not rules:
            raise ValueError("system needs at least one rule")
        mamdani = isinstance(rules[0].consequent, str)
        if any(isinstance(rule.consequent, str) != mamdani for rule in rules):
            raise ValueError("rules mix label and affine consequents")
        self.kind = EngineKind.MAMDANI if mamdani else EngineKind.SUGENO
        rules = tuple(bind_rule(rule, index, output) for rule in rules)

        groups: dict[type, tuple[list, list, list]] = {}
        for column, var in enumerate(self.inputs):
            for term in var.terms:
                keys, columns, params = groups.setdefault(type(term.mf), ([], [], []))
                keys.append((var.name, term.label))
                columns.append(column)
                params.append(term.mf.params)
        # numbered group by group, so each group's degrees are consecutive rows
        term_index = {key: t for t, key in enumerate(key for g in groups.values() for key in g[0])}
        self._lo = np.array([v.universe.lo for v in self.inputs])
        self._hi = np.array([v.universe.hi for v in self.inputs])
        self._n_terms = len(term_index)
        self._shapes = tuple(
            (shape.degrees, np.array(columns, dtype=np.intp),
             tuple(np.array(row, dtype=float)[:, None] for row in zip(*params)))
            for shape, (_, columns, params) in groups.items()
        )
        self._ones = np.ones((1, BATCH_ROWS))

        width = max(len(rule.antecedents) for rule in rules)  # the longest rule's
        antecedents = np.full((len(rules), width), self._n_terms, dtype=np.intp)
        for r, rule in enumerate(rules):
            antecedents[r, :len(rule.antecedents)] = [term_index[a] for a in rule.antecedents]
        self._antecedents = antecedents.T.copy()  # k x R, column r is rules[r]
        if mamdani:
            label_index = {label: i for i, label in enumerate(output.labels)}
            positions: dict[int, list[int]] = {}  # label index: positions of its rules
            for r, rule in enumerate(rules):
                positions.setdefault(label_index[rule.consequent], []).append(r)
            used = sorted(positions)  # the labels rules use, in output order
            rows = [positions[i] for i in used]
            m = max(map(len, rows))
            # L x m: each used label's rule positions, padded with its first
            self._label_rows = np.array([p + p[:1] * (m - len(p)) for p in rows], dtype=np.intp)
            mfs = tuple(output.terms[label].mf for label in used)
            try:
                self._tables = _centroid_tables(mfs, output.universe, self.resolution)
            except ValueError as error:
                raise ValueError(f"output {output.name!r} {error}") from None
        else:
            self._constants = np.array([[rule.consequent.constant] for rule in rules], dtype=float)
            slopes = [dict(rule.consequent.coefficients) for rule in rules]
            self._slopes = np.array(  # R x n, 0 where a rule names no slope
                [[s.get(name, 0.0) for name in self.input_names] for s in slopes], dtype=float)
            self._affine = bool(self._slopes.any())
        # a system may be shared (``build_system`` memoizes): freeze every array
        _freeze(vars(self).values())
        self.rules = rules  # set last, as freezing need not walk it

    def evaluate(self, x: Union[Sequence[float], Mapping[str, float]]) -> float:
        """One decision: ``evaluate_batch`` on the one row ``x``, given by
        position or by name. Named inputs must be exactly ``input_names``."""
        if isinstance(x, Mapping):
            if x.keys() != self._names:
                unknown = set(x) - self._names
                if unknown:
                    raise ValueError(f"unknown inputs: {sorted(unknown, key=repr)}")
                missing = self._names - set(x)
                if missing:
                    raise ValueError(f"missing inputs: {sorted(missing)}")
            x = [x[name] for name in self.input_names]
        return float(self.evaluate_batch([x])[0])

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate N rows at once: an N x n_inputs array, columns in
        ``input_names`` order, to N crisp outputs.

        Inputs are clamped to their universes, a NaN or an entry that is not
        a ``numbers.Real`` (``None``, or a string numpy would parse) raises a
        ``ValueError`` naming its input, Sugeno outputs are clamped to the
        output universe, and an empty aggregate raises ``EmptyAggregateError``
        naming the first row that has one; rows run ``BATCH_ROWS`` at a time.
        """
        rows, x = x, np.asarray(x)
        if x.ndim != 2 or x.shape[1] != len(self.inputs):
            raise ValueError(
                f"expected an N x {len(self.inputs)} input array, got shape {x.shape}"
            )
        if x.dtype.kind not in "biuf":
            # strings, bytes, complex or objects: a non-real entry reads as NaN, named below
            rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
            x = np.array([[v if isinstance(v, numbers.Real) else np.nan for v in row]
                          for row in rows], dtype=float)
        # a single row is the common case, so scan the whole array for NaN
        # before finding its column, and clamp with maximum/minimum, which
        # cost less than np.clip on small arrays and give float64 from any real dtype
        if np.logical_or.reduce(np.isnan(x), axis=None):
            nan = np.isnan(x)
            column = int(np.argmax(nan.any(axis=0)))
            entry = rows[int(np.argmax(nan[:, column]))][column]
            name = self.input_names[column]
            if not isinstance(entry, numbers.Real):
                raise ValueError(f"input {name!r} is not a number: {entry!r}")
            raise ValueError(f"input {name!r} is NaN")
        x = np.minimum(np.maximum(x, self._lo), self._hi)
        out = np.empty(len(x))
        for start in range(0, len(x), BATCH_ROWS):
            chunk = np.ascontiguousarray(x[start:start + BATCH_ROWS].T)
            strengths = self._fire(self._fuzzify(chunk))
            if self.kind is EngineKind.MAMDANI:
                weighted, totals = self._centroids(self._clip_levels(strengths))
            else:
                weighted, totals = self._weighted_averages(chunk, strengths)
            if not np.minimum.reduce(totals) > 0.0:
                raise EmptyAggregateError(start + int(np.argmin(totals > 0.0)))
            np.divide(weighted, totals, out=out[start:start + BATCH_ROWS])
        if self.kind is EngineKind.SUGENO:
            np.minimum(np.maximum(out, self.output.universe.lo), self.output.universe.hi, out=out)
        return out

    # A chunk's time is mostly numpy's fixed cost per call. So the kernel's
    # index arrays and tables are C-contiguous, gathers along an axis ``take``
    # whole rows into contiguous copies, and reductions call a ufunc's
    # ``reduce``, not the array methods, which add Python-level wrappers.
    def _fuzzify(self, x: np.ndarray) -> np.ndarray:
        """(T + 1) x N term degrees of clamped inputs, n x N (N <= BATCH_ROWS);
        the last row is 1."""
        return np.concatenate(
            [formula(x.take(rows, axis=0), *params) for formula, rows, params in self._shapes]
            + [self._ones[:, :x.shape[1]]]
        )

    def _fire(self, degrees: np.ndarray) -> np.ndarray:
        """R x N rule strengths, conjoined in antecedent order."""
        combine = np.minimum if self.kind is EngineKind.MAMDANI else np.multiply
        strengths = degrees.take(self._antecedents[0], axis=0)
        for terms in self._antecedents[1:]:
            combine(strengths, degrees.take(terms, axis=0), out=strengths)
        return strengths

    def _clip_levels(self, strengths: np.ndarray) -> np.ndarray:
        """L x N clip levels, the strongest of R x N Mamdani rule strengths per
        used label: one padded gather and one max, cheaper than reduceat."""
        return np.maximum.reduce(strengths.take(self._label_rows, axis=0), axis=1)

    def _centroids(self, levels: np.ndarray) -> np.ndarray:
        """Clip each used label at its level (labels used x N, in output
        order), max-aggregate, and give each column's moment and mass, 2 x N,
        whose ratio is the end-weighted centroid ``defuzz_centroid`` takes of
        the sampled curve, by lookups in ``_tables``: for each subset S,
        sum_k w_k min(c_S, Q_S(x_k)) is the sum of the table's w q below c_S
        plus c_S times the sum of w from c_S on, and the moment likewise with
        w x. One gather takes both rows of a table, 2 x S x N."""
        t = self._tables
        c, j = t.split_at(levels)
        below = t.below.take(j, axis=1)
        peaks = np.maximum.reduce(levels, axis=0, initial=0.0)
        if np.minimum.reduce(peaks) < SMALL_LEVEL:
            # Scale each column by the power of two that takes its highest level
            # to about 1/2. That is exact and leaves the ratio as it is, but
            # keeps the products of subnormal levels from rounding to a few
            # units. The q below c_S sum to at most resolution x c_S, so
            # nothing overflows.
            scale = _upscale(peaks)
            c, below = c * scale, below * scale
        return t.signs @ (below + c * t.above.take(j, axis=1))

    def _weighted_averages(
        self, x: np.ndarray, strengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The strength-weighted sum of the affine consequents at inputs
        x (n x N), and the sum of strengths. All-zero slopes, as in every
        standard Sugeno system, add exactly zero (c + 0.0 == c), so their
        matrix product, a BLAS call per chunk, is skipped."""
        values = self._constants
        if self._affine:
            values = values + self._slopes @ x
        return np.add.reduce(strengths * values, axis=0), np.add.reduce(strengths, axis=0)
