import dataclasses
import re
import types

import numpy as np
import pytest

from fuzzycr.engine import (
    AggregateCurve,
    EmptyAggregateError,
    EngineKind,
    FuzzyError,
    FuzzySystem,
    Rule,
    SugenoConsequent,
    aggregate_clipped,
    check_resolution,
    defuzz_centroid,
    firing_strength,
)
from fuzzycr.analysis import VariantId, build_system
from fuzzycr.catalog import DecisionId, standard_catalog
from fuzzycr.membership import LinguisticTerm, LinguisticVariable, Triangular, Universe

U = Universe(0, 100)


def trimf(xs, a, b, c):
    """Independent triangle oracle for curve comparisons."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    if b > a:
        rising = (xs >= a) & (xs < b)
        out[rising] = (xs[rising] - a) / (b - a)
    if c > b:
        falling = (xs >= b) & (xs <= c)
        out[falling] = (c - xs[falling]) / (c - b)
    out[xs == b] = 1.0
    return out


def make_input():
    return LinguisticVariable(
        "x",
        U,
        (
            LinguisticTerm("Lo", Triangular(0, 0, 100)),
            LinguisticTerm("Hi", Triangular(0, 100, 100)),
        ),
    )


def make_output():
    terms = (
        LinguisticTerm("Bottom", Triangular(0, 0, 25)),
        LinguisticTerm("Wide", Triangular(0, 50, 100)),
        LinguisticTerm("Mid", Triangular(25, 50, 75)),
        LinguisticTerm("Top", Triangular(75, 100, 100)),
    )
    return LinguisticVariable("y", U, terms)


def mamdani_system(rules, resolution=1001):
    return FuzzySystem([make_input()], make_output(), rules, resolution)


class TestFiringStrength:
    def test_min(self):
        rule = Rule.of({"a": "X", "b": "Y"}, "Z")
        fuzzified = {"a": {"X": 0.8}, "b": {"Y": 0.3}}
        assert firing_strength(rule, fuzzified, EngineKind.MAMDANI) == pytest.approx(0.3)

    def test_product(self):
        rule = Rule.of({"a": "X", "b": "Y"}, "Z")
        fuzzified = {"a": {"X": 0.8}, "b": {"Y": 0.3}}
        assert firing_strength(rule, fuzzified, EngineKind.SUGENO) == pytest.approx(0.24)

    def test_single_antecedent_identity(self):
        rule = Rule.of({"a": "X"}, "Z")
        fuzzified = {"a": {"X": 1.0}}
        assert firing_strength(rule, fuzzified, EngineKind.MAMDANI) == 1.0
        assert firing_strength(rule, fuzzified, EngineKind.SUGENO) == 1.0

    def test_missing_variable_named_in_error(self):
        rule = Rule.of({"a": "X", "missing_one": "Y"}, "Z")
        with pytest.raises(FuzzyError, match="missing_one"):
            firing_strength(rule, {"a": {"X": 1.0}}, EngineKind.MAMDANI)


def oracle_centroid(degrees):
    """Centroid of a ``trimf`` oracle curve on the system's output samples."""
    return defuzz_centroid(AggregateCurve(U.samples(1001), degrees))


class TestMamdaniAggregation:
    # each expected value is the centroid of a curve built from the trimf
    # oracle, never from the engine's own profiles
    xs = U.samples(1001)

    def test_single_rule_full_strength_is_the_sampled_triangle(self):
        system = mamdani_system([Rule.of({"x": "Lo"}, "Bottom")])
        expected = oracle_centroid(trimf(self.xs, 0, 0, 25))
        assert expected == pytest.approx(25 / 3, abs=1e-3)
        assert system.evaluate([0.0]) == pytest.approx(expected, abs=1e-9)  # Lo degree 1

    def test_half_strength_clips_flat_top(self):
        system = mamdani_system([Rule.of({"x": "Lo"}, "Bottom")])
        expected = oracle_centroid(np.minimum(0.5, trimf(self.xs, 0, 0, 25)))
        # the flat top moves the centroid right of the unclipped triangle's
        assert expected > oracle_centroid(trimf(self.xs, 0, 0, 25)) + 1.0
        assert system.evaluate([50.0]) == pytest.approx(expected, abs=1e-9)  # Lo degree 0.5

    def test_two_rules_combine_pointwise_max(self):
        system = mamdani_system(
            [Rule.of({"x": "Lo"}, "Bottom"), Rule.of({"x": "Lo"}, "Wide")]
        )
        bottom, wide = trimf(self.xs, 0, 0, 25), trimf(self.xs, 0, 50, 100)
        expected = oracle_centroid(np.maximum(bottom, wide))
        # the two terms overlap, so a sum would give another centroid
        assert abs(expected - oracle_centroid(bottom + wide)) > 1.0
        assert system.evaluate([0.0]) == pytest.approx(expected, abs=1e-9)  # both fire at 1

    def test_no_rule_fires_raises_empty_aggregate(self):
        system = mamdani_system([Rule.of({"x": "Hi"}, "Mid")])
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            system.evaluate([0.0])  # Hi degree 0 at x=0

    def test_raising_a_clip_level_never_lowers_the_curve(self):
        xs = U.samples(501)
        profiles = {
            "A": trimf(xs, 0, 25, 50),
            "B": trimf(xs, 25, 50, 75),
            "C": trimf(xs, 50, 75, 100),
        }
        rng = np.random.default_rng(7)
        for _ in range(50):
            levels = {k: float(v) for k, v in zip(profiles, rng.uniform(0.05, 1, 3))}
            raised = dict(levels)
            bump = rng.choice(list(profiles))
            raised[bump] = min(1.0, levels[bump] + float(rng.uniform(0, 0.5)))
            low = aggregate_clipped(xs, profiles, levels)
            high = aggregate_clipped(xs, profiles, raised)
            assert np.all(high.degrees >= low.degrees - 1e-15)


class TestSugeno:
    def make_system(self, consequents):
        rules = [
            Rule.of({"x": "Lo"}, consequents[0]),
            Rule.of({"x": "Hi"}, consequents[1]),
        ]
        return FuzzySystem([make_input()], make_output(), rules)

    def test_equal_weights_average(self):
        system = self.make_system(
            [SugenoConsequent(0.0), SugenoConsequent(100.0)]
        )
        assert system.evaluate([50.0]) == pytest.approx(50.0)

    def test_single_fired_rule_normalizes_weight_out(self):
        rules = [Rule.of({"x": "Lo"}, SugenoConsequent(40.0))]
        system = FuzzySystem([make_input()], make_output(), rules)
        # the only rule fires at 0.3; its weight cancels in the average
        assert system.evaluate([70.0]) == pytest.approx(40.0)

    def test_matches_independent_weighted_average(self):
        system = self.make_system(
            [SugenoConsequent(30.0), SugenoConsequent(70.0)]
        )
        for x in np.linspace(0, 100, 21):
            lo, hi = 1 - x / 100, x / 100
            expected = (lo * 30 + hi * 70) / (lo + hi)
            assert system.evaluate([float(x)]) == pytest.approx(expected)
            # convex combination of fired consequents
            assert 30 - 1e-9 <= system.evaluate([float(x)]) <= 70 + 1e-9

    def test_scaling_all_weights_leaves_output_unchanged(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.01, 1.0, 6)
        values = rng.uniform(0, 100, 6)
        base = np.dot(weights, values) / weights.sum()
        for k in (1e-6, 0.5, 3.7, 1e6):
            scaled = np.dot(k * weights, values) / (k * weights).sum()
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_affine_consequent_uses_inputs(self):
        rules = [
            Rule.of({"x": "Lo"}, SugenoConsequent(10.0, (("x", 0.5),))),
            Rule.of({"x": "Hi"}, SugenoConsequent(10.0, (("x", 0.5),))),
        ]
        system = FuzzySystem([make_input()], make_output(), rules)
        assert system.evaluate([40.0]) == pytest.approx(10 + 0.5 * 40)

    def test_zero_coefficient_affine_equals_constant(self):
        constant = self.make_system(
            [SugenoConsequent(12.5), SugenoConsequent(87.5)]
        )
        affine = self.make_system(
            [SugenoConsequent(12.5, (("x", 0.0),)), SugenoConsequent(87.5, (("x", 0.0),))]
        )
        # a zero slope adds exactly zero to the constant
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 100, 200):
            assert constant.evaluate([x]) == affine.evaluate([x])

    def test_all_zero_weights_raise(self):
        rules = [Rule.of({"x": "Hi"}, SugenoConsequent(50.0))]
        system = FuzzySystem([make_input()], make_output(), rules)
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            system.evaluate([0.0])


class TestSystemValidation:
    def test_resolution_must_be_odd_and_large(self):
        assert check_resolution(101) == 101
        for resolution in (99, 100, 1000):
            with pytest.raises(ValueError, match=f"odd and >= 101, got {resolution}"):
                check_resolution(resolution)
        with pytest.raises(ValueError, match="odd and >= 101, got 1000"):
            mamdani_system([Rule.of({"x": "Lo"}, "Mid")], resolution=1000)

    @pytest.mark.parametrize("rules", [[], ()])
    def test_a_system_needs_a_rule(self, rules):
        with pytest.raises(ValueError, match="system needs at least one rule"):
            FuzzySystem([make_input()], make_output(), rules)

    def test_rule_arity_capped_by_inputs(self):
        rule = Rule.of({"x": "Lo", "z": "Hi"}, "Mid")
        with pytest.raises(ValueError, match="unknown input variable 'z'"):
            mamdani_system([rule])

    def test_unknown_labels_rejected(self):
        with pytest.raises(KeyError):
            mamdani_system([Rule.of({"x": "Nope"}, "Mid")])
        with pytest.raises(KeyError):
            mamdani_system([Rule.of({"x": "Lo"}, "Nope")])

    def test_consequents_choose_the_kind(self):
        label, affine = Rule.of({"x": "Lo"}, "Mid"), Rule.of({"x": "Hi"}, SugenoConsequent(5.0))
        for rules, kind in (([label], EngineKind.MAMDANI), ([affine], EngineKind.SUGENO)):
            assert FuzzySystem([make_input()], make_output(), rules).kind is kind
        for rules in ([label, affine], [affine, label]):
            with pytest.raises(ValueError, match="mix label and affine consequents"):
                FuzzySystem([make_input()], make_output(), rules)

    @pytest.mark.parametrize("consequent", [5.0, 5, None, ("Mid",)])
    def test_consequent_must_be_a_label_or_affine(self, consequent):
        with pytest.raises(ValueError, match="label or SugenoConsequent, got"):
            Rule.of({"x": "Lo"}, consequent)

    @pytest.mark.parametrize("label", [5, None])
    def test_antecedent_labels_must_be_strings(self, label):
        # 5 used to fail later, in normalize_label; None was accepted
        with pytest.raises(ValueError, match=r"antecedent must be a \(name, label\) pair"):
            Rule.of({"x": label}, "Mid")

    def test_sugeno_constant_must_be_a_number(self):
        # "1" used to fail inside numpy's isfinite with a TypeError
        with pytest.raises(ValueError, match="Sugeno constant must be a finite number, got '1'"):
            SugenoConsequent("1")
        with pytest.raises(ValueError, match=r"coefficient must be a \(name, finite number\) pair"):
            SugenoConsequent(0.0, (("x", "1"),))

    @pytest.mark.parametrize("resolution", [1001.0, 1003.0, "1001", True])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match=f"must be an integer, got {resolution!r}"):
            check_resolution(resolution)
        with pytest.raises(ValueError, match=f"must be an integer, got {resolution!r}"):
            mamdani_system([Rule.of({"x": "Lo"}, "Mid")], resolution=resolution)

    def test_names_are_matched_like_labels(self):
        canonical = mamdani_system([Rule.of({"x": "Lo"}, "Mid")])
        spelled = mamdani_system([Rule.of({"X": "lo"}, "mid")])
        assert spelled.rules == canonical.rules == (Rule.of({"x": "Lo"}, "Mid"),)
        assert spelled.evaluate([25.0]) == canonical.evaluate([25.0])

    def test_coefficient_names_are_matched_like_antecedent_names(self):
        # the coefficient's "SNR" used to raise "consequent references
        # unknown input 'SNR'" after its antecedent had bound
        catalog = standard_catalog("gaussian")
        decision = DecisionId.HANDOFF_STATUS
        inputs, output = catalog.decision_inputs(decision), catalog.decision_output(decision)
        spelled = FuzzySystem(
            inputs, output, [Rule.of({"SNR": "low"}, SugenoConsequent(5.0, (("SNR", 1.0),)))]
        )
        bound = Rule.of({"snr": "Low"}, SugenoConsequent(5.0, (("snr", 1.0),)))
        canonical = FuzzySystem(inputs, output, [bound])
        assert spelled.rules == canonical.rules == (bound,)
        assert canonical.rules[0] is bound
        assert spelled.evaluate([20.0, 50.0]) == canonical.evaluate([20.0, 50.0]) == 25.0

    def test_coefficient_names_are_bound_like_antecedent_names(self):
        with pytest.raises(ValueError, match="unknown input variable 'z'; bound inputs: x"):
            FuzzySystem([make_input()], make_output(),
                        [Rule.of({"x": "Lo"}, SugenoConsequent(5.0, (("z", 1.0),)))])
        with pytest.raises(ValueError, match="repeats a coefficient for 'x'"):
            FuzzySystem([make_input()], make_output(),
                        [Rule.of({"x": "Lo"}, SugenoConsequent(5.0, (("x", 1.0), ("X", 2.0))))])

    def test_a_variable_named_twice_in_any_spelling_is_rejected(self):
        with pytest.raises(ValueError, match="variable 'x' appears twice in one rule"):
            mamdani_system([Rule.of({"x": "Lo", "X": "Hi"}, "Mid")])

    def test_input_names_must_differ_as_keys(self):
        inputs = [make_input(), dataclasses.replace(make_input(), name="X")]
        with pytest.raises(ValueError, match="input variable names must be unique"):
            FuzzySystem(inputs, make_output(), [Rule.of({"x": "Lo"}, "Mid")])

    def test_repeated_coefficient_rejected(self):
        # summing the two slopes would give 0.5 with no error
        with pytest.raises(ValueError, match="repeats a coefficient for 'x'"):
            SugenoConsequent(0.0, (("x", 0.2), ("x", 0.3)))

    def test_positional_and_named_inputs_agree(self):
        system = mamdani_system([Rule.of({"x": "Lo"}, "Mid")])
        assert system.evaluate([25.0]) == system.evaluate({"x": 25.0})

    def test_missing_and_unknown_named_inputs(self):
        system = mamdani_system([Rule.of({"x": "Lo"}, "Mid")])
        with pytest.raises(ValueError, match="missing"):
            system.evaluate({})
        with pytest.raises(ValueError, match="unknown"):
            system.evaluate({"x": 1.0, "y": 2.0})
        # the exact messages, with the names sorted; unknown names come first
        handoff = build_system(DecisionId.HANDOFF_STATUS, VariantId.GAUSSIAN_MAMDANI)
        cases = [
            ({"snr": 1.0, "interference": 2.0, "zz": 1.0, "aa": 0}, "unknown inputs: ['aa', 'zz']"),
            ({"snr": 1.0}, "missing inputs: ['interference']"),
            ({}, "missing inputs: ['interference', 'snr']"),
            ({"snr": 1.0, "zz": 2.0}, "unknown inputs: ['zz']"),
            # keys of mixed types are sorted by repr, not compared with each other
            ({"snr": 1.0, "interference": 2.0, 3: 4.0, "zz": 1.0}, "unknown inputs: ['zz', 3]"),
        ]
        for x, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                handoff.evaluate(x)
        # any mapping with exactly the input names reads as the positional row
        row = handoff.evaluate([30.0, 70.0])
        named = {"interference": 70.0, "snr": 30.0}
        for x in (named, types.MappingProxyType(named), dict(reversed(named.items()))):
            assert handoff.evaluate(x).hex() == row.hex()

    def test_nan_input_is_named_and_infinities_are_clamped(self):
        system = mamdani_system([Rule.of({"x": "Lo"}, "Mid")])
        with pytest.raises(ValueError, match="'x' is NaN"):
            system.evaluate([float("nan")])
        with pytest.raises(ValueError, match="'x' is NaN"):
            system.evaluate({"x": float("nan")})
        affine = FuzzySystem(
            [make_input()],
            make_output(),
            [
                Rule.of({"x": "Lo"}, SugenoConsequent(10.0, (("x", 0.5),))),
                Rule.of({"x": "Hi"}, SugenoConsequent(20.0, (("x", 0.5),))),
            ],
        )
        # the affine consequents see the clamped value too
        assert affine.evaluate([float("-inf")]) == affine.evaluate([0.0]) == 10.0
        assert affine.evaluate([float("inf")]) == affine.evaluate([100.0]) == 70.0

    def test_wrong_positional_count_rejected(self):
        system = mamdani_system([Rule.of({"x": "Lo"}, "Mid")])
        for x in ([], [25.0, 50.0]):
            with pytest.raises(ValueError, match="N x 1"):
                system.evaluate(x)

    def test_rule_needs_antecedents(self):
        with pytest.raises(ValueError, match="antecedent"):
            Rule.of({}, "Mid")
