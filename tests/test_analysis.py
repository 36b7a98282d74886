import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fuzzycr import analysis
from fuzzycr.analysis import (
    ALL_VARIANTS,
    CORRELATION_PAIRS,
    MONOTONE_TRENDS,
    STANDARD_SWEEPS,
    DegenerateSeriesError,
    SweepSpec,
    VariantId,
    build_system,
    correlation_report,
    pearson,
    run_sweep,
    run_sweeps,
    standard_sweep_results,
    surface_grid,
    trend_violations,
)
from fuzzycr.engine import (
    BATCH_ROWS,
    EmptyAggregateError,
    EngineKind,
    FuzzyError,
    FuzzySystem,
    Rule,
)
from fuzzycr.membership import LinguisticTerm, LinguisticVariable, Triangular, Universe
from fuzzycr.catalog import DECISION_INPUTS, DecisionId
from fuzzycr.cli import main
from fuzzycr.ruledsl import builtin_rulebase


def reachable_arrays(value):
    """Every ndarray reachable from ``value`` through instance attributes,
    tuples and lists; functions are not entered."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from reachable_arrays(item)
    elif hasattr(value, "__dict__") and not callable(value):
        for item in vars(value).values():
            yield from reachable_arrays(item)


class TestBuildSystem:
    def test_variant_configurations(self):
        tri = build_system(DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI)
        assert tri.kind is EngineKind.MAMDANI
        gauss = build_system(DecisionId.HANDOFF_STATUS, VariantId.GAUSSIAN_MAMDANI)
        assert type(gauss.inputs[0].term("Moderate").mf).__name__ == "Gaussian"
        sugeno = build_system(DecisionId.HANDOFF_STATUS, VariantId.CONSTANT_SUGENO)
        assert sugeno.kind is EngineKind.SUGENO
        assert type(sugeno.inputs[0].term("Moderate").mf).__name__ == "Gaussian"

    @pytest.mark.parametrize("decision", list(DecisionId), ids=lambda d: d.value)
    @pytest.mark.parametrize("variant", list(VariantId), ids=lambda v: v.value)
    def test_each_variant_has_its_kind(self, decision, variant):
        kind = {
            VariantId.TRIANGULAR_MAMDANI: EngineKind.MAMDANI,
            VariantId.GAUSSIAN_MAMDANI: EngineKind.MAMDANI,
            VariantId.CONSTANT_SUGENO: EngineKind.SUGENO,
            VariantId.LINEAR_SUGENO: EngineKind.SUGENO,
        }[variant]
        assert build_system(decision, variant).kind is kind

    @pytest.mark.parametrize("decision", list(DecisionId), ids=lambda d: d.value)
    @pytest.mark.parametrize("variant", list(VariantId), ids=lambda v: v.value)
    def test_rules_keep_the_rule_file_order(self, decision, variant):
        # the kernel sorts Mamdani rows by label; ``rules`` keeps the file's
        # order, and Sugeno rules differ from the file only in consequents
        system = build_system(decision, variant)
        base = builtin_rulebase(decision).rules
        if system.kind is EngineKind.MAMDANI:
            assert system.rules == base
        else:
            assert [r.antecedents for r in system.rules] == [r.antecedents for r in base]

    def test_linear_coefficients_tilt_the_output(self):
        flat = build_system(DecisionId.HANDOFF_STATUS, VariantId.LINEAR_SUGENO)
        tilted = build_system(
            DecisionId.HANDOFF_STATUS,
            VariantId.LINEAR_SUGENO,
            sugeno_consequents={"On": (100.0, 0.1, 0.0)},
        )
        x = {"snr": 80.0, "interference": 20.0}
        assert tilted.evaluate(x) != pytest.approx(flat.evaluate(x))

    def test_sugeno_consequents_reject_unknown_label_and_extra_slopes(self):
        with pytest.raises(ValueError, match="no label 'Maybe'"):
            build_system(
                DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI,
                sugeno_consequents={"Maybe": (1.0,)},
            )
        with pytest.raises(ValueError, match="at most 2 slopes"):
            build_system(
                DecisionId.HANDOFF_STATUS, VariantId.LINEAR_SUGENO,
                sugeno_consequents={"On": (1.0, 2.0, 3.0, 4.0)},
            )


    @pytest.mark.parametrize("decision, variant, field", [
        (DecisionId.HANDOFF_STATUS, "linear-sugeno", "variant"),
        (DecisionId.HANDOFF_STATUS, None, "variant"),
        ("handoff-status", VariantId.LINEAR_SUGENO, "decision"),
    ])
    def test_a_decision_or_variant_that_is_not_its_enum_is_rejected(
        self, decision, variant, field
    ):
        # the string variant used to fall through to a Gaussian Mamdani system
        # (66.96 at snr=80, interference=20), and the string decision raised
        # a bare KeyError
        with pytest.raises(ValueError, match=f"{field} must be a "):
            build_system(decision, variant)
        linear = build_system(DecisionId.HANDOFF_STATUS, VariantId.LINEAR_SUGENO)
        assert linear.evaluate({"snr": 80.0, "interference": 20.0}) == pytest.approx(99.73, abs=0.01)

    @pytest.mark.parametrize("consequents", [{"On": ("1",)}, {"On": 5.0}, {"On": "15"}])
    def test_consequent_values_that_are_not_numbers_are_rejected_by_label(self, consequents):
        # ("1",) used to raise TypeError from math.isfinite, 5.0 a TypeError
        # from tuple(), and "15" was read as the numbers ("1", "5")
        for variant in (VariantId.LINEAR_SUGENO, VariantId.TRIANGULAR_MAMDANI):
            with pytest.raises(ValueError, match="consequent 'On' needs finite numbers, got"):
                build_system(DecisionId.HANDOFF_STATUS, variant, sugeno_consequents=consequents)

    def test_a_consequent_label_that_is_not_a_str_is_rejected(self):
        with pytest.raises(ValueError, match="consequent label must be a str, got 5"):
            build_system(
                DecisionId.HANDOFF_STATUS, VariantId.LINEAR_SUGENO, sugeno_consequents={5: (1.0,)}
            )


class TestBuildSystemMemo:
    HANDOFF = (DecisionId.HANDOFF_STATUS, VariantId.LINEAR_SUGENO)

    def test_equal_arguments_return_the_same_system(self):
        assert build_system(*self.HANDOFF) is build_system(*self.HANDOFF, 1001, None)
        assert build_system(*self.HANDOFF) is build_system(*self.HANDOFF, sugeno_consequents={})
        ordered = {"On": (100.0, 0.1), "Off": (5.0,)}
        shuffled = {"Off": [5.0], "On": [100.0, 0.1]}
        assert build_system(*self.HANDOFF, sugeno_consequents=ordered) is build_system(
            *self.HANDOFF, sugeno_consequents=shuffled
        )
        respelled = {"off": (5.0,), "ON": (100.0, 0.1)}
        assert build_system(*self.HANDOFF, sugeno_consequents=ordered) is build_system(
            *self.HANDOFF, sugeno_consequents=respelled
        )

    def test_different_arguments_return_different_systems(self):
        plain = build_system(*self.HANDOFF)
        # a Sugeno system samples nothing, so its resolution is not a key
        assert build_system(*self.HANDOFF, resolution=2001) is plain
        mamdani = (DecisionId.HANDOFF_STATUS, VariantId.GAUSSIAN_MAMDANI)
        assert build_system(*mamdani, resolution=2001) is not build_system(*mamdani)
        tilted = build_system(*self.HANDOFF, sugeno_consequents={"On": (100.0, 0.1)})
        assert tilted is not plain
        assert tilted is not build_system(*self.HANDOFF, sugeno_consequents={"On": (100.0, 0.2)})
        # with no consequents the linear variant is the constant system itself
        constant = (DecisionId.HANDOFF_STATUS, VariantId.CONSTANT_SUGENO)
        assert build_system(*constant) is plain
        assert build_system(*self.HANDOFF, resolution=2001, sugeno_consequents={}) is plain
        # any mapping, even one that restates the catalog level, is a system of its own
        restated = build_system(*self.HANDOFF, sugeno_consequents={"On": (100.0,)})
        assert restated is not plain and tilted is not build_system(*constant)

    @pytest.mark.parametrize("variant", [v for v in VariantId if v is not VariantId.LINEAR_SUGENO],
                             ids=lambda v: v.value)
    def test_a_variant_that_ignores_the_consequents_is_not_keyed_on_them(self, variant):
        plain = build_system(DecisionId.HANDOFF_STATUS, variant)
        assert build_system(
            DecisionId.HANDOFF_STATUS, variant, sugeno_consequents={"On": (5.0,)}
        ) is plain
        # they are still checked
        with pytest.raises(ValueError, match="no label 'Maybe'"):
            build_system(DecisionId.HANDOFF_STATUS, variant, sugeno_consequents={"Maybe": (1.0,)})

    @pytest.mark.parametrize("variant", list(VariantId), ids=lambda v: v.value)
    @pytest.mark.parametrize("resolution", [99, 1000])
    def test_every_variant_checks_the_resolution(self, variant, resolution):
        with pytest.raises(ValueError, match=f"odd and >= 101, got {resolution}"):
            build_system(DecisionId.HANDOFF_STATUS, variant, resolution=resolution)

    @pytest.mark.parametrize("resolution", [1001.0, 1003.0, "1001", True])
    def test_a_resolution_that_is_not_an_integer_is_rejected(self, resolution):
        with pytest.raises(ValueError, match=f"must be an integer, got {resolution!r}"):
            build_system(DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI, resolution)

    def test_an_unknown_label_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="no label 'Maybe'"):
                build_system(*self.HANDOFF, sugeno_consequents={"Maybe": (1.0,)})

    def test_a_label_given_twice_is_rejected(self):
        with pytest.raises(ValueError, match="'On' is given twice"):
            build_system(*self.HANDOFF, sugeno_consequents={"On": (1.0,), "on": (2.0,)})

    @pytest.mark.parametrize("variant", list(VariantId), ids=lambda v: v.value)
    def test_a_shared_system_cannot_be_written(self, variant):
        system = build_system(DecisionId.CHANNEL_SELECTION, variant)
        arrays = list(reachable_arrays(system))
        # the whole system, shared centroid tables included: input bounds,
        # antecedents, and per shape class its term and input columns and
        # parameter rows, at the least
        assert len(arrays) >= 8
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("variant", [VariantId.TRIANGULAR_MAMDANI, VariantId.GAUSSIAN_MAMDANI],
                             ids=lambda v: v.value)
    def test_five_label_outputs_share_one_set_of_centroid_tables(self, variant):
        five_label = [DecisionId.CHANNEL_SELECTION, DecisionId.ACCESS_SPECTRUM,
                      DecisionId.ACCESS_LATENCY, DecisionId.BANDWIDTH_ALLOCATION]
        systems = [build_system(decision, variant) for decision in five_label]
        assert all(len(fs.output.terms) == 5 for fs in systems)
        assert len({id(fs._tables) for fs in systems}) == 1

    def test_the_cache_holds_every_standard_system(self):
        assert analysis.BUILD_CACHE_SIZE >= len(DecisionId) * len(VariantId)

    def test_a_tables_pass_builds_each_standard_system_once(self, tmp_path, monkeypatch):
        built = []
        init = FuzzySystem.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FuzzySystem, "__init__", counting_init)
        analysis._build_system.cache_clear()
        assert main(["tables", "--out-dir", str(tmp_path)]) == 0
        assert len(built) <= len(DecisionId) * len(VariantId)


class TestRunSweep:
    def test_channel_selection_midpoint_row(self):
        spec = SweepSpec(DecisionId.CHANNEL_SELECTION, "signal_strength")
        result = run_sweep(spec)
        column = result.column(VariantId.TRIANGULAR_MAMDANI)
        assert column[spec.grid.index(50.0)] == pytest.approx(50.0, abs=0.5)

    def test_handoff_constant_sugeno_saturates_low(self):
        spec = SweepSpec(DecisionId.HANDOFF_STATUS, "interference")
        result = run_sweep(spec)
        assert result.column(VariantId.CONSTANT_SUGENO)[spec.grid.index(100.0)] <= 0.1

    def test_channel_gain_low_quality_band(self):
        spec = SweepSpec(DecisionId.CHANNEL_GAIN, "channel_quality")
        result = run_sweep(spec)
        column = result.column(VariantId.TRIANGULAR_MAMDANI)
        assert 8.33 <= column[spec.grid.index(10.0)] <= 10.5

    def test_outputs_stay_inside_the_universe(self):
        rng = np.random.default_rng(17)
        for decision in (DecisionId.HANDOFF_STATUS, DecisionId.CHANNEL_GAIN):
            for variant in ALL_VARIANTS:
                system = build_system(decision, variant)
                for _ in range(25):
                    x = dict(zip(system.input_names, rng.uniform(0, 100, 2)))
                    assert 0.0 <= system.evaluate(x) <= 100.0

    def test_deterministic_bitwise(self):
        spec = SweepSpec(DecisionId.BANDWIDTH_ALLOCATION, "access_latency")
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first.columns == second.columns

    def test_rows_are_read_from_the_columns(self):
        spec = SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=(10.0, 60.0))
        result = run_sweep(spec)
        assert set(result.columns) == set(spec.variants)
        assert all(type(v) is float for column in result.columns.values() for v in column)
        assert all(len(result.column(v)) == len(spec.grid) for v in spec.variants)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="not an input"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "signal_strength")
        with pytest.raises(ValueError, match="grid"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=())
        with pytest.raises(ValueError, match="increasing"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=(10.0, 10.0))

    def test_sweeps_and_surfaces_list_the_inputs_in_one_message(self):
        message = "'volume' is not an input of handoff-status; inputs: snr, interference"
        with pytest.raises(ValueError, match=message):
            SweepSpec(DecisionId.HANDOFF_STATUS, "volume")
        for pair in (("volume", "snr"), ("snr", "volume")):
            with pytest.raises(ValueError, match=message):
                surface_grid(DecisionId.HANDOFF_STATUS, *pair)

    @pytest.mark.parametrize("fixed_value", ["abc", None, float("nan"), float("inf")])
    def test_a_fixed_value_that_is_not_a_finite_number_is_rejected(self, fixed_value):
        # "abc" used to fail in run_sweep on a format code, and NaN only when
        # the first system was evaluated
        message = f"fixed_value must be a finite number, got {fixed_value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", fixed_value=fixed_value)
        with pytest.raises(ValueError, match=re.escape(message)):
            surface_grid(
                DecisionId.HANDOFF_STATUS, "snr", "interference", fixed_value=fixed_value
            )

    @pytest.mark.parametrize("variants", [
        [VariantId.LINEAR_SUGENO],
        "linear-sugeno",
        (VariantId.LINEAR_SUGENO, "gaussian-mamdani"),
    ])
    def test_variants_that_are_not_a_tuple_of_variant_ids_are_rejected(self, variants):
        # a list used to fail in run_sweeps as unhashable, and a string was
        # iterated by character ("variant must be a VariantId, got 'l'")
        message = f"variants must be a tuple of VariantId, got {variants!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sweep(SweepSpec(DecisionId.HANDOFF_STATUS, "snr", variants=variants))
        with pytest.raises(ValueError, match=re.escape(message)):
            surface_grid(DecisionId.HANDOFF_STATUS, "snr", "interference", variants=variants)

    def test_grid_is_kept_as_a_tuple_of_floats(self):
        for grid in ([10, 60], np.array([10, 60]), range(10, 61, 50)):
            spec = SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=grid)
            assert spec.grid == (10.0, 60.0)
            assert all(type(v) is float for v in spec.grid)
            float_spec = SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=(10.0, 60.0))
            assert run_sweep(spec).columns == run_sweep(float_spec).columns

    @pytest.mark.parametrize(
        "grid", ["abc", (10.0, None), (10.0, "60"), (10.0, float("nan")), (10.0, float("inf"))]
    )
    def test_a_grid_value_that_is_not_a_finite_number_is_rejected(self, grid):
        # "abc" used to be accepted and fail in run_sweep with an IndexError
        with pytest.raises(ValueError, match="sweep grid must hold finite numbers, got"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=grid)
        with pytest.raises(ValueError, match="sweep grid must hold finite numbers, got"):
            surface_grid(DecisionId.HANDOFF_STATUS, "snr", "interference", grid=grid)


class TestRunSweeps:
    def test_standard_sweeps_make_one_batch_per_decision_and_distinct_system(self, monkeypatch):
        batches = []
        evaluate_batch = FuzzySystem.evaluate_batch

        def counting(self, x):
            batches.append(len(x))
            return evaluate_batch(self, x)

        monkeypatch.setattr(FuzzySystem, "evaluate_batch", counting)
        standard_sweep_results()
        # linear-sugeno with no consequents is the constant-sugeno system
        assert len(batches) == len(DecisionId) * (len(VariantId) - 1) == 18
        assert sum(batches) == len(STANDARD_SWEEPS) * (len(VariantId) - 1) * 10

    def test_mixed_specs_keep_their_order_and_values(self):
        specs = [
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=(0.0, 35.0, 100.0)),
            SweepSpec(DecisionId.CHANNEL_GAIN, "susceptibility", fixed_value=20.0),
            SweepSpec(DecisionId.HANDOFF_STATUS, "interference", fixed_value=75.0),
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr",
                      variants=(VariantId.LINEAR_SUGENO, VariantId.GAUSSIAN_MAMDANI)),
        ]
        results = run_sweeps(specs)
        assert [result.spec for result in results] == specs
        for spec, result in zip(specs, results):
            assert list(result.columns) == list(spec.variants)
            names = DECISION_INPUTS[spec.decision]
            for variant in spec.variants:
                system = build_system(spec.decision, variant)
                expected = [
                    system.evaluate({
                        name: x if name == spec.varied else spec.fixed_value
                        for name in names
                    })
                    for x in spec.grid
                ]
                assert np.abs(np.subtract(result.column(variant), expected)).max() <= 1e-12

    def test_failure_names_the_spec_and_point_of_the_failing_row(self, monkeypatch):
        evaluate_batch = FuzzySystem.evaluate_batch

        def fail_at_70(self, x):
            at_70 = (np.asarray(x) == 70.0).any(axis=1)
            if at_70.any():
                raise EmptyAggregateError(row=int(np.argmax(at_70)))
            return evaluate_batch(self, x)

        monkeypatch.setattr(FuzzySystem, "evaluate_batch", fail_at_70)
        specs = [
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=(10.0, 20.0)),
            SweepSpec(DecisionId.HANDOFF_STATUS, "interference", grid=(30.0, 70.0)),
        ]
        with pytest.raises(FuzzyError) as info:
            run_sweeps(specs)
        assert str(info.value) == (
            "handoff-status/gaussian-mamdani failed at interference=70: empty aggregate"
        )


HANDOFF = DecisionId.HANDOFF_STATUS


def holey_system_for(decision, variant):
    """``variant``'s system on the triangular inputs, with every rule on
    ``snr is VeryHigh`` left out: no rule fires at snr=100, and only there."""
    inputs = build_system(decision, VariantId.TRIANGULAR_MAMDANI).inputs
    full = build_system(decision, variant)
    rules = [rule for rule in full.rules if ("snr", "VeryHigh") not in rule.antecedents]
    return FuzzySystem(inputs, full.output, rules, full.resolution)


class TestAFailingGrid:
    HOLEY = [VariantId.TRIANGULAR_MAMDANI, VariantId.CONSTANT_SUGENO]

    @pytest.mark.parametrize("variant", HOLEY, ids=lambda v: v.value)
    def test_the_batch_names_its_first_empty_row_past_the_first_chunk(self, variant):
        with pytest.raises(FuzzyError) as info:
            surface_grid(HANDOFF, "snr", "interference", variants=(variant,),
                         system_for=holey_system_for)
        assert str(info.value) == (
            f"handoff-status/{variant.value} failed at snr=100, interference=0: empty aggregate"
        )
        grid = analysis.SURFACE_GRID
        first = (len(grid) - 1) * len(grid)  # snr runs over the rows: the last block
        assert first > BATCH_ROWS
        assert info.value.__cause__.row == first
        with pytest.raises(EmptyAggregateError) as direct:
            holey_system_for(HANDOFF, variant).evaluate_batch([[a, b] for a in grid for b in grid])
        assert direct.value.row == first

    def test_each_variant_is_evaluated_once(self, monkeypatch):
        calls = []
        evaluate_batch = FuzzySystem.evaluate_batch

        def counted(self, x):
            calls.append(len(x))
            return evaluate_batch(self, x)

        monkeypatch.setattr(FuzzySystem, "evaluate_batch", counted)

        def system_for(decision, variant):
            holey = variant is VariantId.TRIANGULAR_MAMDANI
            return (holey_system_for if holey else build_system)(decision, variant)

        variants = (VariantId.GAUSSIAN_MAMDANI, VariantId.LINEAR_SUGENO,
                    VariantId.TRIANGULAR_MAMDANI, VariantId.CONSTANT_SUGENO)
        with pytest.raises(FuzzyError, match="triangular-mamdani failed at snr=100"):
            surface_grid(HANDOFF, "snr", "interference", variants=variants,
                         system_for=system_for)
        assert calls == [len(analysis.SURFACE_GRID) ** 2] * 3

    def test_other_errors_pass_through_after_one_call(self, monkeypatch):
        calls = []

        def broken(self, x):
            calls.append(len(x))
            raise RuntimeError("broken")

        monkeypatch.setattr(FuzzySystem, "evaluate_batch", broken)
        with pytest.raises(RuntimeError) as info:
            surface_grid(HANDOFF, "snr", "interference")
        assert type(info.value) is RuntimeError and str(info.value) == "broken"
        assert calls == [len(analysis.SURFACE_GRID) ** 2]


class TestSurface:
    def test_corner_attains_grid_maximum(self):
        grids = surface_grid(
            DecisionId.CHANNEL_SELECTION,
            "signal_strength",
            "spectrum_demand",
            grid=tuple(float(x) for x in range(0, 101, 10)),
        )
        for variant, values in grids.items():
            corner = values[-1, 0]  # signal=100, demand=0
            assert corner == pytest.approx(values.max(), abs=1e-9), variant

    def test_symmetric_system_gives_symmetric_grid(self):
        u = Universe(0, 100)
        terms = (
            LinguisticTerm("Lo", Triangular(0, 0, 100)),
            LinguisticTerm("Hi", Triangular(0, 100, 100)),
        )
        a = LinguisticVariable("a", u, terms)
        b = LinguisticVariable("b", u, terms)
        out = LinguisticVariable(
            "out",
            u,
            (
                LinguisticTerm("Low", Triangular(0, 0, 50)),
                LinguisticTerm("Mid", Triangular(0, 50, 100)),
                LinguisticTerm("High", Triangular(50, 100, 100)),
            ),
        )
        rules = [
            Rule.of({"a": "Lo", "b": "Lo"}, "Low"),
            Rule.of({"a": "Lo", "b": "Hi"}, "Mid"),
            Rule.of({"a": "Hi", "b": "Lo"}, "Mid"),
            Rule.of({"a": "Hi", "b": "Hi"}, "High"),
        ]
        system = FuzzySystem([a, b], out, rules)
        grid = tuple(float(x) for x in range(0, 101, 10))
        values = np.empty((len(grid), len(grid)))
        for i, av in enumerate(grid):
            for j, bv in enumerate(grid):
                values[i, j] = system.evaluate({"a": av, "b": bv})
        assert np.allclose(values, values.T, atol=1e-9)

    def test_degenerate_single_point_grid_equals_evaluate(self):
        grids = surface_grid(
            DecisionId.HANDOFF_STATUS,
            "snr",
            "interference",
            grid=(50.0,),
            variants=(VariantId.TRIANGULAR_MAMDANI,),
        )
        system = build_system(DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI)
        direct = system.evaluate({"snr": 50.0, "interference": 50.0})
        assert grids[VariantId.TRIANGULAR_MAMDANI][0, 0] == direct

    def test_same_input_twice_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            surface_grid(DecisionId.HANDOFF_STATUS, "snr", "snr")

    @pytest.mark.parametrize("grid,variants,message", [
        ((), ALL_VARIANTS, "sweep grid must be nonempty"),
        ((50.0, 10.0, 10.0), ALL_VARIANTS, "sweep grid must be strictly increasing"),
        (analysis.SURFACE_GRID, (), "sweep needs at least one variant"),
    ])
    def test_a_bad_grid_or_no_variants_is_rejected_as_a_sweep_rejects_it(
        self, grid, variants, message
    ):
        with pytest.raises(ValueError, match=message):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=grid, variants=variants)
        with pytest.raises(ValueError, match=message):
            surface_grid(
                DecisionId.HANDOFF_STATUS, "snr", "interference", grid=grid, variants=variants
            )

    def test_a_repeated_variant_is_rejected_and_named(self):
        # it used to be evaluated twice: a sweep returned one column for it
        # and the sweep CSV repeated it
        variants = (VariantId.LINEAR_SUGENO, VariantId.GAUSSIAN_MAMDANI, VariantId.LINEAR_SUGENO)
        with pytest.raises(ValueError, match="variants repeats 'linear-sugeno'"):
            run_sweep(SweepSpec(DecisionId.HANDOFF_STATUS, "snr", variants=variants))
        with pytest.raises(ValueError, match="variants repeats 'linear-sugeno'"):
            surface_grid(DecisionId.HANDOFF_STATUS, "snr", "interference", variants=variants)


class TestPearson:
    def test_identity(self):
        xs = [1.0, 2.5, 3.0, 7.5, 10.0]
        assert pearson(xs, xs) == 1.0

    def test_negation(self):
        xs = [1.0, 2.5, 3.0, 7.5, 10.0]
        assert pearson(xs, [-v for v in xs]) == -1.0

    def test_symmetry(self):
        xs = [1.0, 4.0, 2.0, 8.0]
        ys = [3.0, 1.0, 4.0, 1.5]
        assert pearson(xs, ys) == pearson(ys, xs)

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=20),
        st.floats(0.01, 100),
        st.floats(-100, 100),
    )
    # deviations near 1e-157 once squared to subnormals and lost digits
    @example(ys=[8.567872043216221e-158, 0.0, 0.0], a=0.25, b=0.0)
    # a constant series whose float mean is an ulp off its value
    @example(ys=[43.556411385996896] * 3, a=0.01, b=86.0)
    # a series one ulp from constant: the mean's rounding is its whole spread
    @example(ys=[43.556411385996896, 43.556411385996896, 43.5564113859969], a=0.01, b=86.0)
    def test_affine_invariance(self, ys, a, b):
        xs = list(range(len(ys)))
        try:
            base = pearson(xs, ys)
        except DegenerateSeriesError:
            return
        shifted = pearson([a * x + b for x in xs], ys)
        assert shifted == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_scale_of_a_series_does_not_matter(self, scale):
        # at 1e160 and 1e-170 the squared deviations overflow or underflow
        assert pearson([0.0, 1.0, 2.0], [scale, 0.0, 0.0]) == pytest.approx(
            -(3 ** 0.5) / 2, abs=1e-15
        )

    def test_degenerate_series_rejected(self):
        with pytest.raises(DegenerateSeriesError, match="degenerate"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_needs_two_points_and_equal_lengths(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCorrelationReport:
    def test_constant_vs_linear_sugeno_is_exactly_one(self, all_sweeps):
        report = correlation_report(all_sweeps)
        assert len(report) == 14
        for _, row in report:
            assert row["constant_vs_linear_sugeno"] == 1.0

    def test_single_sweep_reports_every_pair(self, all_sweeps):
        sweeps = {"signal_strength": all_sweeps["signal_strength"]}
        report = correlation_report(sweeps)
        assert [key for key, _ in report] == ["signal_strength"]
        assert list(report[0][1]) == [name for name, _, _ in CORRELATION_PAIRS]

    def test_mamdani_variants_track_each_other(self, all_sweeps):
        report = correlation_report(all_sweeps)
        for _, row in report:
            assert row["gaussian_vs_triangular_mamdani"] >= 0.95


class TestTrendSuite:
    def test_violation_detection(self):
        assert trend_violations([1, 2, 3], +1) == []
        assert trend_violations([3, 2, 1], +1) == [(0, -1), (1, -1)]
        assert trend_violations([3, 2.8, 3.2], -1) == []
        bad = trend_violations([1, 2, 1.4], +1)
        assert [i for i, _ in bad] == [1]
        assert bad[0][1] == pytest.approx(-0.6)

    def test_generated_sweeps_follow_expected_trends(self, all_sweeps):
        for key, direction in MONOTONE_TRENDS:
            result = all_sweeps[key]
            for variant in ALL_VARIANTS:
                bad = trend_violations(result.column(variant), direction)
                assert not bad, f"{key}/{variant.value}: {bad}"
