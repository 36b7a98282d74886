import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fuzzycr import analysis
from fuzzycr.analysis import (
    ALL_VARIANTS,
    CORRELATION_PAIRS,
    MONOTONE_TRENDS,
    DegenerateSeriesError,
    SweepSpec,
    VariantId,
    build_system,
    correlation_report,
    pearson,
    run_sweep,
    surface_grid,
    trend_violations,
)
from fuzzycr.engine import EngineConfig, EngineKind, FuzzySystem, Rule
from fuzzycr.membership import LinguisticTerm, LinguisticVariable, Triangular, Universe
from fuzzycr.catalog import DecisionId
from fuzzycr.cli import main


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
        assert tri.config.kind is EngineKind.MAMDANI
        gauss = build_system(DecisionId.HANDOFF_STATUS, VariantId.GAUSSIAN_MAMDANI)
        assert type(gauss.inputs[0].term("Moderate").mf).__name__ == "Gaussian"
        sugeno = build_system(DecisionId.HANDOFF_STATUS, VariantId.CONSTANT_SUGENO)
        assert sugeno.config.kind is EngineKind.SUGENO
        assert type(sugeno.inputs[0].term("Moderate").mf).__name__ == "Gaussian"

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

    def test_different_arguments_return_different_systems(self):
        plain = build_system(*self.HANDOFF)
        assert build_system(*self.HANDOFF, resolution=2001) is not plain
        tilted = build_system(*self.HANDOFF, sugeno_consequents={"On": (100.0, 0.1)})
        assert tilted is not plain
        assert tilted is not build_system(*self.HANDOFF, sugeno_consequents={"On": (100.0, 0.2)})

    def test_an_unknown_label_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="no label 'Maybe'"):
                build_system(*self.HANDOFF, sugeno_consequents={"Maybe": (1.0,)})

    def test_a_label_given_twice_is_rejected(self):
        with pytest.raises(ValueError, match="'On' is given twice"):
            build_system(*self.HANDOFF, sugeno_consequents={"On": (1.0,), "on": (2.0,)})

    @pytest.mark.parametrize("variant", list(VariantId), ids=lambda v: v.value)
    def test_a_shared_system_cannot_be_written(self, variant):
        compiled = build_system(DecisionId.CHANNEL_SELECTION, variant)._compiled
        arrays = list(reachable_arrays(compiled))
        # input bounds, antecedents, and per shape class its term and input
        # columns and parameter rows, at the least
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
        assert len({id(fs._compiled.tables) for fs in systems}) == 1

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
        row = dict(result.rows)[50.0]
        assert row[VariantId.TRIANGULAR_MAMDANI] == pytest.approx(50.0, abs=0.5)

    def test_handoff_constant_sugeno_saturates_low(self):
        spec = SweepSpec(DecisionId.HANDOFF_STATUS, "interference")
        result = run_sweep(spec)
        row = dict(result.rows)[100.0]
        assert row[VariantId.CONSTANT_SUGENO] <= 0.1

    def test_channel_gain_low_quality_band(self):
        spec = SweepSpec(DecisionId.CHANNEL_GAIN, "channel_quality")
        result = run_sweep(spec)
        row = dict(result.rows)[10.0]
        assert 8.33 <= row[VariantId.TRIANGULAR_MAMDANI] <= 10.5

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
        for (x1, row1), (x2, row2) in zip(first.rows, second.rows):
            assert x1 == x2
            for variant in spec.variants:
                assert row1[variant] == row2[variant]

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="not an input"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "signal_strength")
        with pytest.raises(ValueError, match="grid"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=())
        with pytest.raises(ValueError, match="increasing"):
            SweepSpec(DecisionId.HANDOFF_STATUS, "snr", grid=(10.0, 10.0))


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
        system = FuzzySystem([a, b], out, rules, EngineConfig.mamdani())
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

    def test_single_pair_single_sweep(self, all_sweeps):
        sweeps = {"signal_strength": all_sweeps["signal_strength"]}
        pairs = (CORRELATION_PAIRS[0],)
        report = correlation_report(sweeps, pairs)
        assert len(report) == 1
        assert set(report[0][1]) == {"gaussian_vs_triangular_mamdani"}

    def test_mamdani_variants_track_each_other(self, all_sweeps):
        report = correlation_report(all_sweeps)
        for _, row in report:
            assert row["gaussian_vs_triangular_mamdani"] >= 0.95


class TestTrendSuite:
    def test_violation_detection(self):
        assert trend_violations([1, 2, 3], +1) == []
        assert trend_violations([3, 2, 1], +1) == [(0, -1), (1, -1)]
        assert trend_violations([3, 2.8, 3.2], -1, tolerance=0.5) == []
        bad = trend_violations([1, 2, 1.4], +1, tolerance=0.5)
        assert [i for i, _ in bad] == [1]
        assert bad[0][1] == pytest.approx(-0.6)

    def test_generated_sweeps_follow_expected_trends(self, all_sweeps):
        for key, direction in MONOTONE_TRENDS:
            result = all_sweeps[key]
            for variant in ALL_VARIANTS:
                bad = trend_violations(result.column(variant), direction)
                assert not bad, f"{key}/{variant.value}: {bad}"
