import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzycr.membership import (
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    Triangular,
    Universe,
)


class TestShapes:
    def test_triangle_peak(self):
        assert Triangular(25, 50, 75).degree(50) == 1.0

    def test_triangle_linear_midpoint(self):
        assert Triangular(25, 50, 75).degree(37.5) == pytest.approx(0.5)

    def test_triangle_outside_feet(self):
        tri = Triangular(25, 50, 75)
        assert tri.degree(24.9) == 0.0
        assert tri.degree(75.1) == 0.0

    def test_left_shoulder_triangle_peaks_at_edge(self):
        assert Triangular(0, 0, 25).degree(0) == 1.0
        assert Triangular(0, 0, 25).degree(12.5) == pytest.approx(0.5)
        assert Triangular(0, 0, 25).degree(-1) == 0.0

    def test_gaussian_analytic_point(self):
        assert Gaussian(50, 10).degree(60) == pytest.approx(math.exp(-0.5))

    def test_gaussian_never_zero(self):
        assert Gaussian(0, 10).degree(100) > 0.0

    def test_profile_matches_pointwise_degree(self):
        xs = np.linspace(-10, 110, 241)
        for mf in (Triangular(0, 0, 25), Triangular(25, 50, 75), Gaussian(75, 10.6)):
            profile = mf.profile(xs)
            assert profile.min() >= 0.0 and profile.max() <= 1.0
            for x, p in zip(xs[::12], profile[::12]):
                assert mf.degree(float(x)) == pytest.approx(p)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Triangular(50, 25, 75),
            lambda: Triangular(10, 10, 10),
            lambda: Gaussian(50, 0),
            lambda: Gaussian(50, -1),
            lambda: Triangular(0, 50, 25),
            lambda: Gaussian(50, float("nan")),
            lambda: Universe(10, 10),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


@given(st.floats(-50, 150))
def test_degrees_stay_in_unit_interval(x):
    for mf in (Triangular(0, 0, 25), Triangular(25, 50, 75), Gaussian(50, 10.6)):
        assert 0.0 <= mf.degree(x) <= 1.0


@given(st.floats(0, 99.5), st.floats(1e-4, 0.5))
def test_evaluation_is_lipschitz_continuous_on_universe(x, eps):
    # piecewise-linear slopes are 1/ramp; the Gaussian derivative is bounded
    # by 1/(sigma*sqrt(e)). Degenerate edge triangles drop vertically exactly
    # at the universe boundary, so continuity is quantified over [0, 100].
    eps = min(eps, 100 - x)
    cases = [
        (Triangular(25, 50, 75), 1 / 25),
        (Triangular(0, 0, 25), 1 / 25),
        (Triangular(75, 100, 100), 1 / 25),
        (Gaussian(50, 10.6166), 1 / (10.6166 * math.sqrt(math.e))),
    ]
    for mf, lipschitz in cases:
        assert abs(mf.degree(x + eps) - mf.degree(x)) <= lipschitz * eps + 1e-12


class TestLinguisticVariable:
    def test_fuzzify_midpoint_picks_middle_label(self, tri_catalog):
        var = tri_catalog.inputs["signal_strength"]
        degrees = var.fuzzify(50)
        assert degrees == {
            "VeryLow": 0.0, "Low": 0.0, "Moderate": 1.0, "High": 0.0, "VeryHigh": 0.0,
        }

    def test_fuzzify_edge(self, tri_catalog):
        degrees = tri_catalog.inputs["signal_strength"].fuzzify(0)
        assert degrees["VeryLow"] == 1.0
        assert all(v == 0.0 for k, v in degrees.items() if k != "VeryLow")

    def test_fuzzify_clamps_out_of_range(self, tri_catalog):
        var = tri_catalog.inputs["snr"]
        assert var.fuzzify(110) == var.fuzzify(100)
        assert var.fuzzify(-3) == var.fuzzify(0)

    def test_label_lookup_is_forgiving(self, tri_catalog):
        var = tri_catalog.inputs["snr"]
        assert var.term("very_low").label == "VeryLow"
        assert var.term("VERY LOW").label == "VeryLow"

    def test_unknown_label_lists_valid_ones(self, tri_catalog):
        with pytest.raises(KeyError, match="VeryLow"):
            tri_catalog.inputs["snr"].term("Enormous")

    def test_needs_two_terms(self):
        u = Universe(0, 100)
        with pytest.raises(ValueError, match="2 terms"):
            LinguisticVariable("x", u, (LinguisticTerm("Only", Triangular(0, 50, 100)),))

    def test_duplicate_labels_rejected(self):
        u = Universe(0, 100)
        terms = (
            LinguisticTerm("A", Triangular(0, 0, 100)),
            LinguisticTerm("a", Triangular(0, 100, 100)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            LinguisticVariable("x", u, terms)

    def test_coverage_hole_rejected(self):
        u = Universe(0, 100)
        terms = (
            LinguisticTerm("Lo", Triangular(0, 0, 10)),
            LinguisticTerm("Hi", Triangular(90, 100, 100)),
        )
        with pytest.raises(ValueError, match="coverage"):
            LinguisticVariable("x", u, terms)
