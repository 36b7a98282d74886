import math

import numpy as np
import pytest

from fuzzycr.catalog import (
    DECISION_INPUTS,
    DECISION_OUTPUT,
    FAMILIES,
    DecisionId,
    standard_catalog,
    sugeno_levels,
)
from fuzzycr.membership import Gaussian, Triangular

FWHM = 2 * math.sqrt(2 * math.log(2))


def triangle_params(var, label):
    mf = var.term(label).mf
    assert isinstance(mf, Triangular)
    return (mf.a, mf.b, mf.c)


class TestTriangularLadders:
    def test_five_level_parameters(self, tri_catalog):
        var = tri_catalog.inputs["signal_strength"]
        assert triangle_params(var, "VeryLow") == (0, 0, 25)
        assert triangle_params(var, "Low") == (0, 25, 50)
        assert triangle_params(var, "Moderate") == (25, 50, 75)
        assert triangle_params(var, "High") == (50, 75, 100)
        assert triangle_params(var, "VeryHigh") == (75, 100, 100)

    def test_three_level_parameters(self, tri_catalog):
        var = tri_catalog.inputs["degree_of_mobility"]
        assert triangle_params(var, "Small") == (0, 0, 50)
        assert triangle_params(var, "Medium") == (0, 50, 100)
        assert triangle_params(var, "Large") == (50, 100, 100)

    def test_binary_parameters(self, tri_catalog):
        onoff = tri_catalog.outputs["handoff_status"]
        assert triangle_params(onoff, "Off") == (0, 0, 100)
        assert triangle_params(onoff, "On") == (0, 100, 100)
        presence = tri_catalog.inputs["traffic_priority"]
        assert triangle_params(presence, "Absent") == (0, 0, 100)
        assert triangle_params(presence, "Present") == (0, 100, 100)

    def test_gain_output_anchored_low(self, tri_catalog):
        var = tri_catalog.outputs["channel_gain"]
        assert var.labels == ("Low", "Moderate", "High", "VeryHigh")
        assert triangle_params(var, "Low") == (0, 0, 25)
        assert triangle_params(var, "Moderate") == (0, 25, 50)
        assert triangle_params(var, "High") == (25, 50, 75)
        assert triangle_params(var, "VeryHigh") == (50, 100, 100)


class TestGaussianFamily:
    def test_interior_sigma_matches_fwhm(self, gauss_catalog):
        mf = gauss_catalog.inputs["snr"].term("Moderate").mf
        assert isinstance(mf, Gaussian)
        assert mf.mean == 50
        assert mf.sigma == pytest.approx(25 / FWHM)
        assert mf.sigma == pytest.approx(10.6166, abs=5e-4)

    def test_same_peaks_as_triangles(self, tri_catalog, gauss_catalog):
        for group, name in [("inputs", n) for n in tri_catalog.inputs] + [
            ("outputs", n) for n in tri_catalog.outputs
        ]:
            tri_var = getattr(tri_catalog, group)[name]
            gauss_var = getattr(gauss_catalog, group)[name]
            assert tri_var.labels == gauss_var.labels
            for label in tri_var.labels:
                assert tri_var.term(label).mf.peak == gauss_var.term(label).mf.mean

    def test_gaussian_crosses_half_at_triangle_half_membership(
        self, tri_catalog, gauss_catalog
    ):
        # FWHM matching: wherever the triangle reads 0.5 on its widest ramp,
        # the Gaussian twin reads 0.5 too.
        for name in tri_catalog.inputs:
            tri_var = tri_catalog.inputs[name]
            gauss_var = gauss_catalog.inputs[name]
            for label in tri_var.labels:
                tri = tri_var.term(label).mf
                gauss = gauss_var.term(label).mf
                half_point = tri.peak + tri.ramp_width / 2
                if half_point > 100:
                    half_point = tri.peak - tri.ramp_width / 2
                assert tri.degree(half_point) == pytest.approx(0.5)
                assert gauss.degree(half_point) == pytest.approx(0.5)

    def test_neighbouring_five_level_terms_cross_at_half(self, gauss_catalog):
        var = gauss_catalog.inputs["interference"]
        assert var.fuzzify(37.5)["Low"] == pytest.approx(0.5)
        assert var.fuzzify(37.5)["Moderate"] == pytest.approx(0.5)


class TestCatalogShape:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_variable_counts(self, family):
        catalog = standard_catalog(family)
        assert len(catalog.inputs) == 13
        assert len(catalog.outputs) == 6

    @pytest.mark.parametrize("family", FAMILIES)
    def test_universe_and_coverage(self, family):
        # LinguisticVariable enforces coverage at build time; verify on a
        # denser grid here for both families.
        catalog = standard_catalog(family)
        xs = np.linspace(0, 100, 4001)
        for var in list(catalog.inputs.values()) + list(catalog.outputs.values()):
            assert (var.universe.lo, var.universe.hi) == (0, 100)
            best = np.max([t.mf.profile(xs) for t in var.terms], axis=0)
            assert best.min() >= 0.01

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            standard_catalog("trapezoidal")

    def test_decision_bindings_resolve(self, tri_catalog):
        for decision in DecisionId:
            inputs = tri_catalog.decision_inputs(decision)
            assert [v.name for v in inputs] == list(DECISION_INPUTS[decision])
            output = tri_catalog.decision_output(decision)
            assert output.name == DECISION_OUTPUT[decision]


class TestSugenoLevels:
    def test_levels_are_triangular_peaks(self, tri_catalog):
        for decision in DecisionId:
            var = tri_catalog.decision_output(decision)
            levels = sugeno_levels(decision)
            assert set(levels) == set(var.labels)
            for label, value in levels.items():
                assert value == var.term(label).mf.peak

    def test_five_level_values(self):
        assert sugeno_levels(DecisionId.CHANNEL_SELECTION) == {
            "VeryLow": 0, "Low": 25, "Moderate": 50, "High": 75, "VeryHigh": 100,
        }

    def test_binary_values(self):
        assert sugeno_levels(DecisionId.HANDOFF_STATUS) == {"Off": 0, "On": 100}

    def test_gain_values(self):
        assert sugeno_levels(DecisionId.CHANNEL_GAIN) == {
            "Low": 0, "Moderate": 25, "High": 50, "VeryHigh": 100,
        }
