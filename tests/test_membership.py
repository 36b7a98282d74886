import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
        "mf,x,expected",
        [
            (Triangular(0, 1e-310, 100), 50, 0.5),
            (Triangular(50, 50 + 1e-300, 100), 0, 0.0),
            (Triangular(-1e308, 0, 1e308), 1e308, 0.0),
            (Triangular(0, 1, 2), -1.7e308, 0.0),
            (Triangular(0, 1, 2), 1.7e308, 0.0),
            (Triangular(0, 1e-300, 2e-300), 0.5e-300, 0.5),
            (Triangular(0, 1e-300, 2e-300), 1.5e-300, 0.5),
        ],
    )
    def test_narrow_edges_and_far_inputs_do_not_overflow(self, mf, x, expected):
        # the suite turns overflow warnings into errors
        assert mf.degree(x) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Triangular(50, 25, 75),
            lambda: Triangular(10, 10, 10),
            lambda: Gaussian(50, 0),
            lambda: Gaussian(50, -1),
            lambda: Triangular(0, 50, 25),
            lambda: Triangular(-1e308, 1e308, 1e308),
            lambda: Triangular(-1e308, -1e308, 1e308),
            lambda: Gaussian(50, float("nan")),
            lambda: Universe(10, 10),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


# a str or None used to raise a bare "TypeError: must be real number, not str"
NON_FINITE = [math.nan, math.inf, -math.inf, "5", None]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize(
    "make,name",
    [
        (lambda v: Universe(v, 100), "lo"),
        (lambda v: Universe(0, v), "hi"),
        (lambda v: Triangular(v, 50, 100), "a"),
        (lambda v: Triangular(0, v, 100), "b"),
        (lambda v: Triangular(0, 50, v), "c"),
        (lambda v: Gaussian(v, 10), "mean"),
        (lambda v: Gaussian(50, v), "sigma"),
    ],
    ids=["universe-lo", "universe-hi", "triangular-a", "triangular-b", "triangular-c",
         "gaussian-mean", "gaussian-sigma"],
)
def test_non_finite_parameters_are_rejected_by_name(make, name, value):
    with pytest.raises(ValueError, match=f"needs a finite {name}, got"):
        make(value)


# The closed forms below are written out in plain Python, independent of the
# array formulas that profiles, fuzzification, the coverage check, the
# centroid tables and the compiled kernel all share.


def triangle_closed_form(x, a, b, c):
    """0 outside the feet, 1 at the peak, linear in between; a foot on the
    peak is a step, so x == b reads 1 on either side."""
    if x < a or x > c:
        return 0.0
    if x == b:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def gaussian_closed_form(x, mean, sigma):
    z = (x - mean) / sigma
    return math.exp(-0.5 * z * z)


# quarter steps, so that feet and peaks coincide with each other and with x
quarters = st.integers(-400, 400).map(lambda i: i / 4)


@st.composite
def triangle_params(draw):
    a, b, c = sorted(draw(st.lists(quarters, min_size=3, max_size=3)))
    # both ramps, or a foot on the peak: a rising or falling step
    a, b, c = draw(st.sampled_from([(a, b, c), (b, b, c), (a, b, b)]))
    assume(a < c)
    return a, b, c


def assert_formula_is_closed_form(formula, closed_form, params, xs, rel=0.0, abs=0.0):
    # one column per parameter tuple, one row per x: the parameter arrays
    # broadcast against a column of x
    columns = [np.array(column) for column in zip(*params)]
    got = formula(np.array(xs)[:, None], *columns)
    assert got.shape == (len(xs), len(params))
    for i, x in enumerate(xs):
        for j, p in enumerate(params):
            assert got[i, j] == pytest.approx(closed_form(x, *p), rel=rel, abs=abs)


@settings(max_examples=200)
@given(
    st.lists(triangle_params(), min_size=1, max_size=5),
    st.lists(st.floats(-150, 150), max_size=8),
)
def test_triangle_formula_is_the_piecewise_closed_form(params, xs):
    # every foot and peak is also an x, since the steps sit there
    xs = xs + [v for p in params for v in p]
    assert_formula_is_closed_form(Triangular.degrees, triangle_closed_form, params, xs)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.floats(-100, 100), st.floats(0.01, 100)), min_size=1, max_size=5),
    st.lists(st.floats(-150, 150), max_size=8),
)
def test_gaussian_formula_is_the_closed_form(params, xs):
    xs = xs + [mean for mean, _ in params]
    assert_formula_is_closed_form(
        Gaussian.degrees, gaussian_closed_form, params, xs, rel=1e-15, abs=1e-300
    )


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

    def test_a_term_label_that_is_not_a_str_is_rejected(self):
        # used to raise AttributeError from normalize_label in the variable
        with pytest.raises(ValueError, match="term label must be a str, got 5"):
            LinguisticTerm(5, Triangular(0, 50, 100))

    def test_a_term_mf_that_is_not_a_membership_function_is_rejected(self):
        # used to raise AttributeError: 'str' object has no attribute 'profile'
        with pytest.raises(ValueError, match="term mf must be a membership function, got 'tri'"):
            LinguisticTerm("Lo", "tri")

    def test_a_variable_name_that_is_not_a_str_is_rejected(self):
        # used to build, and then raise AttributeError in engine.input_index
        terms = (LinguisticTerm("Lo", Triangular(0, 0, 100)),
                 LinguisticTerm("Hi", Triangular(0, 100, 100)))
        with pytest.raises(ValueError, match="variable name must be a str, got 5"):
            LinguisticVariable(5, Universe(0, 100), terms)

    def test_a_universe_that_is_not_a_universe_is_rejected(self):
        # used to raise AttributeError: 'tuple' object has no attribute 'samples'
        terms = (LinguisticTerm("Lo", Triangular(0, 0, 100)),
                 LinguisticTerm("Hi", Triangular(0, 100, 100)))
        with pytest.raises(ValueError,
                           match=re.escape("variable universe must be a Universe, got (0, 100)")):
            LinguisticVariable("x", (0, 100), terms)

    def test_coverage_hole_rejected(self):
        u = Universe(0, 100)
        terms = (
            LinguisticTerm("Lo", Triangular(0, 0, 10)),
            LinguisticTerm("Hi", Triangular(90, 100, 100)),
        )
        with pytest.raises(ValueError, match="coverage"):
            LinguisticVariable("x", u, terms)
