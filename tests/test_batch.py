"""FuzzySystem.evaluate and evaluate_batch against a rule-by-rule reference.

Both methods run one compiled kernel. The reference here rebuilds each
decision from the per-rule helpers instead (``LinguisticVariable.fuzzify``,
``firing_strength``, ``aggregate_clipped``, ``defuzz_centroid``, and a
weighted average written out below), so the parity tests hold the kernel's
rule firing, aggregation and defuzzification to an independent computation,
not to itself.

One layer is shared: the kernel and ``LinguisticVariable.fuzzify`` compute
degrees with the same per-shape formulas, ``Triangular.degrees`` and
``Gaussian.degrees``. tests/test_membership.py checks those formulas against
closed forms written out in plain Python.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzycr.analysis import VariantId, build_system
from fuzzycr.catalog import DECISION_INPUTS, DecisionId, sugeno_levels
from fuzzycr.engine import (
    BATCH_ROWS,
    MAX_LABEL_SUBSETS,
    EmptyAggregateError,
    EngineConfig,
    EngineKind,
    FuzzySystem,
    Rule,
    SugenoConsequent,
    aggregate_clipped,
    defuzz_centroid,
    firing_strength,
)
from fuzzycr.membership import (
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    Triangular,
    Universe,
)

PAIRS = [(d, v) for d in DecisionId for v in VariantId]
PARITY = 1e-9

# Inputs beyond the universe on both sides, the infinities, and lattice points
# where terms peak and cross.
values = st.one_of(
    st.floats(-20.0, 120.0),
    st.sampled_from([-np.inf, np.inf]),
    st.integers(0, 20).map(lambda i: 5.0 * i),
)


def rows_for(decision, min_rows=1, max_rows=8):
    width = len(DECISION_INPUTS[decision])
    return st.lists(
        st.lists(values, min_size=width, max_size=width),
        min_size=min_rows, max_size=max_rows,
    )


@st.composite
def pair_and_rows(draw):
    decision, variant = draw(st.sampled_from(PAIRS))
    return decision, variant, np.array(draw(rows_for(decision)))


def reference_one(fs, row):
    """One decision rule by rule: clamp, fuzzify each input, fire each rule,
    then clip, max-aggregate and take the centroid (Mamdani) or average the
    affine consequents by strength and clamp to the output universe (Sugeno)."""
    x = {var.name: var.universe.clamp(float(v)) for var, v in zip(fs.inputs, row)}
    fuzzified = {var.name: var.fuzzify(x[var.name]) for var in fs.inputs}
    strengths = [firing_strength(rule, fuzzified, fs.config.kind) for rule in fs.rules]
    if fs.config.kind is EngineKind.MAMDANI:
        xs = fs.output.universe.samples(fs.config.resolution)
        profiles = {term.label: term.mf.profile(xs) for term in fs.output.terms}
        levels = {}
        for rule, w in zip(fs.rules, strengths):
            levels[rule.consequent] = max(levels.get(rule.consequent, 0.0), w)
        return defuzz_centroid(aggregate_clipped(xs, profiles, levels))
    if sum(strengths) == 0.0:
        raise EmptyAggregateError("empty aggregate")
    values = [
        rule.consequent.constant
        + sum(coeff * x[name] for name, coeff in rule.consequent.coefficients)
        for rule in fs.rules
    ]
    average = np.dot(strengths, values) / sum(strengths)
    return fs.output.universe.clamp(average)


def reference(fs, x):
    return np.array([reference_one(fs, row) for row in x])


def assert_parity(fs, x):
    """Both kernel entry points equal the reference within ``PARITY``."""
    expected = reference(fs, x)
    assert np.abs(fs.evaluate_batch(x) - expected).max() <= PARITY
    scalar = np.array([fs.evaluate(list(row)) for row in x])
    assert np.abs(scalar - expected).max() <= PARITY


@settings(max_examples=150, deadline=None)
@given(pair_and_rows())
def test_batch_equals_scalar(case):
    decision, variant, x = case
    assert_parity(build_system(decision, variant), x)


@pytest.mark.parametrize("decision,variant", PAIRS, ids=lambda p: p.value)
def test_batch_equals_scalar_across_chunks(decision, variant):
    # more rows than one chunk, and a row count that leaves a partial chunk
    rng = np.random.default_rng(7)
    fs = build_system(decision, variant)
    x = rng.uniform(-20.0, 120.0, (2 * BATCH_ROWS + 5, len(fs.inputs)))
    x[::3] = np.round(x[::3] / 5.0) * 5.0
    assert_parity(fs, x)


@st.composite
def affine_case(draw):
    decision = draw(st.sampled_from(list(DecisionId)))
    width = len(DECISION_INPUTS[decision])
    number = st.floats(-1000.0, 1000.0)
    consequents = {
        label: (draw(number), *draw(st.lists(st.floats(-50.0, 50.0), max_size=width)))
        for label in sugeno_levels(decision)
    }
    return decision, consequents, np.array(draw(rows_for(decision)))


@settings(max_examples=100, deadline=None)
@given(affine_case())
def test_linear_sugeno_stays_in_the_universe(case):
    decision, consequents, x = case
    fs = build_system(decision, VariantId.LINEAR_SUGENO, sugeno_consequents=consequents)
    batch = fs.evaluate_batch(x)
    assert ((0.0 <= batch) & (batch <= 100.0)).all()
    assert_parity(fs, x)


@settings(max_examples=50, deadline=None)
@given(pair_and_rows())
def test_every_output_stays_in_the_universe(case):
    decision, variant, x = case
    batch = build_system(decision, variant).evaluate_batch(x)
    assert ((0.0 <= batch) & (batch <= 100.0)).all()


@settings(max_examples=50, deadline=None)
@given(pair_and_rows(), st.data())
def test_nan_in_any_row_is_named(case, data):
    decision, variant, x = case
    fs = build_system(decision, variant)
    row = data.draw(st.integers(0, len(x) - 1))
    column = data.draw(st.integers(0, x.shape[1] - 1))
    x[row, column] = np.nan
    with pytest.raises(ValueError, match=f"input '{fs.input_names[column]}' is NaN"):
        fs.evaluate_batch(x)


@pytest.mark.parametrize("variant", list(VariantId), ids=lambda v: v.value)
def test_an_entry_that_is_not_a_number_is_named(variant):
    # numpy converts None and the string 'nan' to NaN; the error names what
    # the caller passed
    fs = build_system(DecisionId.HANDOFF_STATUS, variant)
    for x in ([None, 3], {"snr": None, "interference": 3}):
        with pytest.raises(ValueError, match="input 'snr' is not a number: None"):
            fs.evaluate(x)
    with pytest.raises(ValueError, match="input 'snr' is not a number: 'nan'"):
        fs.evaluate(["nan", 3])
    with pytest.raises(ValueError, match="input 'interference' is not a number: None"):
        fs.evaluate_batch([[1.0, 2.0], [3.0, None]])
    # a NaN the caller passed is still reported as NaN
    with pytest.raises(ValueError, match="input 'snr' is NaN"):
        fs.evaluate_batch(np.array([[1.0, 2.0], [np.nan, None]], dtype=object))


def test_wrong_shapes_are_rejected():
    fs = build_system(DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI)
    for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match="N x 2"):
            fs.evaluate_batch(bad)
    assert fs.evaluate_batch(np.zeros((0, 2))).shape == (0,)


U = Universe(0, 100)
X_VAR = LinguisticVariable(
    "x", U,
    (LinguisticTerm("Lo", Triangular(0, 0, 100)), LinguisticTerm("Hi", Triangular(0, 100, 100))),
)
Y_VAR = LinguisticVariable(
    "y", U,
    (LinguisticTerm("Low", Triangular(0, 0, 60)), LinguisticTerm("High", Triangular(40, 100, 100))),
)


# shoulder triangles, each with a step edge, and a Gaussian
MIXED_VAR = LinguisticVariable(
    "m", U,
    (
        LinguisticTerm("Low", Triangular(0, 0, 50)),
        LinguisticTerm("Mid", Gaussian(50, 15)),
        LinguisticTerm("High", Triangular(50, 100, 100)),
    ),
)


# a Gaussian-only input, and a Gaussian before two triangles, so that the
# triangle class is first seen in a later input
GAUSSIAN_X_VAR = LinguisticVariable(
    "x", U, (LinguisticTerm("Lo", Gaussian(0, 30)), LinguisticTerm("Hi", Gaussian(100, 30))),
)
GAUSSIAN_FIRST_VAR = LinguisticVariable("m", U, (MIXED_VAR.terms[1], *MIXED_VAR.terms[::2]))
MIXED_INPUTS = {
    "triangles-first": (X_VAR, MIXED_VAR),
    "gaussians-first": (GAUSSIAN_X_VAR, GAUSSIAN_FIRST_VAR),
}


def mixed_system(config, inputs=MIXED_INPUTS["triangles-first"]):
    """Mixed shapes in one input, and rules of one and two antecedents."""
    consequents = ["Low", "High", "High", "Low"]
    if config.kind is EngineKind.SUGENO:
        consequents = [SugenoConsequent(c, (("m", 0.3),)) for c in (10.0, 90.0, 70.0, 5.0)]
    rules = [
        Rule.of({"x": "Lo"}, consequents[0]),
        Rule.of({"m": "Mid", "x": "Hi"}, consequents[1]),
        Rule.of({"x": "Hi", "m": "High"}, consequents[2]),
        Rule.of({"m": "Low"}, consequents[3]),
    ]
    return FuzzySystem(inputs, Y_VAR, rules, config)


@pytest.mark.parametrize("inputs", MIXED_INPUTS.values(), ids=list(MIXED_INPUTS))
@pytest.mark.parametrize("config", [EngineConfig.mamdani(), EngineConfig.sugeno()])
def test_mixed_shapes_and_rule_lengths_match_scalar(config, inputs):
    fs = mixed_system(config, inputs)
    x = np.array([[a, b] for a in range(-10, 111, 5) for b in range(-10, 111, 5)], dtype=float)
    assert_parity(fs, x)


def one_label_system():
    return FuzzySystem([X_VAR], Y_VAR, [Rule.of({"x": "Hi"}, "High")], EngineConfig.mamdani())


def ladder_system(family, labels):
    """A Mamdani system whose output is an evenly spaced ladder of ``labels``
    triangles, or Gaussians of the same FWHM, each the consequent of a rule."""
    step = 100.0 / (labels - 1)
    terms = []
    for i in range(labels):
        peak = i * step
        mf = (Triangular(max(0.0, peak - step), peak, min(100.0, peak + step))
              if family == "triangular" else Gaussian(peak, step / 2.3548))
        terms.append(LinguisticTerm(f"L{i}", mf))
    output = LinguisticVariable("ladder", U, tuple(terms))
    rules = [Rule.of({"x": "Lo" if i < labels / 2 else "Hi"}, f"L{i}") for i in range(labels)]
    return FuzzySystem([X_VAR], output, rules, EngineConfig.mamdani())


def test_empty_aggregate_raises():
    mamdani = one_label_system()
    sugeno = FuzzySystem(
        [X_VAR], Y_VAR, [Rule.of({"x": "Hi"}, SugenoConsequent(50.0))], EngineConfig.sugeno()
    )
    for fs in (mamdani, sugeno):
        assert fs.evaluate_batch([[100.0]])[0] == fs.evaluate([100.0])
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            fs.evaluate_batch([[100.0], [0.0]])


def test_a_label_outside_the_universe_leaves_every_aggregate_empty():
    far = LinguisticTerm("Far", Triangular(150, 200, 250))
    output = LinguisticVariable("y", U, Y_VAR.terms + (far,))
    fs = FuzzySystem([X_VAR], output, [Rule.of({"x": "Lo"}, "Far")], EngineConfig.mamdani())
    for x in ([0.0], [50.0], [100.0]):
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            fs.evaluate(x)
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            reference(fs, [x])


@settings(max_examples=50, deadline=None)
@given(pair_and_rows(), st.data())
def test_rule_order_does_not_matter(case, data):
    decision, variant, x = case
    fs = build_system(decision, variant)
    rules = data.draw(st.permutations(fs.rules))
    permuted = FuzzySystem(fs.inputs, fs.output, rules, fs.config)
    assert np.abs(permuted.evaluate_batch(x) - fs.evaluate_batch(x)).max() <= PARITY
    assert np.abs(reference(permuted, x) - reference(fs, x)).max() <= PARITY


@pytest.mark.parametrize("config", [EngineConfig.mamdani(), EngineConfig.sugeno()])
def test_rule_labels_are_matched_like_variable_labels(config):
    # case, spaces, hyphens and underscores are ignored at construction, so
    # both paths see the variables' own labels
    def rules(lo, hi, low, high):
        if config.kind is EngineKind.SUGENO:
            low, high = SugenoConsequent(20.0), SugenoConsequent(80.0)
        return [Rule.of({"x": lo}, low), Rule.of({"x": hi}, high)]

    canonical = FuzzySystem([X_VAR], Y_VAR, rules("Lo", "Hi", "Low", "High"), config)
    spelled = FuzzySystem([X_VAR], Y_VAR, rules("lo", "HI", "l o-w", "hi_GH"), config)
    assert spelled.rules == canonical.rules
    x = np.linspace(-10.0, 110.0, 25)[:, None]
    assert reference(spelled, x).tolist() == reference(canonical, x).tolist()
    assert spelled.evaluate_batch(x).tolist() == canonical.evaluate_batch(x).tolist()



@pytest.mark.parametrize("decision,variant", PAIRS, ids=lambda p: p.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raising_a_term_degree_never_lowers_a_clip_level_or_strength(decision, variant, data):
    # a fuzzified N x (T + 1) degree matrix, whose last column is the constant
    # 1 that pads short rules, and the same matrix with one term raised
    compiled = build_system(decision, variant)._compiled
    n = data.draw(st.integers(1, 4))
    degrees = np.ones((n, compiled.n_terms + 1))
    degrees[:, :-1] = data.draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=compiled.n_terms, max_size=compiled.n_terms),
        min_size=n, max_size=n,
    ))
    raised = degrees.copy()
    column = data.draw(st.integers(0, compiled.n_terms - 1))
    raised[:, column] = [data.draw(st.floats(d, 1.0)) for d in degrees[:, column]]
    before, after = compiled.fire(degrees), compiled.fire(raised)
    if compiled.mamdani:
        # clip levels: the strongest rule of each consequent label
        before = np.maximum.reduceat(before, compiled.label_starts, axis=1)
        after = np.maximum.reduceat(after, compiled.label_starts, axis=1)
    assert (after >= before).all()


def test_an_output_with_too_many_overlapping_labels_is_rejected():
    # seven Gaussians overlap everywhere: 127 label subsets
    with pytest.raises(ValueError, match="output 'ladder' needs at least 127 label subsets"):
        ladder_system("gaussian", 7)
    # a triangle ladder overlaps only its neighbours: 7 + 6 subsets
    fs = ladder_system("triangular", 7)
    assert len(fs._compiled.tables.signs) == 13 <= MAX_LABEL_SUBSETS
    assert_parity(fs, np.linspace(-10.0, 110.0, 121)[:, None])


def mamdani_systems():
    """Both Mamdani families of every decision at two resolutions, and the
    custom systems above."""
    systems = {
        f"{d.value}/{v.value}/{resolution}": (
            lambda d=d, v=v, resolution=resolution: build_system(d, v, resolution)
        )
        for d in DecisionId
        for v in (VariantId.TRIANGULAR_MAMDANI, VariantId.GAUSSIAN_MAMDANI)
        for resolution in (101, 1001)
    }
    systems["mixed"] = lambda: mixed_system(EngineConfig.mamdani())
    systems["one-label"] = one_label_system
    systems["ladder-7"] = lambda: ladder_system("triangular", 7)
    systems["gaussian-ladder-6"] = lambda: ladder_system("gaussian", 6)
    return systems


MAMDANI_SYSTEMS = mamdani_systems()
# A clip level per label: a float, or an int standing for the label's own
# profile value at that sample index (modulo the resolution), which puts the
# level on a table entry.
level = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1e-300, 1.0]),
    st.integers(0, 1000),
)


@pytest.mark.parametrize("name", MAMDANI_SYSTEMS)
@settings(max_examples=25, deadline=None)
@given(levels=st.lists(st.lists(level, min_size=7, max_size=7), min_size=1, max_size=4))
@example(levels=[[0.0, 0.6, 0.0, 0.3, 0.0, 0.9, 0.0], [0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
@example(levels=[[0.4] * 7, [1.0] * 7])
@example(levels=[[0, 50, 100, 250, 500, 750, 1000], [0.5, 37, 0.5, 37, 0.5, 37, 0.5]])
@example(levels=[[0.0, 0.0, 0.0, 0.0, 1, 0.0, 0.0]])  # a Gaussian tail value, about 1e-19
@example(levels=[[1e-300] * 7, [1e-300, 0.8, 1e-300, 0.0, 1e-300, 0.2, 1e-300]])
# subnormal levels, whose products round to a few units unless scaled up
@example(levels=[[5e-324] + [0.0] * 6, [5e-324, 1e-320] + [0.0] * 5])
@example(levels=[[0.0] * 7])
def test_centroids_equal_the_sampled_reference(name, levels):
    # the kernel's centroids of clip levels, one column per label that a rule
    # uses, against clipping, max-aggregating and the centroid of the curve
    fs = MAMDANI_SYSTEMS[name]()
    used = [t for t in fs.output.terms if any(r.consequent == t.label for r in fs.rules)]
    xs = fs.output.universe.samples(fs.config.resolution)
    profiles = {t.label: t.mf.profile(xs) for t in used}
    rows = [
        [p[v % xs.size] if isinstance(v, int) else v for p, v in zip(profiles.values(), row)]
        for row in levels
    ]
    try:
        expected = [
            defuzz_centroid(aggregate_clipped(xs, profiles, dict(zip(profiles, row))))
            for row in rows
        ]
    except EmptyAggregateError:
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            fs._compiled.centroids(np.array(rows))
        return
    assert np.abs(fs._compiled.centroids(np.array(rows)) - expected).max() <= PARITY
