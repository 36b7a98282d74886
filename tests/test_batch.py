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

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzycr.analysis import STANDARD_SWEEPS, VariantId, build_system, surface_grid
from fuzzycr.catalog import DECISION_INPUTS, DecisionId, sugeno_levels
from fuzzycr.engine import (
    BATCH_ROWS,
    MAX_LABEL_SUBSETS,
    EmptyAggregateError,
    EngineKind,
    FuzzySystem,
    Rule,
    SugenoConsequent,
    _label_subsets,
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
PARITY = 1e-12

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
    strengths = [firing_strength(rule, fuzzified, fs.kind) for rule in fs.rules]
    if fs.kind is EngineKind.MAMDANI:
        xs = fs.output.universe.samples(fs.resolution)
        profiles = {term.label: term.mf.profile(xs) for term in fs.output.terms}
        levels = {}
        for rule, w in zip(fs.rules, strengths):
            levels[rule.consequent] = max(levels.get(rule.consequent, 0.0), w)
        return defuzz_centroid(aggregate_clipped(xs, profiles, levels))
    if sum(strengths) == 0.0:
        raise EmptyAggregateError()
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
    """Both kernel entry points equal the reference within ``PARITY``;
    returns the batch and the one-row outputs."""
    expected = reference(fs, x)
    batch = fs.evaluate_batch(x)
    assert np.abs(batch - expected).max() <= PARITY
    scalar = np.array([fs.evaluate(list(row)) for row in x])
    assert np.abs(scalar - expected).max() <= PARITY
    return batch, scalar


@settings(max_examples=150, deadline=None)
@given(pair_and_rows())
def test_batch_equals_scalar(case):
    decision, variant, x = case
    assert_parity(build_system(decision, variant), x)


# A row's output may depend on the batch around it in the last bits: the
# matrix products in the centroid and weighted-average steps pick their BLAS
# kernel by shape, and the sums over rules run over the leading axis, whose
# order of additions depends on the chunk's width. Outputs are byte-stable
# for a given call, and within this bound across batchings.
BATCH_COMPOSITION = 1e-12


# a one-row chunk, a chunk one row short, a full chunk, and one and two full
# chunks with one row over
@pytest.mark.parametrize("rows", [1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 2 * BATCH_ROWS + 1])
@pytest.mark.parametrize("decision,variant", PAIRS, ids=lambda p: p.value)
def test_batch_equals_scalar_across_chunks(decision, variant, rows):
    rng = np.random.default_rng(7)
    fs = build_system(decision, variant)
    x = rng.uniform(-20.0, 120.0, (rows, len(fs.inputs)))
    x[::3] = np.round(x[::3] / 5.0) * 5.0
    batch, alone = assert_parity(fs, x)
    assert np.abs(batch - alone).max() <= BATCH_COMPOSITION


@pytest.mark.parametrize("decision,variant", PAIRS, ids=lambda p: p.value)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_row_reads_the_same_in_any_batch(decision, variant, data):
    fs = build_system(decision, variant)
    x = np.array(data.draw(rows_for(decision, max_rows=2 * BATCH_ROWS + 5)))
    cuts = data.draw(st.lists(st.integers(1, len(x)), max_size=4, unique=True))
    bounds = [0, *sorted(cuts), len(x)]
    batched = np.concatenate([fs.evaluate_batch(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    alone = np.array([fs.evaluate(list(row)) for row in x])
    assert np.abs(batched - alone).max() <= BATCH_COMPOSITION


def test_stacked_standard_sweeps_equal_row_by_row_evaluation(all_sweeps):
    for key, decision, varied in STANDARD_SWEEPS:
        result = all_sweeps[key]
        names = DECISION_INPUTS[decision]
        for variant in result.spec.variants:
            fs = build_system(decision, variant)
            alone = [
                fs.evaluate({n: x if n == varied else result.spec.fixed_value for n in names})
                for x in result.spec.grid
            ]
            assert np.abs(np.subtract(result.column(variant), alone)).max() <= BATCH_COMPOSITION


@pytest.mark.parametrize(
    "input_a,input_b", itertools.combinations(DECISION_INPUTS[DecisionId.CHANNEL_SELECTION], 2)
)
def test_surfaces_equal_row_by_row_evaluation(input_a, input_b):
    decision = DecisionId.CHANNEL_SELECTION
    grid = tuple(float(x) for x in range(0, 101, 10))
    surfaces = surface_grid(decision, input_a, input_b, fixed_value=30.0, grid=grid)
    for variant, values in surfaces.items():
        fs = build_system(decision, variant)
        alone = [
            [fs.evaluate({n: 30.0 for n in DECISION_INPUTS[decision]} | {input_a: a, input_b: b})
             for b in grid]
            for a in grid
        ]
        assert values.shape == (len(grid), len(grid))
        assert np.abs(values - alone).max() <= BATCH_COMPOSITION


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


@pytest.mark.parametrize("entry", ["40", b"40", "abc", 1 + 0j], ids=repr)
def test_an_entry_that_numpy_would_parse_is_still_not_a_number(entry):
    # numpy reads "40" and b"40" as 40.0; only a numbers.Real is an input
    fs = build_system(DecisionId.HANDOFF_STATUS, VariantId.GAUSSIAN_MAMDANI)
    message = re.escape(f"input 'snr' is not a number: {entry!r}")
    for call in (lambda: fs.evaluate({"snr": entry, "interference": 50.0}),
                 lambda: fs.evaluate_batch([[1.0, 2.0], [entry, 50.0]]),
                 lambda: fs.evaluate_batch(np.array([[entry, 50.0]], dtype=object))):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_real_number_of_any_type_is_an_input():
    fs = build_system(DecisionId.HANDOFF_STATUS, VariantId.GAUSSIAN_MAMDANI)
    expected = fs.evaluate([40.0, 50.0])
    for snr in (Fraction(40), 40, np.int8(40), np.float32(40.0)):
        assert fs.evaluate({"snr": snr, "interference": 50.0}) == expected
    assert fs.evaluate_batch(np.array([[40, 50]])).tolist() == [expected]


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


def mixed_system(kind, inputs=MIXED_INPUTS["triangles-first"]):
    """Mixed shapes in one input, and rules of one and two antecedents."""
    consequents = ["Low", "High", "High", "Low"]
    if kind is EngineKind.SUGENO:
        consequents = [SugenoConsequent(c, (("m", 0.3),)) for c in (10.0, 90.0, 70.0, 5.0)]
    rules = [
        Rule.of({"x": "Lo"}, consequents[0]),
        Rule.of({"m": "Mid", "x": "Hi"}, consequents[1]),
        Rule.of({"x": "Hi", "m": "High"}, consequents[2]),
        Rule.of({"m": "Low"}, consequents[3]),
    ]
    return FuzzySystem(inputs, Y_VAR, rules)


@pytest.mark.parametrize("inputs", MIXED_INPUTS.values(), ids=list(MIXED_INPUTS))
@pytest.mark.parametrize("kind", EngineKind)
def test_mixed_shapes_and_rule_lengths_match_scalar(kind, inputs):
    fs = mixed_system(kind, inputs)
    x = np.array([[a, b] for a in range(-10, 111, 5) for b in range(-10, 111, 5)], dtype=float)
    assert_parity(fs, x)


def one_label_system():
    return FuzzySystem([X_VAR], Y_VAR, [Rule.of({"x": "Hi"}, "High")])


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
    return FuzzySystem([X_VAR], output, rules)


def test_empty_aggregate_raises():
    mamdani = one_label_system()
    sugeno = FuzzySystem([X_VAR], Y_VAR, [Rule.of({"x": "Hi"}, SugenoConsequent(50.0))])
    for fs in (mamdani, sugeno):
        assert fs.evaluate_batch([[100.0]])[0] == fs.evaluate([100.0])
        with pytest.raises(EmptyAggregateError, match="^empty aggregate$") as info:
            fs.evaluate_batch([[100.0], [0.0]])
        assert info.value.row == 1
        with pytest.raises(EmptyAggregateError) as info:
            fs.evaluate([0.0])
        assert info.value.row == 0


def test_a_label_outside_the_universe_leaves_every_aggregate_empty():
    far = LinguisticTerm("Far", Triangular(150, 200, 250))
    output = LinguisticVariable("y", U, Y_VAR.terms + (far,))
    fs = FuzzySystem([X_VAR], output, [Rule.of({"x": "Lo"}, "Far")])
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
    permuted = FuzzySystem(fs.inputs, fs.output, rules, fs.resolution)
    assert np.abs(permuted.evaluate_batch(x) - fs.evaluate_batch(x)).max() <= PARITY
    assert np.abs(reference(permuted, x) - reference(fs, x)).max() <= PARITY


@pytest.mark.parametrize("kind", EngineKind)
def test_rule_labels_are_matched_like_variable_labels(kind):
    # case, spaces, hyphens and underscores are ignored at construction, so
    # both paths see the variables' own labels
    def rules(lo, hi, low, high):
        if kind is EngineKind.SUGENO:
            low, high = SugenoConsequent(20.0), SugenoConsequent(80.0)
        return [Rule.of({"x": lo}, low), Rule.of({"x": hi}, high)]

    canonical = FuzzySystem([X_VAR], Y_VAR, rules("Lo", "Hi", "Low", "High"))
    spelled = FuzzySystem([X_VAR], Y_VAR, rules("lo", "HI", "l o-w", "hi_GH"))
    assert spelled.rules == canonical.rules
    x = np.linspace(-10.0, 110.0, 25)[:, None]
    assert reference(spelled, x).tolist() == reference(canonical, x).tolist()
    assert spelled.evaluate_batch(x).tolist() == canonical.evaluate_batch(x).tolist()



@pytest.mark.parametrize("decision,variant", PAIRS, ids=lambda p: p.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raising_a_term_degree_never_lowers_a_clip_level_or_strength(decision, variant, data):
    # a fuzzified (T + 1) x N degree matrix, whose last row is the constant
    # 1 that pads short rules, and the same matrix with one term raised
    fs = build_system(decision, variant)
    n = data.draw(st.integers(1, 4))
    degrees = np.ones((fs._n_terms + 1, n))
    degrees[:-1] = np.transpose(data.draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=fs._n_terms, max_size=fs._n_terms),
        min_size=n, max_size=n,
    )))
    raised = degrees.copy()
    term = data.draw(st.integers(0, fs._n_terms - 1))
    raised[term] = [data.draw(st.floats(d, 1.0)) for d in degrees[term]]
    before, after = fs._fire(degrees), fs._fire(raised)
    if fs.kind is EngineKind.MAMDANI:
        # clip levels: the strongest rule of each consequent label
        before = fs._clip_levels(before)
        after = fs._clip_levels(after)
    assert (after >= before).all()


def test_an_output_with_too_many_overlapping_labels_is_rejected():
    # seven Gaussians overlap everywhere: 127 label subsets
    with pytest.raises(ValueError, match="output 'ladder' needs at least 127 label subsets"):
        ladder_system("gaussian", 7)
    # a triangle ladder overlaps only its neighbours: 7 + 6 subsets
    fs = ladder_system("triangular", 7)
    assert len(fs._tables.signs) == 13 <= MAX_LABEL_SUBSETS
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
    systems["mixed"] = lambda: mixed_system(EngineKind.MAMDANI)
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
    # the kernel's centroids of clip levels, one row per label that a rule
    # uses and one column per case, against clipping, max-aggregating and
    # the centroid of the curve
    fs = MAMDANI_SYSTEMS[name]()
    used = [t for t in fs.output.terms if any(r.consequent == t.label for r in fs.rules)]
    xs = fs.output.universe.samples(fs.resolution)
    profiles = {t.label: t.mf.profile(xs) for t in used}
    rows = [
        [p[v % xs.size] if isinstance(v, int) else v for p, v in zip(profiles.values(), row)]
        for row in levels
    ]
    # the stage gives each column's moment and mass; a column's mass is
    # positive exactly when the reference finds its aggregate nonempty
    moment, mass = fs._centroids(np.array(rows).T)
    for row, row_moment, row_mass in zip(rows, moment, mass):
        try:
            expected = defuzz_centroid(aggregate_clipped(xs, profiles, dict(zip(profiles, row))))
        except EmptyAggregateError:
            assert not row_mass > 0.0
            continue
        assert row_mass > 0.0
        assert abs(row_moment / row_mass - expected) <= PARITY


# every standard system, and the custom Mamdani ones above
ALL_SYSTEMS = {
    **{f"{d.value}/{v.value}": lambda d=d, v=v: build_system(d, v) for d, v in PAIRS},
    **{name: make for name, make in MAMDANI_SYSTEMS.items() if "/" not in name},
}


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_strength_row_r_is_rule_r(name):
    # the kernel keeps the caller's rule order for both kinds: row r of the
    # strengths is rules[r] fired rule by rule
    fs = ALL_SYSTEMS[name]()
    rng = np.random.default_rng(11)
    chunk = np.array([rng.uniform(v.universe.lo, v.universe.hi, BATCH_ROWS) for v in fs.inputs])
    chunk[:, ::3] = np.round(chunk[:, ::3] / 5.0) * 5.0  # where terms peak and cross
    strengths = fs._fire(fs._fuzzify(chunk))
    assert strengths.shape == (len(fs.rules), BATCH_ROWS)
    for i, column in enumerate(chunk.T):
        fuzzified = {var.name: var.fuzzify(float(x)) for var, x in zip(fs.inputs, column)}
        expected = [firing_strength(rule, fuzzified, fs.kind) for rule in fs.rules]
        assert np.abs(strengths[:, i] - expected).max() <= PARITY


def used_labels(fs):
    return [label for label in fs.output.labels if any(r.consequent == label for r in fs.rules)]


@pytest.mark.parametrize("name", MAMDANI_SYSTEMS)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, BATCH_ROWS + 1), seed=st.integers(0, 2 ** 32 - 1))
def test_clip_levels_are_the_strongest_rule_of_each_label(name, n, seed):
    # random strengths, with ties, zeros and ones, against a per-label max
    # written out rule by rule
    fs = MAMDANI_SYSTEMS[name]()
    rules = fs.rules
    rng = np.random.default_rng(seed)
    strengths = np.where(rng.random((len(rules), n)) < 0.3,
                         rng.choice([0.0, 0.5, 1.0], (len(rules), n)),
                         rng.random((len(rules), n)))
    expected = [
        [max(strengths[r, i] for r, rule in enumerate(rules) if rule.consequent == label)
         for i in range(n)]
        for label in used_labels(fs)
    ]
    assert fs._clip_levels(strengths).tolist() == expected


@pytest.mark.parametrize("name", MAMDANI_SYSTEMS)
def test_each_label_row_lists_its_own_rules_padded_with_its_first(name):
    fs = MAMDANI_SYSTEMS[name]()
    rules = fs.rules
    seen = []
    for label, row in zip(used_labels(fs), fs._label_rows.tolist(), strict=True):
        own = [r for r, rule in enumerate(rules) if rule.consequent == label]
        assert row == own + own[:1] * (len(row) - len(own))
        seen += own
    assert sorted(seen) == list(range(len(rules)))  # every rule, once
    # padded to the most rules any label has, no wider
    assert fs._label_rows.shape[1] == max(
        sum(rule.consequent == label for rule in rules) for label in used_labels(fs)
    )


def output_subsets(fs):
    """The label subsets of the labels ``fs``'s rules use, each with Q_S."""
    used = [t for t in fs.output.terms if any(r.consequent == t.label for r in fs.rules)]
    xs = fs.output.universe.samples(fs.resolution)
    return _label_subsets([t.mf.profile(xs) for t in used])


def brute_force_splits(subsets, levels):
    """Each subset's minimum clip level c_S and split index, counted: the
    start of its table in the flat arrays, plus the number of nonzero Q_S
    samples below c_S. Both N x S."""
    starts = {}  # each distinct Q_S's first entry, tables in order of first use
    end = 0
    for _, q in subsets:
        if q.tobytes() not in starts:
            starts[q.tobytes()] = end
            end += np.count_nonzero(q) + 1  # its nonzero q and a sentinel
    c = np.empty((len(levels), len(subsets)))
    j = np.empty((len(levels), len(subsets)), dtype=np.intp)
    for s, (members, q) in enumerate(subsets):
        c[:, s] = levels[:, list(members)].min(axis=1)
        j[:, s] = [starts[q.tobytes()] + np.count_nonzero((q > 0.0) & (q < c_s))
                   for c_s in c[:, s]]
    return c, j


def assert_real_key_splits(fs, seed):
    # random clip levels, levels that are table entries, and the extremes
    subsets = output_subsets(fs)
    entries = np.concatenate([q[q > 0.0] for _, q in subsets])
    shape = (8, len(fs._label_rows))
    rng = np.random.default_rng(seed)
    levels = np.vstack([
        rng.uniform(0.0, 1.0, shape),
        rng.choice(entries, shape),
        np.where(rng.random(shape) < 0.5, rng.choice(entries, shape),
                 rng.uniform(0.0, 1.0, shape)),
        rng.choice([0.0, 5e-324, entries.min(), entries.max(), 1.0], shape),
        np.array([0.0, 5e-324, entries.min(), entries.max(), 1.0])[:, None].repeat(shape[1], 1),
    ])
    # the kernel takes labels x N levels and gives S x N splits
    c, j = fs._tables.split_at(levels.T)
    expected_c, expected_j = brute_force_splits(subsets, levels)
    assert np.array_equal(c, expected_c.T)
    assert np.array_equal(j, expected_j.T)


@pytest.mark.parametrize("name", MAMDANI_SYSTEMS)
def test_the_real_key_split_is_the_brute_force_split(name):
    assert_real_key_splits(MAMDANI_SYSTEMS[name](), seed=7)


def test_the_real_key_split_holds_past_sixteen_bit_counts():
    # at this resolution one table holds more than 2^16 - 1 entries, which
    # a 16-bit split index could not reach
    fs = build_system(DecisionId.CHANNEL_SELECTION, VariantId.GAUSSIAN_MAMDANI, 100001)
    assert fs._tables.split.max() > np.iinfo(np.uint16).max
    assert_real_key_splits(fs, seed=11)


@pytest.mark.parametrize("decision,variant", PAIRS, ids=lambda p: p.value)
def test_the_kernel_arrays_are_c_contiguous(decision, variant):
    # each gather copies whole rows only from C-contiguous index arrays and
    # tables; a transposed view would make every chunk pay strided copies
    fs = build_system(decision, variant)
    arrays = {"_antecedents": fs._antecedents}
    for g, (_, columns, params) in enumerate(fs._shapes):
        arrays.update({f"_shapes[{g}] columns": columns})
        arrays.update({f"_shapes[{g}] param {i}": p for i, p in enumerate(params)})
    if fs.kind is EngineKind.MAMDANI:
        t = fs._tables
        arrays.update(_label_rows=fs._label_rows, members=t.members, split=t.split, rank_rows=t.rank_rows,
                      below=t.below, above=t.above, q_levels=t.q_levels, signs=t.signs)
        assert t.below.shape == t.above.shape == (2, t.split.max() + 1)
    assert [name for name, a in arrays.items() if not a.flags.c_contiguous] == []
