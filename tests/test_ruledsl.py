import pickle
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzycr.analysis import VariantId, build_system
from fuzzycr.catalog import DECISION_OUTPUT, DecisionId, standard_catalog
from fuzzycr.engine import EmptyAggregateError, FuzzySystem, Rule
from fuzzycr.ruledsl import (
    RuleParseError,
    builtin_rulebase,
    parse_rules,
    serialize_rules,
)

EXPECTED_COUNTS = {
    DecisionId.CHANNEL_SELECTION: 125,
    DecisionId.HANDOFF_STATUS: 25,
    DecisionId.CHANNEL_GAIN: 25,
    DecisionId.ACCESS_SPECTRUM: 27,
    DecisionId.ACCESS_LATENCY: 10,
    DecisionId.BANDWIDTH_ALLOCATION: 10,
}


def bound_variables(catalog, decision):
    inputs = catalog.decision_inputs(decision)
    output = catalog.decision_output(decision)
    return inputs, output


class TestParser:
    def test_single_rule(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.CHANNEL_SELECTION)
        text = (
            "IF signal_strength IS VeryHigh AND spectrum_demand IS Low "
            "AND snr IS Moderate THEN channel_selection IS High"
        )
        base = parse_rules(text, inputs, output)
        assert len(base) == 1
        rule = base.rules[0]
        assert dict(rule.antecedents) == {
            "signal_strength": "VeryHigh",
            "spectrum_demand": "Low",
            "snr": "Moderate",
        }
        assert rule.consequent == "High"

    def test_empty_text(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        base = parse_rules("", inputs, output)
        assert len(base) == 0

    def test_comments_and_blank_lines_skipped(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        text = "# header\n\nIF snr IS Low THEN handoff_status IS Off  # inline\n"
        assert len(parse_rules(text, inputs, output)) == 1

    def test_keywords_and_labels_case_insensitive(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        text = "if SNR is very_low then HANDOFF_STATUS is off"
        rule = parse_rules(text, inputs, output).rules[0]
        assert dict(rule.antecedents) == {"snr": "VeryLow"}
        assert rule.consequent == "Off"

    def test_spaces_in_labels(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        text = "IF snr IS Very Low THEN handoff status IS Off"
        rule = parse_rules(text, inputs, output).rules[0]
        assert dict(rule.antecedents) == {"snr": "VeryLow"}

    def test_unknown_variable_reports_line(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        with pytest.raises(RuleParseError, match="line 1") as err:
            parse_rules("IF x IS Foo THEN handoff_status IS On", inputs, output)
        assert err.value.line == 1

    def test_a_parse_error_survives_a_pickle_round_trip(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        with pytest.raises(RuleParseError) as err:
            parse_rules("# header\nIF snr IS Low", inputs, output)
        for error in (err.value, RuleParseError("x", 3)):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is RuleParseError
            assert (copy.line, str(copy)) == (error.line, str(error))
        assert str(err.value) == "line 2: rule is missing THEN"
        assert str(RuleParseError("x", 3)) == "line 3: x"

    def test_unknown_label_lists_valid_labels(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        with pytest.raises(RuleParseError, match="VeryLow"):
            parse_rules("IF snr IS Foo THEN handoff_status IS On", inputs, output)

    def test_duplicate_antecedents_report_both_lines(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        text = (
            "IF snr IS Low AND interference IS High THEN handoff_status IS Off\n"
            "IF interference IS High AND snr IS Low THEN handoff_status IS On\n"
        )
        with pytest.raises(RuleParseError, match="line 2.*line 1"):
            parse_rules(text, inputs, output)

    def test_consequent_must_assign_output(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        with pytest.raises(RuleParseError, match="output"):
            parse_rules("IF snr IS Low THEN snr IS Low", inputs, output)

    def test_missing_then(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        with pytest.raises(RuleParseError, match="THEN"):
            parse_rules("IF snr IS Low", inputs, output)

    @pytest.mark.parametrize("line, message", [
        ("snr IS Low THEN handoff_status IS Off", "rule must start with IF"),
        ("IF snr IS Low AND THEN handoff_status IS Off", "empty clause around AND"),
        ("IF snr IS Low AND AND interference IS High THEN handoff_status IS Off",
         "empty clause around AND"),
        ("IF snr IS Low THEN", "empty consequent after THEN"),
        ("IF snr Low THEN handoff_status IS Off", "clause needs exactly one IS: 'snr Low'"),
        ("IF snr IS Low IS High THEN handoff_status IS Off", "clause needs exactly one IS"),
        ("IF snr IS THEN handoff_status IS Off", "incomplete clause: 'snr IS'"),
        ("IF snr IS Low THEN IS Off", "incomplete clause: 'IS Off'"),
    ])
    def test_a_syntax_error_names_its_line(self, tri_catalog, line, message):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        with pytest.raises(RuleParseError, match=f"^line 2: {re.escape(message)}"):
            parse_rules("# a comment\n" + line, inputs, output)

    def test_repeated_variable_in_one_rule(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        text = "IF snr IS Low AND snr IS High THEN handoff_status IS Off"
        with pytest.raises(RuleParseError, match="twice"):
            parse_rules(text, inputs, output)


class TestSerializer:
    def test_single_line_without_trailing_separator(self, tri_catalog):
        inputs, output = bound_variables(tri_catalog, DecisionId.HANDOFF_STATUS)
        base = parse_rules(
            "IF interference IS High AND snr IS Low THEN handoff_status IS Off",
            inputs,
            output,
        )
        text = serialize_rules(base)
        # canonical order puts snr (first system input) first
        assert text == "IF snr IS Low AND interference IS High THEN handoff_status IS Off"

    def test_builtin_channel_gain_is_25_lines(self):
        text = serialize_rules(builtin_rulebase(DecisionId.CHANNEL_GAIN))
        assert len(text.splitlines()) == 25

    @pytest.mark.parametrize("decision", list(DecisionId))
    def test_round_trip_identity(self, tri_catalog, decision):
        base = builtin_rulebase(decision)
        inputs, output = bound_variables(tri_catalog, decision)
        reparsed = parse_rules(serialize_rules(base), inputs, output)
        assert reparsed.rules == base.rules


class TestBuiltinBases:
    @pytest.mark.parametrize("decision", list(DecisionId))
    def test_rule_counts(self, decision):
        assert len(builtin_rulebase(decision)) == EXPECTED_COUNTS[decision]

    @pytest.mark.parametrize("decision", list(DecisionId))
    def test_exhaustive_cartesian_coverage(self, tri_catalog, decision):
        base = builtin_rulebase(decision)
        inputs, _ = bound_variables(tri_catalog, decision)
        combos = {
            tuple(dict(rule.antecedents)[v.name] for v in inputs)
            for rule in base.rules
        }
        assert len(combos) == len(base.rules)  # no duplicate antecedents
        expected = set(product(*(v.labels for v in inputs)))
        assert combos == expected

    @pytest.mark.parametrize("decision", list(DecisionId))
    def test_consequents_exist_in_output_variable(self, tri_catalog, decision):
        base = builtin_rulebase(decision)
        output = tri_catalog.decision_output(decision)
        for rule in base.rules:
            assert rule.consequent in output.labels

    def test_spot_checked_rows(self):
        handoff = {
            tuple(sorted(dict(r.antecedents).items())): r.consequent
            for r in builtin_rulebase(DecisionId.HANDOFF_STATUS).rules
        }
        assert handoff[(("interference", "Moderate"), ("snr", "VeryHigh"))] == "On"
        assert handoff[(("interference", "VeryLow"), ("snr", "Moderate"))] == "Off"

        spectrum = {
            tuple(sorted(dict(r.antecedents).items())): r.consequent
            for r in builtin_rulebase(DecisionId.ACCESS_SPECTRUM).rules
        }
        key = (
            ("degree_of_mobility", "Small"),
            ("distance_to_primary_user", "Small"),
            ("spectrum_utilisation_efficiency", "Small"),
        )
        assert spectrum[key] == "VeryLow"

        latency = {
            tuple(sorted(dict(r.antecedents).items())): r.consequent
            for r in builtin_rulebase(DecisionId.ACCESS_LATENCY).rules
        }
        assert latency[(("ba_traffic_intensity", "Absent"), ("su_traffic_intensity", "VeryLow"))] == "VeryLow"

        bandwidth = {
            tuple(sorted(dict(r.antecedents).items())): r.consequent
            for r in builtin_rulebase(DecisionId.BANDWIDTH_ALLOCATION).rules
        }
        assert bandwidth[(("access_latency", "VeryHigh"), ("traffic_priority", "Present"))] == "VeryLow"
        assert bandwidth[(("access_latency", "VeryLow"), ("traffic_priority", "Absent"))] == "VeryHigh"

    def test_channel_selection_spot_rows(self):
        rows = {
            tuple(sorted(dict(r.antecedents).items())): r.consequent
            for r in builtin_rulebase(DecisionId.CHANNEL_SELECTION).rules
        }

        def at(signal, demand, snr):
            return rows[(
                ("signal_strength", signal),
                ("snr", snr),
                ("spectrum_demand", demand),
            )]

        assert at("VeryHigh", "Low", "Moderate") == "High"
        assert at("Moderate", "Moderate", "Moderate") == "Moderate"
        assert at("Low", "VeryLow", "VeryLow") == "Moderate"  # the printed duplicate row
        assert at("VeryLow", "Moderate", "Moderate") == "VeryLow"
        assert at("Low", "Moderate", "Low") == "Low"

    @pytest.mark.parametrize("decision", list(DecisionId))
    def test_shipped_rule_files_match_builtins(self, decision):
        # the built-in bases are loaded from these files, so check the other
        # direction: each file is the canonical text of the base it defines
        from importlib import resources

        name = DECISION_OUTPUT[decision] + ".rules"
        text = resources.files("fuzzycr.data").joinpath(name).read_text("utf-8")
        rule_lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert rule_lines == serialize_rules(builtin_rulebase(decision)).splitlines()


def test_decision_id_parsing():
    assert DecisionId.parse("channel-selection") is DecisionId.CHANNEL_SELECTION
    assert DecisionId.parse("Handoff_Status") is DecisionId.HANDOFF_STATUS
    with pytest.raises(ValueError, match="bandwidth-allocation"):
        DecisionId.parse("nonsense")


def respell(rng, text):
    """``text`` as another writer might spell it: any case, and any of "",
    "_", "-" or " " where words meet. Spaces fall only between words, so no
    word can become an IS or AND keyword."""
    words = re.sub(r"([a-z])([A-Z])", r"\1 \2", text).replace("_", " ").split()
    out = []
    for i, word in enumerate(words):
        if i:
            out.append(rng.choice(["", "_", "-", " "]))
        for j, char in enumerate(word):
            if j:
                out.append(rng.choice(["", "", "_", "-"]))
            out.append(rng.choice([char.lower(), char.upper()]))
    return "".join(out)


@pytest.mark.parametrize("decision", list(DecisionId), ids=lambda d: d.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_respelled_rules_bind_alike_in_the_parser_and_the_system(decision, data):
    # bind_rule serves both: any spelling of some shipped rules gives those
    # rules back, and a system that evaluates bit for bit as theirs
    catalog = standard_catalog(data.draw(st.sampled_from(["triangular", "gaussian"])))
    inputs, output = bound_variables(catalog, decision)
    shipped = builtin_rulebase(decision).rules
    chosen = sorted(data.draw(st.sets(st.sampled_from(range(len(shipped))), min_size=1,
                                      max_size=8)))
    rng = data.draw(st.randoms(use_true_random=False))
    rules, lines = [], []
    for rule in (shipped[i] for i in chosen):
        pairs = [(respell(rng, name), respell(rng, label)) for name, label in rule.antecedents]
        consequent = respell(rng, rule.consequent)
        rules.append(Rule(tuple(pairs), consequent))
        keyword = rng.choice(["IS", "is", "Is"])
        clauses = " AND ".join(f"{name} {keyword} {label}" for name, label in pairs)
        lines.append(f"if {clauses} THEN {respell(rng, output.name)} {keyword} {consequent}")
    expected = tuple(shipped[i] for i in chosen)
    system = FuzzySystem(inputs, output, rules)
    assert system.rules == parse_rules("\n".join(lines), inputs, output).rules == expected
    reference = FuzzySystem(inputs, output, expected)
    rows = data.draw(st.lists(
        st.lists(st.floats(0.0, 100.0), min_size=len(inputs), max_size=len(inputs)),
        min_size=1, max_size=4,
    ))
    for row in rows:
        assert outcome(system, row) == outcome(reference, row)


def outcome(system, row):
    """``system.evaluate(row)``, or the error it raises if no rule fires."""
    try:
        return system.evaluate(row)
    except EmptyAggregateError as exc:
        return repr(exc)


@pytest.mark.parametrize("decision", list(DecisionId), ids=lambda d: d.value)
def test_a_respelled_rule_file_evaluates_as_the_shipped_system(tri_catalog, decision):
    inputs, output = bound_variables(tri_catalog, decision)
    text = serialize_rules(builtin_rulebase(decision))
    spelled = parse_rules(text.upper().replace("_", " "), inputs, output)
    assert spelled.rules == builtin_rulebase(decision).rules
    system = FuzzySystem(inputs, output, [
        Rule(tuple((name.upper(), label.lower()) for name, label in rule.antecedents),
             rule.consequent.swapcase())
        for rule in spelled.rules
    ])
    shipped = build_system(decision, VariantId.TRIANGULAR_MAMDANI)
    x = np.random.default_rng(5).uniform(0.0, 100.0, (20, len(inputs)))
    assert [system.evaluate(row) for row in x] == [shipped.evaluate(row) for row in x]
