"""Line-oriented IF/THEN rule format and the loader for the six shipped rule bases.

Grammar (keywords case-insensitive, ``#`` starts a comment, blank lines are
skipped)::

    rule   := "IF" clause ("AND" clause)* "THEN" clause
    clause := NAME "IS" LABEL

Names and labels match the bound variables case-insensitively, with spaces,
hyphens, and underscores interchangeable, as ``engine.bind_rule`` binds them
for ``FuzzySystem`` too. Antecedents are pure conjunctions; disjunction is
not supported.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Sequence

from .catalog import DECISION_OUTPUT, DecisionId, standard_catalog
from .engine import Rule, bind_rule, input_index
from .membership import LinguisticVariable, normalize_label

__all__ = [
    "RuleBase",
    "RuleParseError",
    "parse_rules",
    "parse_catalog_rules",
    "serialize_rules",
    "builtin_rulebase",
]


class RuleParseError(ValueError):
    """Parse failure, carrying the offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(message, line)  # as given, so that a pickle round trip rebuilds it
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


@dataclass(frozen=True)
class RuleBase:
    """Ordered list of rules plus the variable order used for serialization."""

    rules: tuple[Rule, ...]
    variable_order: tuple[str, ...] = field(compare=False, default=())

    def __len__(self) -> int:
        return len(self.rules)


def _split_clauses(tokens: list[str], line_no: int) -> tuple[list[list[str]], list[str]]:
    """Split token stream into antecedent clauses and the consequent clause."""
    if not tokens or tokens[0].lower() != "if":
        raise RuleParseError("rule must start with IF", line_no)
    try:
        then_at = [t.lower() for t in tokens].index("then")
    except ValueError:
        raise RuleParseError("rule is missing THEN", line_no) from None
    antecedent_tokens = tokens[1:then_at]
    consequent_tokens = tokens[then_at + 1 :]
    clauses: list[list[str]] = [[]]
    for token in antecedent_tokens:
        if token.lower() == "and":
            clauses.append([])
        else:
            clauses[-1].append(token)
    if any(not clause for clause in clauses):
        raise RuleParseError("empty clause around AND", line_no)
    if not consequent_tokens:
        raise RuleParseError("empty consequent after THEN", line_no)
    return clauses, consequent_tokens


def _parse_clause(tokens: list[str], line_no: int) -> tuple[str, str]:
    """A clause is NAME IS LABEL; multi-word names and labels are allowed."""
    lowered = [t.lower() for t in tokens]
    if lowered.count("is") != 1:
        raise RuleParseError(
            f"clause needs exactly one IS: {' '.join(tokens)!r}", line_no
        )
    at = lowered.index("is")
    name = " ".join(tokens[:at])
    label = " ".join(tokens[at + 1 :])
    if not name or not label:
        raise RuleParseError(f"incomplete clause: {' '.join(tokens)!r}", line_no)
    return name, label


# One parsed rule line: its number, the IF clauses as (name, label) pairs in
# written order, and the THEN clause.
_RuleLine = tuple[int, list[tuple[str, str]], tuple[str, str]]


def _rule_lines(text: str) -> Iterator[_RuleLine]:
    """Syntax pass: split each rule line into clauses, binding nothing."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        clauses, consequent_tokens = _split_clauses(line.split(), line_no)
        antecedents = [_parse_clause(clause, line_no) for clause in clauses]
        yield line_no, antecedents, _parse_clause(consequent_tokens, line_no)


def _bind_rules(
    lines: Iterable[_RuleLine],
    inputs: Sequence[LinguisticVariable],
    output: LinguisticVariable,
) -> RuleBase:
    """Binding pass: ``bind_rule`` each line, and check what only text shows."""
    index = input_index(inputs)
    rules: list[Rule] = []
    seen: dict[tuple[tuple[str, str], ...], int] = {}
    for line_no, clauses, (out_name, out_label) in lines:
        if out_name != output.name and normalize_label(out_name) != normalize_label(output.name):
            raise RuleParseError(
                f"consequent must assign the output variable {output.name!r}, "
                f"got {out_name!r}",
                line_no,
            )
        try:
            rule = bind_rule(Rule(tuple(clauses), out_label), index, output)
        except (KeyError, ValueError) as exc:
            raise RuleParseError(exc.args[0], line_no) from None
        first = seen.setdefault(tuple(sorted(rule.antecedents)), line_no)
        if first != line_no:
            raise RuleParseError(f"duplicate antecedent set (first seen on line {first})", line_no)
        rules.append(rule)
    return RuleBase(tuple(rules), tuple(v.name for v in inputs) + (output.name,))


def parse_rules(
    text: str,
    inputs: Sequence[LinguisticVariable],
    output: LinguisticVariable,
) -> RuleBase:
    """Parse rule text against bound variables into a rule base.

    Duplicate antecedent sets are rejected outright (consistent or not), so
    transcription slips surface instead of silently overriding each other.
    """
    return _bind_rules(_rule_lines(text), inputs, output)


def _bind_decision(lines: Iterable[_RuleLine], decision: DecisionId) -> RuleBase:
    """Bind ``lines`` to one decision's triangular catalog inputs and output."""
    catalog = standard_catalog("triangular")
    return _bind_rules(lines, catalog.decision_inputs(decision), catalog.decision_output(decision))


def parse_catalog_rules(text: str) -> RuleBase:
    """Parse rule text against the decision its first THEN clause assigns.

    The text binds as ``builtin_rulebase`` binds that decision's file: to its
    catalog inputs, in ``DECISION_INPUTS`` order, and its output. An input
    outside the decision is an error at its line. Text without rules gives
    an empty rule base.
    """
    lines = list(_rule_lines(text))
    if not lines:
        return RuleBase(())
    line_no, _, (out_name, _) = lines[0]
    try:
        decision = DecisionId.parse(out_name)
    except ValueError:
        raise RuleParseError(
            f"unknown output variable {out_name!r}; "
            f"catalog outputs: {', '.join(DECISION_OUTPUT.values())}",
            line_no,
        ) from None
    return _bind_decision(lines, decision)


def serialize_rules(rulebase: RuleBase) -> str:
    """Canonical text form: one rule per line, antecedents in variable order."""
    if not rulebase.variable_order:
        raise ValueError("rule base has no variable order to serialize against")
    position = {name: i for i, name in enumerate(rulebase.variable_order)}
    lines = []
    for rule in rulebase.rules:
        ordered = sorted(rule.antecedents, key=lambda pair: position[pair[0]])
        clauses = " AND ".join(f"{name} IS {label}" for name, label in ordered)
        output_name = rulebase.variable_order[-1]
        lines.append(f"IF {clauses} THEN {output_name} IS {rule.consequent}")
    return "\n".join(lines)


@functools.cache
def builtin_rulebase(decision: DecisionId) -> RuleBase:
    """The shipped rule base for one decision, read from its ``.rules`` file."""
    name = DECISION_OUTPUT[decision] + ".rules"
    text = resources.files("fuzzycr.data").joinpath(name).read_text(encoding="utf-8")
    return _bind_decision(_rule_lines(text), decision)
