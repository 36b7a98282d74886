"""Every public constructor and entry point rejects a value of the wrong type,
or a number that is not finite, with a ValueError or TypeError whose message
names the field: never an AttributeError, IndexError or KeyError, nor a
message from numpy or ``math``."""

import dataclasses
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzycr.analysis import SweepSpec, VariantId, build_system, surface_grid
from fuzzycr.catalog import DecisionId
from fuzzycr.engine import Rule, SugenoConsequent, check_resolution
from fuzzycr.membership import Gaussian, LinguisticTerm, LinguisticVariable, Triangular, Universe
from fuzzycr.metrics import CalibrationRange, RadioScenario

HANDOFF = DecisionId.HANDOFF_STATUS
LINEAR = VariantId.LINEAR_SUGENO
U = Universe(0.0, 100.0)
TERMS = (LinguisticTerm("Lo", Triangular(0.0, 0.0, 100.0)),
         LinguisticTerm("Hi", Triangular(0.0, 100.0, 100.0)))

# Values no field accepts where a str is expected: hashable, so that they can
# also be mapping keys.
NOT_A_STR = st.one_of(
    st.sampled_from([None, 5, 1.5, math.nan, math.inf, -math.inf, 1j, b"On", Decimal("1"),
                     np.float64("nan"), np.float32("inf"), ("On",)]),
    st.integers(),
    st.floats(),
)
# Values no field accepts where a finite number is expected.
NOT_A_FINITE_NUMBER = st.one_of(
    st.sampled_from([None, math.nan, math.inf, -math.inf, np.float64("nan"),
                     np.float32("-inf"), 1j, Decimal("1"), Decimal("NaN"), b"1", [None], {}]),
    st.text(max_size=4),
    st.floats().filter(lambda x: not math.isfinite(x)),
)
# Neither a finite number nor a str.
NEITHER = st.one_of(NOT_A_STR.filter(lambda v: not isinstance(v, (int, float))),
                    NOT_A_FINITE_NUMBER.filter(lambda v: not isinstance(v, str)))

# Not a tuple of VariantId: the variants field of sweeps and surfaces.
VARIANTS = st.one_of(
    NOT_A_STR, NOT_A_FINITE_NUMBER,
    st.sampled_from([[LINEAR], "linear-sugeno", (LINEAR, "linear-sugeno"), (None,)]),
)


def _fields(cls, valid=None):
    """One case per field of a numeric dataclass, the others left valid."""
    return [
        (f"{cls.__name__}.{f.name}",
         lambda v, name=f.name: cls(**{**(valid or {}), name: v}),
         f"needs a finite {f.name}, got", NOT_A_FINITE_NUMBER)
        for f in dataclasses.fields(cls)
    ]


# (entry point and field, call with the value, fragment of the message, values)
CASES = [
    *_fields(Universe, {"lo": 0.0, "hi": 100.0}),
    *_fields(Triangular, {"a": 0.0, "b": 50.0, "c": 100.0}),
    *_fields(Gaussian, {"mean": 50.0, "sigma": 10.0}),
    *_fields(CalibrationRange, {"raw_lo": 0.0, "raw_hi": 1.0}),
    *_fields(RadioScenario),
    ("SugenoConsequent.constant", lambda v: SugenoConsequent(v),
     "Sugeno constant must be a finite number", NOT_A_FINITE_NUMBER),
    ("SugenoConsequent.coefficients", lambda v: SugenoConsequent(0.0, (("snr", v),)),
     "coefficient must be a (name, finite number) pair", NOT_A_FINITE_NUMBER),
    ("SugenoConsequent.coefficients name", lambda v: SugenoConsequent(0.0, ((v, 1.0),)),
     "coefficient must be a (name, finite number) pair", NOT_A_STR),
    ("Rule.of antecedent label", lambda v: Rule.of({"snr": v}, "Low"),
     "antecedent must be a (name, label) pair", NOT_A_STR),
    ("Rule.of antecedent name", lambda v: Rule.of({v: "Low"}, "Low"),
     "antecedent must be a (name, label) pair", NOT_A_STR),
    ("Rule.of consequent", lambda v: Rule.of({"snr": "Low"}, v),
     "rule consequent must be a label or SugenoConsequent, got", NOT_A_STR),
    ("LinguisticTerm.label", lambda v: LinguisticTerm(v, TERMS[0].mf),
     "term label must be a str, got", NOT_A_STR),
    ("LinguisticTerm.mf", lambda v: LinguisticTerm("Lo", v),
     "term mf must be a membership function, got", st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER)),
    ("LinguisticVariable.name", lambda v: LinguisticVariable(v, U, TERMS),
     "variable name must be a str, got", NOT_A_STR),
    ("LinguisticVariable.universe", lambda v: LinguisticVariable("x", v, TERMS),
     "variable universe must be a Universe, got",
     st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER, st.just((0, 100)))),
    ("LinguisticVariable.terms", lambda v: LinguisticVariable("x", U, v),
     "variable terms must be a tuple of LinguisticTerm, got",
     st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER, st.just(list(TERMS)), st.just((*TERMS, "Mid")))),
    ("SweepSpec.decision", lambda v: SweepSpec(v, "snr"),
     "decision must be a DecisionId, got", st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER)),
    ("SweepSpec.varied", lambda v: SweepSpec(HANDOFF, v),
     "is not an input of handoff-status; inputs: snr, interference", NOT_A_STR),
    ("SweepSpec.fixed_value", lambda v: SweepSpec(HANDOFF, "snr", fixed_value=v),
     "fixed_value must be a finite number, got", NOT_A_FINITE_NUMBER),
    ("SweepSpec.variants", lambda v: SweepSpec(HANDOFF, "snr", variants=v),
     "variants must be a tuple of VariantId, got", VARIANTS),
    ("SweepSpec.grid", lambda v: SweepSpec(HANDOFF, "snr", grid=(10.0, v)),
     "sweep grid must hold finite numbers, got", NOT_A_FINITE_NUMBER),
    ("surface_grid.decision", lambda v: surface_grid(v, "snr", "interference"),
     "decision must be a DecisionId, got", st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER)),
    ("surface_grid.input_b", lambda v: surface_grid(HANDOFF, "snr", v),
     "is not an input of handoff-status; inputs: snr, interference", NOT_A_STR),
    ("surface_grid.fixed_value",
     lambda v: surface_grid(HANDOFF, "snr", "interference", fixed_value=v),
     "fixed_value must be a finite number, got", NOT_A_FINITE_NUMBER),
    ("surface_grid.variants", lambda v: surface_grid(HANDOFF, "snr", "interference", variants=v),
     "variants must be a tuple of VariantId, got", VARIANTS),
    ("surface_grid.grid", lambda v: surface_grid(HANDOFF, "snr", "interference", grid=(v,)),
     "sweep grid must hold finite numbers, got", NOT_A_FINITE_NUMBER),
    ("build_system.decision", lambda v: build_system(v, LINEAR),
     "decision must be a DecisionId, got", st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER)),
    ("build_system.variant", lambda v: build_system(HANDOFF, v),
     "variant must be a VariantId, got", st.one_of(NOT_A_STR, NOT_A_FINITE_NUMBER)),
    ("build_system.resolution", lambda v: build_system(HANDOFF, LINEAR, resolution=v),
     "resolution must be an integer, got", NEITHER),
    ("build_system.sugeno_consequents label",
     lambda v: build_system(HANDOFF, LINEAR, sugeno_consequents={v: (1.0,)}),
     "consequent label must be a str, got", NOT_A_STR),
    ("build_system.sugeno_consequents values",
     lambda v: build_system(HANDOFF, LINEAR, sugeno_consequents={"On": v}),
     "consequent 'On' needs finite numbers, got", NOT_A_FINITE_NUMBER),
    ("build_system.sugeno_consequents number",
     lambda v: build_system(HANDOFF, LINEAR, sugeno_consequents={"On": (1.0, v)}),
     "consequent 'On' needs finite numbers, got", NOT_A_FINITE_NUMBER),
    ("check_resolution", check_resolution, "resolution must be an integer, got", NEITHER),
]


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_a_bad_value_is_rejected_naming_its_field(data):
    _, call, fragment, values = data.draw(st.sampled_from(CASES), label="case")
    value = data.draw(values, label="value")
    with pytest.raises((ValueError, TypeError), match=re.escape(fragment)):
        call(value)
