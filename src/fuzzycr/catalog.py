"""Variable catalog for the thirteen radio inputs and six decision outputs.

Every variable lives on [0, 100]. Triangular terms sit on an evenly spaced
ladder (edge labels peak at the universe ends); the Gaussian family keeps the
same peak locations and matches each triangle's full width at half maximum,
so neighbouring terms cross at one half either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .membership import (
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    Triangular,
    Universe,
    parse_named,
)

__all__ = [
    "DecisionId",
    "UNIVERSE",
    "VariableCatalog",
    "standard_catalog",
    "sugeno_levels",
    "DECISION_INPUTS",
    "DECISION_OUTPUT",
    "FAMILIES",
]


class DecisionId(Enum):
    """The six decision outputs a secondary user reasons about."""

    CHANNEL_SELECTION = "channel-selection"
    HANDOFF_STATUS = "handoff-status"
    CHANNEL_GAIN = "channel-gain"
    ACCESS_SPECTRUM = "access-spectrum"
    ACCESS_LATENCY = "access-latency"
    BANDWIDTH_ALLOCATION = "bandwidth-allocation"

    @staticmethod
    def parse(text: str) -> "DecisionId":
        return parse_named(DecisionId, text, "decision")


UNIVERSE = Universe(0.0, 100.0)
FAMILIES = ("triangular", "gaussian")

# sigma scaling that equates a Gaussian's FWHM with a triangle's: the ramp
# from peak to foot spans twice the half-width at half maximum.
_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

FIVE_LEVELS = (
    ("VeryLow", 0.0),
    ("Low", 25.0),
    ("Moderate", 50.0),
    ("High", 75.0),
    ("VeryHigh", 100.0),
)
THREE_LEVELS = (("Small", 0.0), ("Medium", 50.0), ("Large", 100.0))

# The channel-gain output only carries the four labels its rule table uses,
# anchored to the low end of the scale where the decision saturates.
GAIN_TRIANGLES = (
    ("Low", (0.0, 0.0, 25.0)),
    ("Moderate", (0.0, 25.0, 50.0)),
    ("High", (25.0, 50.0, 75.0)),
    ("VeryHigh", (50.0, 100.0, 100.0)),
)


def _ladder_triangles(levels, step: float) -> list[tuple[str, tuple[float, float, float]]]:
    lo, hi = UNIVERSE.lo, UNIVERSE.hi
    return [
        (label, (max(lo, peak - step), peak, min(hi, peak + step)))
        for label, peak in levels
    ]


def _binary_triangles(low_label: str, high_label: str):
    return [
        (low_label, (0.0, 0.0, 100.0)),
        (high_label, (0.0, 100.0, 100.0)),
    ]


def _terms(family: str, triangles) -> tuple[LinguisticTerm, ...]:
    terms = []
    for label, (a, b, c) in triangles:
        tri = Triangular(a, b, c)
        if family == "triangular":
            terms.append(LinguisticTerm(label, tri))
        elif family == "gaussian":
            sigma = tri.ramp_width / _FWHM_FACTOR
            terms.append(LinguisticTerm(label, Gaussian(tri.peak, sigma)))
        else:
            raise ValueError(f"unknown shape family {family!r}")
    return tuple(terms)


def _variable(name: str, family: str, triangles) -> LinguisticVariable:
    return LinguisticVariable(name, UNIVERSE, _terms(family, triangles))


_FIVE = _ladder_triangles(FIVE_LEVELS, 25.0)
_THREE = _ladder_triangles(THREE_LEVELS, 50.0)

_INPUT_SPECS = (
    ("signal_strength", _FIVE),
    ("spectrum_demand", _FIVE),
    ("snr", _FIVE),
    ("interference", _FIVE),
    ("channel_quality", _FIVE),
    ("susceptibility", _FIVE),
    ("spectrum_utilisation_efficiency", _THREE),
    ("degree_of_mobility", _THREE),
    ("distance_to_primary_user", _THREE),
    ("su_traffic_intensity", _FIVE),
    ("ba_traffic_intensity", _binary_triangles("Absent", "Present")),
    ("access_latency", _FIVE),
    ("traffic_priority", _binary_triangles("Absent", "Present")),
)

_OUTPUT_SPECS = (
    ("channel_selection", _FIVE),
    ("handoff_status", _binary_triangles("Off", "On")),
    ("channel_gain", GAIN_TRIANGLES),
    ("access_spectrum", _FIVE),
    ("access_latency", _FIVE),
    ("bandwidth_allocation", _FIVE),
)

DECISION_INPUTS: dict[DecisionId, tuple[str, ...]] = {
    DecisionId.CHANNEL_SELECTION: ("signal_strength", "spectrum_demand", "snr"),
    DecisionId.HANDOFF_STATUS: ("snr", "interference"),
    DecisionId.CHANNEL_GAIN: ("channel_quality", "susceptibility"),
    DecisionId.ACCESS_SPECTRUM: (
        "spectrum_utilisation_efficiency",
        "degree_of_mobility",
        "distance_to_primary_user",
    ),
    DecisionId.ACCESS_LATENCY: ("su_traffic_intensity", "ba_traffic_intensity"),
    DecisionId.BANDWIDTH_ALLOCATION: ("access_latency", "traffic_priority"),
}

DECISION_OUTPUT: dict[DecisionId, str] = {
    DecisionId.CHANNEL_SELECTION: "channel_selection",
    DecisionId.HANDOFF_STATUS: "handoff_status",
    DecisionId.CHANNEL_GAIN: "channel_gain",
    DecisionId.ACCESS_SPECTRUM: "access_spectrum",
    DecisionId.ACCESS_LATENCY: "access_latency",
    DecisionId.BANDWIDTH_ALLOCATION: "bandwidth_allocation",
}


@dataclass(frozen=True)
class VariableCatalog:
    """All input and output variables for one membership-function family."""

    inputs: dict[str, LinguisticVariable]
    outputs: dict[str, LinguisticVariable]

    def decision_inputs(self, decision: DecisionId) -> tuple[LinguisticVariable, ...]:
        return tuple(self.inputs[name] for name in DECISION_INPUTS[decision])

    def decision_output(self, decision: DecisionId) -> LinguisticVariable:
        return self.outputs[DECISION_OUTPUT[decision]]


@functools.cache
def standard_catalog(family: str = "triangular") -> VariableCatalog:
    """The full variable catalog for one shape family, built once per process.

    Callers share the returned catalog, so they must not mutate its dicts.
    """
    inputs = {
        name: _variable(name, family, triangles)
        for name, triangles in _INPUT_SPECS
    }
    outputs = {
        name: _variable(name, family, triangles)
        for name, triangles in _OUTPUT_SPECS
    }
    return VariableCatalog(inputs, outputs)


def sugeno_levels(decision: DecisionId) -> dict[str, float]:
    """Constant consequent value per output label: the triangular peak."""
    output = standard_catalog("triangular").decision_output(decision)
    return {term.label: term.mf.peak for term in output.terms}
