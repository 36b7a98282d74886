"""Fuzzy inference toolkit for cognitive-radio spectrum decisions.

Mamdani and Sugeno engines built from first principles, a catalog of the
thirteen radio inputs and six decision outputs on a common 0..100 scale,
the shipped rule base for each decision, and a sweep/correlation harness for
comparing membership-function choices.
"""

from .analysis import (
    CORRELATION_PAIRS,
    MONOTONE_TRENDS,
    STANDARD_SWEEPS,
    DegenerateSeriesError,
    SweepResult,
    SweepSpec,
    VariantId,
    build_system,
    correlation_report,
    pearson,
    run_sweep,
    run_sweeps,
    standard_sweep_results,
    surface_grid,
    trend_violations,
)
from .catalog import (
    DECISION_INPUTS,
    DECISION_OUTPUT,
    UNIVERSE,
    DecisionId,
    VariableCatalog,
    standard_catalog,
    sugeno_levels,
)
from .engine import (
    AggregateCurve,
    EmptyAggregateError,
    EngineKind,
    FuzzyError,
    FuzzySystem,
    Rule,
    SugenoConsequent,
    check_resolution,
    defuzz_centroid,
    defuzzify,
    firing_strength,
)
from .membership import (
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    Triangular,
    Universe,
)
from .metrics import (
    CalibrationRange,
    RadioScenario,
    access_latency,
    channel_gain,
    interference_temperature,
    normalize,
    sinr_db,
    snr_distance_proxy,
    spectrum_utilisation_efficiency,
    susceptibility_pct,
)
from .ruledsl import (
    RuleBase,
    RuleParseError,
    builtin_rulebase,
    parse_catalog_rules,
    parse_rules,
    serialize_rules,
)

__version__ = "0.1.0"
