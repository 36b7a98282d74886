"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import numpy as np

from fuzzycr.analysis import (
    ALL_VARIANTS,
    MONOTONE_TRENDS,
    VariantId,
    build_system,
    load_golden_sweeps,
    pearson,
    trend_violations,
)
from fuzzycr.catalog import DECISION_INPUTS, DecisionId, sugeno_levels
from fuzzycr.engine import AggregateCurve, defuzz_centroid
from fuzzycr.membership import Triangular, Universe
from fuzzycr.metrics import (
    BOLTZMANN_J_PER_K,
    access_latency,
    channel_gain,
    interference_temperature,
    sinr_db,
    snr_distance_proxy,
    spectrum_utilisation_efficiency,
    susceptibility_pct,
)
from fuzzycr.ruledsl import builtin_rulebase, parse_rules, serialize_rules


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d}: {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_handoff_saturates_off():
    system = build_system(DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI)
    value = system.evaluate({"snr": 50, "interference": 100})
    report(1, "triangular Mamdani handoff at snr=50, interference=100 is 33.33+-0.35",
           abs(value - 33.33) <= 0.35, f"got {value:.4f}")


def test_criterion_02_handoff_saturates_on():
    system = build_system(DecisionId.HANDOFF_STATUS, VariantId.TRIANGULAR_MAMDANI)
    value = system.evaluate({"snr": 100, "interference": 50})
    report(2, "triangular Mamdani handoff at snr=100, interference=50 is 66.67+-1.5",
           abs(value - 66.67) <= 1.5, f"got {value:.4f}")


def test_criterion_03_channel_gain_low_quality():
    system = build_system(DecisionId.CHANNEL_GAIN, VariantId.TRIANGULAR_MAMDANI)
    values = [
        system.evaluate({"channel_quality": q, "susceptibility": 50})
        for q in (10.0, 20.0)
    ]
    ok = all(abs(v - 8.33) <= 1.5 for v in values)
    report(3, "triangular Mamdani channel gain at quality<=20 is 8.33+-1.5",
           ok, f"got {values[0]:.4f}, {values[1]:.4f}")


def test_criterion_04_channel_selection_midpoint():
    system = build_system(DecisionId.CHANNEL_SELECTION, VariantId.TRIANGULAR_MAMDANI)
    value = system.evaluate({"signal_strength": 50, "spectrum_demand": 50, "snr": 50})
    report(4, "triangular Mamdani channel selection at all-50 is 50+-0.5",
           abs(value - 50.0) <= 0.5, f"got {value:.4f}")


def test_criterion_05_sugeno_handoff_near_zero():
    system = build_system(DecisionId.HANDOFF_STATUS, VariantId.CONSTANT_SUGENO)
    value = system.evaluate({"snr": 50, "interference": 100})
    report(5, "constant Sugeno handoff at interference=100 is <= 0.1",
           value <= 0.1, f"got {value:.6f}")


def test_criterion_06_sugeno_handoff_high_band():
    system = build_system(DecisionId.HANDOFF_STATUS, VariantId.CONSTANT_SUGENO)
    value = system.evaluate({"snr": 100, "interference": 50})
    report(6, "Gaussian-input Sugeno handoff at snr=100 lies in [88, 100]",
           88.0 <= value <= 100.0, f"got {value:.4f}")


def test_criterion_07_sugeno_channel_selection_midpoint():
    system = build_system(DecisionId.CHANNEL_SELECTION, VariantId.CONSTANT_SUGENO)
    value = system.evaluate({"signal_strength": 50, "spectrum_demand": 50, "snr": 50})
    report(7, "constant Sugeno channel selection at all-50 lies in [42, 53]",
           42.0 <= value <= 53.0, f"got {value:.4f}")


def test_criterion_08_constant_equals_zero_slope_linear():
    rng = np.random.default_rng(2024)
    decisions = list(DecisionId)
    # explicit zero slopes for every label, so the two are different systems
    systems = {
        d: (
            build_system(d, VariantId.CONSTANT_SUGENO),
            build_system(d, VariantId.LINEAR_SUGENO, sugeno_consequents={
                label: (level, *[0.0] * len(DECISION_INPUTS[d]))
                for label, level in sugeno_levels(d).items()
            }),
        )
        for d in decisions
    }
    assert all(constant is not linear for constant, linear in systems.values())
    worst = 0.0
    for i in range(1000):
        decision = decisions[i % len(decisions)]
        constant, linear = systems[decision]
        x = {
            name: float(v)
            for name, v in zip(
                DECISION_INPUTS[decision],
                rng.uniform(0, 100, len(DECISION_INPUTS[decision])),
            )
        }
        worst = max(worst, abs(constant.evaluate(x) - linear.evaluate(x)))
    report(8, "constant and zero-slope linear Sugeno agree to 1e-12 on 1000 inputs",
           worst <= 1e-12, f"worst |diff| {worst:.2e}")


def test_criterion_09_mamdani_sugeno_correlation(all_sweeps):
    values = {
        key: pearson(
            result.column(VariantId.GAUSSIAN_MAMDANI),
            result.column(VariantId.LINEAR_SUGENO),
        )
        for key, result in all_sweeps.items()
    }
    above_08 = all(v >= 0.8 for v in values.values())
    above_09 = sum(v >= 0.9 for v in values.values())
    report(9, "Gaussian Mamdani vs linear Sugeno correlation >=0.8 on all 14, >=0.9 on 12+",
           above_08 and above_09 >= 12,
           f"min {min(values.values()):.4f}, >=0.9 on {above_09}/14")


def test_criterion_10_published_table_correlation_data_entry():
    cells = {
        (row["variant"], float(row["input_value"])): float(row["published_value"])
        for row in load_golden_sweeps()
        if row["source_table"] == "table09"
    }
    grid = sorted({x for _, x in cells})
    value = pearson(
        [cells[("gaussian-mamdani", x)] for x in grid],
        [cells[("triangular-mamdani", x)] for x in grid],
    )
    report(10, "published first-sweep Mamdani columns correlate at 0.987783+-0.0005",
           abs(value - 0.987783) <= 0.0005, f"got {value:.6f}")


def test_criterion_11_monotone_trend_suite(all_sweeps):
    failures = []
    for key, direction in MONOTONE_TRENDS:
        result = all_sweeps[key]
        for variant in ALL_VARIANTS:
            bad = trend_violations(result.column(variant), direction)
            if bad:
                failures.append(f"{key}/{variant.value}: {bad}")
    report(11, "all expected sweep trends hold for every variant",
           not failures, "; ".join(failures) or "7 sweeps x 4 variants")


def test_criterion_12_rule_bases_complete_and_round_trip(tri_catalog):
    from itertools import product

    expected_counts = {
        DecisionId.CHANNEL_SELECTION: 125,
        DecisionId.HANDOFF_STATUS: 25,
        DecisionId.CHANNEL_GAIN: 25,
        DecisionId.ACCESS_SPECTRUM: 27,
        DecisionId.ACCESS_LATENCY: 10,
        DecisionId.BANDWIDTH_ALLOCATION: 10,
    }
    problems = []
    for decision, expected in expected_counts.items():
        base = builtin_rulebase(decision)
        if len(base) != expected:
            problems.append(f"{decision.value}: {len(base)} rules")
            continue
        inputs = tri_catalog.decision_inputs(decision)
        output = tri_catalog.decision_output(decision)
        combos = {
            tuple(dict(r.antecedents)[v.name] for v in inputs) for r in base.rules
        }
        if len(combos) != expected:
            problems.append(f"{decision.value}: duplicate antecedents")
        if combos != set(product(*(v.labels for v in inputs))):
            problems.append(f"{decision.value}: incomplete coverage")
        reparsed = parse_rules(serialize_rules(base), inputs, output)
        if reparsed.rules != base.rules:
            problems.append(f"{decision.value}: round-trip mismatch")
    report(12, "rule bases count 125/25/25/27/10/10, complete, and round-trip",
           not problems, "; ".join(problems) or "all six bases")


def test_criterion_13_centroid_resolution_convergence():
    rng = np.random.default_rng(99)
    decisions = list(DecisionId)
    families = (VariantId.TRIANGULAR_MAMDANI, VariantId.GAUSSIAN_MAMDANI)
    coarse = {
        (d, v): build_system(d, v, resolution=1001)
        for d in decisions for v in families
    }
    fine = {
        (d, v): build_system(d, v, resolution=100001)
        for d in decisions for v in families
    }
    worst = 0.0
    for i in range(100):
        decision = decisions[i % len(decisions)]
        variant = families[i % 2]
        x = {
            name: float(v)
            for name, v in zip(
                DECISION_INPUTS[decision],
                rng.uniform(0, 100, len(DECISION_INPUTS[decision])),
            )
        }
        diff = abs(coarse[(decision, variant)].evaluate(x)
                   - fine[(decision, variant)].evaluate(x))
        worst = max(worst, diff)

    xs = Universe(0, 100).samples(1001)
    symmetric_exact = True
    for clip in (1.0, 0.6, 0.25):
        curve = AggregateCurve(xs, np.minimum(clip, Triangular(25, 50, 75).profile(xs)))
        if abs(defuzz_centroid(curve) - 50.0) > 1e-9:
            symmetric_exact = False
    report(13, "centroid converges within 0.05 over resolutions; symmetric curves hit 50",
           worst < 0.05 and symmetric_exact, f"worst |diff| {worst:.4f}")


def test_criterion_14_metric_formulas_and_properties():
    rel = 1e-12
    checks = [
        abs(sinr_db(100, 0.5, 0.5) - 20.0) <= 20.0 * rel,
        abs(sinr_db(1, 9, 1) - (-10.0)) <= 10.0 * rel,
        abs(interference_temperature(1.38e-17, 1e6) - 1.0) <= rel,
        abs(interference_temperature(2.76e-17, 1e6) - 2.0) <= 2 * rel,
        abs(susceptibility_pct(6, 2, 3) - 50.0) <= 50 * rel,
        susceptibility_pct(4.2, 0, 7) == 100.0,
        susceptibility_pct(0, 2, 3) == 0.0,
        abs(spectrum_utilisation_efficiency(5e6, 10e6) - 0.5) <= rel,
        abs(snr_distance_proxy(10, 1) - 10.0) <= 10 * rel,
        abs(access_latency(0.5, 0.5, 0, 0.5, 0.5) - 1.5) <= 1.5 * rel,
        access_latency(0, 0, 0.7, 1, 1) == 0.0,
        abs(access_latency(0.5, 1, 1, 1, 1) - 0.5) <= 0.5 * rel,
        abs(channel_gain(2, 1, 1) - 1.0) <= rel,
        channel_gain(1, 1, 5) == 0.0,
    ]
    rng = np.random.default_rng(7)
    n = 10_000
    a, b, c = rng.uniform(1e-6, 1e3, (3, n))
    k = rng.uniform(1e-3, 1e3, n)
    scale_ok = np.allclose(
        10 * np.log10(a / (b + c)),
        10 * np.log10((k * a) / (k * b + k * c)),
        rtol=1e-9, atol=1e-9,
    )
    p = rng.uniform(0, 1e-10, n)
    bw = rng.uniform(1e3, 1e9, n)
    t = p / (BOLTZMANN_J_PER_K * bw)
    linear_ok = np.allclose(
        (3.5 * p) / (BOLTZMANN_J_PER_K * bw), 3.5 * t, rtol=1e-12
    ) and np.allclose(p / (BOLTZMANN_J_PER_K * (2 * bw)), t / 2, rtol=1e-12)
    report(14, "metric formulas exact to 1e-12; scale/linearity laws over 1e4 samples",
           all(checks) and scale_ok and linear_ok)
