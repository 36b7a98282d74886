import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzycr.metrics import (
    BOLTZMANN_J_PER_K,
    DEFAULT_CALIBRATION,
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

REL = 1e-12


class TestClosedFormExamples:
    def test_sinr_db(self):
        assert sinr_db(100, 0.5, 0.5) == pytest.approx(20.0, rel=REL)
        assert sinr_db(1, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert sinr_db(1, 9, 1) == pytest.approx(-10.0, rel=REL)

    def test_interference_temperature(self):
        assert interference_temperature(1.38e-17, 1e6) == pytest.approx(1.0, rel=REL)
        assert interference_temperature(0.0, 5e6) == 0.0
        assert interference_temperature(2.76e-17, 1e6) == pytest.approx(2.0, rel=REL)

    def test_susceptibility(self):
        assert susceptibility_pct(6.0, 2.0, 3.0) == pytest.approx(50.0, rel=REL)
        assert susceptibility_pct(4.2, 0.0, 7.0) == pytest.approx(100.0, rel=REL)
        assert susceptibility_pct(0.0, 2.0, 3.0) == 0.0

    def test_spectrum_utilisation_efficiency(self):
        assert spectrum_utilisation_efficiency(5e6, 10e6) == pytest.approx(0.5, rel=REL)
        assert spectrum_utilisation_efficiency(0, 10e6) == 0.0
        assert spectrum_utilisation_efficiency(10e6, 10e6) == pytest.approx(1.0, rel=REL)

    def test_snr_distance_proxy(self):
        assert snr_distance_proxy(10, 1) == pytest.approx(10.0, rel=REL)
        assert snr_distance_proxy(1, 1) == pytest.approx(0.0, abs=1e-12)
        assert snr_distance_proxy(1, 100) == pytest.approx(-20.0, rel=REL)

    def test_access_latency(self):
        assert access_latency(0.5, 0.5, 0.0, 0.5, 0.5) == pytest.approx(1.5, rel=REL)
        assert access_latency(0.0, 0.0, 0.3, 1.0, 1.0) == 0.0
        assert access_latency(0.5, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=REL)

    def test_channel_gain(self):
        assert channel_gain(2, 1, 1) == pytest.approx(1.0, rel=REL)
        assert channel_gain(1, 1, 5) == 0.0
        assert channel_gain(11, 1, 10) == pytest.approx(1.0, rel=REL)

    def test_normalize(self):
        cal = CalibrationRange(-10.0, 30.0)
        assert normalize(-10.0, cal) == 0.0
        assert normalize(10.0, cal) == pytest.approx(50.0, rel=REL)
        assert normalize(55.0, cal) == 100.0
        assert normalize(-40.0, cal) == 0.0


class TestDomainErrors:
    def test_sinr_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sinr_db(0, 1, 1)
        with pytest.raises(ValueError):
            sinr_db(1, 0, 0)

    def test_interference_temperature_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            interference_temperature(1.0, 0.0)
        with pytest.raises(ValueError):
            interference_temperature(-1.0, 1.0)

    def test_susceptibility_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            susceptibility_pct(0.0, 0.0, 5.0)

    def test_utilisation_rejects_oversized_band(self):
        with pytest.raises(ValueError):
            spectrum_utilisation_efficiency(11e6, 10e6)

    def test_access_latency_rejects_saturated_queue(self):
        with pytest.raises(ValueError):
            access_latency(1.0, 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            access_latency(0.5, 0.5, 0.0, 0.0, 0.0)

    def test_channel_gain_rejects_zero_sent(self):
        with pytest.raises(ValueError):
            channel_gain(1, 0, 0)


class TestBulkProperties:
    """Vectorized randomized checks, 10^4 samples each."""

    N = 10_000

    def test_db_ratios_are_scale_invariant(self):
        rng = np.random.default_rng(42)
        a, b, c = rng.uniform(1e-6, 1e3, (3, self.N))
        k = rng.uniform(1e-6, 1e6, self.N)
        base = 10 * np.log10(a / (b + c))
        scaled = 10 * np.log10((k * a) / (k * b + k * c))
        assert np.allclose(base, scaled, rtol=1e-9, atol=1e-9)
        for i in range(0, self.N, 997):
            assert sinr_db(a[i], b[i], c[i]) == pytest.approx(base[i], rel=1e-12)
            assert sinr_db(k[i] * a[i], k[i] * b[i], k[i] * c[i]) == pytest.approx(
                base[i], rel=1e-9
            )

    def test_interference_temperature_linear_in_power(self):
        rng = np.random.default_rng(43)
        p = rng.uniform(0, 1e-10, self.N)
        bw = rng.uniform(1e3, 1e9, self.N)
        k = rng.uniform(0.1, 10, self.N)
        t = p / (BOLTZMANN_J_PER_K * bw)
        for i in range(0, self.N, 499):
            assert interference_temperature(p[i], bw[i]) == pytest.approx(t[i], rel=1e-12)
            assert interference_temperature(k[i] * p[i], bw[i]) == pytest.approx(
                k[i] * t[i], rel=1e-12
            )
            assert interference_temperature(p[i], k[i] * bw[i]) == pytest.approx(
                t[i] / k[i], rel=1e-12
            )

    def test_susceptibility_always_a_percentage(self):
        rng = np.random.default_rng(44)
        free = rng.uniform(0, 1e3, self.N)
        usage = rng.uniform(0, 1e3, self.N)
        arrivals = rng.integers(1, 1000, self.N)
        values = 100 * free / (usage * arrivals + free)
        assert np.all((values >= 0) & (values <= 100))
        for i in range(0, self.N, 1009):
            got = susceptibility_pct(free[i], usage[i], float(arrivals[i]))
            assert 0 <= got <= 100
            assert got == pytest.approx(values[i], rel=1e-12)

    def test_normalize_monotone_and_onto_endpoints(self):
        rng = np.random.default_rng(45)
        cal = CalibrationRange(-25.0, 75.0)
        raws = np.sort(rng.uniform(-100, 150, self.N))
        values = np.array([normalize(r, cal) for r in raws[:: self.N // 500]])
        assert np.all(np.diff(values) >= 0)
        assert normalize(cal.raw_lo, cal) == 0.0
        assert normalize(cal.raw_hi, cal) == 100.0


@given(
    st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-6, 1e6),
    st.floats(1e-3, 1e3),
)
def test_sinr_scale_invariance_property(a, b, c, k):
    assert sinr_db(k * a, k * b, k * c) == pytest.approx(sinr_db(a, b, c), abs=1e-9)


class TestRadioScenario:
    def test_default_scenario_produces_crisp_inputs(self):
        crisp = RadioScenario().crisp_inputs()
        assert set(crisp) == set(DEFAULT_CALIBRATION)
        for value in crisp.values():
            assert 0.0 <= value <= 100.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            RadioScenario(rho1=1.0)
        with pytest.raises(ValueError):
            RadioScenario(blocking_prob=1.5)
        with pytest.raises(ValueError):
            RadioScenario(desired_power=-1.0)

    def test_calibration_override(self):
        scenario = RadioScenario(desired_power=100.0)
        wide = scenario.crisp_inputs({"snr": CalibrationRange(0.0, 40.0)})
        narrow = scenario.crisp_inputs({"snr": CalibrationRange(0.0, 20.0)})
        assert wide["snr"] == pytest.approx(50.0)
        assert narrow["snr"] == pytest.approx(100.0)

    # "0.5" and None used to raise a bare "TypeError: must be real number, not str"
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5", None])
    @pytest.mark.parametrize("cls, field", [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in (RadioScenario, CalibrationRange) for f in dataclasses.fields(cls)
    ])
    def test_non_finite_readings_rejected(self, cls, field, value):
        # left in, they give NaN or plausible numbers downstream
        valid = {"raw_lo": 0.0, "raw_hi": 1.0} if cls is CalibrationRange else {}
        with pytest.raises(ValueError, match=f"needs a finite {field}, got"):
            cls(**{**valid, field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"desired_power": 0.0}, "desired power must be positive"),
        ({"su_band": 2e7}, "secondary-user band must be within"),
        ({"noise_variance": 0.0}, "powers must be positive"),
        ({"free_time": 0.0, "usage_time": 0.0}, "must be positive"),
        ({"bandwidth": 0.0}, "bandwidth must be positive"),
        ({"lam1": 0.0, "lam2": 0.0}, "arrival rates must sum to a positive value"),
        ({"rho2": 1.5}, r"rho2 must be in \[0, 1\], got 1.5"),
    ])
    def test_a_scenario_whose_metrics_cannot_be_computed_is_rejected(self, fields, message):
        # all but rho2 used to be accepted here and fail in crisp_inputs
        with pytest.raises(ValueError, match=message):
            RadioScenario(**fields)

    def test_the_metrics_handed_out_are_a_copy(self):
        # a caller's edit of the returned dict reaches neither a later call
        # nor the crisp inputs
        scenario = RadioScenario(desired_power=100.0)
        metrics, crisp = scenario.raw_metrics(), scenario.crisp_inputs()
        returned = scenario.raw_metrics()
        returned["snr"] = 1e9
        del returned["interference"]
        assert scenario.raw_metrics() == metrics
        assert scenario.crisp_inputs() == crisp

    def test_bad_calibration_rejected(self):
        with pytest.raises(ValueError):
            CalibrationRange(5.0, 5.0)
