"""Physical radio measurements mapped onto the crisp [0, 100] input scale.

The formulas are pure functions of their operands; anything that cannot be
derived from a measurement (for instance spectrum demand or traffic priority)
is fed to the inference engines directly as a 0..100 value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BOLTZMANN_J_PER_K",
    "CalibrationRange",
    "DEFAULT_CALIBRATION",
    "RadioScenario",
    "sinr_db",
    "interference_temperature",
    "susceptibility_pct",
    "spectrum_utilisation_efficiency",
    "snr_distance_proxy",
    "access_latency",
    "channel_gain",
    "normalize",
]

BOLTZMANN_J_PER_K = 1.38e-23


def sinr_db(desired: float, interference: float, noise: float) -> float:
    """Desired-signal power over interference plus noise, in decibels."""
    if desired <= 0:
        raise ValueError(f"desired power must be positive, got {desired}")
    if interference < 0 or noise < 0 or interference + noise <= 0:
        raise ValueError("interference + noise must be positive")
    return 10.0 * math.log10(desired / (interference + noise))


def interference_temperature(p_i: float, bandwidth: float) -> float:
    """Average interference power per unit bandwidth, in kelvin."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if p_i < 0:
        raise ValueError(f"interference power must be >= 0, got {p_i}")
    return p_i / (BOLTZMANN_J_PER_K * bandwidth)


def susceptibility_pct(free_time: float, usage_time: float, arrivals: float) -> float:
    """Share of channel time left free, as a percentage.

    100 * free / (usage * arrivals + free); a fully idle channel scores 100,
    a never-free one scores 0.
    """
    if free_time < 0 or usage_time < 0 or arrivals < 0:
        raise ValueError("times and arrival counts must be >= 0")
    denom = usage_time * arrivals + free_time
    if denom <= 0:
        raise ValueError("usage_time * arrivals + free_time must be positive")
    return 100.0 * free_time / denom


def spectrum_utilisation_efficiency(su_band: float, avail_band: float) -> float:
    """Fraction of the available band granted to the secondary user."""
    if avail_band <= 0:
        raise ValueError(f"available band must be positive, got {avail_band}")
    if not 0 <= su_band <= avail_band:
        raise ValueError(
            f"secondary-user band must be within [0, {avail_band}], got {su_band}"
        )
    return su_band / avail_band


def snr_distance_proxy(primary_tx_power: float, noise_variance: float) -> float:
    """SNR at the secondary user in decibels, standing in for distance."""
    if primary_tx_power <= 0 or noise_variance <= 0:
        raise ValueError("powers must be positive")
    return 10.0 * math.log10(primary_tx_power / noise_variance)


def access_latency(
    rho1: float, rho2: float, blocking_prob: float, lam1: float, lam2: float
) -> float:
    """Expected wait between a bandwidth request and its grant, in seconds."""
    if not 0 <= rho1 < 1:
        raise ValueError(f"rho1 must be in [0, 1), got {rho1}")
    if rho2 < 0:
        raise ValueError(f"rho2 must be >= 0, got {rho2}")
    if not 0 <= blocking_prob <= 1:
        raise ValueError(f"blocking probability must be in [0, 1], got {blocking_prob}")
    if lam1 < 0 or lam2 < 0 or lam1 + lam2 <= 0:
        raise ValueError("arrival rates must sum to a positive value")
    queued = rho1 / (1.0 - rho1) + rho2 * (1.0 - blocking_prob)
    return queued / (lam1 + lam2)


def channel_gain(received: float, noise: float, sent: float) -> float:
    """Noise-corrected received amplitude relative to the sent amplitude."""
    if sent == 0:
        raise ValueError("sent signal must be nonzero")
    return (received - noise) / sent


@dataclass(frozen=True)
class CalibrationRange:
    """Raw-value window mapped linearly onto [0, 100], clamping outside it."""

    raw_lo: float
    raw_hi: float

    def __post_init__(self) -> None:
        if not self.raw_lo < self.raw_hi:
            raise ValueError(
                f"calibration needs raw_lo < raw_hi, got [{self.raw_lo}, {self.raw_hi}]"
            )


def normalize(raw: float, cal: CalibrationRange) -> float:
    """Map a raw metric onto the crisp 0..100 scale."""
    clamped = min(max(raw, cal.raw_lo), cal.raw_hi)
    return 100.0 * (clamped - cal.raw_lo) / (cal.raw_hi - cal.raw_lo)


# Arbitrary but serviceable windows; deployments should calibrate against
# their own radio environment by passing ``calibration=`` to
# ``RadioScenario.crisp_inputs``. No config key or CLI flag sets them.
DEFAULT_CALIBRATION: dict[str, CalibrationRange] = {
    "snr": CalibrationRange(-10.0, 30.0),
    "interference": CalibrationRange(0.0, 1000.0),
    "susceptibility": CalibrationRange(0.0, 100.0),
    "spectrum_utilisation_efficiency": CalibrationRange(0.0, 1.0),
    "distance_to_primary_user": CalibrationRange(-10.0, 30.0),
    "access_latency": CalibrationRange(0.0, 10.0),
}


@dataclass(frozen=True)
class RadioScenario:
    """One snapshot of raw radio measurements.

    Only the quantities with closed-form definitions are derived here; the
    remaining crisp inputs are opinions about the environment and are set
    directly on the 0..100 scale.
    """

    desired_power: float = 1.0
    interference_power: float = 0.5
    noise_power: float = 0.5
    p_i: float = 0.0
    bandwidth: float = 1e6
    su_band: float = 5e6
    avail_band: float = 10e6
    primary_tx_power: float = 1.0
    noise_variance: float = 1.0
    free_time: float = 1.0
    usage_time: float = 1.0
    arrivals: float = 1.0
    rho1: float = 0.5
    rho2: float = 0.5
    blocking_prob: float = 0.0
    lam1: float = 0.5
    lam2: float = 0.5
    received_signal: float = 1.0
    sent_signal: float = 1.0
    noise_term: float = 0.0

    def __post_init__(self) -> None:
        nonneg = (
            self.desired_power, self.interference_power, self.noise_power,
            self.p_i, self.free_time, self.usage_time, self.arrivals,
        )
        if any(v < 0 for v in nonneg):
            raise ValueError("powers, times, and counts must be >= 0")
        if not 0 <= self.rho1 < 1:
            raise ValueError("rho1 must be in [0, 1)")
        if not 0 <= self.rho2 <= 1:
            raise ValueError("rho2 must be in [0, 1]")
        if not 0 <= self.blocking_prob <= 1:
            raise ValueError("blocking probability must be in [0, 1]")
        if self.avail_band <= 0:
            raise ValueError("available band must be positive")
        if self.sent_signal == 0:
            raise ValueError("sent signal must be nonzero")

    def raw_metrics(self) -> dict[str, float]:
        return {
            "snr": sinr_db(self.desired_power, self.interference_power, self.noise_power),
            "interference": interference_temperature(self.p_i, self.bandwidth),
            "susceptibility": susceptibility_pct(
                self.free_time, self.usage_time, self.arrivals
            ),
            "spectrum_utilisation_efficiency": spectrum_utilisation_efficiency(
                self.su_band, self.avail_band
            ),
            "distance_to_primary_user": snr_distance_proxy(
                self.primary_tx_power, self.noise_variance
            ),
            "access_latency": access_latency(
                self.rho1, self.rho2, self.blocking_prob, self.lam1, self.lam2
            ),
        }

    def crisp_inputs(
        self, calibration: dict[str, CalibrationRange] | None = None
    ) -> dict[str, float]:
        """Derived metrics normalized onto [0, 100]."""
        cal = dict(DEFAULT_CALIBRATION)
        if calibration:
            cal.update(calibration)
        return {
            name: normalize(value, cal[name])
            for name, value in self.raw_metrics().items()
        }
