"""Open-loop diurnal traffic: the fleet's arrival process.

The fleet serves a population of simulated users whose aggregate request
rate follows a day/night cycle (Monk's setting: scaling decisions only
make sense against *diurnal* load, because the valleys are where
opportunistic work can hide). The model is deliberately simple and fully
deterministic under :func:`repro.seeding.rng_for`:

* a sinusoidal **envelope** — mean rate x ``(1 + amplitude * sin)``;
* **burst events** — short regional spikes (a push notification, a
  failover from another region) drawn once at construction from the
  model's own seed, added on top of the envelope;
* per-tick multiplicative **noise** (lognormal, mean exactly 1) and
  Poisson **arrival counts**, both from dedicated derived streams — the
  open-loop property: arrivals never depend on how the fleet is doing.

Closed-form expectation: ``E[arrivals(tick)] = envelope(t) * dt`` (the
noise factor has mean 1 by construction, and Poisson sampling preserves
the mean), which is what the traffic tests pin against fixed-seed draws.

Valleys are defined on the *diurnal factor only* (bursts and noise
excluded): a Monk controller must not mistake a transient burst lull for
night time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..seeding import rng_for

#: Seconds per day — the canonical diurnal period.
DAY = 86_400.0


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of the fleet's offered load.

    ``users`` and ``ops_per_user_day`` define the mean aggregate rate:
    two million users issuing ~43 requests a day offer ~1000 ops/s on
    average, swinging between ``(1 - amplitude)`` and ``(1 + amplitude)``
    times that over each period.
    """

    users: int = 2_000_000
    ops_per_user_day: float = 43.2
    period: float = DAY
    amplitude: float = 0.6
    #: Fraction of a period by which the cycle is shifted; the default
    #: 0.75 puts the nightly minimum at t = 0 (studies start in the
    #: valley, like a deployment cut overnight).
    phase: float = 0.75
    #: Lognormal sigma of the per-tick multiplicative noise.
    noise_sigma: float = 0.08
    #: Burst events per period (expected); each multiplies the envelope
    #: locally by up to ``burst_magnitude``.
    bursts_per_period: float = 4.0
    burst_duration: float = 180.0
    burst_magnitude: float = 1.8
    #: ``diurnal_factor`` below ``1 - valley_fraction * amplitude`` is a
    #: valley.
    valley_fraction: float = 0.7

    def __post_init__(self) -> None:
        # Each test also rejects NaN, which every comparison fails.
        if not 1 <= self.users < math.inf:
            raise ConfigError(f"users must be >= 1 and finite: {self.users!r}")
        for name in ("ops_per_user_day", "period", "burst_duration"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite: {value!r}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError("amplitude must be in [0, 1)")
        if not math.isfinite(self.phase):
            raise ConfigError(f"phase must be finite: {self.phase!r}")
        for name in ("noise_sigma", "bursts_per_period"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be >= 0 and finite: {value!r}")
        if not 1.0 <= self.burst_magnitude < math.inf:
            raise ConfigError("burst_magnitude must be >= 1 and finite: "
                              f"{self.burst_magnitude!r}")
        if not 0 < self.valley_fraction <= 1:
            raise ConfigError("valley_fraction must be in (0, 1]")

    @property
    def mean_rate(self) -> float:
        """Mean aggregate offered rate (ops/s)."""
        return self.users * self.ops_per_user_day / DAY


class DiurnalTraffic:
    """One deterministic realization of the traffic model.

    Burst placements are drawn once here; :meth:`arrivals` draws noise
    and Poisson counts from streams derived from ``(seed, purpose)``
    alone, so the same model produces the same arrival sequence no
    matter which process (or policy run) asks for it.
    """

    def __init__(self, config: TrafficConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        rng = rng_for(self.seed, "fleet.traffic.bursts")
        horizon_periods = 8  # bursts materialized for up to 8 periods
        n = int(rng.poisson(config.bursts_per_period * horizon_periods))
        self._burst_starts = np.sort(
            rng.uniform(0.0, config.period * horizon_periods, size=n))
        self._burst_scales = rng.uniform(1.0, config.burst_magnitude, size=n)

    # -- deterministic envelope -----------------------------------------

    def diurnal_factor(self, t) -> np.ndarray:
        """The bare sinusoid factor in ``[1 - A, 1 + A]`` (vectorized)."""
        c = self.config
        t = np.asarray(t, dtype=float)
        return 1.0 + c.amplitude * np.sin(2.0 * np.pi * (t / c.period + c.phase))

    def burst_factor(self, t) -> np.ndarray:
        """Multiplicative burst contribution at *t* (1 outside bursts)."""
        t = np.asarray(t, dtype=float)
        factor = np.ones(t.shape, dtype=float)
        c = self.config
        idx = np.searchsorted(self._burst_starts, t, side="right") - 1
        valid = idx >= 0
        if valid.any():
            active = np.zeros(t.shape, dtype=bool)
            active[valid] = (t[valid] - self._burst_starts[idx[valid]]
                             < c.burst_duration)
            factor[active] = self._burst_scales[idx[active]]
        return factor

    def envelope(self, t) -> np.ndarray:
        """Expected offered rate at *t* (ops/s): diurnal x bursts."""
        return (self.config.mean_rate * self.diurnal_factor(t)
                * self.burst_factor(t))

    # -- valley detection -----------------------------------------------

    def is_valley(self, t) -> np.ndarray:
        """True where the diurnal factor is within the valley band."""
        c = self.config
        return self.diurnal_factor(t) <= 1.0 - c.valley_fraction * c.amplitude

    # -- open-loop arrivals ---------------------------------------------

    def arrivals(self, t0: float, t1: float, dt: float = 1.0) -> np.ndarray:
        """Integer arrival counts per tick over ``[t0, t1)``.

        Open-loop: counts depend only on the model's seed and the tick
        grid, never on downstream behaviour. Noise and Poisson draws use
        separate derived streams keyed by the window, so disjoint
        windows are independent but any window replays identically.
        """
        if t1 <= t0 or dt <= 0:
            raise ConfigError("arrivals need t1 > t0 and dt > 0")
        ticks = np.arange(t0, t1, dt)
        lam = self.envelope(ticks) * dt
        c = self.config
        if c.noise_sigma > 0:
            noise_rng = rng_for(self.seed, "fleet.traffic.noise", int(t0))
            z = noise_rng.standard_normal(ticks.size)
            # exp(sigma z - sigma^2/2) has mean exactly 1.
            lam = lam * np.exp(c.noise_sigma * z - 0.5 * c.noise_sigma ** 2)
        arr_rng = rng_for(self.seed, "fleet.traffic.arrivals", int(t0))
        return arr_rng.poisson(lam).astype(np.int64)

    def expected_arrivals(self, t0: float, t1: float, dt: float = 1.0) -> float:
        """Closed-form expectation of ``arrivals(t0, t1, dt).sum()``."""
        ticks = np.arange(t0, t1, dt)
        return float((self.envelope(ticks) * dt).sum())
