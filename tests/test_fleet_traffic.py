"""The diurnal traffic model: shape, bursts, open-loop arrival counts."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fleet.traffic import DAY, DiurnalTraffic, TrafficConfig


def small_config(**kw):
    defaults = dict(users=500_000, period=7200.0)
    defaults.update(kw)
    return TrafficConfig(**defaults)


class TestTrafficConfig:
    def test_mean_rate_from_population(self):
        c = TrafficConfig(users=2_000_000, ops_per_user_day=43.2)
        assert c.mean_rate == pytest.approx(2_000_000 * 43.2 / DAY)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrafficConfig(users=0)
        with pytest.raises(ConfigError):
            TrafficConfig(amplitude=1.5)
        with pytest.raises(ConfigError):
            TrafficConfig(period=0)
        with pytest.raises(ConfigError):
            TrafficConfig(noise_sigma=-0.1)
        # NaN and inf pass a `<= 0` test: refuse them here, not in a
        # traceback from np.arange or the RNG.
        for field in ("users", "period", "ops_per_user_day",
                      "burst_duration", "burst_magnitude", "noise_sigma",
                      "bursts_per_period", "phase"):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigError):
                    TrafficConfig(**{field: value})
        with pytest.raises(ConfigError):
            TrafficConfig(phase=-math.inf)


class TestDiurnalShape:
    def test_factor_oscillates_around_one(self):
        traffic = DiurnalTraffic(small_config(), seed=1)
        t = np.linspace(0, 7200.0, 1441)
        f = traffic.diurnal_factor(t)
        assert f.min() == pytest.approx(1 - 0.6, abs=1e-3)
        assert f.max() == pytest.approx(1 + 0.6, abs=1e-3)
        assert f.mean() == pytest.approx(1.0, abs=1e-2)

    def test_valley_at_t0_peak_at_half_period(self):
        # phase=0.75 puts the sinusoid minimum at t=0.
        traffic = DiurnalTraffic(small_config(), seed=1)
        assert traffic.is_valley(0.0)
        assert not traffic.is_valley(3600.0)


class TestBursts:
    def test_burst_raises_envelope(self):
        # Burst scales are uniform in (1, magnitude]; with several
        # bursts materialized some tick must sit well above baseline.
        config = small_config(bursts_per_period=6.0, burst_magnitude=2.0)
        traffic = DiurnalTraffic(config, seed=3)
        t = np.linspace(0, 7200.0, 7201)
        ratio = traffic.burst_factor(t)
        assert 1.0 < ratio.max() <= 2.0
        assert ratio.min() == pytest.approx(1.0)
        # Bursts are rare: the factor is 1 most of the time.
        assert (ratio == 1.0).mean() > 0.5

    def test_no_bursts_when_disabled(self):
        traffic = DiurnalTraffic(small_config(bursts_per_period=0.0), seed=3)
        t = np.linspace(0, 7200.0, 721)
        assert np.all(traffic.burst_factor(t) == 1.0)

    def test_envelope_composes_diurnal_and_burst(self):
        config = small_config()
        traffic = DiurnalTraffic(config, seed=5)
        t = np.linspace(0, 7200.0, 721)
        expected = (config.mean_rate * traffic.diurnal_factor(t)
                    * traffic.burst_factor(t))
        assert np.allclose(traffic.envelope(t), expected)


class TestArrivals:
    def test_counts_are_nonnegative_integers(self):
        traffic = DiurnalTraffic(small_config(), seed=11)
        counts = traffic.arrivals(0.0, 600.0, dt=1.0)
        assert counts.dtype == np.int64
        assert counts.shape == (600,)
        assert (counts >= 0).all()

    def test_open_loop_mean_matches_closed_form(self):
        # Poisson(envelope x unit-mean noise) over a full period: the
        # realized total must sit within a few sigma of the closed-form
        # integral of the envelope.
        traffic = DiurnalTraffic(small_config(noise_sigma=0.05), seed=13)
        counts = traffic.arrivals(0.0, 7200.0, dt=1.0)
        expected = traffic.expected_arrivals(0.0, 7200.0, dt=1.0)
        sigma = np.sqrt(expected)
        assert abs(counts.sum() - expected) < 6 * sigma

    def test_expected_arrivals_tracks_diurnal_shape(self):
        traffic = DiurnalTraffic(small_config(bursts_per_period=0.0), seed=13)
        valley = traffic.expected_arrivals(0.0, 600.0, dt=1.0)
        peak = traffic.expected_arrivals(3300.0, 3900.0, dt=1.0)
        assert peak > 2 * valley

    def test_deterministic_across_instances(self):
        # Same seed => same counts; different seed => different counts.
        a = DiurnalTraffic(small_config(), seed=17).arrivals(0.0, 600.0, 1.0)
        b = DiurnalTraffic(small_config(), seed=17).arrivals(0.0, 600.0, 1.0)
        assert (a == b).all()
        c = DiurnalTraffic(small_config(), seed=19).arrivals(0.0, 600.0, 1.0)
        assert (a != c).any()

    def test_prefix_window_replays(self):
        # Streams are keyed by the window start, so a shorter query over
        # the same start replays the longer one's prefix exactly.
        traffic = DiurnalTraffic(small_config(), seed=17)
        long = traffic.arrivals(0.0, 600.0, 1.0)
        short = traffic.arrivals(0.0, 300.0, 1.0)
        assert (long[:300] == short).all()

    def test_empty_window_rejected(self):
        traffic = DiurnalTraffic(small_config(), seed=17)
        with pytest.raises(ConfigError):
            traffic.arrivals(100.0, 100.0, dt=1.0)
        with pytest.raises(ConfigError):
            traffic.arrivals(0.0, 100.0, dt=0.0)
