"""Tests for lifetime distributions, including hypothesis properties.

Key invariants for the analytic cohort model:

* ``0 <= survival(a) <= 1``, non-increasing in ``a``;
* ``integrated_survival`` is non-decreasing and 1-Lipschitz
  (``IS(b) - IS(a) <= b - a`` for ``b > a``);
* ``window_live_fraction`` lies in [0, 1] and is non-increasing in time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.heap.lifetime import (
    Exponential,
    Fixed,
    Immortal,
    LogNormal,
    Mixture,
    Weibull,
    generational,
)

DISTRIBUTIONS = [
    Immortal(),
    Fixed(2.0),
    Exponential(0.5),
    Weibull(0.6, 3.0),
    Weibull(1.5, 1.0),
    LogNormal(1.0, 0.8),
    generational(),
]

ages = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: repr(d)[:30])
class TestCommonProperties:
    def test_survival_at_zero_is_one(self, dist):
        assert dist.survival(0.0) == pytest.approx(1.0)

    def test_survival_bounded(self, dist):
        a = np.linspace(0, 100, 200)
        s = dist.survival(a)
        assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)

    def test_survival_monotone_nonincreasing(self, dist):
        a = np.linspace(0, 50, 100)
        s = dist.survival(a)
        assert np.all(np.diff(s) <= 1e-12)

    def test_integrated_survival_nondecreasing(self, dist):
        a = np.linspace(0, 50, 100)
        integrated = dist.integrated_survival(a)
        assert np.all(np.diff(integrated) >= -1e-9)

    def test_integrated_survival_lipschitz(self, dist):
        a = np.linspace(0, 50, 100)
        integrated = dist.integrated_survival(a)
        assert np.all(np.diff(integrated) <= np.diff(a) + 1e-9)

    def test_integrated_survival_zero_at_zero(self, dist):
        assert dist.integrated_survival(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_in_scalar_out(self, dist):
        assert isinstance(dist.survival(1.0), float)
        assert isinstance(dist.integrated_survival(1.0), float)

    def test_array_in_array_out(self, dist):
        out = dist.survival(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_window_live_fraction_in_unit_interval(self, dist):
        frac = dist.window_live_fraction(0.0, 2.0, 5.0)
        assert 0.0 <= frac <= 1.0

    def test_window_live_fraction_monotone_in_time(self, dist):
        f1 = dist.window_live_fraction(0.0, 2.0, 3.0)
        f2 = dist.window_live_fraction(0.0, 2.0, 30.0)
        assert f2 <= f1 + 1e-9

    def test_zero_width_window_degenerates_to_survival(self, dist):
        frac = dist.window_live_fraction(1.0, 1.0, 4.0)
        assert frac == pytest.approx(float(dist.survival(3.0)), abs=1e-9)


class TestSpecificValues:
    def test_immortal_never_dies(self):
        assert Immortal().survival(1e9) == 1.0
        assert math.isinf(Immortal().mean())

    def test_fixed_step(self):
        d = Fixed(2.0)
        assert d.survival(1.9) == 1.0
        assert d.survival(2.1) == 0.0
        assert d.mean() == 2.0

    def test_fixed_integrated(self):
        d = Fixed(2.0)
        assert d.integrated_survival(5.0) == pytest.approx(2.0)

    def test_exponential_mean(self):
        assert Exponential(0.5).mean() == 0.5

    def test_exponential_survival_value(self):
        assert Exponential(1.0).survival(1.0) == pytest.approx(math.exp(-1))

    def test_exponential_integrated_limit(self):
        # IS(inf) -> tau
        assert Exponential(2.0).integrated_survival(1e6) == pytest.approx(2.0)

    def test_weibull_mean_matches_gamma_formula(self):
        d = Weibull(1.0, 3.0)  # k=1 is exponential with tau=3
        assert d.mean() == pytest.approx(3.0)

    def test_weibull_integrated_matches_quadrature(self):
        from scipy.integrate import quad

        d = Weibull(0.7, 2.0)
        expected, _err = quad(lambda x: float(d.survival(x)), 0, 5.0)
        assert d.integrated_survival(5.0) == pytest.approx(expected, rel=1e-6)

    def test_lognormal_integrated_matches_quadrature(self):
        from scipy.integrate import quad

        d = LogNormal(2.0, 0.5)
        expected, _err = quad(lambda x: float(d.survival(x)), 0, 10.0)
        assert d.integrated_survival(10.0) == pytest.approx(expected, rel=1e-6)

    def test_lognormal_median(self):
        assert LogNormal(3.0, 1.0).survival(3.0) == pytest.approx(0.5)

    def test_mixture_weights_normalized(self):
        m = Mixture([(2.0, Immortal()), (2.0, Exponential(1.0))])
        assert m.survival(1e9) == pytest.approx(0.5)

    def test_mixture_mean_weighted(self):
        m = Mixture([(1.0, Fixed(2.0)), (1.0, Fixed(4.0))])
        assert m.mean() == pytest.approx(3.0)

    def test_generational_shape(self):
        g = generational(short_frac=0.9, immortal_frac=0.02)
        # long-run survival converges to the immortal share
        assert g.survival(1e7) == pytest.approx(0.02, abs=1e-3)


class TestValidation:
    def test_exponential_requires_positive_tau(self):
        with pytest.raises(ConfigError):
            Exponential(0.0)

    def test_weibull_requires_positive_params(self):
        with pytest.raises(ConfigError):
            Weibull(-1, 1)

    def test_lognormal_requires_positive(self):
        with pytest.raises(ConfigError):
            LogNormal(0.0, 1.0)

    def test_fixed_rejects_negative(self):
        with pytest.raises(ConfigError):
            Fixed(-1.0)

    def test_mixture_rejects_empty(self):
        with pytest.raises(ConfigError):
            Mixture([])

    def test_mixture_rejects_negative_weight(self):
        with pytest.raises(ConfigError):
            Mixture([(-1.0, Immortal())])

    def test_window_now_inside_window_rejected(self):
        with pytest.raises(ConfigError):
            Exponential(1.0).window_live_fraction(0.0, 5.0, 2.0)

    def test_window_reversed_rejected(self):
        with pytest.raises(ConfigError):
            Exponential(1.0).window_live_fraction(5.0, 0.0, 10.0)


class TestHypothesisProperties:
    @given(age1=ages, age2=ages)
    @settings(max_examples=60, deadline=None)
    def test_exponential_survival_monotone(self, age1, age2):
        d = Exponential(1.3)
        lo, hi = min(age1, age2), max(age1, age2)
        assert d.survival(hi) <= d.survival(lo) + 1e-12

    @given(age=ages, shape=st.floats(0.3, 3.0), scale=st.floats(0.1, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_weibull_bounds(self, age, shape, scale):
        d = Weibull(shape, scale)
        assert 0.0 <= d.survival(age) <= 1.0
        assert 0.0 <= d.integrated_survival(age) <= age + 1e-9

    @given(
        t0=st.floats(0, 100), width=st.floats(0, 100), gap=st.floats(0, 1000),
        median=st.floats(0.01, 50), sigma=st.floats(0.1, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_lognormal_window_fraction_unit_interval(self, t0, width, gap, median, sigma):
        d = LogNormal(median, sigma)
        frac = d.window_live_fraction(t0, t0 + width, t0 + width + gap)
        assert -1e-9 <= frac <= 1.0 + 1e-9


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: repr(d)[:30])
@pytest.mark.parametrize("kernel", ["_survival", "_integrated_survival"])
class TestElementwise:
    """Each output element depends on its own age alone, so evaluating
    distinct ages and gathering (what the heap kernels do) gives every
    row the bits a call over all rows would."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gather_commutes_with_kernel(self, dist, kernel, data):
        a = np.array(data.draw(st.lists(ages, min_size=1, max_size=100)))
        picks = st.lists(st.integers(0, len(a) - 1), max_size=150)
        repeated = np.array(data.draw(picks), dtype=np.intp)
        permuted = np.array(data.draw(st.permutations(range(len(a)))),
                            dtype=np.intp)
        f = getattr(dist, kernel)
        whole = f(a)
        for idx in (repeated, permuted):
            assert f(a[idx]).tobytes() == whole[idx].tobytes()
