"""Object-lifetime distributions with closed-form survival integrals.

The weak generational hypothesis ("most objects die young") is encoded as a
lifetime distribution per allocation site. For the analytic cohort model we
need two functions of age ``a`` (seconds since allocation):

* ``survival(a)``   — probability an object is still live at age ``a``;
* ``integrated_survival(a)`` — :math:`\\int_0^a S(x)\\,dx`, used to compute
  the expected live bytes of a cohort allocated uniformly over a window.

All distributions are immutable and vectorized: both methods accept floats
or numpy arrays (scalar in, float out; array in, array out). Closed forms
use scipy special functions — no numeric quadrature in the hot path, per
the HPC guide's "vectorize the bottleneck".
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np
from scipy import special

from ..errors import ConfigError


def _wrap(age, fn):
    """Apply *fn* to age as a 1-d float array; preserve scalar-ness."""
    scalar = np.ndim(age) == 0
    a = np.atleast_1d(np.asarray(age, dtype=float))
    out = fn(a)
    return float(out[0]) if scalar else out


class LifetimeDistribution(ABC):
    """Abstract lifetime law of allocated objects."""

    @abstractmethod
    def _survival(self, age: np.ndarray) -> np.ndarray:
        """P(lifetime > age) on a 1-d float array.

        Elementwise: each output element depends only on its own age, bit
        for bit. The heap kernels rely on it: they evaluate only the
        distinct ages of their rows and gather the results back.
        """

    @abstractmethod
    def _integrated_survival(self, age: np.ndarray) -> np.ndarray:
        """:math:`\\int_0^{age} S(x) dx` on a 1-d float array.

        Elementwise, like :meth:`_survival`: the heap kernels evaluate it
        only on the distinct ages of both window ends.
        """

    @abstractmethod
    def mean(self) -> float:
        """Expected lifetime in seconds (may be ``inf``)."""

    def survival(self, age):
        """P(lifetime > age). Vectorized over *age*."""
        return _wrap(age, self._survival)

    def integrated_survival(self, age):
        """:math:`\\int_0^{age} S(x) dx`. Vectorized over *age*."""
        return _wrap(age, self._integrated_survival)

    def window_live_fraction(self, t0: float, t1: float, now: float) -> float:
        """Expected live fraction at *now* of bytes allocated uniformly on
        ``[t0, t1]``.

        .. math:: \\frac{1}{t_1-t_0}\\int_{t_0}^{t_1} S(now-u)\\,du
                  = \\frac{IS(now-t_0) - IS(now-t_1)}{t_1-t_0}

        ``now`` must be >= ``t1``. A zero-width window degenerates to
        ``S(now - t0)``.
        """
        if t1 < t0:
            raise ConfigError(f"bad window [{t0}, {t1}]")
        if now < t1 - 1e-9:
            raise ConfigError(f"now={now} inside allocation window [{t0}, {t1}]")
        width = t1 - t0
        # Degenerate windows: the integral quotient cancels catastrophically
        # when the window is many orders of magnitude smaller than the age.
        if width <= 1e-9 * max(1.0, now - t0):
            return float(self.survival(max(now - t0, 0.0)))
        hi = self.integrated_survival(now - t0)
        lo = self.integrated_survival(max(now - t1, 0.0))
        return float(min(max((hi - lo) / width, 0.0), 1.0))


class Immortal(LifetimeDistribution):
    """Objects that never die (pinned live data)."""

    def _survival(self, age):
        return np.ones_like(age)

    def _integrated_survival(self, age):
        return age.copy()

    def mean(self) -> float:
        return math.inf

    def __repr__(self) -> str:
        return "Immortal()"


class Fixed(LifetimeDistribution):
    """Deterministic lifetime: every object dies at exactly *lifetime* s."""

    def __init__(self, lifetime: float):
        if lifetime < 0:
            raise ConfigError("lifetime must be >= 0")
        self.lifetime = float(lifetime)

    def _survival(self, age):
        return (age < self.lifetime).astype(float)

    def _integrated_survival(self, age):
        return np.minimum(age, self.lifetime)

    def mean(self) -> float:
        return self.lifetime

    def __repr__(self) -> str:
        return f"Fixed({self.lifetime!r})"


class Exponential(LifetimeDistribution):
    """Memoryless lifetimes with mean *tau* seconds.

    The classic model for short-lived "die young" garbage.
    """

    def __init__(self, tau: float):
        if tau <= 0:
            raise ConfigError("tau must be > 0")
        self.tau = float(tau)

    def _survival(self, age):
        return np.exp(-age / self.tau)

    def _integrated_survival(self, age):
        return self.tau * (1.0 - np.exp(-age / self.tau))

    def mean(self) -> float:
        return self.tau

    def __repr__(self) -> str:
        return f"Exponential(tau={self.tau!r})"


class Weibull(LifetimeDistribution):
    """Weibull lifetimes; ``shape < 1`` gives the heavy tail typical of
    medium-lived program data (caches, per-request state).

    ``S(a) = exp(-(a/scale)**shape)``.
    """

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ConfigError("shape and scale must be > 0")
        self.shape = float(shape)
        self.scale = float(scale)
        # int_0^a exp(-(x/s)^k) dx = (s/k) * Gamma(1/k) * P(1/k, (a/s)^k),
        # P the regularized lower incomplete gamma (scipy gammainc).
        self._inv_shape = 1.0 / self.shape
        self._factor = float((self.scale / self.shape)
                             * special.gamma(self._inv_shape))

    def _survival(self, age):
        return np.exp(-np.power(np.maximum(age, 0.0) / self.scale, self.shape))

    def _integrated_survival(self, age):
        z = np.power(np.maximum(age, 0.0) / self.scale, self.shape)
        return self._factor * special.gammainc(self._inv_shape, z)

    def mean(self) -> float:
        return self.scale * special.gamma(1.0 + 1.0 / self.shape)

    def __repr__(self) -> str:
        return f"Weibull(shape={self.shape!r}, scale={self.scale!r})"


class LogNormal(LifetimeDistribution):
    """Log-normal lifetimes, parameterized by *median* and *sigma* (log-std).

    Matches the long-tailed lifetime profiles observed for Java application
    data (most bytes die fast, a tail lives for many collections).
    """

    def __init__(self, median: float, sigma: float):
        if median <= 0 or sigma <= 0:
            raise ConfigError("median and sigma must be > 0")
        self.mu = math.log(median)
        self.sigma = float(sigma)
        self.median = float(median)

    def _survival(self, age):
        out = np.ones_like(age)
        pos = age > 0
        out[pos] = special.ndtr(-(np.log(age[pos]) - self.mu) / self.sigma)
        return out

    def _integrated_survival(self, age):
        # IS(a) = E[min(X, a)]
        #       = exp(mu + s^2/2) * Phi((ln a - mu - s^2)/s) + a * S(a)
        out = np.zeros_like(age)
        pos = age > 0
        ap = age[pos]
        ln = np.log(ap)
        partial = math.exp(self.mu + self.sigma ** 2 / 2.0) * special.ndtr(
            (ln - self.mu - self.sigma ** 2) / self.sigma
        )
        tail = ap * special.ndtr(-(ln - self.mu) / self.sigma)
        out[pos] = partial + tail
        return out

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma ** 2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormal(median={self.median!r}, sigma={self.sigma!r})"


class Mixture(LifetimeDistribution):
    """Weighted mixture of lifetime distributions.

    The canonical generational profile is a three-way mixture: a large
    short-lived component, a medium-lived component and a small immortal
    component, e.g.::

        Mixture([(0.90, Exponential(0.05)),
                 (0.08, Weibull(0.7, 5.0)),
                 (0.02, Immortal())])

    Weights are normalized to sum to 1.
    """

    def __init__(self, components: Sequence[Tuple[float, LifetimeDistribution]]):
        if not components:
            raise ConfigError("Mixture needs at least one component")
        total = float(sum(w for w, _ in components))
        if total <= 0:
            raise ConfigError("Mixture weights must sum to > 0")
        for w, _ in components:
            if w < 0:
                raise ConfigError("Mixture weights must be >= 0")
        self.components: Tuple[Tuple[float, LifetimeDistribution], ...] = tuple(
            (w / total, d) for w, d in components
        )

    def _survival(self, age):
        return self._sum(age, "_survival")

    def _integrated_survival(self, age):
        return self._sum(age, "_integrated_survival")

    def _sum(self, age, method: str):
        """``0.0 + w0 * f0(age) + w1 * f1(age) + ...`` left to right, with
        each component's *method* as ``f`` (whose fresh array is reused)."""
        out = np.zeros(len(age))
        for w, dist in self.components:
            part = getattr(dist, method)(age)
            part *= w
            out += part
        return out

    def mean(self) -> float:
        return float(sum(w * d.mean() for w, d in self.components))

    def __repr__(self) -> str:
        inner = ", ".join(f"({w:.3g}, {d!r})" for w, d in self.components)
        return f"Mixture([{inner}])"


def generational(
    short_frac: float = 0.90,
    short_tau: float = 0.1,
    medium_frac: float = 0.08,
    medium_scale: float = 5.0,
    immortal_frac: float = 0.02,
) -> Mixture:
    """Convenience constructor for the canonical generational mixture."""
    return Mixture(
        [
            (short_frac, Exponential(short_tau)),
            (medium_frac, Weibull(0.7, medium_scale)),
            (immortal_frac, Immortal()),
        ]
    )
