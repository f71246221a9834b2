"""Key choosers: which records a YCSB workload touches.

YCSB's request distributions decide cache behaviour on the server; we
implement the two classics (uniform and zipfian). The zipfian generator
uses the standard rejection-free inverse-CDF approximation from the YCSB
code base (Gray et al.), vectorized over numpy.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class UniformKeyChooser:
    """Every record equally likely."""

    def __init__(self, n_records: int):
        if n_records < 1:
            raise ConfigError("n_records must be >= 1")
        self.n_records = int(n_records)

    def choose(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* record indices."""
        return rng.integers(0, self.n_records, size=size)

    def hot_fraction(self, top: float = 0.01) -> float:
        """Share of requests hitting the hottest *top* fraction of keys."""
        return top


class ZipfianKeyChooser:
    """Zipfian-distributed keys (YCSB's default skew, theta ~ 0.99)."""

    def __init__(self, n_records: int, theta: float = 0.99):
        if n_records < 1:
            raise ConfigError("n_records must be >= 1")
        if not (0 < theta < 1):
            raise ConfigError("theta must be in (0, 1)")
        self.n_records = int(n_records)
        self.theta = float(theta)
        n = float(self.n_records)
        self.zeta_n = self._zeta(n, theta)
        self.zeta_2 = self._zeta(2.0, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self.zeta_2 / self.zeta_n)

    @staticmethod
    def _zeta(n: float, theta: float) -> float:
        """Generalized harmonic number H_{n, theta} (exact up to 10^5,
        Euler-Maclaurin beyond)."""
        n_int = int(n)
        if n_int <= 100_000:
            ks = np.arange(1, n_int + 1, dtype=float)
            return float(np.sum(ks ** -theta))
        ks = np.arange(1, 100_001, dtype=float)
        head = float(np.sum(ks ** -theta))
        # integral tail approximation
        tail = (n ** (1 - theta) - 100_000.0 ** (1 - theta)) / (1 - theta)
        return head + tail

    def choose(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* record indices, most-popular-first ordering."""
        u = rng.random(size)
        uz = u * self.zeta_n
        out = np.empty(size, dtype=np.int64)
        small1 = uz < 1.0
        small2 = (~small1) & (uz < 1.0 + 0.5 ** self.theta)
        rest = ~(small1 | small2)
        out[small1] = 0
        out[small2] = 1
        out[rest] = (self.n_records * (self.eta * u[rest] - self.eta + 1.0) ** self.alpha).astype(np.int64)
        return np.clip(out, 0, self.n_records - 1)

    def hot_fraction(self, top: float = 0.01) -> float:
        """Share of requests hitting the hottest *top* fraction of keys."""
        k = max(1.0, top * self.n_records)
        return self._zeta(k, self.theta) / self.zeta_n
