"""The Workload protocol and common allocation-profile machinery.

A workload is anything a :class:`~repro.jvm.jvm.JVM` can run: it exposes a
``drive(jvm, result, **kwargs)`` generator that becomes the driver process
of the simulation. Drivers spawn mutator threads (via
``jvm.spawn_mutator``), wait for them, call ``jvm.system_gc()`` where the
real harness would, and record timings into the
:class:`~repro.jvm.jvm.RunResult`.

:class:`AllocationProfile` captures the memory behaviour of one
application: allocation volume, object sizes, lifetime mixture, pinned
live set, old-generation mutation — everything a GC can observe about the
program it serves (DESIGN.md §2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigError
from ..heap.lifetime import (
    Exponential,
    LifetimeDistribution,
    Mixture,
    Weibull,
)
from ..units import KB, MB


@dataclass(frozen=True)
class AllocationProfile:
    """Memory behaviour of an application, as seen by the GC.

    ``short``/``medium``/``immortal`` fractions must sum to <= 1 (the
    remainder is treated as short-lived). The *medium* component uses a
    heavy-tailed Weibull, which is what produces realistic nursery
    survival curves (and, with CMS/ParNew tenuring, the paper's
    young-generation-size anomaly).
    """

    alloc_bytes_per_iteration: float
    mean_object_size: float = 4 * KB
    short_fraction: float = 0.85
    short_tau: float = 0.3            #: mean lifetime of transient data (s)
    medium_fraction: float = 0.13
    medium_shape: float = 0.45        #: Weibull shape (<1 = heavy tail)
    medium_scale: float = 2.0         #: Weibull scale (s)
    immortal_fraction: float = 0.02
    live_set_bytes: float = 0.0       #: pinned data established at setup
    live_churn_fraction: float = 0.0  #: live set replaced per iteration
    old_mutation_fraction: float = 0.1  #: of live set dirtied per iteration

    def __post_init__(self) -> None:
        if self.alloc_bytes_per_iteration < 0:
            raise ConfigError("alloc_bytes_per_iteration must be >= 0")
        total = self.short_fraction + self.medium_fraction + self.immortal_fraction
        if total > 1.0 + 1e-9:
            raise ConfigError(f"lifetime fractions sum to {total} > 1")
        if not (0 <= self.live_churn_fraction <= 1):
            raise ConfigError("live_churn_fraction must be in [0, 1]")

    def lifetime(self) -> LifetimeDistribution:
        """Lifetime mixture for transient allocations (immortal share is
        modelled through the pinned live set plus an Immortal component)."""
        from ..heap.lifetime import Immortal

        comps = [
            (max(self.short_fraction, 1e-9), Exponential(self.short_tau)),
        ]
        if self.medium_fraction > 0:
            comps.append(
                (self.medium_fraction, Weibull(self.medium_shape, self.medium_scale))
            )
        if self.immortal_fraction > 0:
            comps.append((self.immortal_fraction, Immortal()))
        return Mixture(comps)


class Workload(ABC):
    """Anything a JVM can run."""

    name: str = "workload"

    @abstractmethod
    def drive(self, jvm, result, **kwargs):
        """Return the driver generator for this workload.

        The driver runs as a DES process; it must terminate for
        :meth:`repro.jvm.jvm.JVM.run` to return.
        """


class LiveSet:
    """A pinned, heap-resident working set with churn.

    Allocated in chunks so that releases create old-generation garbage at
    cohort granularity (as a real application's data-structure turnover
    does).
    """

    def __init__(self, total_bytes: float, chunk_bytes: Optional[float] = None,
                 label: str = "live-set"):
        if total_bytes < 0:
            raise ConfigError("total_bytes must be >= 0")
        self.total_bytes = float(total_bytes)
        self.chunk_bytes = float(chunk_bytes) if chunk_bytes else max(
            total_bytes / 16.0, 1 * MB
        )
        self.label = label
        self.chunks: List = []

    def allocate_body(self, ctx, mean_object_size: float):
        """Generator (mutator body): allocate the whole live set in chunks."""
        remaining = self.total_bytes
        while remaining > 0:
            size = min(self.chunk_bytes, remaining)
            cohort = yield from ctx.allocate(
                size,
                None,
                n_objects=max(1.0, size / mean_object_size),
                pinned=True,
                label=self.label,
            )
            self.chunks.append(cohort)
            remaining -= size

    def churn_body(self, ctx, fraction: float, mean_object_size: float, rng):
        """Generator: release *fraction* of the chunks and allocate fresh ones."""
        if fraction <= 0 or not self.chunks:
            return
        n = max(1, int(round(len(self.chunks) * fraction)))
        n = min(n, len(self.chunks))
        idx = rng.choice(len(self.chunks), size=n, replace=False)
        for i in sorted(idx, reverse=True):
            chunk = self.chunks.pop(int(i))
            chunk.release()
        for _ in range(n):
            cohort = yield from ctx.allocate(
                self.chunk_bytes,
                None,
                n_objects=max(1.0, self.chunk_bytes / mean_object_size),
                pinned=True,
                label=self.label,
            )
            self.chunks.append(cohort)

    @property
    def resident_bytes(self) -> float:
        """Bytes currently held by unreleased chunks."""
        return sum(c.resident for c in self.chunks)
