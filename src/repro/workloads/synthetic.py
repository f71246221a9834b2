"""Synthetic phase-structured workloads: model your own application.

The DaCapo profiles and the Cassandra server are fixed workloads; this
module is the general-purpose builder. A workload is a sequence of
:class:`AllocationPhase` objects — e.g. a *build* phase that grows a live
set, followed by a *serve* phase of transient request garbage — run by a
configurable number of threads. This is the tool for reproducing the
paper's methodology on an application of your own.

Example::

    workload = SyntheticWorkload([
        AllocationPhase("build", duration=5.0, alloc_rate=200 * MB,
                        lifetime=Immortal(), pinned_growth=500 * MB),
        AllocationPhase("serve", duration=30.0, alloc_rate=800 * MB,
                        lifetime=Exponential(0.1)),
    ], threads=16)
    result = JVM(config).run(workload)
    print(result.extras["phase_stats"])
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..heap.lifetime import Exponential, LifetimeDistribution
from ..units import KB, MB
from .base import LiveSet, Workload


@dataclass(frozen=True)
class AllocationPhase:
    """One phase of a synthetic workload.

    ``alloc_rate`` is bytes/second *per thread* while the phase's CPU work
    progresses (GC stalls stretch the wall time, not the volume).
    """

    name: str
    duration: float                    #: CPU seconds per thread
    alloc_rate: float                  #: bytes/s/thread
    lifetime: Optional[LifetimeDistribution] = None  #: default: short-lived
    mean_object_size: float = 4 * KB
    #: Pinned live-set growth over the phase (total, bytes). Negative
    #: values release previously-grown live data.
    pinned_growth: float = 0.0
    #: Old-generation bytes dirtied per second (card-table pressure).
    dirty_rate: float = 0.0
    quanta: int = 8

    def __post_init__(self) -> None:
        # Each test also rejects NaN, which every comparison fails.
        if not 0 < self.duration < math.inf:
            raise ConfigError(
                f"phase {self.name!r}: duration must be positive and finite")
        if not (0 <= self.alloc_rate < math.inf
                and 0 <= self.dirty_rate < math.inf):
            raise ConfigError(f"phase {self.name!r}: rates must be >= 0 and finite")
        if not 0 < self.mean_object_size < math.inf:
            raise ConfigError(f"phase {self.name!r}: mean_object_size must be "
                              "positive and finite")
        if not math.isfinite(self.pinned_growth):
            raise ConfigError(f"phase {self.name!r}: pinned_growth must be finite")
        if not isinstance(self.quanta, numbers.Integral) or self.quanta < 1:
            raise ConfigError(f"phase {self.name!r}: quanta must be an "
                              f"integer >= 1, got {self.quanta!r}")

    def dist(self) -> LifetimeDistribution:
        """Lifetime distribution (short-lived garbage by default)."""
        return self.lifetime if self.lifetime is not None else Exponential(0.05)


@dataclass
class PhaseStats:
    """Measured outcome of one phase."""

    name: str
    wall_seconds: float
    allocated_bytes: float
    gc_pauses: int
    gc_pause_seconds: float


class SyntheticWorkload(Workload):
    """Run a list of phases on a configurable thread count."""

    def __init__(self, phases: Sequence[AllocationPhase], *,
                 threads: Optional[int] = None, name: str = "synthetic"):
        if not phases:
            raise ConfigError("a synthetic workload needs at least one phase")
        if threads is not None and not (isinstance(threads, numbers.Integral)
                                        and threads >= 1):
            raise ConfigError(f"threads must be None (one per core) or an "
                              f"integer >= 1: {threads!r}")
        self.phases = list(phases)
        self.threads = threads
        self.name = name

    def drive(self, jvm, result, sim_thread_cap: int = 8):
        """Driver generator: execute the phases in order."""
        n_threads = self.threads if self.threads else jvm.config.topology.cores
        groups = max(1, min(n_threads, sim_thread_cap))
        jvm.world.thread_multiplier = n_threads / groups
        live = LiveSet(0.0, chunk_bytes=8 * MB, label=f"{self.name}-live")
        stats: List[PhaseStats] = []

        for phase in self.phases:
            t0 = jvm.now
            pauses0 = jvm.gc_log.count
            stw0 = jvm.world.total_stw_time
            dist = phase.dist()
            allocated = [0.0]

            # Live-set changes happen at phase entry.
            if phase.pinned_growth > 0:
                grower = LiveSet(phase.pinned_growth, chunk_bytes=8 * MB,
                                 label=f"{self.name}-live")

                def grow_body(ctx, g=grower):
                    yield from g.allocate_body(ctx, phase.mean_object_size)

                yield from jvm.join([jvm.spawn_mutator(grow_body, "grow")])
                live.chunks.extend(grower.chunks)
            elif phase.pinned_growth < 0:
                to_release = -phase.pinned_growth
                while live.chunks and to_release > 0:
                    chunk = live.chunks.pop(0)
                    to_release -= chunk.release()

            def worker_body(ctx, p=phase, d=dist, acc=allocated):
                cpu = p.duration / p.quanta
                batch = p.alloc_rate * cpu * jvm.world.thread_multiplier
                max_piece = max(jvm.heap.config.eden_bytes / 8.0, 64 * KB)
                for _q in range(p.quanta):
                    yield from ctx.work(cpu)
                    yield from ctx.allocate_all(
                        batch, d,
                        mean_object_size=p.mean_object_size,
                        max_piece=max_piece, window=cpu, label=p.name,
                        accumulate=acc,
                    )
                    if p.dirty_rate > 0:
                        yield from jvm.world.dirty_cards(p.dirty_rate * cpu)

            procs = [jvm.spawn_mutator(worker_body, f"{phase.name}-w{g}")
                     for g in range(groups)]
            yield from jvm.join(procs)
            stats.append(PhaseStats(
                name=phase.name,
                wall_seconds=jvm.now - t0,
                allocated_bytes=allocated[0],
                gc_pauses=jvm.gc_log.count - pauses0,
                gc_pause_seconds=jvm.world.total_stw_time - stw0,
            ))

        result.extras["phase_stats"] = stats
        result.extras["live_set_bytes"] = live.resident_bytes
