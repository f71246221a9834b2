"""Profiling harness: run one simulated JVM cell under ``cProfile``.

The harness measures the *simulator*, not the simulated JVM: it answers
"where does the wall-clock go" (hot functions) and "how fast does the
engine turn simulated seconds into real ones" (event rates, sim-to-wall
ratio). The simulated results themselves are untouched — the profiled
run produces the same GC log and trace as an unprofiled one, so a
profile can be taken on any cell of a campaign without invalidating it.

All wall-clock numbers come from the profiler's own accounting
(``pstats.Stats.total_tt``), so this module never touches the clock
APIs that ``repro.lint`` bans from the simulator tree.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..jvm import JVM, JVMConfig
from ..telemetry.tracer import Tracer
from ..workloads.dacapo import get_benchmark


@dataclass
class HotSpot:
    """One row of the hot-function table."""

    func: str          #: ``file:lineno(name)`` or ``~:0(<builtin>)``
    ncalls: int        #: primitive call count
    tottime: float     #: seconds inside the function itself
    cumtime: float     #: seconds including callees


@dataclass
class ProfileResult:
    """Everything ``repro-perf profile`` measured on one cell."""

    benchmark: str
    gc: str
    seed: int
    iterations: int
    wall_s: float                 #: host seconds for the simulated run
    sim_s: float                  #: simulated seconds covered
    events: int                   #: logical engine events (batched spans
                                  #: count every collapsed event)
    trace_events: int             #: telemetry events recorded
    pauses: int                   #: GC pauses in the run
    crashed: bool
    hotspots: List[HotSpot] = field(default_factory=list)
    #: Telemetry event counts by kind (``gc_pause``, ``tlab_refill``, ...).
    event_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def sim_rate(self) -> float:
        """Simulated seconds per host second (bigger is better)."""
        return self.sim_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_s(self) -> float:
        """Logical engine events dispatched per host second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _collect_hotspots(stats: pstats.Stats, top: int) -> List[HotSpot]:
    rows: List[Tuple[float, HotSpot]] = []
    for (fname, lineno, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append((tt, HotSpot(
            func=f"{fname}:{lineno}({name})",
            ncalls=int(nc), tottime=float(tt), cumtime=float(ct),
        )))
    rows.sort(key=lambda r: (-r[0], r[1].func))
    return [h for _tt, h in rows[:top]]


def event_kind_counts(tracer: Tracer) -> Dict[str, int]:
    """Telemetry event counts by name over the whole run."""
    return {k: tracer.counts[k] for k in sorted(tracer.counts)}


def engine_event_count(tracer: Tracer) -> int:
    """Logical engine events reported by ``engine_run`` telemetry.

    Group spans report every collapsed event, so this count matches an
    unbatched run of the same cell exactly.
    """
    from ..telemetry.events import ENGINE_RUN

    return sum(int(e.args.get("events", 0))
               for e in tracer.ring if e.name == ENGINE_RUN)


def profile_run(
    config: JVMConfig,
    benchmark: str,
    *,
    iterations: int = 10,
    system_gc: bool = True,
    top: int = 25,
) -> ProfileResult:
    """Run one DaCapo cell under cProfile; return the measurements.

    The profiled workload is identical to ``repro-trace record`` on the
    same coordinates — same config, tracer attached — so its simulated
    output can be compared against unprofiled runs directly.
    """
    tracer = Tracer()
    jvm = JVM(config, tracer=tracer)
    bench = get_benchmark(benchmark)

    profiler = cProfile.Profile()
    profiler.enable()
    result = jvm.run(bench, iterations=iterations, system_gc=system_gc)
    profiler.disable()
    # The profiler's own accounting doubles as the wall-clock measurement:
    # total_tt is the profiled span, and it keeps this module free of the
    # clock APIs that repro.lint bans (SL001).
    stats = pstats.Stats(profiler)
    wall = float(stats.total_tt)

    return ProfileResult(
        benchmark=benchmark,
        gc=config.gc.value,
        seed=config.seed,
        iterations=iterations,
        wall_s=wall,
        sim_s=jvm.engine.now,
        events=engine_event_count(tracer),
        trace_events=tracer.seq,
        pauses=result.gc_log.count,
        crashed=result.crashed,
        hotspots=_collect_hotspots(stats, top),
        event_kinds=event_kind_counts(tracer),
    )
