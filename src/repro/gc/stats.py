"""GC event records and the pause log.

The :class:`GCLog` is the simulator's equivalent of a parsed HotSpot GC
log: one :class:`PauseRecord` per stop-the-world pause plus one
:class:`ConcurrentRecord` per concurrent phase. All of the paper's pause
statistics (Figures 1 & 4, Table 3) are computed from these records by
:mod:`repro.analysis.pauses`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..telemetry.hist import LogHistogram


@dataclass(frozen=True)
class PauseRecord:
    """One stop-the-world pause.

    ``kind`` is one of ``young``, ``full``, ``initial-mark``, ``remark``,
    ``mixed``; ``cause`` mirrors HotSpot causes (``Allocation Failure``,
    ``System.gc()``, ``Promotion Failure``, ``Ergonomics``, ...).
    """

    start: float
    duration: float
    kind: str
    cause: str
    collector: str
    heap_used_before: float = 0.0
    heap_used_after: float = 0.0
    promoted: float = 0.0

    @property
    def end(self) -> float:
        """Pause end time."""
        return self.start + self.duration

    @property
    def is_full(self) -> bool:
        """True for full (major) collections."""
        return self.kind == "full"


#: Phase name of a concurrent *relocation* (ZGC/Shenandoah copying while
#: mutators run). The World routes these to the dedicated
#: ``concurrent_relocation`` tracer event; every other phase name keeps
#: the generic ``concurrent_phase`` event.
RELOCATION_PHASE = "concurrent-relocation"


@dataclass(frozen=True)
class ConcurrentRecord:
    """One concurrent GC phase (CMS mark/sweep, G1 marking, ZGC/Shenandoah
    relocation)."""

    start: float
    duration: float
    phase: str
    collector: str


@dataclass
class GCLog:
    """Accumulated GC activity of one JVM run."""

    pauses: List[PauseRecord] = field(default_factory=list)
    concurrent: List[ConcurrentRecord] = field(default_factory=list)
    #: Fixed-precision duration histogram, maintained incrementally —
    #: the audited source of every pause percentile (Tables 5-7, the
    #: pause reports). Derived state: rebuilt when a log is constructed
    #: from an existing pause list (codec round-trips, sub-logs).
    pause_hist: LogHistogram = field(default_factory=LogHistogram)

    def __post_init__(self):
        if self.pauses and self.pause_hist.total_count == 0:
            for p in self.pauses:
                self.pause_hist.record(p.duration)

    def record(self, pause: PauseRecord) -> None:
        """Append a pause record."""
        self.pauses.append(pause)
        self.pause_hist.record(pause.duration)

    def record_concurrent(self, rec: ConcurrentRecord) -> None:
        """Append a concurrent-phase record."""
        self.concurrent.append(rec)

    # -- aggregate statistics -------------------------------------------

    @property
    def count(self) -> int:
        """Number of STW pauses."""
        return len(self.pauses)

    @property
    def full_count(self) -> int:
        """Number of full collections."""
        return sum(1 for p in self.pauses if p.is_full)

    @property
    def total_pause(self) -> float:
        """Sum of all pause durations (seconds)."""
        return float(sum(p.duration for p in self.pauses))

    @property
    def max_pause(self) -> float:
        """Longest single pause (0 when none occurred)."""
        return max((p.duration for p in self.pauses), default=0.0)

    @property
    def avg_pause(self) -> float:
        """Mean pause duration (0 when none occurred)."""
        return self.total_pause / self.count if self.count else 0.0

    def durations(self) -> np.ndarray:
        """Pause durations as an array (for vectorized analysis)."""
        return np.array([p.duration for p in self.pauses], dtype=float)

    def starts(self) -> np.ndarray:
        """Pause start times as an array."""
        return np.array([p.start for p in self.pauses], dtype=float)

    def intervals(self) -> np.ndarray:
        """(start, end) pairs as an (n, 2) array, for overlap queries."""
        return np.array([[p.start, p.end] for p in self.pauses], dtype=float).reshape(-1, 2)

    def between(self, t0: float, t1: float) -> "GCLog":
        """Sub-log of pauses starting within [t0, t1)."""
        return GCLog(
            pauses=[p for p in self.pauses if t0 <= p.start < t1],
            concurrent=[c for c in self.concurrent if t0 <= c.start < t1],
        )

    def of_kind(self, *kinds: str) -> "GCLog":
        """Sub-log restricted to the given pause kinds."""
        return GCLog(
            pauses=[p for p in self.pauses if p.kind in kinds],
            concurrent=list(self.concurrent),
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.count} pauses ({self.full_count} full), "
            f"avg {self.avg_pause:.3f}s, max {self.max_pause:.3f}s, "
            f"total {self.total_pause:.2f}s"
        )
