"""Collector base class and the JVM<->collector interaction protocol.

The JVM drives collectors through two entry points:

* :meth:`Collector.allocation_failure` — eden could not satisfy an
  allocation; the collector performs a young collection (and whatever
  follow-up its policy dictates) and returns an :class:`Outcome`;
* :meth:`Collector.explicit_gc` — ``System.gc()`` was called (the DaCapo
  harness does this between iterations when system GC is enabled).

An :class:`Outcome` carries the STW pauses to execute *now* (the JVM stops
the world for their total duration and logs them) plus optional scheduled
continuations (``delay``, ``fn(now) -> Outcome``) used by the concurrent
collectors for mark/sweep completion events.

Pause durations are **derived from work actually performed on the heap**
(bytes copied / marked / compacted / card-scanned, as returned by the heap
mechanics) through the machine cost model — collectors contain policy and
structure, not magic numbers for whole pauses.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..heap.heap import CollectionVolumes, GenerationalHeap
from ..machine.costs import CostModel
from ..seeding import rng_for
from ..telemetry.tracer import NULL_TRACER
from .stats import ConcurrentRecord


@dataclass
class STWPause:
    """A stop-the-world pause the JVM must execute."""

    kind: str                 #: young | full | initial-mark | remark | mixed
    cause: str                #: HotSpot-style GC cause
    duration: float           #: seconds, excluding time-to-safepoint
    volumes: Optional[CollectionVolumes] = None


@dataclass
class Outcome:
    """Result of a collector interaction (see module docstring)."""

    pauses: List[STWPause] = field(default_factory=list)
    #: (delay_seconds, continuation) pairs; the continuation is invoked by
    #: the JVM at ``now + delay`` and returns a further Outcome.
    schedule: List[Tuple[float, Callable[[float], "Outcome"]]] = field(default_factory=list)
    concurrent: List[ConcurrentRecord] = field(default_factory=list)
    #: Allocation-stall seconds the *triggering mutator* must wait after
    #: the (tiny) pauses complete — the fully-concurrent collectors' way
    #: of making allocators pay when relocation cannot keep up, instead
    #: of a long STW pause. Zero for the stock collectors.
    stall_seconds: float = 0.0

    def merge(self, other: "Outcome") -> "Outcome":
        """Append *other*'s content to this outcome (returns self)."""
        self.pauses.extend(other.pauses)
        self.schedule.extend(other.schedule)
        self.concurrent.extend(other.concurrent)
        self.stall_seconds += other.stall_seconds
        return self


class Collector(ABC):
    """Common mechanics shared by every collector.

    Subclasses configure the class attributes below (for the paper's six,
    matching its Table 1) and may override :meth:`after_minor`
    (concurrent-cycle policy) and :meth:`explicit_gc` (System.gc()
    behaviour). The concurrent-copying collectors replace both entry
    points with the cycle in :mod:`repro.gc.concurrent`.
    """

    #: Collector name as it appears in the paper's figures.
    name: str = "abstract"
    #: GC threads used in young STW pauses (None = HotSpot ergonomics).
    parallel_young: bool = True
    #: GC threads used in full STW pauses (False => serial full GC).
    parallel_full: bool = False
    #: Collections an object must survive before promotion.
    tenuring_threshold: int = 15
    #: Fraction of the survivor space the young GC is willing to fill
    #: before tenuring overflow (CMS tenures early: lower value).
    survivor_target_fraction: float = 1.0
    #: Weight of dirty-card scanning in young pauses (free-list old
    #: generations are more expensive to scan).
    card_scan_weight: float = 1.0
    #: Price young scans off the heap's card table (card-quantised dirty
    #: volume) rather than its scalar dirty volume. Off for the paper's
    #: six collectors, which stay byte-identical to the committed
    #: baselines; ZGC and Shenandoah set it.
    card_fidelity: bool = False
    #: Multiplier applied to full-GC durations (structural overheads,
    #: e.g. G1's region bookkeeping in its serial full GC).
    full_overhead_factor: float = 1.0
    #: Fixed bookkeeping per young pause (adaptive-size policy etc.).
    young_fixed_cost: float = 0.004
    #: Fixed bookkeeping per full pause.
    full_fixed_cost: float = 0.010
    #: Does promotion bandwidth degrade as the old gen fills (Parallel
    #: Scavenge's shared expand lock)? See DESIGN.md §6.5.
    promotion_degrades: bool = False
    #: Relative promotion bandwidth (free-list promotion is slower).
    promotion_bw_scale: float = 1.0
    #: Penalty factor on promotion bandwidth when a young collection
    #: overflows the survivor space (premature tenuring). Free-list old
    #: generations (CMS/ParNew) pay dearly here: bulk promotion of
    #: young-aged objects forces best-fit searches through fragmented free
    #: lists. This is the mechanism behind the paper's young-generation
    #: anomaly (§3.3, Table 3): a *smaller* young generation promotes
    #: prematurely and ends up with *longer* average pauses.
    overflow_promotion_penalty: float = 1.0
    #: HotSpot's adaptive tenuring: the effective threshold drops when the
    #: survivor space runs past TargetSurvivorRatio (50 %) and creeps back
    #: toward :attr:`tenuring_threshold` when there is room. This bounds
    #: survivor re-copying while keeping the structural difference between
    #: the PS family (threshold 15) and the CMS family (early tenuring).
    target_survivor_ratio: float = 0.5

    def __init__(
        self,
        heap: GenerationalHeap,
        costs: CostModel,
        *,
        gc_threads: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        noise: float = 0.03,
    ):
        self.heap = heap
        self.costs = costs
        if self.card_fidelity:
            heap.card_fidelity = True
        default = costs.default_gc_threads()
        self.gc_threads = int(gc_threads) if gc_threads is not None else default
        if self.gc_threads < 1:
            raise ConfigError("gc_threads must be >= 1")
        # The JVM injects a per-run stream; when a collector is built
        # directly (benchmarks, tests) derive one from the collector name
        # so different collectors never share a jitter stream.
        self.rng = rng if rng is not None else rng_for(self.name, "collector-default")
        self.noise = float(noise)
        self._tenuring = self.tenuring_threshold
        #: Telemetry sink (the JVM swaps in a live tracer when requested).
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # JVM-facing protocol
    # ------------------------------------------------------------------

    def allocation_failure(self, now: float) -> Outcome:
        """Handle an eden allocation failure: young GC + policy follow-ups."""
        outcome = Outcome()
        pause, vol = self._minor(now, "Allocation Failure")
        outcome.pauses.append(pause)
        if vol.promotion_failed:
            # The fallback full GC already collected everything; defer any
            # concurrent-cycle policy to the next young collection.
            outcome.pauses.append(self._promotion_failure_full(now))
        else:
            self.after_minor(now, vol, outcome)
        return outcome

    def explicit_gc(self, now: float) -> Outcome:
        """Handle ``System.gc()`` — a compacting full collection by default."""
        pause = self._full(now, "System.gc()")
        return Outcome(pauses=[pause])

    def after_minor(self, now: float, vol: CollectionVolumes, outcome: Outcome) -> None:
        """Policy hook after a young collection (default: none)."""

    @property
    def concurrent_threads_active(self) -> int:
        """GC threads currently running concurrently with mutators."""
        return 0

    def humongous_threshold(self) -> float:
        """Allocation size routed straight to the old generation.

        Stock generational collectors only bypass eden for objects that
        could never fit it comfortably; G1 overrides this with its
        half-region humongous rule.
        """
        return 0.8 * self.heap.eden.capacity

    @property
    def mutator_overhead(self) -> float:
        """Fractional mutator slowdown imposed by the collector's barriers
        (0 for the stock collectors; the concurrent-copying collectors tax
        every heap access, and more while a concurrent copy is in
        flight)."""
        return 0.0

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------

    def _young_threads(self) -> int:
        return self.gc_threads if self.parallel_young else 1

    def _locality(self) -> float:
        """NUMA locality bandwidth factor for this heap on this machine."""
        return self.costs.locality(self.heap.config.heap_bytes)

    def _full_threads(self) -> int:
        return self.gc_threads if self.parallel_full else 1

    def _jitter(self) -> float:
        """Small multiplicative noise for pause durations."""
        if self.noise <= 0:
            return 1.0
        return float(np.exp(self.rng.normal(0.0, self.noise)))

    def _minor(self, now: float, cause: str) -> Tuple[STWPause, CollectionVolumes]:
        """Perform the young collection and price it."""
        vol = self._young_collection(now)
        duration = self.young_pause_duration(vol) * self._jitter()
        return STWPause("young", cause, duration, vol), vol

    def _young_collection(self, now: float) -> CollectionVolumes:
        """Collect the young generation and adapt the tenuring threshold."""
        vol = self.heap.minor_collection(
            now,
            self._tenuring,
            survivor_target_fraction=self.survivor_target_fraction,
        )
        # Adaptive tenuring (TargetSurvivorRatio): tenure earlier when the
        # survivor space runs hot, relax back toward the configured
        # threshold when it has room.
        tenuring_before = self._tenuring
        target = self.target_survivor_ratio * self.heap.survivor.capacity
        if vol.copied_to_survivor > target:
            self._tenuring = max(1, self._tenuring - 2)
        elif self._tenuring < self.tenuring_threshold:
            self._tenuring += 1
        if self._tenuring != tenuring_before:
            self.tracer.tenuring_adapt(now, tenuring_before, self._tenuring)
        if vol.promoted > 0:
            self.tracer.promotion(now, vol.promoted, vol.promoted_small)
        return vol

    def young_pause_duration(self, vol: CollectionVolumes) -> float:
        """Price a young collection from its work volumes."""
        threads = self._young_threads()
        promo_factor = self.promotion_bw_scale
        if self.promotion_degrades:
            promo_factor *= self.costs.promotion_bw_factor(vol.old_occupancy_before)
        else:
            # Free-list promotion degrades mildly with fragmentation.
            promo_factor *= max(0.4, 1.0 - self.heap.fragmentation)
        if threads > 1:
            eff = self.costs.effective_threads(threads)
        else:
            # Serial young copying is latency-bound (sparse survivors).
            eff = self.costs.serial_young_bonus
        eff *= self._locality()
        # Placement rate for the class running young GC (1.0 when the
        # GC threads sit on baseline cores; exact no-op then).
        eff *= self.costs.young_gc_rate
        copy_t = vol.copied_to_survivor / (self.costs.copy_bw * eff)
        # Promotion of *small objects* beyond what a healthy survivor
        # space would tenure is premature: it pays the overflow penalty
        # (free-list best-fit searches). Bulk arena blocks (memtable
        # chunks, commit-log segments) promote as single free-list
        # insertions and are exempt.
        overflow_threshold = 0.2 * self.heap.survivor.capacity
        overflow = max(vol.promoted_small - overflow_threshold, 0.0)
        regular = vol.promoted - overflow
        promo_bw = self.costs.copy_bw * eff * max(promo_factor, 1e-3)
        promo_t = regular / promo_bw + overflow / (
            promo_bw * self.overflow_promotion_penalty
        )
        cards_t = (
            vol.cards_scanned * self.card_scan_weight / (self.costs.card_scan_bw * eff)
        )
        return copy_t + promo_t + cards_t + self.young_fixed_cost + self.costs.reference_processing

    def _full(
        self,
        now: float,
        cause: str,
        *,
        compacting: bool = True,
        kind: str = "full",
    ) -> STWPause:
        """Perform a full collection and price it."""
        vol = self.heap.full_collection(now, compacting=compacting)
        duration = self.full_pause_duration(vol, compacting=compacting) * self._jitter()
        return STWPause(kind, cause, duration, vol)

    def full_pause_duration(self, vol: CollectionVolumes, *, compacting: bool = True) -> float:
        """Price a full collection from its work volumes."""
        threads = self._full_threads()
        t = self.costs.stw_duration(
            n_threads=threads,
            marked=vol.marked,
            compacted=vol.compacted if compacting else 0.0,
            swept=vol.swept if not compacting else 0.0,
            fixed=self.full_fixed_cost,
            overhead_factor=self.full_overhead_factor,
            rate_factor=self._locality(),
        )
        return t + self.costs.reference_processing

    def _promotion_failure_full(self, now: float) -> STWPause:
        """Fallback full GC after a promotion failure (serial for all but
        ParallelOld, which compacts in parallel)."""
        return self._full(now, "Promotion Failure")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} threads={self.gc_threads}>"
