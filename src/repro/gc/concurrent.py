"""The concurrent-copying cycle shared by ZGC, Shenandoah and HTM.

All three copy live objects while mutators run, between short STW
synchronisation points: the structure the "Distilling the Real Cost of
Production Garbage Collectors" paper measures for ZGC and Shenandoah,
and the shape of the HTM collector the paper proposes (§6).
:class:`ConcurrentCopyingCollector` owns the cycle once:

* **Flip.** An allocation failure or ``System.gc()`` stops the world for
  an O(roots) flip pause. The young collection's heap mechanics run
  eagerly at the flip (its outcome is known in expectation); the
  copying *time* is paid concurrently, on :attr:`conc_threads` GC
  threads at :attr:`conc_copy_factor` of STW bandwidth. A generation
  counter drops the finish of a copy that a newer flip replaced.
* **Old cycle**, once old occupancy reaches :attr:`old_trigger` or on
  ``System.gc()``: an optional concurrent mark between two sync pauses,
  then a sweep and a concurrent, defragmenting old relocation.
* **Barrier tax.** Mutators pay :attr:`base_tax` always, plus
  :attr:`cycle_tax` while a copy or an old cycle is in flight.
* **Exhaustion.** A promotion failure at the flip degrades to a serial
  STW full collection.

Subclasses set the class constants and override only what differs:
``_overrun`` (a collection requested while a young copy is still in
flight), ``_flip_seconds`` and ``_copy_volume``.
"""

from __future__ import annotations

from typing import Optional

from ..heap.heap import CollectionVolumes, batch_live_bytes
from .base import Collector, Outcome, STWPause
from .stats import ConcurrentRecord, RELOCATION_PHASE


class ConcurrentCopyingCollector(Collector):
    """Concurrent-copying collector cycle (see the module docstring)."""

    parallel_young = True
    parallel_full = False          # exhaustion fallback is serial
    tenuring_threshold = 4
    survivor_target_fraction = 0.5
    full_fixed_cost = 0.015

    #: Flip pause: kind, and seconds before jitter.
    flip_kind: str = "young"
    flip_pause: float = 0.001
    #: Cause of a flip forced by an allocation failure.
    alloc_cause: str = "Allocation Failure"
    #: Sync pauses around the old cycle's concurrent mark: kinds, and
    #: seconds before jitter. ``None`` skips the mark: the old relocation
    #: starts as soon as the cycle triggers.
    mark_start_kind: Optional[str] = "mark-start"
    mark_start_pause: float = 0.001
    mark_end_kind: str = "mark-end"
    mark_end_pause: float = 0.001
    #: Cause of the old cycle's sync pauses (a cycle that ``System.gc()``
    #: starts logs its first one as ``System.gc()``).
    cycle_cause: str = "Concurrent Cycle"
    #: Cause of the serial full collection on exhaustion.
    exhaustion_cause: str = "Exhaustion"
    #: Permanent mutator slowdown of the always-armed barrier.
    base_tax: float = 0.0
    #: Additional slowdown while a copy or an old cycle is in flight.
    cycle_tax: float = 0.0
    #: Concurrent copying bandwidth relative to STW copying.
    conc_copy_factor: float = 0.75
    #: Old-gen occupancy triggering the old cycle.
    old_trigger: float = 0.65
    #: Concurrent phase names of the young copy and the old relocation.
    young_phase: str = RELOCATION_PHASE
    old_phase: str = RELOCATION_PHASE
    #: Shortest young copy, concurrent mark and old relocation (seconds).
    young_floor: float = 0.002
    mark_floor: float = 0.005
    old_floor: float = 0.005
    #: Young scans are priced off the heap's card table.
    card_fidelity = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.conc_threads = max(1, self.costs.default_gc_threads() // 2)
        self._copying = False          # young copy in flight
        self._copy_end = 0.0
        self._old_cycle = False        # concurrent mark/old relocation
        self._young_gen = 0            # invalidates stale young finishes
        self._old_gen = 0              # invalidates stale old-cycle finishes

    @property
    def concurrent_threads_active(self) -> int:
        return self.conc_threads if (self._copying or self._old_cycle) else 0

    @property
    def mutator_overhead(self) -> float:
        if self._copying or self._old_cycle:
            return self.base_tax + self.cycle_tax
        return self.base_tax

    def allocation_failure(self, now: float) -> Outcome:
        return self._cycle(now, self.alloc_cause, explicit=False)

    def explicit_gc(self, now: float) -> Outcome:
        """``System.gc()``: a full *concurrent* cycle, honoured with the
        flip's pauses (no STW full collection on request)."""
        return self._cycle(now, "System.gc()", explicit=True)

    def _overrun(self, now: float, explicit: bool, outcome: Outcome) -> None:
        """A collection is requested while a young copy is still in
        flight. By default the new copy simply overlaps the old one."""

    def _flip_seconds(self) -> float:
        """Flip pause before jitter."""
        return self.flip_pause

    def _copy_volume(self, copy_work: float) -> float:
        """Bytes' worth of STW copying the concurrent young copy costs."""
        return copy_work / self.conc_copy_factor

    def _cycle(self, now: float, cause: str, *, explicit: bool) -> Outcome:
        outcome = Outcome()
        if self._copying and now < self._copy_end:
            self._overrun(now, explicit, outcome)
        if outcome.stall_seconds > 0:
            cause = "Allocation Stall"
        vol = self._young_collection(now)
        duration = self._flip_seconds() * self._jitter()
        outcome.pauses.append(STWPause(self.flip_kind, cause, duration, vol))
        if vol.promotion_failed:
            outcome.pauses.append(self._exhaustion_fallback(now))
            outcome.stall_seconds = 0.0
            return outcome
        self._schedule_copy(now, vol, outcome)
        if not self._old_cycle and (
                explicit or self.heap.old.occupancy >= self.old_trigger):
            self._start_old_cycle(
                now, "System.gc()" if explicit else self.cycle_cause, outcome)
        return outcome

    def _concurrent_seconds(self, volume: float, floor: float) -> float:
        return max(self.costs.concurrent_duration(
            marked=volume, n_threads=self.conc_threads,
            rate_factor=self._locality()), floor)

    def _schedule_copy(self, now: float, vol: CollectionVolumes,
                       outcome: Outcome) -> None:
        copy_work = vol.copied_to_survivor + vol.promoted
        if copy_work <= 0:
            self._copying = False
            return
        duration = self._concurrent_seconds(self._copy_volume(copy_work),
                                            self.young_floor)
        self._copying = True
        self._copy_end = now + duration
        self._young_gen += 1
        gen = self._young_gen
        outcome.concurrent.append(
            ConcurrentRecord(now, duration, self.young_phase, self.name))
        outcome.schedule.append((duration, lambda t, g=gen: self._finish_young(t, g)))

    def _start_old_cycle(self, now: float, cause: str, outcome: Outcome) -> None:
        self._old_cycle = True
        self._old_gen += 1
        if self.mark_start_kind is None:
            self._relocate_old(now, outcome)
            return
        gen = self._old_gen
        outcome.pauses.append(STWPause(
            self.mark_start_kind, cause, self.mark_start_pause * self._jitter()))
        duration = self._concurrent_seconds(self.heap.old_live_bytes(now),
                                            self.mark_floor)
        outcome.concurrent.append(
            ConcurrentRecord(now, duration, "concurrent-mark", self.name))
        outcome.schedule.append((duration, lambda t, g=gen: self._finish_mark(t, g)))

    def _finish_mark(self, now: float, gen: int) -> Outcome:
        """Marking terminated: the mark-end pause, then the old
        relocation."""
        if gen != self._old_gen or not self._old_cycle:
            return Outcome()
        outcome = Outcome()
        outcome.pauses.append(STWPause(
            self.mark_end_kind, self.cycle_cause,
            self.mark_end_pause * self._jitter()))
        self._relocate_old(now, outcome)
        return outcome

    def _relocate_old(self, now: float, outcome: Outcome) -> None:
        """Sweep the old generation (dead regions are reclaimed in place)
        and relocate its live data concurrently."""
        lives = batch_live_bytes(self.heap.old_cohorts, now)
        live = self.heap.old_live_bytes(now, lives)
        self.heap.sweep_old(now, fragmentation_increment=0.0, lives=lives)
        duration = self._concurrent_seconds(live / self.conc_copy_factor,
                                            self.old_floor)
        self._old_gen += 1
        gen = self._old_gen
        outcome.concurrent.append(
            ConcurrentRecord(now, duration, self.old_phase, self.name))
        outcome.schedule.append((duration, lambda t, g=gen: self._finish_old(t, g)))

    def _finish_young(self, now: float, gen: int) -> Outcome:
        if gen == self._young_gen:
            self._copying = False
        return Outcome()

    def _finish_old(self, now: float, gen: int) -> Outcome:
        if gen == self._old_gen:
            self._old_cycle = False
            self.heap.fragmentation = 0.0  # relocation defragments
        return Outcome()

    def _exhaustion_fallback(self, now: float) -> STWPause:
        """Heap exhausted mid-cycle: serial STW full collection."""
        self._copying = False
        self._old_cycle = False
        self._copy_end = 0.0
        self._young_gen += 1
        self._old_gen += 1
        return self._full(now, self.exhaustion_cause)
