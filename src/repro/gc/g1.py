"""Garbage-First (G1): region-based, pause-target-driven collection.

G1 divides the heap into regions and sizes the young generation so that
evacuation pauses meet ``-XX:MaxGCPauseMillis`` (200 ms by default). A
concurrent marking cycle starts when old occupancy crosses the initiating
heap occupancy percent (IHOP, 45 %); after remark + cleanup, the next few
evacuation pauses are *mixed* — they also evacuate the old regions with
the most garbage ("garbage first").

Two structural properties drive the paper's findings:

* **The full GC is single-threaded** in OpenJDK 8 (a serial
  mark-sweep-compact over the region table). Forcing a ``System.gc()``
  per DaCapo iteration therefore makes G1 the worst collector by far
  (Figures 1(a), 2(a), 3(a)).
* G1 *ignores a fixed ``-Xmn``-style young size* (HotSpot warns against
  setting it) and keeps resizing young to meet the pause target — which is
  why its Cassandra pauses stay in seconds while ParallelOld's young
  pauses reach tens of seconds.
"""

from __future__ import annotations

import numpy as np

from ..heap.heap import CollectionVolumes, batch_live_bytes, collect_rows
from ..heap.regions import RegionTable
from .base import Collector, Outcome, STWPause
from .stats import ConcurrentRecord

#: Rows a mixed pause first sorts to find its budget prefix. A pause
#: reads one row past those it takes; in the 64g stress runs and the 8g
#: golden run it takes 42-56 of 482-13,412 rows holding garbage, so
#: this batch, over twice that, has never had to widen there.
MIXED_BATCH = 128


class G1GC(Collector):
    """``-XX:+UseG1GC`` (OpenJDK 8 behaviour)."""

    name = "G1GC"
    parallel_young = True
    parallel_full = False          # JDK 8: serial full GC
    full_overhead_factor = 1.9     # region bookkeeping in the serial full GC
    tenuring_threshold = 4
    survivor_target_fraction = 0.5
    card_scan_weight = 2.0         # per-region remembered sets
    young_fixed_cost = 0.006       # RSet maintenance, choosing the CSet
    full_fixed_cost = 0.015

    #: Initiating heap occupancy percent for concurrent marking.
    ihop = 0.45
    #: Mixed collections following one marking cycle.
    mixed_count_target = 4
    #: Young-size bounds as heap fractions (G1NewSizePercent/G1MaxNewSizePercent).
    young_min_fraction = 0.05
    young_max_fraction = 0.60

    def __init__(self, *args, pause_target: float = 0.2, **kwargs):
        super().__init__(*args, **kwargs)
        self.pause_target = float(pause_target)
        self.regions = RegionTable.for_heap(self.heap.config.heap_bytes)
        self.conc_threads = self.costs.default_concurrent_gc_threads()
        self._state = "idle"       # idle | marking
        self._cycle_gen = 0
        self._mixed_remaining = 0

    # ------------------------------------------------------------------

    @property
    def concurrent_threads_active(self) -> int:
        return self.conc_threads if self._state == "marking" else 0

    @property
    def cycle_state(self) -> str:
        """Concurrent-cycle state (``idle``/``marking``)."""
        return self._state

    @property
    def mixed_remaining(self) -> int:
        """Mixed evacuations still owed from the last marking cycle."""
        return self._mixed_remaining

    def humongous_threshold(self) -> float:
        """G1's humongous rule: objects of at least half a region are
        allocated directly in (old) humongous regions."""
        return self.regions.humongous_threshold

    def allocation_failure(self, now: float) -> Outcome:
        outcome = Outcome()
        kind = "mixed" if self._mixed_remaining > 0 else "young"
        pause, vol = self._minor(now, "Allocation Failure")
        pause.kind = kind
        if kind == "mixed":
            pause.duration += self._evacuate_old(now, vol)
            self._mixed_remaining -= 1
        outcome.pauses.append(pause)
        if vol.promotion_failed:
            outcome.pauses.append(self._promotion_failure_full(now))
        self.after_minor(now, vol, outcome)
        self._adapt_young(now, pause.duration)
        return outcome

    # ------------------------------------------------------------------
    # Pause-target-driven young sizing
    # ------------------------------------------------------------------

    def _adapt_young(self, now: float, observed_pause: float) -> None:
        """Resize young toward the pause target.

        A multiplicative controller: if the last evacuation beat the
        target, grow the young generation (fewer, equally-short pauses);
        if it overshot, shrink it. This tracks HotSpot's behaviour
        including the important edge case where survivors are a fixed
        volume independent of young size — G1 then settles at a large
        young generation instead of thrashing at the minimum.
        """
        if observed_pause <= 0:
            return
        factor = (self.pause_target / observed_pause) ** 0.7
        factor = min(max(factor, 0.5), 2.0)
        current = self.heap.eden.capacity + 2 * self.heap.survivor.capacity
        heap_bytes = self.heap.config.heap_bytes
        target_young = min(
            max(current * factor, self.young_min_fraction * heap_bytes),
            self.young_max_fraction * heap_bytes,
        )
        # Round to whole regions.
        target_young = self.regions.bytes_for(
            max(1, self.regions.regions_for(target_young))
        )
        if target_young != current:
            self.tracer.heap_resize(now, "young", current, target_young)
        self.heap.resize_young(target_young)

    # ------------------------------------------------------------------
    # Concurrent marking and mixed collections
    # ------------------------------------------------------------------

    def after_minor(self, now, vol, outcome: Outcome) -> None:
        if self._state != "idle":
            return
        occupancy = self.heap.used / self.heap.config.heap_bytes
        if occupancy < self.ihop:
            return
        self._state = "marking"
        self._cycle_gen += 1
        gen = self._cycle_gen
        # Initial mark piggybacks on the evacuation pause.
        if outcome.pauses:
            outcome.pauses[-1].duration += 0.005 * self._jitter()
            outcome.pauses[-1].cause += " (initial-mark)"
        mark_work = self.heap.old_live_bytes(now)
        duration = max(
            self.costs.concurrent_duration(marked=mark_work, n_threads=self.conc_threads, rate_factor=self._locality()),
            0.01,
        )
        outcome.concurrent.append(
            ConcurrentRecord(now, duration, "concurrent-mark", self.name)
        )
        outcome.schedule.append((duration, lambda t, g=gen: self._finish_mark(t, g)))

    def _finish_mark(self, now: float, gen: int) -> Outcome:
        if gen != self._cycle_gen or self._state != "marking":
            return Outcome()
        outcome = Outcome()
        remark_cards = self.heap.dirty_card_bytes + 0.02 * self.heap.old.used
        remark = STWPause(
            "remark",
            "G1 Remark",
            self.costs.stw_duration(
                n_threads=self._young_threads(),
                marked=0.1 * self.heap.young_used,
                # Region remembered sets grow with the old generation.
                cards_scanned=remark_cards * self.card_scan_weight,
                fixed=0.008,
                rate_factor=self._locality(),
            )
            * self._jitter(),
        )
        outcome.pauses.append(remark)
        # Cleanup: reclaim wholly-empty regions immediately (cheap STW).
        sweep = self.heap.sweep_old(now, fragmentation_increment=0.0)
        cleanup = STWPause(
            "cleanup",
            "G1 Cleanup",
            self.costs.stw_duration(
                n_threads=self._young_threads(),
                swept=sweep.swept * 0.1,
                fixed=0.003,
                rate_factor=self._locality(),
            )
            * self._jitter(),
            sweep,
        )
        outcome.pauses.append(cleanup)
        self._state = "idle"
        self._mixed_remaining = self.mixed_count_target
        return outcome

    def _evacuate_old(self, now: float, vol: CollectionVolumes) -> float:
        """Extra work of a mixed pause: evacuate the garbage-first old regions.

        Picks the old cohorts with the highest garbage fraction, frees their
        dead bytes, and charges the copying of their live bytes. Returns the
        extra pause seconds.
        """
        budget = self.pause_target * 0.3 * self.costs.copy_bw * self.costs.effective_threads(
            self._young_threads()
        )
        # Placement: old-region evacuation rides the young pause, so the
        # young class's rate bounds how much fits in the pause budget.
        budget *= self.costs.young_gc_rate
        old = self.heap.old_cohorts
        lives = batch_live_bytes(old, now)
        resident = old.resident
        garbage = resident - lives
        rows = np.flatnonzero(garbage > 0)
        # Garbage first: highest garbage fraction first, ties in row order.
        key = -(garbage[rows] / np.maximum(resident[rows], 1.0))
        # The budget prefix: rows are taken while their live bytes fit.
        # Only a batch of the best rows is sorted. It holds every row that
        # scores at least its cut, so its stable sort is a prefix of the
        # full one; it widens while every row in it fits and rows remain.
        copied = 0.0
        taken = 0
        size = MIXED_BATCH
        batch = rows[:0]
        while taken == len(batch) < len(rows):
            best = slice(None)
            if size < len(rows):
                best = key <= np.partition(key, size - 1)[size - 1]
            batch = rows[best][np.argsort(key[best], kind="stable")]
            for live in lives[batch[taken:]].tolist():
                if copied + live > budget:
                    break
                copied += live
                taken += 1
            size *= 4
        # Use the bytes the rows actually dropped, not the estimate: the
        # tail cutoff can free slightly more than `garbage`, and old.used
        # must track cohort residents exactly or the drift surfaces at
        # the next full GC.
        freed = collect_rows(old, lives, batch[:taken])
        if freed > 0:
            self.heap.old.remove(min(freed, self.heap.old.used))
        vol.old_freed += freed
        eff = self.costs.effective_threads(self._young_threads())
        eff *= self.costs.young_gc_rate
        return copied / (self.costs.copy_bw * eff)

    # ------------------------------------------------------------------

    def _promotion_failure_full(self, now: float) -> STWPause:
        """To-space exhaustion: the dreaded serial full GC."""
        self._state = "idle"
        self._cycle_gen += 1
        self._mixed_remaining = 0
        self.tracer.annotate(now, "to_space_exhausted")
        return self._full(now, "To-space Exhausted")

    def explicit_gc(self, now: float) -> Outcome:
        """System.gc(): a single-threaded full compaction (JDK 8 G1)."""
        self._state = "idle"
        self._cycle_gen += 1
        self._mixed_remaining = 0
        pause = self._full(now, "System.gc()")
        return Outcome(pauses=[pause])
