"""HTM-assisted concurrent collector — the paper's future work (§6).

The paper closes with: "we plan to implement and thoroughly test a
garbage collector that uses HTM [hardware transactional memory] ... We
aim to repeat this evaluation of the GC impact on application execution
and compare the new approach to the current available GCs." This module
provides that collector in the simulator, modelled on the two HTM
systems the paper discusses:

* **StackTrack** (Alistarh et al., EuroSys'14): HTM gives collector
  threads a consistent view of mutator-accessed data without stopping
  the world, at the price of mutator throughput — "it can also reduce
  the data structure throughput by up to 50 %".
* **Collie** (Iyengar et al., ISMM'12): a wait-free compacting collector
  using HTM; its noted weaknesses are single-threaded collection and a
  second pass over the object graph that risks "memory exhaustion
  during a collection".

Model (the cycle in :mod:`repro.gc.concurrent`):

* Young and old collections run **concurrently**: the only stop-the-world
  work is a short *flip* pause (root scan + barrier arm/disarm, plus
  reference processing), a few milliseconds regardless of heap size.
  There is no concurrent mark: the old compaction starts as soon as old
  occupancy reaches :attr:`old_trigger`.
* While a concurrent evacuation is in flight, mutators pay the HTM tax:
  transactional read/write-set tracking slows every heap access
  (:attr:`cycle_tax` on top of the always-on :attr:`base_tax`), and the
  evacuation itself occupies GC threads (CPU steal).
* Transactions abort under write contention. The abort rate grows with
  the mutation rate of old data; aborted work is retried, stretching the
  concurrent phase (:attr:`abort_overhead_factor`).
* If the heap fills up before a concurrent evacuation finishes (Collie's
  exhaustion hazard), the collector degrades to a serial STW compaction
  of the whole heap — the same fallback path as a CMS concurrent mode
  failure.
* A flip while an evacuation is still in flight neither stalls nor
  degenerates: the new evacuation simply overlaps the old one.
* HTM prices young scans off the heap's scalar dirty volume, not its
  card table (:attr:`card_fidelity` is off).
"""

from __future__ import annotations

from .concurrent import ConcurrentCopyingCollector


class HTMGC(ConcurrentCopyingCollector):
    """Simulated HTM-based concurrent compacting collector.

    Not part of the paper's measured six — this is the collector the
    paper *proposes to build*; the ``bench_extension_htm`` benchmark runs
    the comparison the paper planned.
    """

    name = "HTMGC"
    full_overhead_factor = 1.3   # fallback walks HTM side state

    #: STW flip pause: root scan + read/write barrier arm.
    flip_pause = 0.006
    alloc_cause = "HTM Flip"
    mark_start_kind = None
    exhaustion_cause = "HTM Exhaustion"
    #: Permanent mutator slowdown: the HTM read barrier is always armed
    #: (StackTrack observes up to ~50 % on contended structures; a whole
    #: application mix sits lower).
    base_tax = 0.15
    #: Additional slowdown while a concurrent evacuation is in flight
    #: (write transactions conflict with the copying collector).
    cycle_tax = 0.10
    #: Concurrent copying is slower than STW copying: every object move is
    #: a transaction with validation overhead.
    conc_copy_factor = 0.6
    #: Extra work from aborted/retried transactions per unit of old-gen
    #: mutation concurrency.
    abort_overhead_factor: float = 0.5
    #: Old-gen occupancy triggering a concurrent old-space compaction.
    old_trigger = 0.6
    young_phase = "htm-evacuation"
    old_phase = "htm-old-compaction"
    young_floor = 0.005
    old_floor = 0.01
    card_fidelity = False

    def _flip_seconds(self) -> float:
        return self.flip_pause + self.costs.reference_processing

    def _copy_volume(self, copy_work: float) -> float:
        """Aborted transactions retry: the copy grows with the old-gen
        mutation racing it."""
        aborts = 1.0 + self.abort_overhead_factor * min(
            self.heap.dirty_card_bytes / max(copy_work, 1.0), 1.0
        )
        return copy_work * aborts / self.conc_copy_factor
