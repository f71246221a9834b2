"""ZGC-style fully-concurrent copying collector.

Models the structure the "Distilling the Real Cost of Production
Garbage Collectors" paper measures for ZGC, on the cycle in
:mod:`repro.gc.concurrent`:

* **Tiny bounded STW pauses.** The only stop-the-world work is three
  sub-millisecond synchronisation points per cycle — ``mark-start``
  (root scan + barrier flip), ``mark-end`` (marking termination) and
  ``relocate-start`` (relocation-set selection + barrier flip). Pause
  durations are O(roots), independent of heap size.
* **Concurrent relocation.** All copying happens while mutators run,
  on dedicated GC threads (CPU steal), slower than STW copying because
  every access races a colored-pointer load barrier
  (:attr:`conc_copy_factor`).
* **Load-barrier tax.** The colored-pointer load barrier is always
  armed (:attr:`base_tax`); self-healing remap traffic adds more while
  a relocation is in flight (:attr:`cycle_tax`).
* **Allocation stalls.** When allocation outruns reclamation — eden
  fills again before the in-flight relocation finishes — the allocating
  thread *stalls* until the relocation completes instead of the world
  stopping. This is ZGC's signature degradation mode: throughput
  suffers; the pause profile stays flat.
* On true exhaustion (promotion failure mid-relocation) the simulator
  degrades to a serial STW full collection, the worst case the real
  collector works very hard to avoid.

Runs with card fidelity: the heap's explicit card table, not its scalar
dirty volume, prices young scans.
"""

from __future__ import annotations

from .base import Outcome
from .concurrent import ConcurrentCopyingCollector


class ZGC(ConcurrentCopyingCollector):
    """``-XX:+UseZGC``-style concurrent copying collector."""

    name = "ZGC"
    full_overhead_factor = 1.2     # fallback walks forwarding tables

    #: STW synchronisation points (seconds, before jitter): O(roots).
    flip_kind = "relocate-start"
    flip_pause = 0.0010
    mark_start_pause = 0.0008
    mark_end_pause = 0.0012
    cycle_cause = "ZGC Cycle"
    exhaustion_cause = "ZGC Exhaustion"
    #: Permanent mutator slowdown from the always-armed colored-pointer
    #: load barrier (the Distilling paper's LBO floor for ZGC).
    base_tax = 0.04
    #: Additional slowdown while a relocation is in flight (self-healing
    #: barrier remaps + remembered-set maintenance).
    cycle_tax = 0.04
    conc_copy_factor = 0.75
    old_trigger = 0.65

    def _overrun(self, now: float, explicit: bool, outcome: Outcome) -> None:
        """Allocation outran reclamation: the allocating thread waits for
        the in-flight relocation instead of the world stopping.
        ``System.gc()`` does not wait."""
        if not explicit:
            outcome.stall_seconds = self._copy_end - now
