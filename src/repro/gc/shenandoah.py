"""Shenandoah-style fully-concurrent copying collector.

The second modern collector of the "Distilling the Real Cost of
Production Garbage Collectors" study. It runs the same cycle as
:class:`~repro.gc.zgc.ZGC` (:mod:`repro.gc.concurrent`) — concurrent
marking and concurrent evacuation bracketed by tiny STW synchronisation
points — with the differences the Distilling paper highlights:

* **Brooks forwarding pointers.** Every object carries an indirection
  word; reads and writes go through it whether or not a collection is
  running, so the always-on barrier tax is *higher* than ZGC's colored
  pointers (:attr:`base_tax`), the LBO floor the paper measures.
* **Degenerated GC instead of allocation stalls.** When allocation
  outruns an in-flight evacuation, Shenandoah does not stall the
  allocator indefinitely — it *degenerates*: the world stops and the
  remaining evacuation work finishes at STW speed (a ``degenerated``
  pause, typically tens of milliseconds), then the cycle's budget
  resets. Repeated degeneration escalates to a serial STW full GC.
* STW points use Shenandoah's names: ``initial-mark`` / ``remark`` for
  the old cycle (shared with CMS/G1 vocabulary) and a ``young`` flip
  for evacuation candidate selection.

Runs with card fidelity like ZGC: the heap's explicit card table prices
young scans.
"""

from __future__ import annotations

from .base import Outcome, STWPause
from .concurrent import ConcurrentCopyingCollector


class ShenandoahGC(ConcurrentCopyingCollector):
    """``-XX:+UseShenandoahGC``-style concurrent copying collector."""

    name = "ShenandoahGC"
    full_overhead_factor = 1.3     # fallback chases Brooks pointers

    #: STW synchronisation points (seconds, before jitter).
    flip_pause = 0.0015
    mark_start_kind = "initial-mark"
    mark_start_pause = 0.0012
    mark_end_kind = "remark"
    mark_end_pause = 0.0018
    cycle_cause = "Shenandoah Cycle"
    exhaustion_cause = "Shenandoah Full GC"
    #: Always-on Brooks-pointer indirection tax (higher than ZGC's
    #: colored-pointer load barrier — the Distilling paper's headline
    #: Shenandoah finding).
    base_tax = 0.08
    #: Additional write-barrier/SATB traffic while evacuating.
    cycle_tax = 0.05
    conc_copy_factor = 0.7
    #: Degenerated work finishes at STW speed: remaining concurrent
    #: seconds convert at the concurrent/STW bandwidth ratio.
    degen_speedup: float = 0.7
    old_trigger = 0.6

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.degenerated_count = 0

    def _overrun(self, now: float, explicit: bool, outcome: Outcome) -> None:
        """Allocation (or ``System.gc()``) outran the evacuation:
        degenerate — stop the world and finish the remaining copying at
        STW speed."""
        remaining = max(self._copy_end - now, 0.0)
        self._copying = False
        self._copy_end = 0.0
        self._young_gen += 1  # invalidate the scheduled concurrent finish
        self.degenerated_count += 1
        duration = max(remaining * self.degen_speedup, 0.001) * self._jitter()
        outcome.pauses.append(
            STWPause("degenerated", "Shenandoah Degenerated GC", duration))
