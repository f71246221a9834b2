"""The six OpenJDK 8 garbage collectors (paper Table 1), and beyond.

Every collector collects the simulated heap's analytic cohorts and
converts the work it performed into stop-the-world pause durations via
the machine cost model. Structural properties of the paper's six match
HotSpot in OpenJDK 8. The extensions are the concurrent-copying family
(one cycle in :mod:`repro.gc.concurrent`: ZGC and Shenandoah from the
"Distilling the Real Cost" study, and the HTM collector the paper
proposes in §6) and Epsilon, the zero-cost baseline:

=============  ===========================  =================================
Collector      Young collection             Old collection
=============  ===========================  =================================
Serial         serial copying               serial mark-compact
ParNew         parallel copying             serial mark-compact
Parallel       parallel copying (scavenge)  **serial** mark-sweep-compact
ParallelOld    parallel copying (scavenge)  parallel mark-compact
CMS            parallel copying (ParNew)    concurrent mark-sweep (STW
                                            initial-mark + remark), no
                                            compaction, serial fallback
G1             parallel evacuation          concurrent marking + mixed
                                            evacuations; **serial** full GC
ZGC            concurrent copy after a      concurrent mark + relocation;
               STW flip; allocation stalls  serial exhaustion fallback
Shenandoah     concurrent copy after a      concurrent mark + evacuation;
               STW flip; degenerated pause  serial exhaustion fallback
HTM            concurrent (transactional)   concurrent compaction, no mark
               copy after a STW flip        pass; serial exhaustion fallback
Epsilon        free, instant reclamation    free, instant reclamation;
               (zero pauses)                crashes when live > heap
=============  ===========================  =================================
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("Collector", "Outcome", "STWPause"),
    ".stats": ("GCLog", "PauseRecord"),
    ".registry": ("GCType", "GC_NAMES", "MODERN_GC_NAMES", "ALL_GC_NAMES",
                  "TABLE8_GC_NAMES", "collector_class", "create_collector"),
    ".serial": ("SerialGC",),
    ".parnew": ("ParNewGC",),
    ".parallel": ("ParallelGC",),
    ".parallel_old": ("ParallelOldGC",),
    ".cms": ("ConcurrentMarkSweepGC",),
    ".g1": ("G1GC",),
    ".htm": ("HTMGC",),
    ".zgc": ("ZGC",),
    ".shenandoah": ("ShenandoahGC",),
    ".epsilon": ("EpsilonGC",),
})
