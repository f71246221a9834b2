"""Cost model: converts GC work into simulated time.

This is the calibration core of the reproduction. Collectors report *work*
(bytes marked, copied, compacted, swept; cards scanned; objects handled)
and the cost model turns work into seconds on a given
:class:`~repro.machine.topology.MachineTopology`.

Design notes
------------

* **Per-thread bandwidths** are calibrated so that baseline runs land in
  the paper's ballpark (young pauses of hundreds of ms on DaCapo;
  minutes-long parallel full GCs on a 64 GB mostly-live heap).
* **Parallel efficiency** follows Gidra et al. (cited by the paper):
  GC throughput saturates around 2.5-3x the single-thread rate on the
  48-core NUMA box because of synchronization and remote scanning.
  We model ``eff(n) = n / (1 + alpha (n-1))`` damped by a NUMA factor
  once the GC threads span multiple NUMA nodes.
* **Promotion slowdown** — Parallel Scavenge promotion degrades sharply
  as the old generation fills (PLAB claiming serializes on the shared
  expand lock). This reproduces the paper's 17-25 s ParallelOld young
  pauses on Cassandra while CMS (free-list promotion replenished by the
  concurrent sweeper) and G1 (pause-target-sized young) stay in the
  2-3.5 s range. See DESIGN.md §6.5.
* All methods are pure functions of their inputs — no hidden state — so
  collectors remain deterministic and unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import GB, MB, MS, US
from .topology import MachineTopology, PAPER_SERVER


@dataclass(frozen=True)
class CostModel:
    """Machine cost model for GC and allocation work.

    All ``*_bw`` fields are single-GC-thread bandwidths in bytes/second;
    aggregate STW rates are obtained via :meth:`effective_threads`.
    """

    topology: MachineTopology = PAPER_SERVER

    # -- per-GC-thread bandwidths (bytes/s) -------------------------------
    # Calibrated so that, together with the locality factor below, a
    # 16 GB-heap young collection runs at the rates observed for DaCapo
    # and a 64 GB-heap collection collapses as Gidra et al. report.
    copy_bw: float = 344 * MB         #: evacuation / survivor copying
    mark_bw: float = 688 * MB         #: tracing live objects
    compact_bw: float = 275 * MB      #: sliding compaction (mark-compact)
    sweep_bw: float = 2060 * MB       #: free-list sweeping (no moving)
    card_scan_bw: float = 1.4 * GB    #: scanning dirty-card-covered old-gen bytes

    # -- parallel efficiency ----------------------------------------------
    alpha: float = 0.28               #: synchronization drag per extra thread
    numa_gamma: float = 0.08          #: penalty per extra NUMA node spanned
    #: Single-threaded phases need no synchronization (no work-stealing
    #: barriers, no CAS on shared stacks) and run above the per-thread
    #: parallel bandwidth — this keeps serial full GCs competitive at
    #: DaCapo-sized live sets, as the paper observes.
    serial_bonus: float = 2.3
    #: Serial *young* collections don't enjoy the full sequential-bandwidth
    #: bonus: copying sparse survivors is latency-bound. Used by the young
    #: pause pricing when a collector runs single-threaded.
    serial_young_bonus: float = 1.5
    #: NUMA locality drag: GC bandwidth on this machine degrades as the
    #: heap grows towards the full RAM (objects spread across all NUMA
    #: nodes; remote scanning/copying dominates — Gidra et al. [12, 13]).
    #: Effective rates are multiplied by ``1 / (1 + k * heap / RAM)``.
    locality_k: float = 1.5

    # -- GC-thread placement (asymmetric machines) -------------------------
    #: Per-thread bandwidth multipliers applied when GC threads are pinned
    #: to a core class of an :class:`~repro.machine.topology
    #: .AsymmetricTopology` (DESIGN.md §18). ``young_gc_rate`` scales young
    #: evacuation, ``old_gc_rate`` scales full/old STW phases priced through
    #: :meth:`stw_duration`, ``conc_gc_rate`` scales concurrent phases. The
    #: defaults of exactly 1.0 are byte-transparent: ``x * 1.0`` is
    #: IEEE-754-exact, so homogeneous runs are unchanged to the bit.
    young_gc_rate: float = 1.0
    old_gc_rate: float = 1.0
    conc_gc_rate: float = 1.0

    # -- safepoints ---------------------------------------------------------
    safepoint_base: float = 1.0 * MS          #: time-to-safepoint floor
    safepoint_per_thread: float = 0.05 * MS   #: per running mutator thread

    # -- allocation path -----------------------------------------------------
    tlab_refill_cost: float = 2.0 * US        #: CAS + zeroing start per refill
    tlab_bump_cost_per_byte: float = 0.0      #: bump-pointer alloc ~ free
    shared_alloc_cost_per_object: float = 0.03 * US  #: lock path, uncontended
    contention_exponent: float = 0.35  #: lock cost grows ~ threads**exponent

    # -- promotion ------------------------------------------------------------
    #: Fraction of promotion bandwidth remaining when the old generation is
    #: completely full, for collectors with ``promotion_degrades=True``
    #: (Parallel Scavenge family). bw_factor = max(floor, 1 - k*occ**4).
    promotion_floor: float = 0.04
    promotion_knee: float = 0.96

    # -- miscellaneous fixed costs ---------------------------------------------
    page_touch_bw: float = 24 * GB    #: first-touch zeroing of new heap pages
    reference_processing: float = 2.0 * MS  #: weak/soft ref processing per STW GC

    def __post_init__(self) -> None:
        for name in ("copy_bw", "mark_bw", "compact_bw", "sweep_bw", "card_scan_bw"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0 <= self.promotion_floor <= 1):
            raise ConfigError("promotion_floor must be in [0, 1]")
        for name in ("young_gc_rate", "old_gc_rate", "conc_gc_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # Memo tables for the two pure lookups on the per-pause hot path.
        # Keys are thread counts and configured heap sizes — a handful of
        # distinct values per run. Attached via object.__setattr__ because
        # the dataclass is frozen; they are not fields, so eq/repr/replace
        # ignore them.
        object.__setattr__(self, "_eff_threads_memo", {})
        object.__setattr__(self, "_locality_memo", {})

    # ------------------------------------------------------------------
    # Parallelism
    # ------------------------------------------------------------------

    def default_gc_threads(self) -> int:
        """HotSpot's ParallelGCThreads ergonomics: ``8 + (ncpus-8) * 5/8``."""
        n = self.topology.cores
        return n if n <= 8 else int(8 + (n - 8) * 5 / 8)

    def default_concurrent_gc_threads(self) -> int:
        """HotSpot's ConcGCThreads ergonomics: ``(ParallelGCThreads+3)/4``."""
        return max(1, (self.default_gc_threads() + 3) // 4)

    def effective_threads(self, n_threads: int) -> float:
        """Effective parallelism of *n_threads* GC threads.

        Saturating speedup with a NUMA damping factor; ``effective_threads(1)
        == 1`` exactly, so serial collectors pay no parallel overhead.
        """
        value = self._eff_threads_memo.get(n_threads)
        if value is not None:
            return value
        if n_threads < 1:
            raise ConfigError("n_threads must be >= 1")
        n = min(n_threads, self.topology.cores)
        if n == 1:
            value = self.serial_bonus
        else:
            speedup = n / (1.0 + self.alpha * (n - 1))
            nodes = self.topology.nodes_spanned(n)
            numa = 1.0 / (1.0 + self.numa_gamma * (nodes - 1))
            value = max(speedup * numa, 1.0)
        self._eff_threads_memo[n_threads] = value
        return value

    def locality(self, heap_bytes: float) -> float:
        """Bandwidth multiplier for a heap of *heap_bytes* on this machine.

        1.0 would be a perfectly node-local heap; the factor decays as the
        heap spans more of the machine's memory (remote accesses dominate).
        """
        value = self._locality_memo.get(heap_bytes)
        if value is not None:
            return value
        if heap_bytes < 0:
            raise ConfigError("heap_bytes must be >= 0")
        value = 1.0 / (1.0 + self.locality_k * heap_bytes / self.topology.ram_bytes)
        self._locality_memo[heap_bytes] = value
        return value

    # ------------------------------------------------------------------
    # STW phase durations
    # ------------------------------------------------------------------

    def stw_duration(
        self,
        *,
        n_threads: int = 1,
        copied: float = 0.0,
        marked: float = 0.0,
        compacted: float = 0.0,
        swept: float = 0.0,
        cards_scanned: float = 0.0,
        fixed: float = 0.0,
        overhead_factor: float = 1.0,
        rate_factor: float = 1.0,
    ) -> float:
        """Duration of one stop-the-world phase given its work volumes.

        ``overhead_factor`` multiplies the whole phase; collectors use it
        for structural penalties (e.g. G1's serial full GC region
        bookkeeping). ``rate_factor`` scales the bandwidths (locality).
        """
        eff = self.effective_threads(n_threads) * max(rate_factor, 1e-6)
        eff *= self.old_gc_rate
        t = (
            copied / (self.copy_bw * eff)
            + marked / (self.mark_bw * eff)
            + compacted / (self.compact_bw * eff)
            + swept / (self.sweep_bw * eff)
            + cards_scanned / (self.card_scan_bw * eff)
        )
        return (t + fixed) * overhead_factor

    def promotion_bw_factor(self, old_occupancy: float) -> float:
        """Bandwidth factor for degrading promotion (Parallel Scavenge).

        1.0 while the old generation is comfortably empty, dropping steeply
        past ~80 % occupancy down to :attr:`promotion_floor` when full.
        """
        occ = min(max(old_occupancy, 0.0), 1.0)
        return max(self.promotion_floor, 1.0 - self.promotion_knee * occ ** 4)

    def concurrent_duration(self, *, marked: float = 0.0, swept: float = 0.0,
                            n_threads: int = 1, rate_factor: float = 1.0) -> float:
        """Duration of a concurrent (non-STW) phase.

        Concurrent phases run at ~70 % of the STW bandwidth per thread
        (they contend with mutators for memory bandwidth).
        """
        eff = self.effective_threads(n_threads) * 0.7 * max(rate_factor, 1e-6)
        eff *= self.conc_gc_rate
        return marked / (self.mark_bw * eff) + swept / (self.sweep_bw * eff)

    # ------------------------------------------------------------------
    # Safepoints
    # ------------------------------------------------------------------

    def time_to_safepoint(self, n_mutator_threads: int) -> float:
        """Time for all mutators to reach the safepoint once requested."""
        return self.safepoint_base + self.safepoint_per_thread * max(0, n_mutator_threads)

    # ------------------------------------------------------------------
    # Allocation path
    # ------------------------------------------------------------------

    def alloc_overhead(
        self,
        *,
        n_bytes: float,
        n_objects: float,
        tlab_enabled: bool,
        tlab_size: float,
        n_threads: int,
    ) -> float:
        """Mutator-side CPU time spent in the allocation path (one thread).

        With TLABs: a bump-pointer fast path plus one refill (CAS on the
        shared eden pointer) per TLAB worth of bytes. Without TLABs: every
        allocation takes the shared lock, whose cost grows with the number
        of allocating threads (``threads ** contention_exponent``).
        """
        if n_bytes < 0 or n_objects < 0:
            raise ConfigError("allocation volumes must be non-negative")
        if tlab_enabled:
            if tlab_size <= 0:
                raise ConfigError("tlab_size must be positive when TLAB enabled")
            refills = n_bytes / tlab_size
            return refills * self.tlab_refill_cost + n_bytes * self.tlab_bump_cost_per_byte
        contention = max(1, n_threads) ** self.contention_exponent
        return n_objects * self.shared_alloc_cost_per_object * contention

    def heap_touch_time(self, heap_bytes: float) -> float:
        """One-off cost of first-touching (zeroing) the committed heap."""
        return heap_bytes / self.page_touch_bw
