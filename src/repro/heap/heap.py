"""The generational heap facade.

Wires together spaces, cohorts, TLAB accounting and a card-table model,
and implements the *mechanics* of collections (what moves where, what is
freed). Collection *policy and timing* live in the collectors
(:mod:`repro.gc`), which call the ``minor_collection`` /
``full_collection`` / ``sweep_old`` primitives and convert the returned
work volumes into pause durations via the machine cost model.

Space accounting invariants (exercised by the property tests):

* ``eden.used`` equals the bytes allocated since the last collection;
* after a minor collection eden is empty and every surviving byte is in a
  survivor space or the old generation;
* allocation never exceeds ``eden.capacity - tlab_waste``;
* the old generation honours a CMS-style fragmentation factor: its
  *effective* capacity is ``capacity * (1 - fragmentation)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AllocationFailure, ConfigError, HeapError, PromotionFailure
from ..units import MB, fmt_bytes
from .cards import CardTable
from .cohort import TAIL_CUTOFF, Cohort, CohortColumns, CohortStore
from .lifetime import LifetimeDistribution
from .spaces import Space, SpaceKind
from .tlab import TLABConfig, TLABManager

try:    # the clip ufunc: np.clip's Python wrapper costs several times more
    from numpy._core.umath import clip as _clip
except ImportError:     # NumPy 1.x
    from numpy.core.umath import clip as _clip

#: Absolute slack (bytes) tolerated by the accounting invariants: float
#: summation over many cohorts drifts by well under a byte, so one
#: milli-byte of slack separates rounding noise from real leaks. Applied
#: exactly once per comparison.
_EPSILON = 1e-3


@dataclass(frozen=True)
class HeapConfig:
    """Static heap geometry (mirrors ``-Xmx``/``-Xmn``/``-XX:SurvivorRatio``)."""

    heap_bytes: float
    young_bytes: float
    survivor_ratio: int = 8  #: eden : survivor = ratio : 1 (two survivors)
    tlab: TLABConfig = field(default_factory=TLABConfig)

    def __post_init__(self) -> None:
        if self.heap_bytes <= 0:
            raise ConfigError("heap_bytes must be positive")
        if not (0 < self.young_bytes <= self.heap_bytes):
            raise ConfigError(
                f"young_bytes must be in (0, heap]: {self.young_bytes} vs {self.heap_bytes}"
            )
        if self.survivor_ratio < 1:
            raise ConfigError("survivor_ratio must be >= 1")

    @property
    def eden_bytes(self) -> float:
        """Eden capacity given the survivor ratio."""
        return self.young_bytes * self.survivor_ratio / (self.survivor_ratio + 2)

    @property
    def survivor_bytes(self) -> float:
        """Capacity of *one* survivor semispace."""
        return self.young_bytes / (self.survivor_ratio + 2)

    @property
    def old_bytes(self) -> float:
        """Old-generation capacity."""
        return self.heap_bytes - self.young_bytes


def _window_fractions(dist: LifetimeDistribution, t0: np.ndarray,
                      t1: np.ndarray, now: float) -> np.ndarray:
    """Live fraction at *now* of windows ``[t0, t1]`` allocated under
    *dist* (the array form of ``dist.window_live_fraction``)."""
    eff_now = np.maximum(now, t1)
    width = t1 - t0
    # Both ends' ages, interleaved: a window starts where the last one
    # ended, so its start age often has the bits of the last window's
    # end age, and the survival integral runs once for both. Ages are
    # already 1-d arrays, so skip the scalar-preserving public wrappers.
    ages = np.empty(2 * len(t0))
    age = ages[0::2]
    np.subtract(eff_now, t0, out=age)
    np.maximum(eff_now - t1, 0.0, out=ages[1::2])
    bits = ages.view(np.int64)
    new = np.empty(len(ages), dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    at = np.add.accumulate(new, dtype=np.intp)
    at -= 1
    integral = dist._integrated_survival(ages[new])[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = ((integral[0::2] - integral[1::2])
                / np.where(width > 0, width, 1.0))
        # Degenerate windows cancel catastrophically; fall back to the
        # point survival (see window_live_fraction). Such windows are
        # rare, so the fallback runs on them alone.
        tiny = (width <= 1e-9 * np.maximum(1.0, age)).nonzero()[0]
        if len(tiny):
            frac[tiny] = dist._survival(age[tiny])
    return _clip(frac, 0.0, 1.0, out=frac)


def batch_live_bytes(cohorts: CohortColumns, now: float,
                     *more: CohortColumns) -> np.ndarray:
    """Expected live bytes of every row of *cohorts* at *now*, vectorized;
    the rows of *more* spaces of the same heap follow in the one array.

    Pinned rows are fully live until released. Every other row with bytes
    shares its live fraction with the run of neighbours that have its
    bit-equal window and lifetime distribution (the ``group`` column):
    lockstep threads append equal windows side by side. So the scipy
    survival integrals, the hot loop of every collection, run once per
    distribution on its distinct windows in all the spaces, not once per
    cohort. Each step is elementwise: no row's bits depend on the others.
    """
    spaces = [space for space in (cohorts,) + more if space.n]
    if not spaces:      # spaces without rows cost no array work
        return np.zeros(0)
    resident, group, t0, t1, allocated, pinned, released = (
        getattr(spaces[0], name) if len(spaces) == 1
        else np.concatenate([getattr(space, name) for space in spaces])
        for name in ("resident", "group", "t0", "t1", "allocated", "pinned",
                     "released"))
    out = np.where(pinned & ~released, resident, 0.0)
    # Bin 0 counts the rows that need no kernel (group -1).
    groups = np.bincount(group + 1)[1:].nonzero()[0].tolist()
    if not groups:      # no row needs the kernel: skip the search
        return out
    # A window starts at each row whose t0, t1 or group differs from the
    # last row's. Equal means equal bits, so -0.0 and 0.0 stay apart and
    # the elementwise kernels give a whole run the bits of its first row.
    new = np.empty(len(group), dtype=bool)
    new[:1] = True
    np.not_equal(group[1:], group[:-1], out=new[1:])
    for column in (t0, t1):
        bits = column.view(np.int64)
        new[1:] |= bits[1:] != bits[:-1]
    first = new.nonzero()[0]
    window_group = group[first]
    # Windows of group -1 keep 0.0; their rows' bytes come from *out*.
    frac = np.zeros(len(first))
    dists = cohorts.store.dists
    for g in groups:
        windows = (window_group == g).nonzero()[0]
        rows = first[windows]
        frac[windows] = _window_fractions(dists[g], t0[rows], t1[rows], now)
    window = np.add.accumulate(new, dtype=np.intp)
    window -= 1
    live = allocated * frac[window]
    np.minimum(resident, live, out=live)
    return np.where(group >= 0, live, out)


def _running_total(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added left to right.

    This is the sum a ``total += value`` loop computes; ``np.sum`` adds
    pairwise and rounds differently. ``np.add.accumulate`` adds in
    order, and adding 0.0 turns a -0.0 total into the loop's 0.0.
    """
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


def running_sum(start: float, step: float, every: int = 1):
    """The values ``total = start`` takes after every *every* steps of
    ``total += step``, lazily and without end: one float addition a step,
    in order."""
    return islice(accumulate(repeat(step), initial=start), every, None, every)


def _tail_cut(lives: np.ndarray, allocated: np.ndarray,
              pinned: np.ndarray) -> np.ndarray:
    """*lives*, an unpinned row under the tail cutoff counted as dead."""
    return np.where(~pinned & (lives <= np.maximum(TAIL_CUTOFF * allocated, 0.5)),
                    0.0, lives)


def collect_rows(cohorts: CohortColumns, lives: np.ndarray,
                 rows: np.ndarray) -> float:
    """Shrink rows of *cohorts* to their live bytes and age them.

    *lives* holds every row's live bytes (:func:`batch_live_bytes`);
    *rows* picks the rows to collect. A live fraction under
    :data:`~repro.heap.cohort.TAIL_CUTOFF` of an unpinned row counts as
    dead. Rows stay in place, however little they keep. Returns the
    bytes freed, summed in the order of *rows*.
    """
    resident = cohorts.resident
    live = _tail_cut(lives[rows], cohorts.allocated[rows],
                     cohorts.pinned[rows])
    freed = _running_total(resident[rows] - live)
    resident[rows] = live
    cohorts.age[rows] += 1
    return freed


def collect_space(cohorts: CohortColumns, lives: np.ndarray,
                  *cuts: int) -> List[float]:
    """Collect every row of *cohorts* (:func:`collect_rows`), dropping the
    rows left empty. Returns the bytes freed before each of *cuts* and
    after the last: rows gathered from several spaces keep a sum each."""
    bounds = (0,) + cuts + (cohorts.n,)
    if not cohorts.n:
        return [0.0] * (len(bounds) - 1)
    resident, pinned, age = cohorts.resident, cohorts.pinned, cohorts.age
    live = _tail_cut(lives, cohorts.allocated, pinned)
    dropped = resident - live
    freed = [_running_total(dropped[a:b]) for a, b in zip(bounds, bounds[1:])]
    resident[:] = live
    age += 1
    cohorts.keep(~((live <= 0.5) | (pinned & cohorts.released)))
    return freed


@dataclass
class CollectionVolumes:
    """Work volumes of one collection, in bytes (input to the cost model)."""

    kind: str = "minor"            #: "minor" | "full" | "sweep"
    eden_freed: float = 0.0
    survivor_freed: float = 0.0
    old_freed: float = 0.0
    copied_to_survivor: float = 0.0   #: includes survivor-space re-copying
    promoted: float = 0.0
    marked: float = 0.0               #: live bytes traced
    compacted: float = 0.0            #: live bytes slid/moved in old gen
    swept: float = 0.0                #: bytes walked by a free-list sweep
    cards_scanned: float = 0.0        #: dirty-card-covered old bytes scanned
    #: Promoted bytes made of *small* objects (the expensive free-list
    #: case); bulk arena blocks promote via single free-list insertions.
    promoted_small: float = 0.0
    old_occupancy_before: float = 0.0
    promotion_failed: bool = False

    @property
    def total_freed(self) -> float:
        """All bytes reclaimed by this collection."""
        return self.eden_freed + self.survivor_freed + self.old_freed


class GenerationalHeap:
    """A generational heap of analytic cohorts."""

    def __init__(self, config: HeapConfig, n_mutator_threads: int = 1):
        self.config = config
        self.eden = Space("eden", SpaceKind.EDEN, config.eden_bytes)
        self.survivor = Space("survivor", SpaceKind.SURVIVOR, config.survivor_bytes)
        self.old = Space("old", SpaceKind.OLD, config.old_bytes)
        #: Each space's cohorts as columns, sharing one distribution table.
        store = CohortStore()
        self.eden_cohorts = CohortColumns(store)
        self.survivor_cohorts = CohortColumns(store)
        self.old_cohorts = CohortColumns(store)
        self.tlabs = TLABManager(config.tlab, config.eden_bytes, n_mutator_threads)
        #: Nominal young geometry (updated by :meth:`resize_young`); the
        #: live capacities may deviate temporarily when survivor overflow
        #: borrows eden space (to-space overflow).
        self._nominal_eden = self.eden.capacity
        self._nominal_survivor = self.survivor.capacity
        #: CMS-style old-gen fragmentation in [0, fragmentation_cap].
        self.fragmentation = 0.0
        self.fragmentation_cap = 0.25
        #: Old-gen bytes covered by dirty cards since the last young GC.
        #: The scalar stays authoritative for the paper's six collectors;
        #: the explicit card table below runs in parallel (pure integer
        #: arithmetic, zero float ops on the legacy path) and prices scans
        #: only for collectors that opt in via ``card_fidelity``.
        self.dirty_card_bytes = 0.0
        self.card_table = CardTable(config.heap_bytes)
        #: When True, ``minor_collection`` reports the card-quantised
        #: scan volume instead of the scalar approximation.
        self.card_fidelity = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def eden_free(self) -> float:
        """Eden bytes still allocatable (TLAB waste reserved)."""
        return self.eden.capacity - self.tlabs.expected_waste - self.eden.used

    @property
    def young_used(self) -> float:
        """Bytes in eden + survivor."""
        return self.eden.used + self.survivor.used

    @property
    def old_effective_capacity(self) -> float:
        """Old capacity usable given current fragmentation."""
        return self.old.capacity * (1.0 - self.fragmentation)

    @property
    def old_free_effective(self) -> float:
        """Promotable headroom in the old generation."""
        return max(0.0, self.old_effective_capacity - self.old.used)

    @property
    def used(self) -> float:
        """Total heap bytes occupied."""
        return self.young_used + self.old.used

    def live_estimate(self, now: float) -> float:
        """Expected live bytes across the whole heap at *now*."""
        total = 0.0
        for cohorts in (self.eden_cohorts, self.survivor_cohorts, self.old_cohorts):
            total += float(batch_live_bytes(cohorts, now).sum())
        return total

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        now: float,
        n_bytes: float,
        dist: Optional[LifetimeDistribution] = None,
        *,
        n_objects: float = 1.0,
        pinned: bool = False,
        label: str = "",
        window: float = 0.0,
    ) -> Cohort:
        """Allocate a cohort of *n_bytes* in eden.

        Raises :class:`~repro.errors.AllocationFailure` when eden cannot fit
        the request — the JVM reacts by triggering a minor collection and
        retrying, exactly like HotSpot's ``GC (Allocation Failure)``.
        """
        if n_bytes < 0:
            raise ConfigError("cannot allocate negative bytes")
        if n_bytes > self.eden_free + 1e-6:
            raise AllocationFailure(n_bytes)
        cohort = self.eden_cohorts.add(now - window, now, n_bytes, dist,
                                       n_objects, pinned, label)
        # Space.add without its checks: the eden_free test above is the
        # stricter one (it also reserves the TLAB waste).
        eden = self.eden
        eden.used = min(eden.used + n_bytes, eden.capacity)
        return cohort

    def allocate_bump(self, now: float, n_bytes: float, dist, *,
                      n_objects: float, window: float) -> None:
        """:meth:`allocate` minus the feasibility re-checks and the handle,
        for the batched bump path — the span's pass 1 already proved the
        piece fits eden (against the stricter TLAB-waste-reserved bound,
        which implies :meth:`~repro.heap.spaces.Space.add`'s own check)
        and validated *dist*. Heap state effects are identical to
        :meth:`allocate`.
        """
        self.eden_cohorts.append_row(now - window, now, n_bytes, dist, n_objects)
        eden = self.eden
        eden.used = min(eden.used + n_bytes, eden.capacity)

    def allocate_bumps(self, times, n_bytes: float, dist, *, count: int,
                       n_objects: float, window: float) -> None:
        """*count* :meth:`allocate_bump` calls at each of *times* in turn,
        with the rows in one write and eden's occupancy added one row at
        a time (a running sum never falls: once over capacity it stays
        over, as the capped loop stays at capacity)."""
        rows = count * len(times)
        # One time needs no array: append_rows takes it as a scalar.
        t1 = times[0] if len(times) == 1 else np.repeat(times, count)
        self.eden_cohorts.append_rows(rows, t1 - window, t1, n_bytes, dist,
                                      n_objects)
        eden = self.eden
        eden.used = min(next(running_sum(eden.used, n_bytes, rows)), eden.capacity)

    def eden_free_after(self, n_bytes: float, every: int):
        """:attr:`eden_free` after every *every* further bump rows of
        *n_bytes*, lazily (see :meth:`allocate_bumps`)."""
        eden = self.eden
        room, capacity = eden.capacity - self.tlabs.expected_waste, eden.capacity
        return (room - min(used, capacity)
                for used in running_sum(eden.used, n_bytes, every))

    def allocate_old(
        self,
        now: float,
        n_bytes: float,
        dist: Optional[LifetimeDistribution] = None,
        *,
        n_objects: float = 1.0,
        pinned: bool = False,
        label: str = "",
    ) -> Cohort:
        """Allocate directly in the old generation (humongous objects).

        Raises :class:`~repro.errors.PromotionFailure` when the effective
        old capacity cannot fit the request.
        """
        if n_bytes > self.old_free_effective + 1e-6:
            raise PromotionFailure(
                f"old gen cannot fit humongous {fmt_bytes(n_bytes)}"
            )
        cohort = self.old_cohorts.add(now, now, n_bytes, dist, n_objects,
                                      pinned, label,
                                      age=10 ** 6)  # never "tenured" again
        self.old.add(n_bytes)
        return cohort

    def dirty_cards(self, n_bytes: float, repeat: int = 1) -> None:
        """Record *n_bytes* of old-generation data written by mutators,
        *repeat* times over.

        Young collections of CMS/ParNew (and G1 via remembered sets) must
        scan this volume; it is the physical source of the paper's
        young-generation-size anomaly (DESIGN.md §6.3).

        A repeated write leaves the state *repeat* single calls would:
        the scalar is clamped after every write and the card table
        saturates write by write.
        """
        if n_bytes < 0:
            raise ConfigError("dirty_cards takes non-negative bytes")
        used = self.old.used
        dirty = self.dirty_card_bytes
        for _ in range(repeat):
            dirty = min(dirty + n_bytes, used)
        self.dirty_card_bytes = dirty
        self.card_table.dirty(n_bytes, used, repeat)

    # ------------------------------------------------------------------
    # Collection mechanics
    # ------------------------------------------------------------------

    def minor_collection(
        self,
        now: float,
        tenuring_threshold: int,
        *,
        survivor_target_fraction: float = 1.0,
    ) -> CollectionVolumes:
        """Evacuate the young generation.

        Survivors below the tenuring threshold are copied to the survivor
        space (oldest cohorts promoted first on overflow, as HotSpot does);
        the rest are promoted. Returns the work volumes; sets
        ``promotion_failed`` (leaving survivors conservatively promoted as
        far as possible) when the old generation cannot absorb them —
        callers then run a full collection.
        """
        vol = CollectionVolumes(kind="minor")
        vol.old_occupancy_before = self.old.occupancy
        if self.card_fidelity:
            vol.cards_scanned = float(self.card_table.dirty_bytes)
        else:
            vol.cards_scanned = self.dirty_card_bytes

        # 1. Age cohorts and find survivors in one pass; the candidates
        # gather in eden.
        vol.eden_freed, vol.survivor_freed, _ = self._collect_young(now)
        eden = self.eden_cohorts

        # 2. Tenuring + survivor-space packing (oldest promoted first).
        # Rows are candidate indices; sums run over plain floats in the
        # order the rows are listed.
        survivor_cap = max(0.0, self.survivor.capacity * survivor_target_fraction)
        ages = eden.age
        resident = eden.resident.tolist()
        tenured = np.flatnonzero(ages > tenuring_threshold).tolist()
        keep = np.flatnonzero(ages <= tenuring_threshold)
        # Youngest first (stable): the oldest overflow first.
        keep = keep[np.argsort(ages[keep], kind="stable")]
        packed: List[int] = []
        packed_bytes = 0.0
        for i in keep.tolist():
            if packed_bytes + resident[i] <= survivor_cap:
                packed.append(i)
                packed_bytes += resident[i]
            else:
                tenured.append(i)
        vol.copied_to_survivor += packed_bytes

        # 3. Promote tenured cohorts into the old generation.
        promoted_bytes = sum([resident[i] for i in tenured])
        vol.promoted += promoted_bytes
        small = (eden.mean_object_size() < 256 * 1024).tolist()
        vol.promoted_small += sum([resident[i] for i in tenured if small[i]])
        total_promoted = vol.promoted
        if total_promoted > self.old_free_effective + 1e-6:
            vol.promotion_failed = True
            # Promote what fits; the caller must follow with a full GC.
            fits: List[int] = []
            room = self.old_free_effective
            age_of = ages.tolist()
            for i in sorted(tenured, key=lambda i: -age_of[i]):
                if resident[i] <= room:
                    fits.append(i)
                    room -= resident[i]
                else:
                    packed.append(i)  # stranded in survivor bookkeeping
                    packed_bytes += resident[i]
            tenured = fits
            promoted_bytes = sum([resident[i] for i in tenured])

        # 4. Commit the move.
        self.survivor_cohorts.extend(eden, np.array(packed, dtype=np.intp))
        self.old_cohorts.extend(eden, np.array(tenured, dtype=np.intp))
        eden.clear()
        self.eden.reset()
        self.survivor.used = 0.0
        self._commit_survivor(packed_bytes)
        if promoted_bytes > 0:
            self.old.add(min(promoted_bytes, self.old.free))

        # The scan cleans every card, but promoted data starts out with
        # some dirty references into young.
        redirty = 0.15 * promoted_bytes
        self.dirty_card_bytes = redirty
        self.card_table.clear()
        self.card_table.dirty(redirty, self.old.used)
        vol.marked = vol.copied_to_survivor + vol.promoted
        return vol

    def full_collection(self, now: float, *, compacting: bool = True) -> CollectionVolumes:
        """Collect every generation.

        All young survivors are promoted to the old generation (as HotSpot
        full GCs do); dead old bytes are reclaimed. With ``compacting=True``
        the old generation is slid (fragmentation resets to zero); with
        ``compacting=False`` (CMS foreground mark-sweep) the space is freed
        in place and fragmentation persists.
        """
        vol = CollectionVolumes(kind="full")
        vol.old_occupancy_before = self.old.occupancy

        # Young survivors gather in eden.
        vol.eden_freed, vol.survivor_freed, vol.old_freed = \
            self._collect_young(now, old=True)
        eden, old = self.eden_cohorts, self.old_cohorts

        young = eden.resident.tolist()
        old_resident = sum(old.resident.tolist())
        live = float(sum(young) + old_resident)
        vol.marked = live
        vol.swept = self.old.used + self.young_used
        if compacting:
            vol.compacted = live
            self.fragmentation = 0.0

        if live > self.config.heap_bytes + 1e-6:
            raise HeapError(
                f"live data {fmt_bytes(live)} exceeds heap "
                f"{fmt_bytes(self.config.heap_bytes)}"
            )
        # Promote young survivors into the compacted old gen, oldest first;
        # whatever does not fit stays in the young generation (HotSpot keeps
        # live young data in place when the old gen is tight).
        room = self.old.capacity - old_resident
        promoted: List[int] = []
        stranded: List[int] = []
        # Oldest first; the stable sort keeps equal ages in row order.
        for i in np.argsort(-eden.age, kind="stable").tolist():
            if young[i] <= room:
                promoted.append(i)
                room -= young[i]
            else:
                stranded.append(i)
        vol.promoted = float(sum([young[i] for i in promoted]))

        old.extend(eden, np.array(promoted, dtype=np.intp))
        self.survivor_cohorts.extend(eden, np.array(stranded, dtype=np.intp))
        eden.clear()
        self.eden.reset()
        stranded_bytes = sum([young[i] for i in stranded])
        self.survivor.used = 0.0
        self._commit_survivor(stranded_bytes)
        self.old.used = min(float(sum(old.resident.tolist())), self.old.capacity)
        self.dirty_card_bytes = 0.0
        self.card_table.clear()
        return vol

    def _collect_young(self, now: float,
                       old: bool = False) -> Tuple[float, float, float]:
        """Gather the young rows in eden, its own first, and collect them
        in one pass (with the old rows when *old*). Returns the bytes
        freed in eden, the survivor space and the old generation."""
        eden = self.eden_cohorts
        n_eden = eden.n
        eden.extend(self.survivor_cohorts)
        self.survivor_cohorts.clear()
        if not old:
            return (*collect_space(eden, batch_live_bytes(eden, now), n_eden),
                    0.0)
        n_young = eden.n
        lives = batch_live_bytes(eden, now, self.old_cohorts)
        eden_freed, survivor_freed = collect_space(eden, lives[:n_young], n_eden)
        old_freed, = collect_space(self.old_cohorts, lives[n_young:])
        return eden_freed, survivor_freed, old_freed

    def _commit_survivor(self, survivor_bytes: float) -> None:
        """Install post-collection survivor contents, handling overflow.

        Survivor bytes beyond the nominal semispace capacity ("to-space
        overflow") borrow eden capacity, so total young capacity is
        conserved — eden shrinks and allocations fail sooner, which is
        exactly the thrashing HotSpot exhibits when live data barely fits
        the heap (paper Table 3, 250 MB rows).
        """
        overflow = max(0.0, survivor_bytes - self._nominal_survivor)
        self.survivor.capacity = self._nominal_survivor + overflow
        self.survivor.add(survivor_bytes)
        self.eden.capacity = max(self._nominal_eden - overflow, 0.0)
        self.tlabs.eden_capacity = max(self.eden.capacity, 1.0)

    def sweep_old(self, now: float, *, fragmentation_increment: float = 0.02,
                  lives: Optional[np.ndarray] = None) -> CollectionVolumes:
        """CMS-style concurrent sweep of the old generation (no moving).

        Frees dead old bytes in place and increases fragmentation.
        *lives* are the old rows' live bytes at *now*, when known.
        """
        vol = CollectionVolumes(kind="sweep")
        vol.old_occupancy_before = self.old.occupancy
        vol.swept = self.old.used
        if lives is None:
            lives = batch_live_bytes(self.old_cohorts, now)
        vol.old_freed, = collect_space(self.old_cohorts, lives)
        self.old.remove(min(vol.old_freed, self.old.used))
        if vol.old_freed > 0:
            self.fragmentation = min(
                self.fragmentation_cap, self.fragmentation + fragmentation_increment
            )
        return vol

    def old_live_bytes(self, now: float, lives: Optional[np.ndarray] = None) -> float:
        """Expected live bytes in the old generation (*lives*: as above)."""
        if lives is None:
            lives = batch_live_bytes(self.old_cohorts, now)
        return float(lives.sum())

    # ------------------------------------------------------------------
    # Dynamic young sizing (G1)
    # ------------------------------------------------------------------

    def resize_young(self, new_young_bytes: float) -> None:
        """Resize the young generation (G1's pause-target policy).

        Only legal right after a collection, while eden is empty. The old
        generation receives/cedes the complementary capacity.
        """
        if self.eden.used > 0:
            raise HeapError("resize_young requires an empty eden")
        new_young_bytes = min(max(new_young_bytes, 1 * MB), self.config.heap_bytes * 0.6)
        ratio = self.config.survivor_ratio
        eden_cap = new_young_bytes * ratio / (ratio + 2)
        surv_cap = new_young_bytes / (ratio + 2)
        if surv_cap < self.survivor.used:
            surv_cap = self.survivor.used
            eden_cap = max(new_young_bytes - 2 * surv_cap, 1 * MB)
        old_cap = self.config.heap_bytes - (eden_cap + 2 * surv_cap)
        if old_cap < self.old.used:
            return  # old gen too full to shrink; keep current geometry
        self.eden.resize(eden_cap)
        self.survivor.resize(surv_cap)
        self.old.resize(old_cap)
        self._nominal_eden = eden_cap
        self._nominal_survivor = surv_cap
        self.tlabs.eden_capacity = eden_cap

    def check_invariants(self, now: float) -> None:
        """Raise on accounting drift (used by tests, debug runs and the
        runtime :class:`~repro.lint.audit.InvariantAuditor`).

        Every space's cohort-resident total must fit inside its space
        accounting, with the shared :data:`_EPSILON` slack applied once
        per comparison (the old-gen check used to apply it on both sides,
        doubling the tolerance relative to eden's).
        """
        eden_resident = sum(self.eden_cohorts.resident.tolist())
        if eden_resident > self.eden.used + _EPSILON:
            raise HeapError(
                f"eden cohorts {eden_resident} exceed eden.used {self.eden.used}"
            )
        surv_resident = sum(self.survivor_cohorts.resident.tolist())
        if surv_resident > self.survivor.used + _EPSILON:
            raise HeapError(
                f"survivor cohorts {surv_resident} exceed "
                f"survivor.used {self.survivor.used}"
            )
        old_resident = sum(self.old_cohorts.resident.tolist())
        if old_resident > self.old.used + _EPSILON:
            raise HeapError(
                f"old cohorts {old_resident} exceed old.used {self.old.used}"
            )
        if not (0.0 <= self.fragmentation <= self.fragmentation_cap + _EPSILON):
            raise HeapError(
                f"fragmentation {self.fragmentation} outside "
                f"[0, {self.fragmentation_cap}]"
            )
        if self.dirty_card_bytes < -_EPSILON:
            raise HeapError(
                f"negative dirty_card_bytes {self.dirty_card_bytes}"
            )
        if not (0 <= self.card_table.dirty_cards_count
                <= self.card_table.total_cards):
            raise HeapError(
                f"dirty card count {self.card_table.dirty_cards_count} "
                f"outside [0, {self.card_table.total_cards}]"
            )
