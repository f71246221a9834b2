"""Mutator threads, safepoints and the stop-the-world protocol.

:class:`World` owns the global execution state of the simulated JVM:
which mutators exist, whether a stop-the-world pause is in progress, and
the GC log. Mutators are DES processes wrapped in a
:class:`MutatorContext` that provides the two primitives every workload
is written in terms of:

* ``yield from ctx.work(cpu_seconds)`` — compute for a given amount of
  CPU time (stretched when concurrent GC threads steal cores, paused for
  the duration of any STW pause — implemented with process interrupts);
* ``cohort = yield from ctx.allocate(bytes, dist, ...)`` — allocate in
  eden, paying the allocation-path cost and triggering a garbage
  collection on allocation failure, exactly like a JVM allocation site.

Workloads whose mutator groups run in lockstep (the DaCapo harness, the
Cassandra server) wait at their quantum boundaries in
:meth:`~MutatorContext.work` or :meth:`~MutatorContext.idle`, which keep
the queued wake-up on the context. That lets the group that wakes first
replay whole rounds of every group's quanta as one *span*
(:meth:`World.span_order`, :meth:`World.commit_span`; DESIGN.md §12.1).

The stop-the-world protocol mirrors HotSpot's safepoints: the GC
initiator flags the world stopped, interrupts all running mutators, waits
time-to-safepoint, executes the collector's pauses, then releases
everyone. GCs requested while another is in progress wait for it (and the
allocation is retried afterwards).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, NamedTuple, Optional

from ..errors import (AllocationFailure, OutOfMemoryError, PromotionFailure,
                      SimulationError)
from ..gc.base import Outcome
from ..gc.stats import GCLog, PauseRecord, RELOCATION_PHASE
from ..heap.lifetime import LifetimeDistribution
from ..sim import Engine, Event, Interrupt
from ..sim.process import TRIGGERED, Timeout
from ..telemetry.tracer import NULL_TRACER
from ..units import KB


class AllocSite(NamedTuple):
    """One allocation request as :meth:`MutatorContext.allocate` serves it
    while world state stands still (see :meth:`World.alloc_site`)."""

    n_bytes: float
    n_objects: float
    cost: float                #: allocation-path CPU seconds
    delay: Optional[float]     #: cost / speed; None when no event is queued
    refills: Optional[float]   #: TLAB refills to trace; None without TLABs
    tlab_size: float
    old: bool                  #: routed straight to the old generation


def pieces(n_bytes: float, max_piece: float, mean_object_size: float):
    """The ``(bytes, objects)`` pieces :meth:`MutatorContext.allocate_all`
    allocates *n_bytes* in: ``max_piece`` bytes each but the last."""
    remaining = float(n_bytes)
    while remaining > 0:
        piece = min(remaining, max_piece)
        yield piece, max(1.0, piece / mean_object_size)
        remaining -= piece


class World:
    """Global JVM execution state: mutators, safepoints, GC log."""

    def __init__(self, engine: Engine, heap, collector, costs, gc_log: GCLog, n_cores: int):
        self.engine = engine
        self.heap = heap
        self.collector = collector
        self.costs = costs
        self.gc_log = gc_log
        self.n_cores = int(n_cores)
        self.stw = False
        self.gc_in_progress = False
        self._resume_event = None
        #: Live contexts in registration order; a context leaves when it
        #: dies, as it points back at the world.
        self.mutators: List["MutatorContext"] = []
        # O(1) mirrors of "how many contexts are alive / alive-and-running".
        # Maintained by register() and the MutatorContext.alive/parked
        # setters; mutator_speed() is called once per work quantum, so the
        # old O(n_mutators) generator sums dominated large-grid profiles.
        self._n_alive = 0
        self._n_running = 0
        self.total_stw_time = 0.0
        #: Allocation-stall accounting (fully-concurrent collectors): the
        #: triggering mutator waits for an in-flight relocation instead of
        #: the world stopping. Always zero for the stock collectors.
        self.stall_count = 0
        self.total_stall_time = 0.0
        #: Telemetry sink (the JVM swaps in a live tracer when requested).
        self.tracer = NULL_TRACER
        self._thread_multiplier = 1.0
        # Derived thread quantities, recomputed on the rare inputs changes
        # (thread birth/death, multiplier assignment) instead of on every
        # work quantum: logical thread count and the CPU-sharing divisor.
        self._logical_threads = 1
        self._speed_denom = 1.0

    @property
    def thread_multiplier(self) -> float:
        """Logical application threads represented by each mutator process.

        Workloads may simulate k threads per process ("thread groups")
        for speed; CPU sharing and allocation contention stay faithful
        to the logical thread count.
        """
        return self._thread_multiplier

    @thread_multiplier.setter
    def thread_multiplier(self, value: float) -> None:
        self._thread_multiplier = value
        self._recompute_threads()

    def _recompute_threads(self) -> None:
        logical = self._n_alive * self._thread_multiplier
        self._logical_threads = max(1, int(round(logical)))
        self._speed_denom = logical if logical > 1.0 else 1.0

    # ------------------------------------------------------------------

    def register(self, ctx: "MutatorContext") -> None:
        """Track a mutator context for safepoint interruption."""
        self.mutators.append(ctx)
        if ctx._alive:
            self._n_alive += 1
            if not ctx._parked:
                self._n_running += 1
            self._recompute_threads()

    def alive_mutators(self) -> int:
        """Number of live mutator threads."""
        return self._n_alive

    def running_mutators(self) -> int:
        """Live mutators that are not parked at a safepoint."""
        return self._n_running

    def mutator_speed(self) -> float:
        """Per-thread execution speed in [0, 1].

        Concurrent GC threads steal cores; more runnable mutators than
        available cores time-share.
        """
        collector = self.collector
        available = self.n_cores - collector.concurrent_threads_active
        if available < 1:
            available = 1
        speed = available / self._speed_denom
        if speed > 1.0:
            speed = 1.0
        return speed / (1.0 + collector.mutator_overhead)

    def logical_threads(self) -> int:
        """Logical application thread count (for contention modelling)."""
        return self._logical_threads

    # ------------------------------------------------------------------
    # Stop-the-world cycle
    # ------------------------------------------------------------------

    def gc_cycle(
        self,
        current: Optional["MutatorContext"],
        trigger: Callable[[float], Outcome],
        *,
        must_run: bool = False,
    ):
        """Generator: run a GC interaction under a stop-the-world pause.

        If a GC is already in progress: waits for it, then either returns
        (``must_run=False`` — the caller retries its allocation against the
        freshly-collected heap) or runs *trigger* anyway (``must_run=True``
        — scheduled concurrent continuations such as a CMS remark).
        """
        engine = self.engine
        while self.gc_in_progress or self.stw:
            yield from self._park(current)
            if not must_run:
                return
        self.gc_in_progress = True
        self.stw = True
        sp_start = engine.now
        threads = self.logical_threads()
        self.tracer.safepoint_begin(sp_start, threads)
        self._resume_event = engine.event()
        for m in self.mutators:
            if m is not current and m.alive and not m.parked:
                m.process.interrupt("safepoint")
        tts = self.costs.time_to_safepoint(threads)
        yield engine.timeout(tts)
        stall = 0.0
        try:
            outcome = trigger(engine.now)
            stall = outcome.stall_seconds
            yield from self._execute_outcome(outcome)
        finally:
            self.stw = False
            self.gc_in_progress = False
            self.tracer.safepoint_end(engine.now, engine.now - sp_start, threads)
            event, self._resume_event = self._resume_event, None
            event.succeed()
        # The allocation stall is served *after* the world resumes: only
        # the triggering mutator waits for the in-flight relocation; every
        # other thread keeps running.
        if stall > 0.0 and current is not None:
            self._record_stall(engine.now, stall)
            yield from self._allocation_stall(current, stall)

    def _execute_outcome(self, outcome: Outcome):
        engine = self.engine
        for pause in outcome.pauses:
            start = engine.now
            yield engine.timeout(pause.duration)
            vol = pause.volumes
            heap_before = (self.heap.used + vol.total_freed) if vol else self.heap.used
            heap_after = self.heap.used
            self.gc_log.record(
                PauseRecord(
                    start=start,
                    duration=pause.duration,
                    kind=pause.kind,
                    cause=pause.cause,
                    collector=self.collector.name,
                    heap_used_before=heap_before,
                    heap_used_after=heap_after,
                    promoted=vol.promoted if vol else 0.0,
                )
            )
            self.tracer.gc_phase(
                start, pause.duration, pause.kind, pause.cause,
                self.collector.name, vol.promoted if vol else 0.0,
                heap_before, heap_after,
            )
            self.total_stw_time += pause.duration
        for rec in outcome.concurrent:
            self.gc_log.record_concurrent(rec)
            if rec.phase == RELOCATION_PHASE:
                self.tracer.concurrent_relocation(rec.start, rec.duration,
                                                  rec.collector)
            else:
                self.tracer.concurrent_phase(rec.start, rec.duration, rec.phase,
                                             rec.collector)
        for delay, fn in outcome.schedule:
            engine.process(self._scheduled_continuation(delay, fn))

    def _scheduled_continuation(self, delay: float, fn: Callable[[float], Outcome]):
        yield self.engine.timeout(delay)
        yield from self.gc_cycle(None, fn, must_run=True)

    def _record_stall(self, now: float, seconds: float) -> None:
        """Account one allocation stall (audited: never during STW)."""
        self.stall_count += 1
        self.total_stall_time += seconds
        self.tracer.alloc_stall(now, seconds, self.collector.name)

    def _allocation_stall(self, ctx: "MutatorContext", seconds: float):
        """Generator: the triggering mutator waits out the in-flight
        relocation. Wall time passes for this thread only; a safepoint
        arriving mid-stall is absorbed like :meth:`MutatorContext.idle`.
        """
        engine = self.engine
        deadline = engine.now + float(seconds)
        while engine.now < deadline - 1e-12:
            try:
                yield engine.timeout(deadline - engine.now)
            except Interrupt:
                yield from self._park(ctx)

    def dirty_cards(self, n_bytes: float):
        """Generator: record old-generation mutation (card dirtying).

        Mutators cannot touch the heap while the world is stopped, so this
        parks through any in-flight pause first — calling
        ``heap.dirty_cards`` directly from workload code would mutate the
        old generation mid-pause (the
        :class:`~repro.lint.audit.InvariantAuditor` flags exactly that).
        """
        if self.stw or self.gc_in_progress:
            yield from self._park(None)
        self.heap.dirty_cards(n_bytes)

    # ------------------------------------------------------------------
    # Allocation rules
    # ------------------------------------------------------------------

    def alloc_cost(self, n_bytes: float, n_objects: float) -> float:
        """Allocation-path CPU seconds of *n_bytes* in *n_objects* objects."""
        tlabs = self.heap.tlabs
        return self.costs.alloc_overhead(
            n_bytes=n_bytes,
            n_objects=n_objects,
            tlab_enabled=tlabs.config.enabled,
            tlab_size=tlabs.tlab_size or 1.0,
            n_threads=self._logical_threads,
        )

    def routes_old(self, n_bytes: float, n_objects: float) -> bool:
        """Whether an allocation of *n_bytes* in *n_objects* objects goes
        straight to the old generation.

        Humongous *objects* do (G1's half-region rule; other collectors
        only bypass eden for objects that could never fit it). A batch of
        small objects stays in eden unless the batch itself cannot fit.
        """
        return (n_bytes / max(n_objects, 1.0) >= self.collector.humongous_threshold()
                or n_bytes > self.heap.eden.capacity * 0.8)

    def tlab_refills(self, n_bytes: float) -> Optional[float]:
        """TLAB refills an allocation of *n_bytes* traces, or None when
        no refill is traced (TLABs off, or no TLAB size)."""
        tlabs = self.heap.tlabs
        tlab_size = tlabs.tlab_size
        if tlabs.config.enabled and tlab_size:
            return n_bytes / tlab_size
        return None

    # ------------------------------------------------------------------
    # Lockstep spans (fast path)
    # ------------------------------------------------------------------

    def alloc_site(self, n_bytes: float, n_objects: float,
                   speed: float) -> AllocSite:
        """What :meth:`MutatorContext.allocate` of *n_bytes* does while
        the world state stands still, at mutator *speed*."""
        cost = self.alloc_cost(n_bytes, n_objects)
        return AllocSite(
            n_bytes, n_objects, cost,
            # Same float op as the inlined work(cost): timeout(cost / speed).
            cost / speed if cost > 1e-12 else None,
            self.tlab_refills(n_bytes),
            self.heap.tlabs.tlab_size,
            self.routes_old(n_bytes, n_objects),
        )

    def span_order(self, lead: "MutatorContext", contexts, *,
                   working: bool = False):
        """The first round of a lockstep span (DESIGN.md §12.1) led by
        *lead*, or None when no span may open.

        *lead* is running at a quantum boundary at ``now``; every other
        context in *contexts* must wait with its wake-up queued at
        exactly ``now``: in :meth:`MutatorContext.work` when *working*,
        else in :meth:`MutatorContext.idle`. Returns ``(order,
        horizon)``: the contexts in the order their first quanta start
        (the lead's wake-up popped first, the rest follow in queue order)
        and the time of the earliest event the span may not reach.
        """
        if self.stw or self.gc_in_progress:
            return None
        others = []
        for c in contexts:
            if c is not lead:
                # A context waits in work() exactly while CPU remains.
                if c.wake is None or (c.remaining > 0.0) is not working:
                    return None
                others.append(c)
        found = self.engine.span_horizon([c.wake for c in others])
        if found is None:
            return None
        horizon, seqs = found
        ranked = sorted(zip(seqs, range(len(others))))
        return [lead] + [others[k] for _, k in ranked], horizon

    def replay_round(self, order, lanes, due, seq: int):
        """Replay one round of a lockstep span in engine order.

        ``lanes[i]`` replays ``order[i]``'s quanta: it reads its time
        from ``ctx.clock``, yields the time of each event the plain loop
        would queue (and is resumed when that event would pop), and
        yields None when it goes idle until ``ctx.deadline``. *due* holds
        a ``(time, seq, i)`` heap of the lanes' wake-ups; *seq* counts
        the events the span has created. Returns the next round's
        wake-ups, the new count and whether every wake-up ends its idle
        loop (the span must end on a round where one does not).
        """
        heappush, heappop = heapq.heappush, heapq.heappop
        wakes = [None] * len(order)
        final = True
        t = 0.0
        while due:
            t, _, i = heappop(due)
            ctx = order[i]
            ctx.clock = t
            t_next = next(lanes[i])
            seq += 1
            if t_next is not None:
                heappush(due, (t_next, seq, i))
                continue
            # ctx.idle: timeout(deadline - now) at the lane's clock.
            deadline = ctx.deadline
            if not t < deadline - 1e-12:
                raise SimulationError(f"{ctx.name}: span round ran past its quantum")
            wake = t + (deadline - t)
            # idle() loops again on a wake-up short of its deadline.
            final = final and not wake < deadline - 1e-12
            wakes[i] = (wake, seq, i)
        if min(wakes)[0] <= t:
            raise SimulationError("span round overlapped the next one")
        return wakes, seq, final

    def commit_span(self, lead: "MutatorContext", others, wakeups, n_seq: int) -> None:
        """Queue the wake-ups a lockstep span ends on.

        *wakeups* holds a ``(time, seq offset, ctx)`` per context of the
        span and *n_seq* counts the events the span created. The other
        contexts keep their wake-up events, re-queued; *lead* gets a
        fresh one in ``lead.wake`` and must wait on it through
        :meth:`MutatorContext.idle` or :meth:`MutatorContext.work`,
        whichever the span's boundary is.
        """
        wake = Event(self.engine)
        wake._state = TRIGGERED
        lead.wake = wake
        self.engine.requeue_span(
            {c.wake for c in others},
            [(t, offset, ctx.wake) for t, offset, ctx in wakeups], n_seq,
            # Every replayed event popped inside the span, except the
            # lead's first wake-up (popped already) and the wake-ups
            # queued now.
            n_seq - 1)

    def _park(self, ctx: Optional["MutatorContext"]):
        """Wait until the current STW/GC episode is over."""
        if ctx is not None:
            ctx.parked = True
        try:
            while self.stw or self.gc_in_progress:
                event = self._resume_event
                if event is None:
                    break
                yield event
        finally:
            if ctx is not None:
                ctx.parked = False


class MutatorContext:
    """One simulated application thread."""

    #: Default mean object size used to estimate object counts for the
    #: allocation-path cost when the caller does not provide one.
    DEFAULT_OBJECT_SIZE = 4 * KB

    __slots__ = ("world", "name", "_parked", "_alive", "process",
                 "allocated_bytes", "alloc_overhead_time", "wake", "deadline",
                 "remaining", "start", "speed", "clock")

    def __init__(self, world: World, name: str = "mutator"):
        self.world = world
        self.name = name
        self._parked = False
        self._alive = True
        self.process = None  # set by JVM.spawn_mutator
        self.allocated_bytes = 0.0
        self.alloc_overhead_time = 0.0
        #: The queued event :meth:`idle` or :meth:`work` waits on (None
        #: while the context runs), and the time the idle period ends.
        self.wake: Optional[Event] = None
        self.deadline = 0.0
        #: :meth:`work`'s CPU seconds still to run, and the time and speed
        #: its pending wake-up was queued at.
        self.remaining = 0.0
        self.start = 0.0
        self.speed = 1.0
        #: This context's simulated time while a lockstep span replays it
        #: (the engine clock stands still during the replay).
        self.clock = 0.0

    # `alive` and `parked` feed the World's O(1) liveness counters, so
    # they are properties whose setters keep the counters in sync. Only
    # mutate them after World.register() — the counters assume the context
    # is already counted.

    @property
    def alive(self) -> bool:
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        value = bool(value)
        if value != self._alive:
            self._alive = value
            delta = 1 if value else -1
            self.world._n_alive += delta
            if not self._parked:
                self.world._n_running += delta
            self.world._recompute_threads()
            if value:
                self.world.mutators.append(self)
            else:
                self.world.mutators.remove(self)

    @property
    def parked(self) -> bool:
        return self._parked

    @parked.setter
    def parked(self, value: bool) -> None:
        value = bool(value)
        if value != self._parked:
            self._parked = value
            if self._alive:
                self.world._n_running += -1 if value else 1

    # ------------------------------------------------------------------

    def work(self, cpu_seconds: Optional[float] = None):
        """Generator: execute *cpu_seconds* of application work.

        Stretches under concurrent-GC CPU steal and transparently absorbs
        stop-the-world interruptions.

        Like :meth:`idle`, keeps its queued wake-up in :attr:`wake`, and
        the CPU still to run and the time and speed the wake-up was
        queued at in :attr:`remaining`, :attr:`start` and :attr:`speed`,
        so that a lockstep span can take the wake-up and leave a later
        one. Without *cpu_seconds*, waits on the wake-up a span left.
        """
        world = self.world
        engine = world.engine
        if cpu_seconds is not None:
            self.remaining = float(cpu_seconds)
        while self.wake is not None or self.remaining > 1e-12:
            if self.wake is None:
                if world.stw:
                    yield from world._park(self)
                self.speed = speed = world.mutator_speed()
                self.start = engine.now
                self.wake = Timeout(engine, self.remaining / speed)
            try:
                yield self.wake
            except Interrupt:
                self.wake = None
                self.remaining -= (engine.now - self.start) * self.speed
                yield from world._park(self)
            else:
                self.wake = None
                self.remaining = 0.0

    def allocate_old(
        self,
        n_bytes: float,
        dist: Optional[LifetimeDistribution] = None,
        *,
        n_objects: Optional[float] = None,
        pinned: bool = False,
        label: str = "",
    ):
        """Generator: allocate directly in the old generation.

        For bulk, known-long-lived data (commit-log replay buffers,
        arena-style memtable chunks) that HotSpot would pretenure. Falls
        back to a full GC and finally :class:`OutOfMemoryError` when the
        old generation cannot make room.
        """
        world = self.world
        heap = world.heap
        if n_objects is None:
            n_objects = max(1.0, n_bytes / self.DEFAULT_OBJECT_SIZE)
        attempts = 0
        while True:
            if world.stw or world.gc_in_progress:
                yield from world._park(self)
            try:
                cohort = heap.allocate_old(
                    world.engine.now, n_bytes, dist,
                    n_objects=n_objects, pinned=pinned, label=label,
                )
                self.allocated_bytes += n_bytes
                return cohort
            except PromotionFailure:
                attempts += 1
                if attempts > 3:
                    raise OutOfMemoryError(n_bytes, heap.old_free_effective)
                yield from world.gc_cycle(self, world.collector.explicit_gc)

    def idle(self, seconds: Optional[float] = None):
        """Generator: wait for *seconds* of wall time (e.g. for requests).

        Unlike :meth:`work`, idling is not stretched by concurrent-GC CPU
        steal — but stop-the-world interruptions still elapse inside it
        (a waiting thread simply observes the pause passing).

        The queued wake-up is kept in :attr:`wake` and the end of the
        wait in :attr:`deadline`, so that a lockstep span
        (:meth:`World.span_order`) can take the wake-up, replay this
        context's next quanta and leave a later one with a new deadline.
        Without *seconds*, waits on the wake-up a span left.
        """
        engine = self.world.engine
        if seconds is not None:
            self.deadline = engine.now + float(seconds)
        while self.wake is not None or engine.now < self.deadline - 1e-12:
            if self.wake is None:
                self.wake = engine.timeout(self.deadline - engine.now)
            try:
                yield self.wake
            except Interrupt:
                self.wake = None
                yield from self.world._park(self)
            else:
                self.wake = None

    def replay_alloc_start(self, site: AllocSite, now: float) -> None:
        """What :meth:`allocate` at *site* does at *now* inside a lockstep
        span, before its cost event (``site.delay`` later): trace the TLAB
        refills."""
        if site.refills is not None:
            self.world.tracer.tlab_refill(now, site.refills, site.tlab_size)

    def replay_alloc_end(self, site: AllocSite, now: float,
                         dist: Optional[LifetimeDistribution] = None, *,
                         pinned: bool = False, label: str = "",
                         window: float = 0.0):
        """The allocation :meth:`allocate` makes at *now*, after its cost
        event. Pinned data goes through the handle-returning heap entry
        points, anything else becomes a bump row. The span admitted the
        allocation, so it neither fails nor takes another path; it is
        booked here (:meth:`book`). Returns the handle, or None for a
        bump row."""
        world = self.world
        heap = world.heap
        cohort = None
        if site.old:
            cohort = heap.allocate_old(now, site.n_bytes, dist,
                                       n_objects=site.n_objects,
                                       pinned=pinned, label=label)
        elif pinned:
            cohort = heap.allocate(now, site.n_bytes, dist,
                                   n_objects=site.n_objects, pinned=True,
                                   label=label, window=window)
        else:
            heap.allocate_bump(now, site.n_bytes, dist,
                               n_objects=site.n_objects, window=window)
        self.book(site)
        return cohort

    def book(self, site: AllocSite, times: int = 1) -> None:
        """Add *times* allocations at *site* to this context's totals one
        at a time, as :meth:`allocate` adds them (nothing reads them before
        the run ends): the path cost when positive, and the bytes."""
        cost, n_bytes = site.cost, site.n_bytes
        spent, allocated = self.alloc_overhead_time, self.allocated_bytes
        for _ in range(times):
            if cost > 0:
                spent += cost
            allocated += n_bytes
        self.alloc_overhead_time, self.allocated_bytes = spent, allocated

    def allocate(
        self,
        n_bytes: float,
        dist: Optional[LifetimeDistribution] = None,
        *,
        n_objects: Optional[float] = None,
        pinned: bool = False,
        label: str = "",
        window: float = 0.0,
    ):
        """Generator: allocate a cohort of *n_bytes*, GC-ing as needed.

        Returns the :class:`~repro.heap.cohort.Cohort`. Raises
        :class:`~repro.errors.OutOfMemoryError` when repeated collections
        cannot make room.
        """
        world = self.world
        heap = world.heap
        if n_objects is None:
            n_objects = max(1.0, n_bytes / self.DEFAULT_OBJECT_SIZE)
        cost = world.alloc_cost(n_bytes, n_objects)
        refills = world.tlab_refills(n_bytes)
        if refills is not None:
            world.tracer.tlab_refill(world.engine.now, refills,
                                     heap.tlabs.tlab_size)
        if cost > 0:
            self.alloc_overhead_time += cost
            # work(cost) inlined: the delegated generator was measurable at
            # one call per allocation.
            remaining = cost
            engine = world.engine
            while remaining > 1e-12:
                if world.stw:
                    yield from world._park(self)
                speed = world.mutator_speed()
                start = engine.now
                try:
                    yield Timeout(engine, remaining / speed)
                    remaining = 0.0
                except Interrupt:
                    remaining -= (engine.now - start) * speed
                    yield from world._park(self)
        attempts = 0
        while True:
            if world.stw or world.gc_in_progress:
                yield from world._park(self)
            if world.routes_old(n_bytes, n_objects):
                try:
                    cohort = heap.allocate_old(
                        world.engine.now, n_bytes, dist,
                        n_objects=n_objects, pinned=pinned, label=label,
                    )
                    self.allocated_bytes += n_bytes
                    return cohort
                except PromotionFailure:
                    attempts += 1
                    if attempts > 3:
                        raise OutOfMemoryError(n_bytes, heap.old_free_effective)
                    yield from world.gc_cycle(self, world.collector.explicit_gc)
                    continue
            try:
                cohort = heap.allocate(
                    world.engine.now, n_bytes, dist,
                    n_objects=n_objects, pinned=pinned, label=label, window=window,
                )
                self.allocated_bytes += n_bytes
                return cohort
            except AllocationFailure:
                attempts += 1
                world.tracer.alloc_slow(world.engine.now, n_bytes)
                if attempts > 4:
                    raise OutOfMemoryError(n_bytes, heap.eden_free)
                yield from world.gc_cycle(
                    self, world.collector.allocation_failure
                )

    def allocate_all(
        self,
        n_bytes: float,
        dist: Optional[LifetimeDistribution] = None,
        *,
        mean_object_size: Optional[float] = None,
        max_piece: float,
        window: float = 0.0,
        label: str = "",
        accumulate: Optional[list] = None,
    ):
        """Generator: allocate *n_bytes* as a run of ``<= max_piece``
        cohorts (see :func:`pieces`), one :meth:`allocate` each.

        *accumulate*, if given, is a one-element list whose head is
        incremented by each committed piece.
        """
        if mean_object_size is None:
            mean_object_size = self.DEFAULT_OBJECT_SIZE
        for piece, n_objects in pieces(n_bytes, max_piece, mean_object_size):
            yield from self.allocate(piece, dist, n_objects=n_objects,
                                     window=window, label=label)
            if accumulate is not None:
                accumulate[0] += piece

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "parked" if self.parked else ("alive" if self.alive else "done")
        return f"<MutatorContext {self.name} {state}>"
