"""The DaCapo harness: iterations, warm-up rounds and System.gc().

Mirrors the real harness's behaviour as used by the paper (§2.1, §3.1):

* ``iterations`` runs per invocation (the paper uses 10); all but the
  last are warm-up rounds, the last is the measured run;
* with ``system_gc=True`` (DaCapo's default) a full collection is forced
  between every two iterations;
* by default one client thread per hardware thread (the ``-t`` option can
  override it).

For speed, up to ``sim_thread_cap`` DES processes simulate the logical
threads ("thread groups"); CPU sharing, TLAB waste and allocation-lock
contention are computed against the *logical* thread count. The groups
run in lockstep, so with the fast path on one of them replays whole
rounds of all groups' quanta as a span (:class:`_Iteration`).
"""

from __future__ import annotations

import numbers
from typing import Dict, List, Optional

import numpy as np

from ...errors import BenchmarkCrash, ConfigError
from ...jvm.threads import pieces
from ...perf import fastpath
from ...seeding import rng_for
from ..base import LiveSet, Workload
from .profiles import DaCapoProfile, PROFILES


class DaCapoBenchmark(Workload):
    """One synthetic DaCapo benchmark, runnable on a :class:`~repro.jvm.JVM`."""

    def __init__(self, profile: DaCapoProfile):
        self.profile = profile
        self.name = profile.name

    # ------------------------------------------------------------------

    def drive(
        self,
        jvm,
        result,
        iterations: int = 10,
        system_gc: bool = True,
        threads: Optional[int] = None,
        sim_thread_cap: int = 8,
        quanta_per_iteration: int = 6,
        on_iteration=None,
    ):
        """Driver generator (see :class:`~repro.workloads.base.Workload`)."""
        for name, count in (("iterations", iterations),
                            ("quanta_per_iteration", quanta_per_iteration)):
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {count!r}")
        if threads is not None and threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        if sim_thread_cap < 1:
            raise ConfigError(f"sim_thread_cap must be >= 1, got {sim_thread_cap}")
        p = self.profile
        if p.crashes:
            raise BenchmarkCrash(p.name)
        # Every distinct JVM invocation gets an independent noise stream
        # (the paper's TLAB comparison runs the JVM twice per cell).
        rng_parts = [jvm.config.seed, p.name, jvm.config.gc.value]
        if not jvm.config.tlab.enabled:
            rng_parts.append("no-tlab")
        rng = rng_for(*rng_parts)
        cores = jvm.config.topology.cores
        n_threads = threads if threads is not None else p.threads_for(cores)
        groups = max(1, min(n_threads, sim_thread_cap))
        jvm.world.thread_multiplier = n_threads / groups
        dist = p.alloc.lifetime()
        run_mult = float(np.exp(rng.normal(0.0, p.sigma_run)))
        warm_mult = float(np.exp(rng.normal(0.0, p.sigma_warmup))) if p.sigma_warmup else 1.0

        # -- setup: page-touch the nursery and build the live set --------
        live = LiveSet(p.alloc.live_set_bytes, label=f"{p.name}-live")
        touch = jvm.costs.heap_touch_time(
            jvm.heap.config.young_bytes + 2 * p.alloc.live_set_bytes
        )
        if jvm.collector.parallel_young:
            touch /= min(jvm.costs.effective_threads(jvm.collector.gc_threads), 4.0)

        def setup_body(ctx):
            yield from ctx.work(touch)
            if live.total_bytes > 0:
                yield from live.allocate_body(ctx, p.alloc.mean_object_size)

        yield from jvm.join([jvm.spawn_mutator(setup_body, "setup")])

        # -- iterations ---------------------------------------------------
        per_thread_alloc = p.alloc.alloc_bytes_per_iteration / n_threads
        for it in range(iterations):
            t_start = jvm.now
            if system_gc and it > 0:
                yield from jvm.system_gc()
            is_final = it == iterations - 1
            iter_mult = run_mult * float(np.exp(rng.normal(0.0, p.sigma_iteration)))
            if not is_final:
                iter_mult *= warm_mult

            workers = _Iteration(
                jvm, p, dist, quanta_per_iteration,
                cpu=p.iteration_wall_seconds * iter_mult / quanta_per_iteration,
                batch=per_thread_alloc * jvm.world.thread_multiplier
                / quanta_per_iteration)
            procs = [
                jvm.spawn_mutator(workers.worker_body, f"{p.name}-w{g}")
                for g in range(groups)
            ]
            yield from jvm.join(procs)

            # Live-set churn + old-generation mutation.
            if p.alloc.live_churn_fraction > 0 and live.chunks:
                def churn_body(ctx):
                    yield from live.churn_body(
                        ctx, p.alloc.live_churn_fraction, p.alloc.mean_object_size, rng
                    )
                yield from jvm.join([jvm.spawn_mutator(churn_body, "churn")])
            if p.alloc.old_mutation_fraction > 0:
                yield from jvm.world.dirty_cards(
                    p.alloc.old_mutation_fraction * live.resident_bytes
                )

            result.iteration_times.append(jvm.now - t_start)
            # Observational hook (e.g. repro-dacapo --progress); called
            # outside any pause, with the iteration index and duration.
            if on_iteration is not None:
                on_iteration(it, result.iteration_times[-1])

        result.extras["n_threads"] = n_threads
        result.extras["groups"] = groups
        result.extras["live_set_bytes"] = live.resident_bytes


class _Iteration:
    """One iteration's worker groups: their quantum loop and its span.

    Every group runs ``quanta`` quanta of ``work(cpu)`` followed by
    ``allocate_all(batch)``. The plain loop, :meth:`worker_body`, is the
    oracle. With the fast path on (``REPRO_FASTPATH``), the group whose
    work wake-up pops first at a boundary where every live group's work
    ends at that instant opens a span (:meth:`_span`, DESIGN.md §12.1).
    """

    def __init__(self, jvm, profile: DaCapoProfile, dist, quanta: int, *,
                 cpu: float, batch: float):
        self.jvm = jvm
        self.dist = dist
        self.quanta = quanta
        self.cpu = cpu
        self.batch = batch
        self.mean_object_size = profile.alloc.mean_object_size
        self.label = profile.name
        # Keep single allocations small relative to eden so tiny heaps
        # (Table 3's 250 MB rows) see realistic granularity.
        self.max_piece = max(jvm.heap.config.eden_bytes / 8.0, 64 * 1024)
        # A span replays work wake-ups; work() queues none below 1e-12.
        self.spans = fastpath.ENABLED and cpu > 1e-12
        self.groups: List = []          # every live group's MutatorContext
        #: Quanta each group has still to allocate.
        self.left: Dict[object, int] = {}

    def worker_body(self, ctx):
        left = self.left
        self.groups.append(ctx)
        left[ctx] = self.quanta
        yield from ctx.work(self.cpu)
        while True:
            # ctx's work for its next quantum has just ended.
            if self.spans and self._span(ctx):
                yield from ctx.work()
                continue
            yield from ctx.allocate_all(
                self.batch, self.dist, mean_object_size=self.mean_object_size,
                max_piece=self.max_piece, window=self.cpu, label=self.label)
            left[ctx] -= 1
            if not left[ctx]:
                break
            yield from ctx.work(self.cpu)
        self.groups.remove(ctx)

    def _span(self, lead) -> bool:
        """Try a span led by *lead*; True when it committed at least one
        round (DESIGN.md §12.1).

        A round is every group's allocation pieces, then its next work
        wake-up. It starts all groups at one instant, so every event
        time of the round runs the groups one after another, in the
        order their wake-ups had, as the plain loop pops them."""
        left = self.left
        if left[lead] < 2:
            return False
        world = self.jvm.world
        first = world.span_order(lead, self.groups, working=True)
        if first is None:
            return False
        order, horizon = first
        speed = world.mutator_speed()
        segments = self._segments(speed)
        if segments is None:
            return False
        # Same float op as work(): timeout(remaining / speed).
        work = self.cpu / speed
        # No group allocates its last quantum in a span: exits stay plain.
        rounds = self._admit(segments, len(order), horizon, work,
                             min(left[c] for c in order) - 1)
        if not rounds:
            return False
        self._replay(order, segments, rounds)
        last = rounds[-1][-1]
        for ctx in order:
            left[ctx] -= len(rounds)
            # What the plain loop's pending work(cpu) call holds.
            ctx.remaining = self.cpu
            ctx.start = last
            ctx.speed = speed
        n = len(order)
        seq = len(rounds) * n * len(segments)
        wake = last + work
        world.commit_span(lead, order[1:],
                          [(wake, seq - n + i, ctx)
                           for i, ctx in enumerate(order, 1)], seq)
        return True

    def _segments(self, speed: float):
        """One group's round at mutator *speed*, or None when a piece
        leaves the bump path: an ``(ends, starts, delay)`` per event time
        of the round. At each, the group allocates the pieces in
        ``ends`` and starts those in ``starts`` (their TLAB-refill hook
        and cost); the last start's cost event pops *delay* later. The
        last segment ends with the work wake-up instead (delay None)."""
        world = self.jvm.world
        segments = []
        ends, starts = [], []
        for piece, n_objects in pieces(self.batch, self.max_piece,
                                       self.mean_object_size):
            site = world.alloc_site(piece, n_objects, speed)
            if site.old:
                return None
            starts.append(site)
            if site.delay is None:
                ends.append(site)
            else:
                segments.append((ends, starts, site.delay))
                ends, starts = [site], []
        segments.append((ends, starts, None))
        return segments

    def _admit(self, segments, n: int, horizon: float, work: float,
               most: int):
        """Pass 1: up to *most* rounds of *n* groups, each admitted from
        the state the last one leaves; returns each round's event times.
        A round's work wake-ups come *work* after its last event time.

        A round is admitted when every bump row fits eden and every event
        it pops lies strictly before *horizon* (its work wake-ups pop in
        the next round, or after the span)."""
        heap = self.jvm.heap
        eden = heap.eden
        cap = eden.capacity
        room = cap - heap.tlabs.expected_waste
        used = eden.used
        # Every bump row of a round, in plain order.
        rows = [site.n_bytes for ends, _, _ in segments for _ in range(n)
                for site in ends]
        delays = [delay for _, _, delay in segments[:-1]]
        rounds = []
        start = self.jvm.now
        while len(rounds) < most:
            times = [start]
            for delay in delays:
                times.append(times[-1] + delay)
            used = _fill(rows, used, room, cap)
            if used is None or not times[-1] < horizon:
                break
            rounds.append(times)
            start = times[-1] + work
        return rounds

    def _replay(self, order, segments, rounds) -> None:
        """Pass 2: commit the admitted *rounds* in the plain loop's
        ``(time, seq)`` order: bump rows, TLAB-refill hooks at their
        plain timestamps, and each group's ``allocated_bytes`` and
        ``alloc_overhead_time``. Rows and hooks are separate streams, so
        a group's rows go first at each time; each stream keeps its
        plain order. (Inlined: a ``replay_alloc_start``/``_end`` call a
        row costs about 6 % of the cold cells' CPU.)"""
        world = self.jvm.world
        allocate_bump = world.heap.allocate_bump
        tracer = world.tracer
        hooks = tracer.enabled
        dist = self.dist
        window = self.cpu
        for times in rounds:
            for now, (ends, starts, _) in zip(times, segments):
                for ctx in order:
                    for site in ends:
                        allocate_bump(now, site.n_bytes, dist,
                                      n_objects=site.n_objects, window=window)
                        ctx.allocated_bytes += site.n_bytes
                    for site in starts:
                        if hooks and site.refills is not None:
                            tracer.tlab_refill(now, site.refills, site.tlab_size)
                        if site.cost > 0:
                            ctx.alloc_overhead_time += site.cost


def _fill(rows, used: float, room: float, cap: float) -> Optional[float]:
    """Eden occupancy after allocating *rows* from *used*, tested row by
    row as ``heap.allocate`` tests it (``room`` is eden capacity less
    the TLAB-waste reserve) and occupied as ``Space.add`` occupies it;
    None when a row does not fit."""
    for n_bytes in rows:
        if n_bytes > room - used + 1e-6:
            return None
        used = min(used + n_bytes, cap)
    return used


def get_benchmark(name: str) -> DaCapoBenchmark:
    """Look up a benchmark by name (raises ConfigError for unknown names)."""
    try:
        return DaCapoBenchmark(PROFILES[name])
    except KeyError:
        raise ConfigError(
            f"unknown DaCapo benchmark {name!r}; available: {sorted(PROFILES)}"
        ) from None
