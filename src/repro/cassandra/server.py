"""The Cassandra server workload: request execution on the simulated JVM.

The server processes an operation mix (insert / update / read) at a given
aggregate rate for a fixed amount of *simulated* time, exactly like the
paper's YCSB client driving a single Cassandra node for one or two hours.
Memory behaviour per operation:

* every **insert/update** appends to the commit log and writes the
  memtable (pinned heap data — the GC can never reclaim it until a flush
  or supersession);
* every operation allocates transient request garbage
  (``transient_bytes_per_op``) with a generational lifetime profile;
* the memtable flushes to an SSTable when it exceeds its cap (releasing
  heap to be collected) — never, in the stress configuration;
* in the stress configuration, startup **replays the commit log** of the
  pre-loaded database (the paper's "loading step" before the benchmark).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

from ..errors import ConfigError
from ..heap.lifetime import Exponential, Immortal, Mixture, Weibull
from ..perf import fastpath
from ..units import KB
from ..workloads.base import Workload
from .commitlog import CommitLog
from .config import CassandraConfig
from .memtable import Memtable
from .sstable import SSTableSet


@dataclass
class ServerStats:
    """Server-side counters for one run."""

    ops_executed: float = 0.0
    inserts: float = 0.0
    updates: float = 0.0
    reads: float = 0.0
    replayed_bytes: float = 0.0
    replay_seconds: float = 0.0
    flushes: int = 0
    memtable_bytes_end: float = 0.0
    commitlog_bytes_end: float = 0.0


class CassandraServer(Workload):
    """A single Cassandra node, runnable on a :class:`~repro.jvm.JVM`."""

    name = "cassandra"

    def __init__(self, config: CassandraConfig):
        self.config = config
        self.memtable = Memtable(config)
        self.commitlog = CommitLog(config)
        self.sstables = SSTableSet()
        self.stats = ServerStats()

    # ------------------------------------------------------------------

    def _transient_lifetime(self, insert_fraction: float = 1.0,
                            update_fraction: float = 0.0):
        """Lifetime mixture of per-request garbage.

        The long-lived component (flush/compaction bookkeeping, index
        summaries under construction) scales with the *write* share of the
        mix: a pure-insert load keeps far more medium-term state alive
        than a read/update mix.
        """
        long_w = 0.002 + 0.0295 * (insert_fraction + 0.15 * update_fraction)
        return Mixture(
            [
                (0.9775 - long_w, Exponential(0.05)),  # request/response buffers
                (0.0200, Weibull(0.7, 15.0)),          # per-request iterator state
                (long_w, Weibull(0.6, 2500.0)),        # caches, compaction bookkeeping
                (0.0005, Immortal()),                  # leaked bookkeeping
            ]
        )

    def drive(
        self,
        jvm,
        result,
        duration: float = 3600.0,
        ops_per_second: float = 4000.0,
        read_fraction: float = 0.0,
        update_fraction: float = 0.0,
        n_client_threads: int = 100,
        sim_thread_cap: int = 8,
        quantum: float = 2.0,
    ):
        """Driver generator: serve the mix for *duration* simulated seconds.

        ``read_fraction`` + ``update_fraction`` <= 1; the remainder are
        inserts (the YCSB *load* phase is pure inserts).
        """
        # A comparison with NaN is false, so these refuse NaN too.
        if not quantum > 0:
            raise ConfigError(f"quantum must be positive, got {quantum}")
        for name, value in (("duration", duration),
                            ("ops_per_second", ops_per_second)):
            if not 0.0 <= value < float("inf"):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name, fraction in (("read_fraction", read_fraction),
                               ("update_fraction", update_fraction)):
            if not 0.0 <= fraction <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {fraction}")
        if read_fraction + update_fraction > 1.0 + 1e-9:
            raise ConfigError("read_fraction + update_fraction must be <= 1")
        if n_client_threads < 1:
            raise ConfigError(f"n_client_threads must be >= 1, got {n_client_threads}")
        if sim_thread_cap < 1:
            raise ConfigError(f"sim_thread_cap must be >= 1, got {sim_thread_cap}")
        cfg = self.config
        stats = self.stats
        cores = jvm.config.topology.cores
        service_threads = min(n_client_threads, cores)
        groups = max(1, min(service_threads, sim_thread_cap))
        jvm.world.thread_multiplier = service_threads / groups

        # -- startup: page-touch + commit-log replay ----------------------
        def startup_body(ctx):
            touch = jvm.costs.heap_touch_time(jvm.heap.config.young_bytes)
            if jvm.collector.parallel_young:
                touch /= min(jvm.costs.effective_threads(jvm.collector.gc_threads), 4.0)
            yield from ctx.work(touch)
            if cfg.preload_records > 0:
                replay_t0 = jvm.now
                payload = cfg.preload_records * cfg.record_bytes
                # Replayed commit-log segments come back into memory as
                # bulk buffers (pretenured straight into the old gen)...
                self.commitlog.append(payload)
                yield from self.commitlog.materialize(
                    lambda b: ctx.allocate_old(b, None, n_objects=1, pinned=True, label="commitlog")
                )
                # ...and their mutations rebuild the memtable arenas.
                self.memtable.write(cfg.preload_records)
                yield from self.memtable.materialize(
                    lambda b: ctx.allocate_old(b, None, n_objects=1, pinned=True, label="memtable")
                )
                # Replay costs CPU proportional to the data replayed.
                yield from ctx.work(payload / (200e6))
                stats.replayed_bytes = payload
                stats.replay_seconds = jvm.now - replay_t0

        yield from jvm.join([jvm.spawn_mutator(startup_body, "cassandra-startup")])
        result.extras["serve_start"] = jvm.now

        # -- serving loop ---------------------------------------------------
        serving = _Serving(
            self, jvm, duration=duration, quantum=quantum,
            ops=ops_per_second * quantum / groups,
            read_fraction=read_fraction, update_fraction=update_fraction,
        )
        workers = [
            jvm.spawn_mutator(serving.worker_body, f"cassandra-w{g}")
            for g in range(groups)
        ]
        yield from jvm.join(workers)

        stats.memtable_bytes_end = self.memtable.heap_bytes
        stats.commitlog_bytes_end = self.commitlog.heap_bytes
        stats.flushes = self.memtable.flush_count
        result.extras["server_stats"] = stats
        result.extras["sstables"] = self.sstables.count


class _Serving:
    """One serving window: the worker groups' loop and its lockstep span.

    Every group serves ``ops`` operations a quantum. The plain loop,
    :meth:`worker_body`, is the oracle. With the fast path on
    (``REPRO_FASTPATH``), the group that wakes first at a quantum
    boundary where every group idles opens a span (:meth:`_span`,
    DESIGN.md §12.1): :meth:`_admit` bounds each round of quanta before
    it runs, and :meth:`lane` replays it, or :meth:`_quiet_run` every
    quiet round from there on.
    """

    #: Seconds a round's bounds must clear by: far above the rounding of
    #: a few additions at simulated times of hours.
    SLACK = 1e-6

    def __init__(self, server: CassandraServer, jvm, *, duration: float,
                 quantum: float, ops: float, read_fraction: float,
                 update_fraction: float):
        cfg = server.config
        self.server = server
        self.jvm = jvm
        self.start = jvm.now
        self.duration = duration
        self.quantum = quantum
        self.ops = ops
        self.read_fraction = read_fraction
        self.update_fraction = update_fraction
        self.insert_fraction = insert_fraction = 1.0 - read_fraction - update_fraction
        self.dist = server._transient_lifetime(insert_fraction, update_fraction)
        self.cpu = ops * cfg.cpu_seconds_per_op / jvm.world.thread_multiplier
        written = insert_fraction + update_fraction
        self.writes = ops * written
        self.update_share = update_fraction / written if written > 0 else 0.0
        # Reads allocate far less than writes (no commit-log/memtable path).
        self.transient = ops * (cfg.transient_bytes_per_op * (0.35 + 0.65 * written))
        self.transient_objects = max(1.0, self.transient / (2 * KB))
        self.dirty_bytes = ops * update_fraction * cfg.record_heap_bytes
        #: Bytes one quantum appends to the commit log and the memtable.
        self.log_bytes = self.writes * cfg.record_bytes
        self.table_bytes = self.writes * cfg.record_heap_bytes
        self.spans = fastpath.ENABLED
        self.groups: List = []   # every group's MutatorContext
        self._plan = None        # this span's (work delay, sites)
        self._admits = None      # this span's admission test
        #: Card writes this span has replayed but not yet applied; they
        #: reach the heap as one repeated write before old-generation
        #: occupancy can move.
        self._cards = 0

    def worker_body(self, ctx):
        server = self.server
        stats = server.stats
        jvm = self.jvm
        world = jvm.world
        quantum = self.quantum
        ops = self.ops
        writes = self.writes
        self.groups.append(ctx)
        while jvm.now - self.start < self.duration:
            if self.spans and self._span(ctx):
                yield from ctx.idle()
                continue
            loop_start = jvm.now
            yield from ctx.work(self.cpu)
            if writes > 0:
                server.commitlog.append(self.log_bytes)
                server.memtable.write(writes, update_fraction=self.update_share)
                yield from server.commitlog.materialize(
                    lambda b: ctx.allocate(b, None, n_objects=1, pinned=True, label="commitlog")
                )
                yield from server.memtable.materialize(
                    lambda b: ctx.allocate(b, None, n_objects=1, pinned=True, label="memtable")
                )
            # Transient request garbage (all operations).
            yield from ctx.allocate(
                self.transient, self.dist, n_objects=self.transient_objects,
                window=quantum, label="request-garbage",
            )
            # Updates dirty old-generation data (card table).
            yield from world.dirty_cards(self.dirty_bytes)
            # Flush when over the cap (never, in the stress config).
            if server.memtable.needs_flush:
                self._flush(jvm.now)
            self._count(stats, ops)
            # Pace to the offered rate: wait out the rest of the
            # quantum for new client requests. Time lost to GC pauses
            # is not caught up (the server saturates instead).
            elapsed = jvm.now - loop_start
            if elapsed < quantum:
                yield from ctx.idle(quantum - elapsed)

    def _flush(self, now: float) -> None:
        server = self.server
        freed = server.memtable.flush()
        server.sstables.add(now, freed / server.config.heap_overhead_factor,
                            server.memtable.record_count)
        server.stats.flushes += 1

    def _count(self, stats: ServerStats, ops: float, quanta: int = 1) -> None:
        """Count *quanta* quanta of *ops* operations, one at a time."""
        inserts = ops * self.insert_fraction
        updates = ops * self.update_fraction
        reads = ops * self.read_fraction
        a, b, c, d = stats.ops_executed, stats.inserts, stats.updates, stats.reads
        for _ in range(quanta):
            a += ops
            b += inserts
            c += updates
            d += reads
        stats.ops_executed, stats.inserts, stats.updates, stats.reads = a, b, c, d

    # -- the span (fast path) ---------------------------------------------

    def _span(self, lead) -> bool:
        """Try a span led by *lead*; True when it committed at least one
        round of quanta (DESIGN.md §12.1)."""
        jvm = self.jvm
        world = jvm.world
        first = world.span_order(lead, self.groups)
        if first is None:
            return False
        order, horizon = first
        cfg = self.server.config
        speed = world.mutator_speed()
        site = world.alloc_site
        # Same float op as work(): timeout(cpu / speed).
        work_delay = self.cpu / speed if self.cpu > 1e-12 else None
        transient = site(self.transient, self.transient_objects, speed)
        self._plan = (work_delay, site(cfg.commitlog_segment_bytes, 1, speed),
                      site(cfg.memtable_chunk_bytes, 1, speed), transient)
        n = len(order)
        self._admits = self._admission(n, horizon)
        # An admitted round with nothing due is *quiet* when every group
        # wakes at one instant and queues just a work and an allocation event.
        quiet = work_delay is not None and transient.delay is not None
        now = first = last = jvm.now
        pinned = self._admit(first, last)
        if pinned is None:
            return False
        # Round one starts every quantum now, the lead's first; negative
        # ranks sort below the sequence offsets the span hands out.
        due = [(now, rank, i) for i, rank in enumerate(range(-n, 0))]
        lanes = [self.lane(ctx) for ctx in order]
        seq = 0
        while True:
            # A quiet run ends where the next round is not quiet.
            if pinned == (0, 0) and quiet and first == last:
                due, seq, final, pinned = self._quiet_run(order, due, seq)
            else:
                heapq.heapify(due)
                due, seq, final = world.replay_round(order, lanes, due, seq)
                if final:
                    first, last = min(due)[0], max(due)[0]
                    pinned = self._admit(first, last)
            # A wake-up that would not end its idle loop goes back to
            # the engine, which repeats the wait as the plain loop does.
            if not final or pinned is None:
                break
        for lane in lanes:
            lane.close()
        self._apply_cards()
        world.commit_span(lead, order[1:],
                          [(t, offset, order[i]) for t, offset, i in due], seq)
        return True

    def lane(self, ctx):
        """Generator: :meth:`worker_body`'s quanta for *ctx*, replayed
        (see :meth:`~repro.jvm.threads.World.replay_round`).

        Same mutations and float operations in the same order; each
        ``yield`` gives the time of an event the plain loop would queue,
        and the last one of a quantum (``None``) is its idle wait.
        """
        server = self.server
        commitlog = server.commitlog
        memtable = server.memtable
        stats = server.stats
        quantum = self.quantum
        ops = self.ops
        writes = self.writes
        work_delay, segment, chunk, transient = self._plan

        # materialize() asks for one whole segment or chunk at a time.
        def segment_alloc(_n_bytes):
            return self._replay_alloc(ctx, segment, pinned=True, label="commitlog")

        def chunk_alloc(_n_bytes):
            return self._replay_alloc(ctx, chunk, pinned=True, label="memtable")

        while True:
            loop_start = ctx.clock
            if work_delay is not None:
                yield loop_start + work_delay
            if writes > 0:
                commitlog.append(self.log_bytes)
                memtable.write(writes, update_fraction=self.update_share)
                yield from commitlog.materialize(segment_alloc)
                yield from memtable.materialize(chunk_alloc)
            yield from self._replay_alloc(ctx, transient, self.dist, window=quantum)
            self._cards += 1
            if memtable.needs_flush:
                self._flush(ctx.clock)
            self._count(stats, ops)
            now = ctx.clock
            ctx.deadline = now + float(quantum - (now - loop_start))
            yield None

    def _replay_alloc(self, ctx, site, dist=None, *, pinned: bool = False,
                      label: str = "", window: float = 0.0):
        """Generator: the allocation at *site* of :meth:`lane`'s *ctx*,
        from ``ctx.clock``: yields the time its cost event would pop and
        allocates at that time. Held-back card writes reach the heap
        first when the allocation moves old-generation occupancy."""
        ctx.replay_alloc_start(site, ctx.clock)
        if site.delay is not None:
            yield ctx.clock + site.delay
        if site.old:
            self._apply_cards()
        return ctx.replay_alloc_end(site, ctx.clock, dist, pinned=pinned,
                                    label=label, window=window)

    def _apply_cards(self) -> None:
        """The plain loop's ``dirty_cards`` calls held back so far."""
        if self._cards:
            self.jvm.heap.dirty_cards(self.dirty_bytes, repeat=self._cards)
            self._cards = 0

    def _admit(self, first: float, last: float):
        """Whether a round of the span's quanta, starting between *first*
        and *last*, provably stays on the plain path (:meth:`_admission`),
        judged from the modules' state."""
        server, heap = self.server, self.jvm.heap
        return self._admits(first, last, server.commitlog.pending_bytes,
                            server.memtable.pending_bytes, heap.eden_free,
                            heap.old_free_effective)

    def _admission(self, n: int, horizon: float):
        """The span's admission test of a round of the *n* groups' quanta:
        no group leaves the loop, every quantum ends idle before the next
        round and before *horizon*, and every allocation fits where the
        plain loop would put it. It takes the round's first and last
        start, the commit log's and the memtable's pending bytes and the
        room in eden and in the old generation, and returns the most
        commit-log segments and memtable chunks one group can start
        allocating in the round, or None when the round is not admitted."""
        work_delay, segment, chunk, transient = self._plan
        begin, duration, quantum = self.start, self.duration, self.quantum
        log_bytes, table_bytes = n * self.log_bytes, n * self.table_bytes
        quiet = (work_delay or 0.0) + (transient.delay or 0.0)
        segment_delay, chunk_delay = segment.delay or 0.0, chunk.delay or 0.0
        slack = self.SLACK

        def admit(first, last, log, table, eden_free, old_free):
            if not last - begin < duration or transient.old:
                return None
            # The most allocations of a size a materialize loop can start
            # while n appends raise its pending bytes (one byte of slack
            # for rounding): a group starts its k-th allocation only once
            # k - 1 of the round's have left the pending bytes.
            segments = max(0, int((log + log_bytes + 1.0) // segment.n_bytes))
            chunks = max(0, int((table + table_bytes + 1.0) // chunk.n_bytes))
            busy = quiet + segments * segment_delay + chunks * chunk_delay + slack
            if not (last - first + busy < quantum and last + busy < horizon):
                return None
            eden = n * transient.n_bytes
            old = 0.0
            for site, count in ((segment, segments), (chunk, chunks)):
                if site.old:
                    old += n * count * site.n_bytes
                else:
                    eden += n * count * site.n_bytes
            if eden + 1.0 <= eden_free and old + 1.0 <= old_free:
                return segments, chunks
            return None
        return admit

    def _quiet_run(self, order, due, seq: int):
        """Quiet rounds from here on in one call, a block at a time
        (DESIGN.md §12.1). Pass 1 walks a block's start times and admits
        each next round by the span's test from the pending bytes and eden
        room the modules say the rounds before it leave; it changes no
        state. The block ends at a round that may flush or is not
        followed by an admitted one. Pass 2 commits the block's rounds
        with one bulk step per module. A round's work events, then its
        allocation events, pop in queue order, which holds from round to
        round. Returns the wake-ups, the sequence counter, whether the
        last wait ends its idle loop, and the admission of the round after
        the run."""
        server, heap, tracer = self.server, self.jvm.heap, self.jvm.world.tracer
        commitlog, memtable = server.commitlog, server.memtable
        work_delay, _, _, transient = self._plan
        hooks = tracer.enabled and transient.refills is not None
        quantum, writes, delay = self.quantum, self.writes, transient.delay
        admit = self._admits
        old_free = heap.old_free_effective   # no quiet round moves it
        due.sort()
        queue = [order[i] for _, _, i in due]
        n, start, rounds = len(queue), due[0][0], 0
        while True:
            works, allocs = [], []
            for log, table, room in zip(
                    commitlog.pending_after(self.log_bytes, n),
                    memtable.pending_after(self.table_bytes, n),
                    heap.eden_free_after(transient.n_bytes, n)):
                t_work = start + work_delay
                t_alloc = t_work + delay
                works.append(t_work)
                allocs.append(t_alloc)
                deadline = t_alloc + float(quantum - (t_alloc - start))
                start = t_alloc + (deadline - t_alloc)   # the wake-up
                final = not start < deadline - 1e-12
                flush = memtable.flush_due(table)
                pinned = (admit(start, start, log, table, room, old_free)
                          if final and not flush else None)
                if pinned != (0, 0):
                    break
            k = len(works)
            if writes > 0:
                commitlog.append_rounds(self.log_bytes, k * n)
                memtable.write_rounds(writes, update_fraction=self.update_share,
                                      times=k * n)
            for t_work in works if hooks else ():
                for _ in queue:
                    tracer.tlab_refill(t_work, transient.refills, transient.tlab_size)
            heap.allocate_bumps(allocs, transient.n_bytes, self.dist, count=n,
                                n_objects=transient.n_objects, window=quantum)
            rounds += k
            if flush:
                if memtable.needs_flush:   # a flush empties it for the rest
                    self._flush(t_alloc)
                if final:
                    pinned = self._admit(start, start)
            if pinned != (0, 0):
                break
        self._cards += n * rounds
        self._count(server.stats, self.ops, n * rounds)
        for ctx in queue:
            ctx.book(transient, rounds)
            ctx.deadline = deadline
        seq += 3 * n * rounds   # each round's work, allocation and wake-up events
        wakes = [None] * n
        for k, (_, _, i) in enumerate(due, 1):
            wakes[i] = (start, seq - n + k, i)
        return wakes, seq, final, pinned
