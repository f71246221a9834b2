"""Discrete-event simulation engine: clock + priority event queue.

The engine owns simulated time. Events are scheduled at absolute times and
popped in ``(time, priority, sequence)`` order, so same-time events run in
a deterministic FIFO order (sequence numbers break ties). Nothing here
depends on wall-clock time — runs are reproducible.

Fast path (see DESIGN.md §12): the main loop inlines the pop/dispatch of
:meth:`step` to shave a function call per event, and a *span* collapses
whole quanta of a group of lockstep processes: :meth:`span_horizon`
says how far the span may reach and :meth:`requeue_span` commits it. A
span consumes the same sequence numbers and reports the same logical
event count as the events it replays — so the optimized engine is
observationally identical to the plain one.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..telemetry.tracer import NULL_TRACER

#: Priority for "urgent" scheduling (interrupts) — runs before normal
#: events that share the same timestamp.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Engine:
    """Simulated clock and event queue.

    Typical use::

        eng = Engine()
        eng.process(my_generator(eng))
        eng.run(until=3600.0)
    """

    __slots__ = ("now", "_queue", "_seq", "_running", "_run_until",
                 "_run_max_events", "_credit", "_waking", "tracer",
                 "step_hook", "_processes")

    def __init__(self, start_time: float = 0.0):
        if not math.isfinite(start_time):
            raise SimulationError(f"start_time must be finite, got {start_time}")
        self.now: float = float(start_time)
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq = 0
        self._running = False
        #: Bounds of the active :meth:`run` call (None outside one); a
        #: span must not advance past them.
        self._run_until: Optional[float] = None
        self._run_max_events: Optional[int] = None
        #: Logical events represented by batched (collapsed) heap entries,
        #: beyond the entries actually popped. Keeps the event count
        #: reported by :meth:`run` independent of batching.
        self._credit = 0
        #: Events part-way through waking several waiters (see
        #: :meth:`span_horizon`).
        self._waking = 0
        #: Telemetry sink; :data:`~repro.telemetry.tracer.NULL_TRACER`
        #: unless a live tracer is attached (every hook call is then a
        #: no-op method — the disabled path allocates nothing).
        self.tracer = NULL_TRACER
        #: Optional ``fn(clock_before, clock_after)`` called after every
        #: dispatched event. The engine is slotted, so external observers
        #: (the runtime :class:`~repro.lint.audit.InvariantAuditor`) hook
        #: here instead of monkey-patching :meth:`step`.
        self.step_hook: Optional[Callable[[float, float], None]] = None
        #: Every process started and not yet finished (a dict for its
        #: order), for :meth:`close`.
        self._processes: dict = {}

    # -- scheduling ---------------------------------------------------

    def schedule(self, event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Schedule *event* to trigger ``delay`` seconds from now.

        The event's :meth:`~repro.sim.process.Event._run` is invoked when
        the clock reaches ``now + delay``.

        The delay must be finite and non-negative. NaN in particular
        would slip past a plain ``delay < 0`` check (every comparison
        with NaN is False), enter the heapq and poison the total order
        of the event queue — heap invariants silently break and events
        start firing out of order.
        """
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite, got {delay}")
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, event))

    def call_at(self, when: float, fn: Callable[[], None], priority: int = NORMAL) -> None:
        """Schedule a bare callback at absolute time *when* (finite,
        not in the past — NaN/inf are rejected like in :meth:`schedule`)."""
        if not math.isfinite(when):
            raise SimulationError(f"scheduled time must be finite, got {when}")
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when} < now {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (when, priority, self._seq, _Callback(fn)))

    # -- lockstep spans (fast path) ------------------------------------

    def span_horizon(self, events) -> Optional[Tuple[float, List[int]]]:
        """Where a span that takes *events*' queued entries may reach:
        ``(horizon, seqs)``, the sequence numbers of those entries
        (aligned with *events*) and the time of the earliest other entry
        or run bound. Every event the span replays must lie strictly
        before the horizon, so that no other process can observe the
        span's intermediate states.

        Returns ``None`` when any of *events* is not queued at exactly
        ``now`` with normal priority, or when batching is not permitted:
        outside :meth:`run`, under an event budget (``max_events`` counts
        real pops, which batching would skew), or while the event being
        dispatched still has waiters to wake, whose next events are not
        in the queue yet.
        """
        if (not self._running or self._run_max_events is not None
                or self._waking):
            return None
        if self._run_until is None:
            h = math.inf
        else:
            # Events at exactly `until` still run, so the horizon is just
            # past it; anything later would be cut off by the run bound.
            h = math.nextafter(self._run_until, math.inf)
        seqs = dict.fromkeys(events)
        now = self.now
        for when, prio, seq, event in self._queue:
            if event in seqs:
                # Nothing is queued before now.
                if when > now or prio != NORMAL:
                    return None
                seqs[event] = seq
            elif when < h:
                h = when
        if None in seqs.values():
            return None
        return h, list(seqs.values())

    def requeue_span(self, taken, wakeups, n_seq: int, n_collapsed: int) -> None:
        """Commit a span that took the queued entries of the events in
        *taken* and replayed *n_seq* event creations.

        Each ``(when, offset, event)`` in *wakeups* is queued with
        sequence number ``seq + offset``, where ``seq`` is the counter
        before the span, so ties break exactly as in the unbatched run;
        the counter then advances by *n_seq*. *n_collapsed* logical
        events were dispatched inside the span without a pop and are
        credited to the running :meth:`run` count.
        """
        if n_seq < len(wakeups) or n_collapsed < 0:
            raise SimulationError(
                f"bad span: {len(wakeups)} wake-ups in {n_seq} events, "
                f"{n_collapsed} collapsed")
        now = self.now
        entries = []
        for when, offset, event in wakeups:
            if not (now <= when < math.inf) or not 0 < offset <= n_seq:
                raise SimulationError(
                    f"bad span wake-up at {when} (seq offset {offset}) "
                    f"for now {now}")
            entries.append((when, NORMAL, self._seq + offset, event))
        queue = self._queue
        # In place: run() holds a reference to the list.
        queue[:] = [entry for entry in queue if entry[3] not in taken]
        queue.extend(entries)
        heapq.heapify(queue)
        self._seq += n_seq
        self._credit += n_collapsed

    def process(self, generator) -> "Process":
        """Wrap *generator* into a :class:`Process` and start it immediately."""
        return _process.Process(self, generator)

    def timeout(self, delay: float, value=None) -> "Timeout":
        """Create a :class:`Timeout` event firing after *delay* seconds."""
        return _process.Timeout(self, delay, value)

    def event(self) -> "Event":
        """Create an untriggered one-shot :class:`Event`."""
        return _process.Event(self)

    # -- main loop ----------------------------------------------------

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Pop and run the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        if when < self.now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("time went backwards")
        before = self.now
        self.now = when
        event._run()
        if self.step_hook is not None:
            self.step_hook(before, self.now)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, the clock passes *until*, or
        *max_events* events have been processed. Returns the final clock.

        The reported event count (:meth:`~repro.telemetry.tracer.Tracer.engine_run`)
        includes logical events collapsed by :meth:`requeue_span`, so it
        is identical with the fast path on or off.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._run_until = until
        self._run_max_events = max_events
        queue = self._queue
        heappop = heapq.heappop
        credit0 = self._credit
        try:
            n = 0
            while queue:
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                if max_events is not None and n >= max_events:
                    break
                # Inlined step(): one function call per event adds up to a
                # measurable share of a multi-million-event run.
                when, _prio, _seq, event = heappop(queue)
                before = self.now
                self.now = when
                event._run()
                n += 1
                hook = self.step_hook
                if hook is not None:
                    hook(before, self.now)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self._run_until = None
            self._run_max_events = None
        self.tracer.engine_run(self.now, n + self._credit - credit0)
        return self.now

    def close(self) -> None:
        """Close every unfinished process and drop every queued event, for
        an engine that will run no more: a run that stopped early leaves
        both in reference cycles (DESIGN.md §12.4)."""
        for process in list(self._processes):
            process._generator.close()
            process._target = None
        self._processes.clear()
        self._queue.clear()


class _Callback:
    """Adapter letting ``call_at`` share the event queue with Events."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], None]):
        self._fn = fn

    def _run(self) -> None:
        self._fn()


# Imported at the bottom (and accessed as attributes at call time) to break
# the engine <-> process cycle without paying a per-call import lookup in
# timeout()/process()/event() — the old inline imports showed up as ~2 % of
# a Cassandra run in cProfile.
from . import process as _process  # noqa: E402
