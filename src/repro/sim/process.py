"""Events and generator-based processes for the DES kernel.

A :class:`Process` drives a generator: each ``yield`` must produce an
:class:`Event`; the process sleeps until the event triggers and is resumed
with the event's value. A process may be *interrupted* — an
:class:`Interrupt` is thrown into the generator at its current yield point,
which is how the simulated JVM stops mutator threads at safepoints.

Hot-path notes: these classes are instantiated once per simulated event
(millions per bench run), so the trigger paths push straight onto the
engine's queue instead of going through :meth:`Engine.schedule` — the
delay there is a constant ``0.0`` (or a :class:`Timeout` delay validated
in its constructor), so the extra finiteness re-checks bought nothing.
State tests read ``_state``/``_ok`` directly rather than through the
public properties, and each process caches its bound ``_resume`` callback
instead of materializing a new bound method per wait.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Optional

from ..errors import SimulationError
from .engine import NORMAL, URGENT, Engine

#: Event state markers.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """One-shot event. Trigger with :meth:`succeed` or :meth:`fail`.

    Callbacks (``event.callbacks.append(fn)``) run when the engine
    processes the event; each receives the event itself.
    """

    # Millions of Events live and die per run; __slots__ drops the
    # per-instance dict. `_defused` is only set on interrupt events but
    # still needs a slot.
    __slots__ = ("engine", "callbacks", "value", "_ok", "_state", "_defused")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.callbacks: Optional[List] = []
        self.value = None
        self._ok = True
        self._state = PENDING

    # -- introspection --------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    # -- triggering ------------------------------------------------------

    def succeed(self, value=None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with an optional *value*."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._state = TRIGGERED
        self.value = value
        engine = self.engine
        engine._seq += 1
        heapq.heappush(engine._queue, (engine.now, priority, engine._seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._state = TRIGGERED
        self._ok = False
        self.value = exception
        engine = self.engine
        engine._seq += 1
        heapq.heappush(engine._queue, (engine.now, priority, engine._seq, self))
        return self

    # -- engine hook -------------------------------------------------------

    def _run(self) -> None:
        if self._state == PROCESSED:  # pragma: no cover - defensive
            raise SimulationError("event processed twice")
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        if len(callbacks) > 1:
            self._run_shared(callbacks)
            return
        for callback in callbacks:
            callback(self)

    def _run_shared(self, callbacks: List) -> None:
        """Wake several waiters. Until the last one has run, the engine
        allows no batching: a waiter resumed early cannot see the events
        the later ones are about to queue (a safepoint, say), so a span it
        committed could be interleaved by them."""
        engine = self.engine
        engine._waking += 1
        try:
            for callback in callbacks[:-1]:
                callback(self)
        finally:
            engine._waking -= 1
        callbacks[-1](self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """Event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: Engine, delay: float, value=None):
        # `not (0 <= delay < inf)` also catches NaN (all comparisons with
        # NaN are False), which must never reach the heapq — it would
        # poison the queue's total order.
        if not (0.0 <= delay < math.inf):
            raise SimulationError(f"bad Timeout delay: {delay}")
        # Flattened Event.__init__ + Engine.schedule: one per simulated
        # wait, the hottest constructor in the simulator.
        self.engine = engine
        self.callbacks = []
        self.value = value
        self._ok = True
        self._state = TRIGGERED  # scheduled immediately, fires at now+delay
        self.delay = delay
        engine._seq += 1
        heapq.heappush(engine._queue,
                       (engine.now + delay, NORMAL, engine._seq, self))


class Interrupt(Exception):
    """Thrown into an interrupted process at its current yield point."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Runs a generator as a simulated process.

    The process is itself an Event that triggers (with the generator's
    return value) when the generator finishes, so processes can wait for
    each other: ``yield other_process``.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, engine: Engine, generator):
        super().__init__(engine)
        if not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        self._generator = generator
        self._target: Optional[Event] = None
        # One bound method for the lifetime of the process; creating a
        # fresh one per wait showed up in event-chain profiles.
        self._resume_cb = self._resume
        # Kick off at the current time (urgent so spawning is immediate).
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume_cb)
        bootstrap.succeed(priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible.

        Interrupting a finished process is an error; interrupting a process
        twice before it handles the first interrupt queues both.
        """
        if self._state != PENDING:
            raise SimulationError("cannot interrupt a finished process")
        event = Event(self.engine)
        event._ok = False
        event._defused = True
        event.value = Interrupt(cause)
        event.callbacks.append(self._resume_cb)
        event._state = TRIGGERED
        engine = self.engine
        engine._seq += 1
        heapq.heappush(engine._queue, (engine.now, URGENT, engine._seq, event))

    # -- driving the generator -----------------------------------------

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            # Interrupt raced with completion; drop it silently only if it
            # was an interrupt, otherwise it's a kernel bug.
            if isinstance(event.value, Interrupt):
                return
            raise SimulationError("resume on finished process")  # pragma: no cover
        # Detach from the event we were waiting on (it may not be `event`
        # when an interrupt preempts the wait).
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        try:
            if event._ok:
                result = self._generator.send(event.value)
            else:
                result = self._generator.throw(event.value)
        except StopIteration as stop:
            self._state = PENDING  # allow succeed() below
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                "process died of an unhandled Interrupt"
            ) from None
        if not isinstance(result, Event):
            raise SimulationError(
                f"process yielded {result!r}; processes must yield Events"
            )
        if result._state == PROCESSED:
            # Already fired: resume immediately (urgent, zero-delay).
            immediate = Event(self.engine)
            immediate.value = result.value
            immediate._ok = result._ok
            immediate.callbacks.append(self._resume_cb)
            immediate._state = TRIGGERED
            engine = self.engine
            engine._seq += 1
            heapq.heappush(engine._queue,
                           (engine.now, URGENT, engine._seq, immediate))
            self._target = immediate
        else:
            result.callbacks.append(self._resume_cb)
            self._target = result


class AnyOf(Event):
    """Triggers when the first of *events* triggers; value = that event."""

    __slots__ = ("_done",)

    def __init__(self, engine: Engine, events: Iterable[Event]):
        super().__init__(engine)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf needs at least one event")
        self._done = False
        for ev in events:
            if ev.processed:
                self._fire(ev)
                break
            ev.callbacks.append(self._fire)

    def _fire(self, event: Event) -> None:
        if self._done:
            return
        self._done = True
        self.succeed(event)
