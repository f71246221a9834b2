"""Tests for the DES engine: clock, event ordering, run control."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Event, Timeout


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_run_empty_queue_with_until_advances_clock(self):
        eng = Engine()
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_timeout_advances_clock(self):
        eng = Engine()
        Timeout(eng, 3.0)
        eng.run()
        assert eng.now == 3.0


class TestOrdering:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        for delay in (5.0, 1.0, 3.0):
            ev = Timeout(eng, delay, value=delay)
            ev.callbacks.append(lambda e: fired.append(e.value))
        eng.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_same_time_events_fifo(self):
        eng = Engine()
        fired = []
        for tag in ("a", "b", "c"):
            ev = Timeout(eng, 1.0, value=tag)
            ev.callbacks.append(lambda e: fired.append(e.value))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        ev = Timeout(eng, 10.0, value="late")
        ev.callbacks.append(lambda e: fired.append(e.value))
        eng.run(until=5.0)
        assert fired == []
        assert eng.now == 5.0
        eng.run()
        assert fired == ["late"]

    def test_max_events_limits_processing(self):
        eng = Engine()
        fired = []
        for i in range(5):
            ev = Timeout(eng, float(i + 1), value=i)
            ev.callbacks.append(lambda e: fired.append(e.value))
        eng.run(max_events=2)
        assert len(fired) == 2


class TestScheduling:
    def test_call_at_runs_callback(self):
        eng = Engine()
        seen = []
        eng.call_at(2.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [2.5]

    def test_call_at_in_past_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(Event(eng), delay=-1.0)

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Engine().step()

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delay_rejected(self, delay):
        # NaN slips past a plain `delay < 0` check (every NaN comparison
        # is False) and would poison the heapq's total order.
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(Event(eng), delay=delay)

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), float("-inf")])
    def test_call_at_non_finite_rejected(self, when):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_at(when, lambda: None)

    def test_non_finite_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Engine(start_time=float("nan"))

    def test_peek_returns_next_event_time(self):
        eng = Engine()
        Timeout(eng, 7.0)
        assert eng.peek() == 7.0

    def test_peek_empty_queue(self):
        assert Engine().peek() is None


class TestHelpers:
    def test_engine_timeout_helper(self):
        eng = Engine()
        t = eng.timeout(1.5, value="x")
        assert isinstance(t, Timeout)
        eng.run()
        assert eng.now == 1.5

    def test_engine_event_helper_untriggered(self):
        eng = Engine()
        ev = eng.event()
        assert not ev.triggered


class TestLockstepSpanPrimitives:
    """span_horizon / requeue_span: a span takes queued wake-ups and
    re-queues them with the sequence numbers the unbatched run gives."""

    def _group(self, eng, fired, on_lead, delay=1.0):
        """A lead wake-up at 1.0 running *on_lead*, two sibling wake-ups
        at *delay* queued after it and an unrelated event at 5.0."""
        Timeout(eng, 1.0).callbacks.append(on_lead)
        siblings = [Timeout(eng, delay, value=tag) for tag in ("b", "c")]
        other = Timeout(eng, 5.0, value="other")
        for ev in (*siblings, other):
            ev.callbacks.append(lambda e: fired.append((eng.now, e.value)))
        return siblings

    def test_horizon_excludes_the_taken_wakeups(self):
        eng = Engine()
        seen = []
        siblings = self._group(
            eng, [], lambda e: seen.append(eng.span_horizon(siblings)))
        assert eng.span_horizon(siblings) is None  # not inside run()
        eng.run()
        assert seen == [(5.0, [2, 3])]

    def test_horizon_refuses_wakeups_not_due_now(self):
        eng = Engine()
        seen = []
        siblings = self._group(
            eng, [], lambda e: seen.append(eng.span_horizon(siblings)),
            delay=2.0)
        eng.run()
        assert seen == [None]

    def test_horizon_refused_while_an_event_wakes_several_waiters(self):
        """The first of two waiters on one event must not open a span: the
        second has not queued its next event (due at 1.5) yet, so the
        horizon the queue shows (5.0) would let the span run past it."""
        eng = Engine()
        seen = []
        shared = Timeout(eng, 1.0)
        siblings = self._group(eng, [], lambda e: None)
        shared.callbacks.append(
            lambda e: seen.append(eng.span_horizon(siblings)))
        shared.callbacks.append(lambda e: Timeout(eng, 0.5))
        # Once the event has woken its last waiter, spans open again.
        siblings[0].callbacks.append(
            lambda e: seen.append(eng.span_horizon(siblings[1:])))
        eng.run()
        assert seen == [None, (1.5, [4])]

    def test_requeue_orders_by_exact_sequence_and_credits(self):
        from repro.telemetry import Tracer
        from repro.telemetry.events import ENGINE_RUN

        eng = Engine()
        eng.tracer = tracer = Tracer()
        fired = []

        def commit(_event):
            # Replayed: 6 event creations; the siblings' next wake-ups
            # were the 6th and 4th, both due at 3.0.
            eng.requeue_span(set(siblings), [(3.0, 6, siblings[0]),
                                             (3.0, 4, siblings[1])], 6, 5)
            late = Timeout(eng, 2.0, value="later")  # due 3.0, seq after
            late.callbacks.append(lambda e: fired.append((eng.now, e.value)))

        siblings = self._group(eng, fired, commit)
        eng.run()
        assert fired == [(3.0, "c"), (3.0, "b"), (3.0, "later"), (5.0, "other")]
        runs = [e.args["events"] for e in tracer.ring if e.name == ENGINE_RUN]
        assert runs == [5 + 5]  # 5 pops plus 5 collapsed events

    @pytest.mark.parametrize("wakeups,n_seq,n_collapsed", [
        ([(3.0, 0, None)], 2, 0),      # offset must be >= 1
        ([(3.0, 3, None)], 2, 0),      # offset beyond the span
        ([(0.5, 1, None)], 2, 0),      # in the past
        ([(3.0, 1, None)], 2, -1),     # negative credit
    ])
    def test_requeue_rejects_bad_spans(self, wakeups, n_seq, n_collapsed):
        eng = Engine(start_time=1.0)
        ev = Event(eng)
        wakeups = [(t, off, ev) for t, off, _ in wakeups]
        with pytest.raises(SimulationError):
            eng.requeue_span(set(), wakeups, n_seq, n_collapsed)
