"""Property-based tests for the DES kernel and heap over long horizons."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap.heap import GenerationalHeap, HeapConfig
from repro.heap.lifetime import Exponential, Weibull
from repro.sim import Engine, Timeout
from repro.units import MB


class TestEngineProperties:
    @given(delays=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        eng = Engine()
        fired = []
        for d in delays:
            ev = Timeout(eng, d, value=d)
            ev.callbacks.append(lambda e: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_clock_ends_at_latest_event(self, delays):
        eng = Engine()
        for d in delays:
            Timeout(eng, d)
        eng.run()
        assert eng.now == pytest.approx(max(delays))

    @given(
        delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
        cut=st.floats(0.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_until_is_a_prefix(self, delays, cut):
        """Running to `until` then to completion fires exactly the same
        events, in the same order, as one uninterrupted run."""
        def collect(two_phase):
            eng = Engine()
            fired = []
            for d in delays:
                ev = Timeout(eng, d, value=d)
                ev.callbacks.append(lambda e: fired.append(e.value))
            if two_phase:
                eng.run(until=cut)
                eng.run()
            else:
                eng.run()
            return fired

        assert collect(True) == collect(False)

    @given(n_procs=st.integers(1, 10), steps=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_processes_all_complete(self, n_procs, steps):
        eng = Engine()
        done = []

        def proc(pid):
            for s in range(steps):
                yield eng.timeout(0.5 + pid * 0.01)
            done.append(pid)

        procs = [eng.process(proc(i)) for i in range(n_procs)]
        eng.run()
        assert sorted(done) == list(range(n_procs))
        assert all(not p.is_alive for p in procs)


class TestHeapLongHorizon:
    @given(
        batches=st.lists(st.floats(1.0, 20.0), min_size=3, max_size=12),
        tau=st.floats(0.05, 5.0),
        threshold=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_cycle_conservation(self, batches, tau, threshold):
        """Over any sequence of allocations and minor collections,
        allocated == freed + resident (cohort bytes are conserved)."""
        heap = GenerationalHeap(
            HeapConfig(heap_bytes=512 * MB, young_bytes=128 * MB)
        )
        dist = Exponential(tau)
        allocated = 0.0
        freed = 0.0
        t = 0.0
        for mb in batches:
            t += 0.5
            n = mb * MB
            heap.allocate(t, n, dist)
            allocated += n
            vol = heap.minor_collection(t + 0.1, threshold)
            freed += vol.eden_freed + vol.survivor_freed
        resident = (
            sum(heap.survivor_cohorts.resident.tolist())
            + sum(heap.old_cohorts.resident.tolist())
        )
        assert freed + resident == pytest.approx(allocated, rel=1e-6)

    @given(
        batches=st.lists(st.floats(1.0, 20.0), min_size=2, max_size=10),
        shape=st.floats(0.4, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_after_minors_reclaims_everything_dead(self, batches, shape):
        heap = GenerationalHeap(
            HeapConfig(heap_bytes=512 * MB, young_bytes=128 * MB)
        )
        dist = Weibull(shape, 0.5)
        t = 0.0
        for mb in batches:
            t += 1.0
            heap.allocate(t, mb * MB, dist)
            heap.minor_collection(t + 0.1, 3)
        heap.full_collection(t + 10_000.0)  # everything short-lived is dead
        assert heap.old.used <= 1 * MB  # only rounding residue may remain
        assert heap.young_used == 0.0

    @given(
        young_frac=st.floats(0.1, 0.8),
        survivor_ratio=st.integers(2, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometry_always_partitions_heap(self, young_frac, survivor_ratio):
        cfg = HeapConfig(
            heap_bytes=256 * MB,
            young_bytes=256 * MB * young_frac,
            survivor_ratio=survivor_ratio,
        )
        total = cfg.eden_bytes + 2 * cfg.survivor_bytes + cfg.old_bytes
        assert total == pytest.approx(256 * MB)

    @given(
        pinned_mb=st.floats(1.0, 30.0),
        garbage_mb=st.floats(1.0, 30.0),
        sweeps=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_never_touches_pinned(self, pinned_mb, garbage_mb, sweeps):
        heap = GenerationalHeap(
            HeapConfig(heap_bytes=512 * MB, young_bytes=64 * MB)
        )
        heap.allocate_old(0.0, pinned_mb * MB, pinned=True)
        dead = heap.allocate_old(0.0, garbage_mb * MB, pinned=True)
        dead.release()
        for i in range(sweeps):
            heap.sweep_old(float(i + 1))
        assert heap.old.used == pytest.approx(pinned_mb * MB)
