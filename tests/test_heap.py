"""Tests for the generational heap: allocation + collection mechanics."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AllocationFailure,
    ConfigError,
    HeapError,
    PromotionFailure,
)
from repro.heap.heap import GenerationalHeap, HeapConfig
from repro.heap.lifetime import Exponential, Immortal
from repro.heap.tlab import TLABConfig
from repro.units import GB, MB


def make_heap(heap=256 * MB, young=64 * MB, threads=4, tlab=None):
    cfg = HeapConfig(
        heap_bytes=heap, young_bytes=young,
        tlab=tlab if tlab is not None else TLABConfig(),
    )
    return GenerationalHeap(cfg, n_mutator_threads=threads)


class TestGeometry:
    def test_survivor_ratio_8_splits_young(self):
        cfg = HeapConfig(heap_bytes=100 * MB, young_bytes=50 * MB)
        assert cfg.eden_bytes == pytest.approx(40 * MB)
        assert cfg.survivor_bytes == pytest.approx(5 * MB)
        assert cfg.old_bytes == pytest.approx(50 * MB)

    def test_young_larger_than_heap_rejected(self):
        with pytest.raises(ConfigError):
            HeapConfig(heap_bytes=10 * MB, young_bytes=20 * MB)

    def test_zero_heap_rejected(self):
        with pytest.raises(ConfigError):
            HeapConfig(heap_bytes=0, young_bytes=0)


class TestAllocation:
    def test_allocate_fills_eden(self):
        h = make_heap()
        h.allocate(0.0, 10 * MB, Exponential(1.0))
        assert h.eden.used == 10 * MB

    def test_eden_free_reserves_tlab_waste(self):
        h = make_heap()
        assert h.eden_free < h.eden.capacity
        assert h.eden_free == pytest.approx(
            h.eden.capacity - h.tlabs.expected_waste
        )

    def test_allocation_failure_when_full(self):
        h = make_heap()
        h.allocate(0.0, h.eden_free, Exponential(1.0))
        with pytest.raises(AllocationFailure):
            h.allocate(0.0, 1 * MB, Exponential(1.0))

    def test_allocate_old_direct(self):
        h = make_heap()
        h.allocate_old(0.0, 20 * MB, pinned=True)
        assert h.old.used == 20 * MB

    def test_allocate_old_overflow_rejected(self):
        h = make_heap()
        with pytest.raises(PromotionFailure):
            h.allocate_old(0.0, 500 * MB, pinned=True)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ConfigError):
            make_heap().allocate(0.0, -1, Exponential(1.0))


class TestBumpRows:
    @pytest.mark.parametrize("rounds", [1, 2, 5])
    @pytest.mark.parametrize("fill", [0.0, 0.97])
    def test_allocate_bumps_matches_allocate_bump(self, rounds, fill):
        """Three rows at each of *rounds* times, of a fractional size: the
        rows and eden's occupancy of one allocate_bump each, capped at
        capacity when eden overfills; eden_free_after gives eden_free
        after every three rows."""
        size, dist = 1.37 * MB + 0.1, Exponential(2.0)
        times = [10.0 + 2.1 * r for r in range(rounds)]
        ends = []
        for bulk in (False, True):
            h = make_heap()
            h.eden.used = fill * h.eden.capacity + 0.3
            ahead = list(islice(h.eden_free_after(size, 3), rounds))
            if bulk:
                h.allocate_bumps(times, size, dist, count=3, n_objects=4.0,
                                 window=2.0)
            else:
                free = []
                for t in times:
                    for _ in range(3):
                        h.allocate_bump(t, size, dist, n_objects=4.0, window=2.0)
                    free.append(h.eden_free)
                assert ahead == free
            cols = h.eden_cohorts
            ends.append((h.eden.used, [getattr(cols, name)[:cols.n].tobytes()
                                       for name in ("t0", "t1", "allocated",
                                                    "n_objects", "group")]))
        assert ends[0] == ends[1]


class TestMinorCollection:
    def test_eden_empty_after_minor(self):
        h = make_heap()
        h.allocate(0.0, 30 * MB, Exponential(0.001))
        h.minor_collection(10.0, tenuring_threshold=6)
        assert h.eden.used == 0.0
        assert len(h.eden_cohorts) == 0

    def test_dead_bytes_freed(self):
        h = make_heap()
        h.allocate(0.0, 30 * MB, Exponential(0.001))  # dies instantly
        vol = h.minor_collection(10.0, tenuring_threshold=6)
        assert vol.eden_freed == pytest.approx(30 * MB)
        assert vol.copied_to_survivor == 0.0

    def test_survivors_move_to_survivor_space(self):
        h = make_heap()
        h.allocate(0.0, 4 * MB, None, pinned=True)
        vol = h.minor_collection(1.0, tenuring_threshold=6)
        assert vol.copied_to_survivor == pytest.approx(4 * MB)
        assert h.survivor.used == pytest.approx(4 * MB)

    def test_tenuring_promotes_after_threshold(self):
        h = make_heap()
        h.allocate(0.0, 4 * MB, None, pinned=True)
        for i in range(4):
            h.minor_collection(float(i + 1), tenuring_threshold=2)
        assert h.old.used == pytest.approx(4 * MB)
        assert h.survivor.used == 0.0

    def test_survivor_overflow_promotes_oldest_first(self):
        h = make_heap()  # survivor capacity 6.4 MB
        old_cohort = h.allocate(0.0, 4 * MB, None, pinned=True, label="old")
        h.minor_collection(1.0, tenuring_threshold=10)
        young_cohort = h.allocate(1.0, 5 * MB, None, pinned=True, label="young")
        h.minor_collection(2.0, tenuring_threshold=10)
        # 9 MB of survivors > 6.4 MB capacity: the older cohort promotes.
        assert old_cohort in h.old_cohorts
        assert young_cohort in h.survivor_cohorts

    def test_promotion_failure_flagged(self):
        h = make_heap(heap=100 * MB, young=80 * MB)
        h.allocate_old(0.0, 18 * MB, pinned=True)
        h.allocate(0.0, 30 * MB, None, pinned=True)
        vol = h.minor_collection(1.0, tenuring_threshold=0)
        assert vol.promotion_failed

    def test_cards_reset_after_minor(self):
        h = make_heap()
        h.allocate_old(0.0, 30 * MB, pinned=True)
        h.dirty_cards(10 * MB)
        vol = h.minor_collection(1.0, tenuring_threshold=6)
        assert vol.cards_scanned >= 10 * MB
        assert h.dirty_card_bytes <= 0.15 * max(vol.promoted, 1)

    def test_dirty_cards_capped_by_old_used(self):
        h = make_heap()
        h.allocate_old(0.0, 5 * MB, pinned=True)
        h.dirty_cards(50 * MB)
        assert h.dirty_card_bytes == pytest.approx(5 * MB)


class TestSurvivorOverflowBorrowsEden:
    def test_overflow_extends_survivor_and_shrinks_eden(self):
        h = make_heap()
        nominal_eden = h.eden.capacity
        h.allocate(0.0, 20 * MB, None, pinned=True)
        h.minor_collection(1.0, tenuring_threshold=10)
        # 20 MB survivors > 6.4 MB survivor space; old gen has room, so
        # they promote instead — no borrowing needed.
        assert h.eden.capacity == nominal_eden

    def test_stranded_survivors_borrow_eden(self):
        h = make_heap(heap=100 * MB, young=80 * MB)  # old = 20 MB
        h.allocate_old(0.0, 15 * MB, pinned=True)
        h.allocate(0.0, 30 * MB, None, pinned=True)
        h.minor_collection(1.0, tenuring_threshold=0)
        # Most survivors cannot promote (old nearly full): they stay in the
        # survivor space, which borrows eden capacity.
        assert h.survivor.capacity > h.config.survivor_bytes
        assert h.eden.capacity < h.config.eden_bytes
        total_young = h.eden.capacity + h.survivor.capacity
        assert total_young <= h.config.eden_bytes + h.config.survivor_bytes + 1e-6


class TestFullCollection:
    def test_full_empties_young(self):
        h = make_heap()
        h.allocate(0.0, 20 * MB, None, pinned=True)
        h.full_collection(1.0)
        assert h.eden.used == 0.0
        assert h.old.used == pytest.approx(20 * MB)

    def test_full_reclaims_old_garbage(self):
        h = make_heap()
        c = h.allocate_old(0.0, 30 * MB, pinned=True)
        c.release()
        vol = h.full_collection(1.0)
        assert vol.old_freed == pytest.approx(30 * MB)
        assert h.old.used == 0.0

    def test_compacting_resets_fragmentation(self):
        h = make_heap()
        h.fragmentation = 0.2
        h.full_collection(1.0, compacting=True)
        assert h.fragmentation == 0.0

    def test_non_compacting_keeps_fragmentation(self):
        h = make_heap()
        h.fragmentation = 0.2
        h.full_collection(1.0, compacting=False)
        assert h.fragmentation == 0.2

    def test_overcommit_unreachable_through_api(self):
        """Eden borrowing means live data can never exceed the heap via the
        allocation API: the allocation fails first (a JVM would OOM)."""
        h = make_heap(heap=100 * MB, young=80 * MB)
        h.allocate_old(0.0, 19 * MB, pinned=True)    # old nearly full
        h.allocate(0.0, 60 * MB, None, pinned=True)  # eden full of live data
        h.minor_collection(0.5, tenuring_threshold=0)  # strands survivors
        assert h.eden.capacity < h.config.eden_bytes  # eden was borrowed
        with pytest.raises(AllocationFailure):
            h.allocate(1.0, 25 * MB, None, pinned=True)

    def test_live_exceeding_heap_raises(self):
        """White-box: injected live data beyond the heap is a hard error."""
        from repro.heap.cohort import Cohort

        h = make_heap(heap=100 * MB, young=80 * MB)
        h.old_cohorts.append(Cohort(0.0, 0.0, 120 * MB, pinned=True))
        with pytest.raises(HeapError):
            h.full_collection(1.0)

    def test_marked_equals_live(self):
        h = make_heap()
        h.allocate(0.0, 10 * MB, None, pinned=True)
        h.allocate_old(0.0, 5 * MB, pinned=True)
        vol = h.full_collection(1.0)
        assert vol.marked == pytest.approx(15 * MB)


class TestSweep:
    def test_sweep_frees_dead_old(self):
        h = make_heap()
        c = h.allocate_old(0.0, 30 * MB, pinned=True)
        c.release()
        vol = h.sweep_old(1.0)
        assert vol.old_freed == pytest.approx(30 * MB)
        assert h.old.used == 0.0

    def test_sweep_increases_fragmentation(self):
        h = make_heap()
        c = h.allocate_old(0.0, 10 * MB, pinned=True)
        c.release()
        h.sweep_old(1.0, fragmentation_increment=0.05)
        assert h.fragmentation == pytest.approx(0.05)

    def test_sweep_without_garbage_no_fragmentation(self):
        h = make_heap()
        h.allocate_old(0.0, 10 * MB, pinned=True)
        h.sweep_old(1.0)
        assert h.fragmentation == 0.0

    def test_fragmentation_reduces_effective_capacity(self):
        h = make_heap()
        h.fragmentation = 0.1
        assert h.old_effective_capacity == pytest.approx(0.9 * h.old.capacity)


class TestResizeYoung:
    def test_resize_young_moves_capacity(self):
        h = make_heap(heap=1 * GB, young=256 * MB)
        h.resize_young(128 * MB)
        assert h.eden.capacity + 2 * h.survivor.capacity == pytest.approx(128 * MB)
        assert h.old.capacity == pytest.approx(1 * GB - 128 * MB)

    def test_resize_young_requires_empty_eden(self):
        h = make_heap()
        h.allocate(0.0, 1 * MB, Exponential(1.0))
        with pytest.raises(HeapError):
            h.resize_young(32 * MB)

    def test_resize_refused_when_old_too_full(self):
        h = make_heap(heap=100 * MB, young=20 * MB)
        h.allocate_old(0.0, 79 * MB, pinned=True)
        before = h.eden.capacity
        h.resize_young(90 * MB)  # would shrink old below its usage
        assert h.eden.capacity == before


class TestConservation:
    @given(
        # total stays under eden capacity (51.2 MB) minus TLAB waste
        batches=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=8),
        tau=st.floats(0.01, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_minor_collection_conserves_bytes(self, batches, tau):
        """allocated == freed + survivor + promoted after one minor GC."""
        h = make_heap()
        total = 0.0
        t = 0.0
        for mb in batches:
            n = mb * MB
            h.allocate(t, n, Exponential(tau))
            total += n
            t += 0.25
        vol = h.minor_collection(t + 1.0, tenuring_threshold=6)
        retained = h.survivor.used + vol.promoted
        assert vol.eden_freed + retained == pytest.approx(total, rel=1e-9)

    @given(pinned_mb=st.floats(0.5, 20.0), garbage_mb=st.floats(0.5, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_full_collection_conserves_bytes(self, pinned_mb, garbage_mb):
        h = make_heap()
        h.allocate(0.0, pinned_mb * MB, None, pinned=True)
        h.allocate(0.0, garbage_mb * MB, Exponential(1e-6))
        vol = h.full_collection(10.0)
        assert vol.total_freed == pytest.approx(garbage_mb * MB, rel=1e-6)
        assert h.old.used == pytest.approx(pinned_mb * MB, rel=1e-6)
