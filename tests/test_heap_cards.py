"""The card table and its heap invariants.

The hypothesis properties here are the mechanical form of the card
table's contract: the dirty-card count never exceeds the heap's card
capacity, and a young scan resets the table and the scalar dirty volume
consistently.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.heap import (CARD_SIZE, CardTable, GenerationalHeap, HeapConfig,
                        cards_for)
from repro.heap.lifetime import Exponential
from repro.units import GB, MB


def make_heap(heap_bytes=1 * GB, young=None):
    return GenerationalHeap(HeapConfig(heap_bytes=heap_bytes,
                                       young_bytes=young or heap_bytes * 0.35))


class TestCardsFor:
    def test_zero_and_negative(self):
        assert cards_for(0) == 0
        assert cards_for(-10.0) == 0

    def test_rounds_up(self):
        assert cards_for(1.0) == 1
        assert cards_for(CARD_SIZE) == 1
        assert cards_for(CARD_SIZE + 1) == 2

    @given(st.floats(0.0, 1e12))
    @settings(max_examples=60, deadline=None)
    def test_covers_the_bytes(self, n):
        assert cards_for(n) * CARD_SIZE >= n


class TestCardTable:
    def test_rejects_empty_coverage(self):
        with pytest.raises(ConfigError):
            CardTable(0.0)

    def test_rejects_negative_dirty(self):
        table = CardTable(1 * GB)
        with pytest.raises(ConfigError):
            table.dirty(-1.0, 10 * MB)

    def test_dirty_returns_added_count(self):
        table = CardTable(1 * GB)
        added = table.dirty(10 * CARD_SIZE, 100 * MB)
        assert added == 10
        assert table.dirty_cards_count == 10
        assert table.dirty_bytes == 10 * CARD_SIZE

    def test_clear(self):
        table = CardTable(1 * GB)
        table.dirty(5 * CARD_SIZE, 100 * MB)
        table.clear()
        assert table.dirty_cards_count == 0

    @given(st.lists(st.tuples(st.floats(0.0, 64 * 1024 * 1024),
                              st.floats(0.0, 2e9)),
                    min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_count_bounded_by_heap_cards(self, writes):
        """Dirty cards never exceed the covered-heap card capacity nor
        the cards spanned by the largest old-gen footprint seen (the cap
        bounds additions at write time; shrinking `used` later does not
        retroactively clean cards)."""
        table = CardTable(1 * GB)
        max_used_cards = 0
        for n_bytes, used in writes:
            max_used_cards = max(max_used_cards, cards_for(used))
            table.dirty(n_bytes, used)
            assert 0 <= table.dirty_cards_count <= table.total_cards
            assert table.dirty_cards_count <= min(max_used_cards,
                                                  table.total_cards)

    @given(st.lists(st.floats(0.0, 16 * 1024 * 1024),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_added_deltas_sum_to_count(self, sizes):
        table = CardTable(1 * GB)
        total = sum(table.dirty(n, 1 * GB) for n in sizes)
        assert total == table.dirty_cards_count


class TestHeapCardIntegration:
    def test_heap_builds_card_table(self):
        heap = make_heap()
        assert heap.card_table.total_cards == cards_for(1 * GB)

    def test_minor_collection_resets_card_structures(self):
        """After a young scan the scalar and structural card models agree:
        both carry only the re-dirtied (promotion-driven) write traffic."""
        heap = make_heap()
        heap.allocate_old(0.0, 100 * MB, pinned=True)
        heap.dirty_cards(32 * MB)
        assert heap.card_table.dirty_cards_count > 0
        heap.allocate(0.0, 64 * MB, Exponential(1.0))
        heap.minor_collection(1.0, tenuring_threshold=4)
        assert heap.card_table.dirty_bytes == pytest.approx(
            cards_for(heap.dirty_card_bytes) * CARD_SIZE)
        heap.check_invariants(1.0)

    def test_full_collection_clears_cards(self):
        heap = make_heap()
        heap.allocate_old(0.0, 100 * MB, pinned=True)
        heap.dirty_cards(32 * MB)
        heap.full_collection(1.0, compacting=True)
        assert heap.card_table.dirty_cards_count == 0
        assert heap.dirty_card_bytes == 0.0
        heap.check_invariants(1.0)

    @given(st.lists(st.tuples(st.floats(1 * MB, 64 * MB),
                              st.floats(0.0, 16 * MB)),
                    min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_invariants_hold_through_alloc_dirty_collect(self, steps):
        """Random alloc/dirty/minor sequences keep the card table within
        its bounds (check_invariants enforces them)."""
        heap = make_heap()
        heap.allocate_old(0.0, 20 * MB, pinned=True)
        t = 0.0
        for alloc, dirty in steps:
            t += 1.0
            try:
                heap.allocate(t, alloc, Exponential(1.0))
            except Exception:
                heap.minor_collection(t, tenuring_threshold=4)
            heap.dirty_cards(dirty)
            heap.check_invariants(t)
        heap.minor_collection(t + 1.0, tenuring_threshold=4)
        heap.check_invariants(t + 1.0)


    @given(st.floats(0.0, 2 * MB), st.integers(1, 40),
           st.floats(0.0, 8 * MB), st.floats(4 * MB, 64 * MB))
    @settings(max_examples=60, deadline=None)
    def test_repeated_write_equals_single_writes(self, n_bytes, repeat,
                                                 prior, old_used):
        """One write repeated k times leaves the scalar and the card table
        where k calls leave them, saturated or not."""
        heaps = []
        for _ in range(2):
            heap = make_heap()
            heap.allocate_old(0.0, old_used, pinned=True)
            heap.dirty_cards(prior)
            heaps.append(heap)
        for _ in range(repeat):
            heaps[0].dirty_cards(n_bytes)
        heaps[1].dirty_cards(n_bytes, repeat=repeat)
        single, repeated = heaps
        assert repeated.dirty_card_bytes == single.dirty_card_bytes
        assert (repeated.card_table.dirty_cards_count
                == single.card_table.dirty_cards_count)
        repeated.check_invariants(0.0)


class TestFidelityPricing:
    def test_fidelity_prices_scans_off_card_table(self):
        """With card_fidelity on, the young scan volume comes from the
        explicit card table (card-granular), not the scalar estimate."""
        fine = make_heap()
        fine.card_fidelity = True
        coarse = make_heap()
        for heap in (fine, coarse):
            heap.allocate_old(0.0, 100 * MB, pinned=True)
            heap.dirty_cards(10 * MB + 1.0)   # not card-aligned
            heap.allocate(0.0, 32 * MB, Exponential(1.0))
        vol_fine = fine.minor_collection(1.0, tenuring_threshold=4)
        vol_coarse = coarse.minor_collection(1.0, tenuring_threshold=4)
        assert vol_fine.cards_scanned == pytest.approx(
            cards_for(10 * MB + 1.0) * CARD_SIZE)
        assert vol_coarse.cards_scanned == pytest.approx(10 * MB + 1.0)
        # Card granularity rounds *up*: fidelity never under-prices.
        assert vol_fine.cards_scanned >= vol_coarse.cards_scanned
