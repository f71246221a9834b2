"""The columnar heap kernels agree exactly with their scalar oracles.

Each fast path keeps its slow predecessor in ``tests/oracles.py``. The
properties here drive both with the same random inputs and require
equal results, float for float (``==``, not approx): the simulator's
golden outputs depend on every rounding.

* ``RememberedSet.record`` (closed form) against the per-card loop,
  across span changes, clears and region evacuations;
* ``batch_live_bytes`` and ``batch_collect`` against scalar cohorts, for
  pinned, released, zero-allocated and zero-width cohorts under mixed
  distributions in one space;
* G1's ``_evacuate_old`` against the tuple-sort selection;
* all three again on cohorts laid out as the stress server appends them,
  where the kernel evaluates each distinct age once;
* the running total the kernels sum freed bytes with, against a loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc import create_collector
from repro.heap.cards import RememberedSet
from repro.heap.cohort import Cohort, CohortColumns
from repro.heap.heap import (CollectionVolumes, GenerationalHeap, HeapConfig,
                             _running_total, batch_collect, batch_live_bytes)
from repro.heap.lifetime import (Exponential, Fixed, Immortal, LogNormal,
                                 Mixture, Weibull)
from repro.heap.regions import RegionTable
from repro.machine.costs import CostModel
from repro.units import MB

from tests.oracles import (LoopRememberedSet, ScalarCohort, collect_all,
                           evacuate_old_by_tuples)

#: One space mixes all of these.
DISTS = (
    Exponential(0.3),
    Weibull(0.6, 2.0),
    LogNormal(1.0, 1.5),
    Fixed(2.0),
    Mixture([(0.9, Exponential(0.05)), (0.08, Weibull(0.7, 15.0)),
             (0.02, Immortal())]),
    Immortal(),
)

#: "at-cutoff" is an immortal half byte: live bytes equal to the tail
#: cutoff exactly.
KINDS = ("windowed", "zero-width", "tiny-width", "zero-allocated", "pinned",
         "released", "at-cutoff")

cohort_specs = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.floats(0.0, 500.0),                  # t0
        st.floats(0.0, 20.0),                   # window width
        st.floats(1.0, 1e9),                    # allocated bytes
        st.integers(0, len(DISTS) - 1),         # distribution
        st.integers(1, 3),                      # copies
    ),
    min_size=0, max_size=40,
)


def window_width(kind, t0, width):
    """The width a row of *kind* starting at *t0* gets in place of the
    drawn *width*."""
    if kind in ("zero-width", "pinned", "released"):
        return 0.0
    if kind == "tiny-width":
        return 1e-12 * max(t0, 1.0)
    return width


def make_pair(specs, cols=None):
    """The same cohorts twice: as handles appended to *cols* (a fresh
    space by default), and as scalar oracle objects. Copies of one spec
    differ only in size, so they share a live fraction: G1 scores them
    equal, and only a stable sort keeps their order."""
    cols = CohortColumns() if cols is None else cols
    scalar = []
    for kind, t0, width, allocated, d, copies in specs:
        dist = DISTS[d]
        width = window_width(kind, t0, width)
        if kind == "zero-allocated":
            allocated = 0.0
        elif kind == "at-cutoff":
            allocated, dist = 0.5, Immortal()
        pinned = kind in ("pinned", "released")
        for copy in range(copies):
            args = (t0, t0 + width, allocated * (copy + 1),
                    None if pinned else dist)
            handle = Cohort(*args, pinned=pinned)
            oracle = ScalarCohort(*args, pinned=pinned)
            if kind == "released":
                handle.release()
                oracle.release()
            cols.append(handle)
            scalar.append(oracle)
    return cols, scalar


class TestRememberedSetRecord:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.integers(0, 3000),
                      st.integers(0, 80)),
            st.tuples(st.just("clear")),
            st.tuples(st.just("evacuate"), st.integers(0, 63),
                      st.integers(0, 63)),
        ),
        min_size=1, max_size=30,
    )

    @given(ops)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_card_loop(self, ops):
        fast = RememberedSet(RegionTable(heap_bytes=64 * MB, region_size=1 * MB))
        slow = LoopRememberedSet(fast.regions.total_regions)
        for op in ops:
            if op[0] == "record":
                fast.record(op[1], op[2])
                slow.record(op[1], op[2])
            elif op[0] == "clear":
                fast.clear()
                slow.clear()
            else:
                assert fast.evacuate_region(op[1], op[2]) == \
                    slow.evacuate_region(op[1], op[2])
            assert fast.per_region.tolist() == slow.per_region
            assert fast._cursor == slow.cursor
            assert fast.total_cards == sum(slow.per_region)


def check_live_bytes(specs, now):
    cols, scalar = make_pair(specs)
    assert batch_live_bytes(cols, now).tolist() == \
        [c.live_bytes(now) for c in scalar]


def check_collect(specs, now, later):
    cols, scalar = make_pair(specs)
    for t in (now, now + later):
        freed, scalar = collect_all(scalar, t)
        assert batch_collect(cols, t) == freed
        assert cols.resident.tolist() == [c.resident for c in scalar]
        assert cols.age.tolist() == [c.age for c in scalar]


def check_evacuate_old(specs, now, pause_target):
    heap = GenerationalHeap(HeapConfig(heap_bytes=1e12, young_bytes=1e9))
    g1 = create_collector("G1", heap, CostModel(), pause_target=pause_target)
    _cols, scalar = make_pair(specs, heap.old_cohorts)
    heap.old.used = sum(heap.old_cohorts.resident.tolist())
    # The pause budget and copy rate, as _evacuate_old derives them.
    costs = g1.costs
    threads = costs.effective_threads(g1._young_threads())
    budget = (g1.pause_target * 0.3 * costs.copy_bw * threads
              * costs.young_gc_rate)
    rate = costs.copy_bw * (threads * costs.young_gc_rate)

    vol = CollectionVolumes()
    extra = g1._evacuate_old(now, vol)
    copied, freed = evacuate_old_by_tuples(scalar, now, budget)

    assert extra == copied / rate
    assert vol.old_freed == freed
    assert heap.old_cohorts.resident.tolist() == [c.resident for c in scalar]
    assert heap.old_cohorts.age.tolist() == [c.age for c in scalar]


class TestLiveBytesKernel:
    @given(cohort_specs, st.floats(0.0, 1000.0))
    @settings(max_examples=150, deadline=None)
    def test_batch_live_bytes_matches_scalar(self, specs, now):
        check_live_bytes(specs, now)

    @given(cohort_specs, st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    @settings(max_examples=150, deadline=None)
    def test_batch_collect_matches_scalar(self, specs, now, later):
        check_collect(specs, now, later)


class TestG1Evacuation:
    @given(cohort_specs, st.floats(0.0, 1000.0),
           st.floats(0.001, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_evacuate_old_matches_tuple_sort(self, specs, now, pause_target):
        check_evacuate_old(specs, now, pause_target)


#: How a stress-server window ends: after an ordinary width, a few ulps
#: or at most 1e-7 s after it starts, or as a degenerate row.
STRESS_KINDS = ("windowed", "ulps", "near", "zero-width", "tiny-width",
                "pinned", "released")


@st.composite
def stress_server_specs(draw):
    """Cohorts in the stress server's pattern. 1-8 worker groups run in
    lockstep and append back-to-back windows: each window starts where
    the last one ended (exactly, bit for bit) and repeats once per
    group. The kernels see long runs of equal ages there, and
    neighbouring ages that differ in their last bits only."""
    groups = draw(st.integers(1, 8))
    d = draw(st.integers(0, len(DISTS) - 1))
    t0 = draw(st.floats(0.0, 500.0))
    # Draw the length first: hypothesis keeps free-sized lists short.
    n = draw(st.integers(1, 125))
    windows = draw(st.lists(
        st.tuples(
            st.sampled_from(STRESS_KINDS),
            st.floats(0.0, 20.0),           # ordinary width
            st.integers(1, 4),              # ulps to the next boundary
            st.floats(1e-13, 1e-7),         # near boundary's width
            st.floats(1.0, 1e9),            # allocated bytes
        ),
        min_size=n, max_size=n,
    ))
    specs = []
    for kind, width, ulps, near, allocated in windows:
        if kind == "ulps":
            t1 = t0
            for _ in range(ulps):
                t1 = float(np.nextafter(t1, np.inf))
            kind, width = "windowed", t1 - t0
        elif kind == "near":
            kind, width = "windowed", near
        width = window_width(kind, t0, width)
        specs.append((kind, t0, width, allocated, d, groups))
        t0 += width
    return specs


class TestStressServerPattern:
    """The stress server's cohorts, where collapsing equal ages pays
    off, and where merging merely close ones would show."""

    @given(stress_server_specs(), st.floats(0.0, 1000.0))
    @settings(max_examples=60, deadline=None)
    def test_batch_live_bytes_matches_scalar(self, specs, now):
        check_live_bytes(specs, now)

    @given(stress_server_specs(), st.floats(0.0, 1000.0),
           st.floats(0.0, 1000.0))
    @settings(max_examples=30, deadline=None)
    def test_batch_collect_matches_scalar(self, specs, now, later):
        check_collect(specs, now, later)

    @given(stress_server_specs(), st.floats(0.0, 1000.0),
           st.floats(0.001, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_evacuate_old_matches_tuple_sort(self, specs, now, pause_target):
        check_evacuate_old(specs, now, pause_target)


class TestRunningTotal:
    @given(st.lists(st.floats(-1e12, 1e12), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_left_to_right_loop(self, values):
        total = 0.0
        for v in values:
            total += v
        assert _running_total(np.array(values, dtype=float)) == total
        assert str(_running_total(np.array(values, dtype=float))) == str(total)
