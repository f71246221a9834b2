"""The fast kernels agree exactly with the code they replaced.

Each fast path keeps its slow predecessor in ``tests/oracles.py``. The
properties here drive both with the same random inputs and require
equal results, float for float (``==``, not approx): the simulator's
golden outputs depend on every rounding.

* ``batch_live_bytes`` and ``collect_space`` against scalar cohorts, for
  pinned, released, zero-allocated and zero-width cohorts under mixed
  distributions in one space;
* minor and full collections, which evaluate every row they visit in
  one pass, against the per-space sequence they replace, with rows
  split across eden, the survivor space and the old generation: empty
  spaces, and bit-equal windows, pinned, released and zero-allocated
  rows on both sides of each boundary;
* ``Weibull`` and ``Mixture`` survival against the expressions they
  replace, on ages from 0 through subnormals to 1e12;
* G1's ``_evacuate_old`` against the tuple-sort selection, also on old
  generations crowded past the batch it sorts first: ties at the
  batch's cut, and budgets that outlast it;
* all three again on cohorts laid out as the stress server appends them,
  where the kernel evaluates each distinct window once and shares the
  ends of chained windows;
* the running total the kernels sum freed bytes with, against a loop;
* the YCSB client's pause overlap, latency synthesis, sub-traces and
  band statistics against the mask-based code they replace, byte for
  byte (dtype included), over generated pause logs and operation mixes;
* the client's synthesis and the histogram's bucketing, which run block
  by block, against the whole-array code, with the block size set to 1,
  3, 64 and its default so that block boundaries fall inside small
  traces, and within a few blocks of memory on a 1M-op trace.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.latency import latency_band_stats
from repro.cassandra.config import default_config
from repro.cassandra.server import CassandraServer
from repro.errors import SimulationError
from repro.gc import create_collector
from repro.gc.g1 import MIXED_BATCH
from repro.heap.cohort import COLUMNS, Cohort, CohortColumns
from repro.heap.heap import (CollectionVolumes, GenerationalHeap, HeapConfig,
                             _running_total, batch_live_bytes, collect_space)
from repro.heap.lifetime import (Exponential, Fixed, Immortal, LogNormal,
                                 Mixture, Weibull)
from repro.jvm import JVM, JVMConfig
from repro.machine.costs import CostModel
from repro.telemetry import hist
from repro.telemetry.hist import LogHistogram
from repro.units import GB, MB
from repro.ycsb import WORKLOAD_A_LIKE, CoreWorkload, YCSBClient
from repro.ycsb.client import (KIND_INSERT, KIND_READ, KIND_UPDATE,
                               add_pause_overlap)

from tests.oracles import (ScalarCohort, add_pause_overlap_per_op,
                           collect_all, collect_young_per_space,
                           evacuate_old_by_tuples, latency_band_stats_by_mean,
                           mixture_by_zeros, of_kind_by_mask, record_whole,
                           synthesize_by_masks, synthesize_whole,
                           weibull_integrated_survival)

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


def check_live_bytes(specs, now):
    cols, scalar = make_pair(specs)
    assert batch_live_bytes(cols, now).tolist() == \
        [c.live_bytes(now) for c in scalar]


def check_collect(specs, now, later):
    cols, scalar = make_pair(specs)
    for t in (now, now + later):
        freed, scalar = collect_all(scalar, t)
        assert collect_space(cols, batch_live_bytes(cols, t)) == [freed]
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


#: Where a heap's rows split into eden, the survivor space and the old
#: generation: two shares of the rows, in either order.
space_cuts = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))

#: Old capacities: roomy, and too small for the young rows, so that
#: minor collections fail promotion and full ones strand rows.
old_capacities = st.sampled_from([1e13, 1e10])


def make_heap(specs, cuts, old_capacity):
    """A heap holding *specs*' rows in order: eden takes the first share
    (*cuts*, as fractions of the rows), the survivor space the rows up to
    the second, the old generation the rest. Each space's use is its
    rows' bytes, and the rows are numbered in order (``cid``)."""
    heap = GenerationalHeap(HeapConfig(heap_bytes=1e13 + old_capacity,
                                       young_bytes=1e13))
    eden = heap.eden_cohorts
    make_pair(specs, eden)
    n = eden.n
    eden.cid[:] = np.arange(1, n + 1)   # the same row ids in every heap
    a, b = sorted(int(cut * n) for cut in cuts)
    heap.survivor_cohorts.extend(eden, np.arange(a, b))
    heap.old_cohorts.extend(eden, np.arange(b, n))
    eden.keep(np.arange(n) < a)
    for space, rows in ((heap.eden, eden), (heap.survivor, heap.survivor_cohorts),
                        (heap.old, heap.old_cohorts)):
        space.used = sum(rows.resident.tolist())
    return heap


def check_collection(specs, cuts, now, full, old_capacity):
    """A minor or full collection, and a second one later, leave the heap
    the per-space sequence leaves, column for column and row for row,
    and report each space's freed bytes with its bits."""
    fast = make_heap(specs, cuts, old_capacity)
    slow = make_heap(specs, cuts, old_capacity)
    slow._collect_young = lambda t, old=False: collect_young_per_space(slow, t, old)
    for t in (now, now + 1.0):
        vols = [heap.full_collection(t) if full
                else heap.minor_collection(t, tenuring_threshold=1)
                for heap in (fast, slow)]
        assert repr(vols[0]) == repr(vols[1])
        for space in ("eden_cohorts", "survivor_cohorts", "old_cohorts"):
            a, b = getattr(fast, space), getattr(slow, space)
            assert a.n == b.n, space
            for name, _dtype in COLUMNS:
                assert (getattr(a, name).tobytes()
                        == getattr(b, name).tobytes()), (space, name)
        for space in ("eden", "survivor", "old"):
            a, b = getattr(fast, space), getattr(slow, space)
            assert repr((a.used, a.capacity)) == repr((b.used, b.capacity))


#: Spaces split at their boundaries: (specs, cuts). Copies of one window
#: differ in size only, so they put bit-equal windows on both sides of a
#: boundary; pinned, released and zero-allocated rows sit at the
#: boundaries; the last heap holds the mixture and the Weibull in eden
#: and in the old generation.
BOUNDARY_HEAPS = (
    ([], (0.5, 0.5)),                                         # all empty
    ([("windowed", 1.0, 2.0, 1e6, 4, 3)], (0.0, 0.5)),         # no eden
    ([("windowed", 1.0, 2.0, 1e6, 4, 3)], (0.5, 0.5)),         # no survivor
    ([("windowed", 1.0, 2.0, 1e6, 4, 3)], (0.5, 1.0)),         # no old
    ([("windowed", 1.0, 2.0, 1e6, 4, 3)], (0.34, 0.67)),       # one each
    ([("windowed", 1.0, 2.0, 1e6, 1, 2), ("pinned", 1.0, 0.0, 1e6, 0, 1),
      ("released", 1.0, 0.0, 1e6, 0, 1), ("zero-allocated", 3.0, 2.0, 1e6, 4, 1),
      ("windowed", 1.0, 2.0, 1e6, 1, 2)], (0.3, 0.5)),
    ([("windowed", 0.0, 5.0, 4e6, 4, 2), ("windowed", 0.0, 5.0, 4e6, 1, 2),
      ("released", 0.0, 0.0, 1e6, 0, 1), ("pinned", 0.0, 0.0, 1e6, 0, 1),
      ("zero-allocated", 0.0, 5.0, 1e6, 1, 1), ("windowed", 0.0, 5.0, 4e6, 4, 2),
      ("windowed", 0.0, 5.0, 4e6, 1, 2)], (0.5, 0.75)),
)


def boundary_examples(test):
    """Run *test* on every boundary heap, at an instant inside their
    windows (rows with ``t1 > now``), with both old capacities."""
    for specs_cuts in BOUNDARY_HEAPS:
        for old_capacity in (1e13, 1e10):
            test = example(specs_cuts=specs_cuts, now=2.0,
                           old_capacity=old_capacity)(test)
    return test


#: An empty space, one row whose window ends after now, and pinned rows
#: only.
EDGE_SPACES = ([], [("windowed", 1.0, 2.0, 1e6, 4, 1)],
               [("pinned", 1.0, 0.0, 1e6, 0, 2), ("released", 1.0, 0.0, 1e6, 0, 1)])


class TestLiveBytesKernel:
    @given(cohort_specs, st.floats(0.0, 1000.0))
    @example(EDGE_SPACES[0], 2.0)
    @example(EDGE_SPACES[1], 2.0)
    @example(EDGE_SPACES[2], 2.0)
    @settings(max_examples=150, deadline=None)
    def test_batch_live_bytes_matches_scalar(self, specs, now):
        check_live_bytes(specs, now)

    @given(cohort_specs, st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    @settings(max_examples=150, deadline=None)
    def test_batch_collect_matches_scalar(self, specs, now, later):
        check_collect(specs, now, later)

    @pytest.mark.parametrize("full", [False, True], ids=["minor", "full"])
    @given(specs_cuts=st.tuples(cohort_specs, space_cuts),
           now=st.floats(0.0, 1000.0), old_capacity=old_capacities)
    @boundary_examples
    @settings(max_examples=40, deadline=None)
    def test_collection_matches_per_space(self, full, specs_cuts, now,
                                          old_capacity):
        check_collection(*specs_cuts, now, full, old_capacity)


class TestG1Evacuation:
    @given(cohort_specs, st.floats(0.0, 1000.0),
           st.floats(0.001, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_evacuate_old_matches_tuple_sort(self, specs, now, pause_target):
        check_evacuate_old(specs, now, pause_target)


#: How a stress-server window ends: after an ordinary width, a few ulps
#: or at most 1e-7 s after it starts, or as a degenerate row. "gap"
#: starts an ordinary window a few ulps after the last one ended;
#: "regroup" repeats the last window under another distribution, and
#: "resume" repeats it after a pinned or released row.
STRESS_KINDS = ("windowed", "ulps", "near", "zero-width", "tiny-width",
                "pinned", "released", "gap", "regroup", "resume")


def ulps_after(t, ulps):
    """*t* moved *ulps* units in the last place up."""
    for _ in range(ulps):
        t = float(np.nextafter(t, np.inf))
    return t


@st.composite
def stress_server_specs(draw):
    """Cohorts in the stress server's pattern. 1-8 worker groups run in
    lockstep and append back-to-back windows: each window starts where
    the last one ended (exactly, bit for bit) and repeats once per
    group. The kernels see long runs of equal windows there, and
    neighbouring ages that differ in their last bits only. Equal windows
    also meet across a change of distribution and around a pinned row,
    where a run of rows must end."""
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
            st.integers(0, len(DISTS) - 1),  # "regroup"'s distribution
        ),
        min_size=n, max_size=n,
    ))
    specs = []
    for kind, width, ulps, near, allocated, other in windows:
        if kind in ("regroup", "resume") and specs:
            last = specs[-1]
            if kind == "regroup":
                specs.append(last[:4] + (other, groups))
            else:
                pin = "pinned" if ulps % 2 else "released"
                specs += [(pin, last[1], 0.0, allocated, d, 1), last]
            continue
        if kind == "ulps":
            kind, width = "windowed", ulps_after(t0, ulps) - t0
        elif kind == "near":
            kind, width = "windowed", near
        elif kind == "gap":
            kind, t0 = "windowed", ulps_after(t0, ulps)
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

    @pytest.mark.parametrize("full", [False, True], ids=["minor", "full"])
    @given(specs=stress_server_specs(), cuts=space_cuts,
           now=st.floats(0.0, 1000.0), old_capacity=old_capacities)
    @settings(max_examples=12, deadline=None)
    def test_collection_matches_per_space(self, full, specs, cuts, now,
                                          old_capacity):
        check_collection(specs, cuts, now, full, old_capacity)


@st.composite
def crowded_old_generations(draw):
    """Old generations with more rows holding garbage than a G1 mixed
    pause sorts at first: dead rows (all garbage, no live bytes, so the
    budget never runs out on them), then runs of identical rows. Rows of
    a run score equal, so a run can straddle the batch's cut."""
    dead = draw(st.integers(0, 4 * MIXED_BATCH + 8))
    specs = [("released", 0.0, 0.0, 1e6, 0, 1)] * dead
    for rows, t0, width, allocated, d in draw(st.lists(st.tuples(
            st.integers(1, 2 * MIXED_BATCH),
            st.floats(0.0, 100.0),
            st.floats(0.0, 20.0),
            st.floats(1.0, 1e7),
            st.integers(0, len(DISTS) - 1)), min_size=1, max_size=3)):
        specs += [("windowed", t0, width, allocated, d, 1)] * rows
    return specs


#: A pause target whose budget exceeds any crowded old generation's
#: live bytes.
UNBOUNDED = 1e6


class TestG1SelectionCut:
    """G1's garbage-first pick where it sorts a batch of the best rows:
    ties at the batch's cut, and a budget that outlasts the batch."""

    @given(crowded_old_generations(), st.floats(0.0, 200.0),
           st.floats(0.001, 2.0) | st.just(UNBOUNDED))
    # A run of equal scores across the cut, which the budget ends inside.
    @example([("released", 0.0, 0.0, 1e6, 0, 1)] * (MIXED_BATCH - 8)
             + [("windowed", 1.0, 5.0, 4e6, 0, 1)] * 64, 6.0, 0.02)
    # Dead rows that fill the first batch and its first widening, so it
    # widens twice.
    @example([("released", 0.0, 0.0, 1e6, 0, 1)] * (4 * MIXED_BATCH + 8)
             + [("windowed", 1.0, 5.0, 4e5, 0, 1)] * 16, 6.0, 0.2)
    # Every row fits; their scores differ.
    @example([("windowed", float(t), 5.0, 4e5, 2, 1) for t in range(300)],
             400.0, UNBOUNDED)
    # No row holds garbage.
    @example([("windowed", 1.0, 5.0, 4e5, 5, 1)] * 200
             + [("pinned", 1.0, 0.0, 4e5, 0, 1)] * 8, 6.0, 0.2)
    @settings(max_examples=25, deadline=None)
    def test_matches_tuple_sort(self, specs, now, pause_target):
        check_evacuate_old(specs, now, pause_target)


#: Ages from (signed) zero through the subnormals to 1e12.
EDGE_AGES = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-12, 0.5,
             1.0, 3.7, 1e6, 1e12)
age_arrays = st.lists(st.sampled_from(EDGE_AGES) | st.floats(0.0, 1e12),
                      min_size=1, max_size=30).map(np.array)


class TestSurvivalConstants:
    """Distributions that keep constants between evaluations give the
    bits of the expressions that worked them out on every call."""

    @given(st.floats(0.05, 5.0), st.floats(1e-3, 1e4), age_arrays)
    @example(0.45, 2.0, np.array(EDGE_AGES))
    @example(1.0, 1.0, np.array(EDGE_AGES))
    @settings(max_examples=60, deadline=None)
    def test_weibull_matches_per_call_constant(self, shape, scale, age):
        dist = Weibull(shape, scale)
        assert (dist._integrated_survival(age).tobytes()
                == weibull_integrated_survival(dist, age).tobytes())

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, len(DISTS) - 1)),
                    min_size=1, max_size=4).filter(
                        lambda parts: sum(w for w, _ in parts) > 0),
           age_arrays)
    @example([(0.9, 0), (0.08, 1), (0.02, 5)], np.array(EDGE_AGES))
    @settings(max_examples=60, deadline=None)
    def test_mixture_matches_zeroed_sum(self, parts, age):
        dist = Mixture([(w, DISTS[d]) for w, d in parts])
        for method in ("_survival", "_integrated_survival"):
            assert (getattr(dist, method)(age).tobytes()
                    == mixture_by_zeros(dist, age, method).tobytes()), method


class TestRunningTotal:
    @given(st.lists(st.floats(-1e12, 1e12), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_left_to_right_loop(self, values):
        total = 0.0
        for v in values:
            total += v
        assert _running_total(np.array(values, dtype=float)) == total
        assert str(_running_total(np.array(values, dtype=float))) == str(total)


# ----------------------------------------------------------------------
# The YCSB client
# ----------------------------------------------------------------------

START_KINDS = ("at-op", "between", "before", "after", "equal")
END_KINDS = ("zero-length", "at-op", "next-start", "later")


@st.composite
def pause_logs(draw, times):
    """``[start, end)`` rows with non-decreasing starts around the sorted
    op *times*: before the first op and after the last, starting or
    ending exactly on an op, zero-length, back to back (an end equal to
    the next start) and with equal starts. Rows may also overlap."""
    first, last = float(times[0]), float(times[-1])
    starts = []
    for kind in draw(st.lists(st.sampled_from(START_KINDS), max_size=12)):
        if kind == "at-op":
            starts.append(float(times[draw(st.integers(0, len(times) - 1))]))
        elif kind == "between":
            starts.append(draw(st.floats(first, last)))
        elif kind == "before":
            starts.append(first - draw(st.floats(0.0, 5.0)))
        elif kind == "after":
            starts.append(last + draw(st.floats(0.0, 5.0)))
        elif starts:
            starts.append(starts[-1])
    starts.sort()
    rows = []
    for j, start in enumerate(starts):
        kind = draw(st.sampled_from(END_KINDS))
        later = times[np.searchsorted(times, start):]
        if kind == "zero-length":
            end = start
        elif kind == "at-op" and len(later):
            end = float(later[draw(st.integers(0, len(later) - 1))])
        elif kind == "next-start" and j + 1 < len(starts):
            end = starts[j + 1]
        else:
            end = start + draw(st.floats(0.0, 10.0))
        rows.append((start, end))
    return np.array(rows, dtype=float).reshape(-1, 2)


def assert_same_trace(fast, slow):
    for name in ("op_times", "latencies_ms", "kinds", "pause_intervals"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestPauseOverlap:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_op_search(self, data):
        # Equal op times too: a grid value may be drawn twice.
        op_time = st.floats(0.0, 100.0) | st.sampled_from([10.0, 20.0, 30.0])
        times = np.sort(np.array(data.draw(
            st.lists(op_time, min_size=1, max_size=60)), dtype=float))
        intervals = data.draw(pause_logs(times))
        lat = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=len(times),
                                          max_size=len(times))), dtype=float)
        fast, slow = lat.copy(), lat.copy()
        add_pause_overlap(fast, times, intervals)
        add_pause_overlap_per_op(slow, times, intervals)
        assert fast.tobytes() == slow.tobytes()

    def test_edge_log(self):
        """Each edge once, with the waits worked out by hand."""
        times = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        intervals = np.array([
            [0.0, 0.5],   # before the first op
            [1.0, 1.0],   # zero-length, on an op
            [2.0, 3.0],   # starts on two ops, ends on one
            [3.0, 4.0],   # back to back with the last
            [4.0, 9.0],   # an equal start: the later row owns the op
            [4.0, 4.5],
            [8.0, 9.0],   # after the last op
        ])
        fast, slow = np.zeros(7), np.zeros(7)
        add_pause_overlap(fast, times, intervals)
        add_pause_overlap_per_op(slow, times, intervals)
        assert fast.tobytes() == slow.tobytes()
        assert fast.tolist() == [0.0, 1000.0, 1000.0, 1000.0, 500.0, 0.0, 0.0]

    def test_rejects_decreasing_starts(self):
        with pytest.raises(SimulationError):
            add_pause_overlap(np.zeros(2), np.array([1.0, 2.0]),
                              np.array([[2.0, 3.0], [1.0, 1.5]]))


#: (read, update) proportions: reads 0 and 1, and read + update below 1
#: (inserts follow) and exactly 1.
MIXES = st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5),
                         (0.25, 0.75), (0.0, 0.3), (0.3, 0.2)]) | st.floats(
    0.0, 1.0).flatmap(lambda r: st.tuples(st.just(r), st.floats(0.0, 1.0 - r)))


def served(t0, t1, intervals, flushes, appended):
    """A finished server run and its server, as ``synthesize`` reads them."""
    result = SimpleNamespace(
        extras={"serve_start": t0}, execution_time=t1,
        gc_log=SimpleNamespace(intervals=lambda: intervals))
    server = SimpleNamespace(
        sstables=SimpleNamespace(
            tables=[SimpleNamespace(created_at=t) for t in flushes]),
        commitlog=SimpleNamespace(appended_bytes=appended),
        stats=SimpleNamespace(replayed_bytes=0.0))
    return result, server


class TestClientSynthesis:
    @given(mix=MIXES, seed=st.integers(0, 2 ** 32 - 1),
           gc=st.sampled_from(["CMS", "G1"]), t0=st.floats(0.0, 100.0),
           width=st.floats(0.5, 60.0), rate=st.floats(0.5, 50.0),
           flushes=st.lists(st.floats(0.0, 1.0), max_size=4),
           appended=st.floats(0.0, 1e12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_mask_oracle(self, mix, seed, gc, t0, width, rate,
                                 flushes, appended, data):
        read, update = mix
        client = YCSBClient(CoreWorkload(
            "mix", read_proportion=read, update_proportion=update,
            insert_proportion=1.0 - read - update, record_count=1000), seed=seed)
        config = JVMConfig(gc=gc)
        t1 = t0 + width
        flush_times = [t0 + f * width for f in flushes]
        # Op times do not depend on the pauses: anchor the log on them.
        bare = client.synthesize(
            config, *served(t0, t1, np.zeros((0, 2)), flush_times, appended),
            samples_per_second=rate)
        intervals = data.draw(pause_logs(bare.op_times))
        result, server = served(t0, t1, intervals, flush_times, appended)
        fast = client.synthesize(config, result, server, samples_per_second=rate)
        slow = synthesize_by_masks(client, config, result, server,
                                   samples_per_second=rate)
        assert_same_trace(fast, slow)
        for kind in (KIND_READ, KIND_UPDATE, KIND_INSERT):
            part, oracle = fast.of_kind(kind), of_kind_by_mask(slow, kind)
            assert_same_trace(part, oracle)
            if len(part.latencies_ms):
                a = latency_band_stats(part.op_times, part.latencies_ms,
                                       part.pause_intervals)
                b = latency_band_stats_by_mean(oracle.op_times, oracle.latencies_ms,
                                               oracle.pause_intervals)
                assert repr(a.hist.to_dict()) == repr(b.hist.to_dict())
                assert repr(a.rows()) == repr(b.rows())


#: Block sizes for the blocked passes: block boundaries then fall inside
#: small traces, and the default shows the module's own.
BLOCKS = (1, 3, 64, hist.BLOCK)


def check_blocked_trace(client, config, result, server, rate):
    """The blocked synthesis, its sub-traces, band rows and histograms
    against the whole-array code, byte for byte."""
    fast = client.synthesize(config, result, server, samples_per_second=rate)
    slow = synthesize_whole(client, config, result, server,
                            samples_per_second=rate)
    assert_same_trace(fast, slow)
    for kind in (KIND_READ, KIND_UPDATE, KIND_INSERT):
        part, oracle = fast.of_kind(kind), slow.of_kind(kind)
        assert_same_trace(part, oracle)
        if len(part.latencies_ms):
            a = latency_band_stats(part.op_times, part.latencies_ms,
                                   part.pause_intervals)
            b = latency_band_stats_by_mean(oracle.op_times, oracle.latencies_ms,
                                           oracle.pause_intervals)
            whole = LogHistogram(unit=1e-3)
            record_whole(whole, oracle.latencies_ms)
            assert repr(a.hist.to_dict()) == repr(whole.to_dict())
            assert repr(a.rows()) == repr(b.rows())
    return fast


class TestBlockedClient:
    """The client's synthesis and the histogram's bucketing run block by
    block; what they return does not depend on the block size."""

    @given(mix=MIXES, block=st.sampled_from(BLOCKS),
           seed=st.integers(0, 2 ** 32 - 1), gc=st.sampled_from(["CMS", "G1"]),
           t0=st.floats(0.0, 100.0), width=st.floats(0.5, 20.0),
           rate=st.floats(0.5, 20.0),
           flushes=st.lists(st.floats(0.0, 1.0), max_size=4),
           appended=st.floats(0.0, 1e12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_whole_array_oracle(self, mix, block, seed, gc, t0, width,
                                        rate, flushes, appended, data):
        read, update = mix
        client = YCSBClient(CoreWorkload(
            "mix", read_proportion=read, update_proportion=update,
            insert_proportion=1.0 - read - update, record_count=1000), seed=seed)
        config = JVMConfig(gc=gc)
        t1 = t0 + width
        flush_times = [t0 + f * width for f in flushes]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hist, "BLOCK", block)
            bare = client.synthesize(
                config, *served(t0, t1, np.zeros((0, 2)), flush_times, appended),
                samples_per_second=rate)
            intervals = data.draw(pause_logs(bare.op_times))
            check_blocked_trace(client, config,
                                *served(t0, t1, intervals, flush_times, appended),
                                rate)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_lengths_around_the_block(self, block):
        """1, B-1, B, B+1 and 3B+7 operations, for a mix with inserts and
        for read shares 0 and 1, with pauses across block boundaries."""
        mixes = ((0.3, 0.5), (0.0, 1.0), (1.0, 0.0))
        lengths = sorted({max(1, n) for n in
                          (1, block - 1, block, block + 1, 3 * block + 7)})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hist, "BLOCK", block)
            for n, (read, update) in itertools.product(lengths, mixes):
                client = YCSBClient(CoreWorkload(
                    "mix", read_proportion=read, update_proportion=update,
                    insert_proportion=1.0 - read - update), seed=n)
                # One op a second: the pauses below cover whole seconds.
                starts = np.arange(0.5, n, max(1.0, block / 2.0))
                intervals = np.column_stack([starts, starts + 1.5])
                trace = check_blocked_trace(
                    client, JVMConfig(gc="CMS"),
                    *served(0.0, float(n), intervals, [n / 3.0], 5e11), 1.0)
                assert len(trace.kinds) == n

    def test_million_op_trace_stays_in_block_buffers(self):
        """A 600 s CMS server run sampled at 1,700 ops/s: 1.02M ops, whose
        synthesis and bucketing need a few blocks beyond what they return
        (whole arrays took 44 and 51 MiB)."""
        w = WORKLOAD_A_LIKE
        config = JVMConfig(gc="CMS", heap=64 * GB, young=12 * GB)
        server = CassandraServer(default_config(64 * GB))
        result = JVM(config).run(
            server, duration=600.0, ops_per_second=w.operations_per_second,
            read_fraction=w.read_proportion, update_fraction=w.update_proportion,
            n_client_threads=w.client_threads)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = YCSBClient(w, seed=0).synthesize(config, result, server,
                                                     samples_per_second=1700.0)
            returned = sum(a.nbytes for a in (trace.op_times, trace.latencies_ms,
                                              trace.kinds, trace.pause_intervals))
            synth_peak = tracemalloc.get_traced_memory()[1] - before - returned
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            LogHistogram(unit=1e-3).record_array(trace.latencies_ms)
            record_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(trace.kinds) == 1_020_000
        assert synth_peak < 4 * MB and record_peak < 4 * MB, (synth_peak, record_peak)
