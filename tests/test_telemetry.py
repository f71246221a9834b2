"""Tests for the telemetry subsystem: histogram, ring, tracer, hooks.

Pins the acceptance properties of the tracing tentpole:

* the HDR-style histogram never under-estimates a percentile, its
  scalar and vectorized paths are bit-identical, and merging is exactly
  associative/commutative (hypothesis-property-tested);
* the event ring drops oldest-first and accounts every drop;
* the disabled path (``NULL_TRACER``) emits nothing and a traced run is
  observationally identical to an untraced one;
* ``GCLog.pause_hist`` agrees with the pause list, including through the
  text GC-log round-trip at the fixed 0.1 µs precision;
* ``repro-lint`` stays clean over the new package with zero new
  baseline entries.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gc.stats import GCLog, PauseRecord
from repro.jvm import JVM, JVMConfig
from repro.jvm.gclog import format_gc_log, parse_gc_log
from repro.telemetry import (LogHistogram, NULL_TRACER, NullTracer, Tracer,
                            hist, percentile_rows)
from repro.telemetry.events import GC_PHASE, SAFEPOINT_END, TraceEvent
from repro.telemetry.ring import EventRing
from repro.units import GB, MB
from repro.workloads.dacapo import get_benchmark

from tests.oracles import record_whole

ROOT = pathlib.Path(__file__).resolve().parent.parent

durations = st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False)

#: Values at the edges of exact bucketing: signed zero, subnormals, and
#: around 2**53 and 2**63 units of 1e-3 and 1e-6, up to 1e300.
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308) + tuple(
    (2.0 ** k + d * 2.0 ** (k - 52)) * unit
    for k in (53, 63) for d in (-1, 0, 1) for unit in (1e-3, 1e-6)) + (9.3e15, 1e300)


class TestHistogramBuckets:
    @given(value=durations)
    @settings(max_examples=200, deadline=None)
    def test_value_falls_in_its_bucket(self, value):
        h = LogHistogram()
        n = h._quantize(value)
        lo, hi = h._decode(h._index(n))
        assert lo <= n < hi

    @given(value=st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_bucket_width_bounded_by_relative_error(self, value):
        h = LogHistogram()
        n = h._quantize(value)
        lo, hi = h._decode(h._index(n))
        if n >= h._sub_buckets:  # above the first (exact) octave
            assert (hi - lo) <= max(1, math.ceil(lo * h.relative_error))

    @given(a=st.integers(0, 10**12), b=st.integers(0, 10**12))
    @settings(max_examples=200, deadline=None)
    def test_index_is_monotone(self, a, b):
        h = LogHistogram()
        if a > b:
            a, b = b, a
        assert h._index(a) <= h._index(b)

    def test_first_octave_is_exact(self):
        h = LogHistogram(unit=1.0)
        for n in (0, 1, 2, h._sub_buckets - 1):
            lo, hi = h._decode(h._index(n))
            assert (lo, hi) == (n, n + 1)

    def test_bucket_bounds_scale_by_unit(self):
        h = LogHistogram(unit=1e-3)
        lo, hi = h.bucket_bounds(0.5)
        assert lo <= 0.5 <= hi


class TestHistogramPercentiles:
    @given(values=st.lists(durations, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_never_under_estimates(self, values):
        h = LogHistogram()
        for v in values:
            h.record(v)
        for q in (50, 90, 99, 99.9):
            exact = float(np.percentile(values, q, method="inverted_cdf"))
            assert h.percentile(q) >= exact - h.unit
            assert h.percentile(q) <= max(values)

    @given(values=st.lists(durations, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_p100_is_exact_max(self, values):
        h = LogHistogram()
        for v in values:
            h.record(v)
        assert h.percentile(100) == max(values)

    def test_known_rank_semantics(self):
        h = LogHistogram()
        for v in (0.1, 0.2, 0.3, 0.4):
            h.record(v)
        assert h.percentile(50) == pytest.approx(0.2, rel=h.relative_error)
        assert h.percentile(75) == pytest.approx(0.3, rel=h.relative_error)
        assert h.percentile(100) == 0.4

    def test_mean_exact_on_unit_multiples(self):
        h = LogHistogram(unit=1e-3)
        for v in (0.010, 0.020, 0.030):
            h.record(v)
        assert h.mean == pytest.approx(0.020)

    def test_empty_histogram(self):
        h = LogHistogram()
        assert h.percentile(99) == 0.0
        assert h.mean == 0.0
        assert h.total_count == 0

    def test_percentile_rows_shape(self):
        h = LogHistogram()
        h.record(0.5)
        rows = dict(percentile_rows(h))
        assert rows["count"] == 1.0
        assert rows["p100"] == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            LogHistogram(unit=0)
        with pytest.raises(ConfigError):
            LogHistogram(significant_digits=7)
        h = LogHistogram()
        with pytest.raises(ConfigError):
            h.record(-1.0)
        with pytest.raises(ConfigError):
            h.record(1.0, count=0)
        with pytest.raises(ConfigError):
            h.percentile(101)


class TestHistogramVectorized:
    @given(values=st.lists(durations, min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_scalar_and_vector_paths_identical(self, values):
        scalar, vector = LogHistogram(), LogHistogram()
        for v in values:
            scalar.record(v)
        vector.record_array(np.array(values))
        assert scalar == vector

    @given(values=st.lists(st.sampled_from(EDGE_VALUES) | durations
                           | st.floats(0.0, 1e300), max_size=40),
           rows=st.integers(1, 4), unit=st.sampled_from([1e-3, 1e-6]),
           digits=st.sampled_from([1, 3, 5]))
    # Past 2**63 units in two rows; and five digits 300 decades apart,
    # too many indices apart for one dense count array.
    @example(values=[9.3e15, 2.0 ** 63 * 1e-3, -0.0, 5e-324], rows=2,
             unit=1e-3, digits=3)
    @example(values=[0.5, 1e300, 0.0, 7.0], rows=2, unit=1e-3, digits=5)
    @settings(max_examples=150, deadline=None)
    def test_vector_path_records_what_record_does(self, values, rows, unit,
                                                  digits):
        """Any shape, and values at and past 2**63 units, which no int64
        holds: they bucket and sum as ``record`` does."""
        values = values[:len(values) - len(values) % rows]
        scalar = LogHistogram(unit=unit, significant_digits=digits)
        vector = LogHistogram(unit=unit, significant_digits=digits)
        for v in values:
            scalar.record(v)
        vector.record_array(np.array(values, dtype=float).reshape(rows, -1))
        assert scalar.to_dict() == vector.to_dict()

    def test_value_past_int64_units(self):
        h = LogHistogram(unit=1e-3)
        h.record_array(np.array([[9.3e15]]))
        assert h.sum_units == int(9.3e15 / 1e-3)
        assert h.percentile(50) == 9.3e15

    @pytest.mark.parametrize("block", [1, 3, 64, hist.BLOCK])
    def test_lengths_around_the_block(self, block, monkeypatch):
        monkeypatch.setattr(hist, "BLOCK", block)
        rng = np.random.default_rng(block)
        for n in sorted({0, 1, block - 1, block, block + 1, 3 * block + 7}):
            values = rng.gamma(2.0, 0.28, size=n) + 0.85
            values[::7] += rng.exponential(300.0, size=len(values[::7]))
            values[::11] = 0.0
            vector, whole = LogHistogram(unit=1e-3), LogHistogram(unit=1e-3)
            vector.record_array(values)
            record_whole(whole, values)
            assert repr(vector.to_dict()) == repr(whole.to_dict()), n

    def test_quotient_overflow_raises_like_record_untouched(self):
        for record in (lambda h: h.record_array([1.0, 1e308]),
                       lambda h: h.record(1e308)):
            h = LogHistogram(unit=1e-3)
            h.record(0.5)
            before = h.to_dict()
            with pytest.raises(OverflowError):
                record(h)
            assert h.to_dict() == before

    def test_vector_rejects_negative(self):
        with pytest.raises(ConfigError):
            LogHistogram().record_array([0.1, -0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_both_paths_reject_non_finite_untouched(self, bad):
        for record in (lambda h: h.record_array([1.0, bad, 2.0]),
                       lambda h: h.record(bad)):
            h = LogHistogram(unit=1e-3)
            h.record(0.5)
            before = h.to_dict()
            with pytest.raises(ConfigError):
                record(h)
            assert h.to_dict() == before


class TestHistogramMerge:
    @given(values=st.lists(durations, min_size=1, max_size=120),
           cut=st.integers(0, 120))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_single_recording(self, values, cut):
        cut = min(cut, len(values))
        whole = LogHistogram()
        for v in values:
            whole.record(v)
        a, b = LogHistogram(), LogHistogram()
        for v in values[:cut]:
            a.record(v)
        for v in values[cut:]:
            b.record(v)
        assert LogHistogram.merged([a, b]) == whole
        assert LogHistogram.merged([b, a]) == whole  # commutative

    @given(values=st.lists(durations, min_size=3, max_size=90))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative(self, values):
        third = len(values) // 3
        parts = [values[:third], values[third:2 * third], values[2 * third:]]
        hists = []
        for part in parts:
            h = LogHistogram()
            for v in part:
                h.record(v)
            hists.append(h)
        a, b, c = hists
        left = LogHistogram.merged([LogHistogram.merged([a, b]), c])
        right = LogHistogram.merged([a, LogHistogram.merged([b, c])])
        assert left == right

    def test_merge_rejects_geometry_mismatch(self):
        with pytest.raises(ConfigError):
            LogHistogram(unit=1e-6).merge(LogHistogram(unit=1e-3))

    @given(values=st.lists(durations, min_size=0, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, values):
        h = LogHistogram()
        for v in values:
            h.record(v)
        assert LogHistogram.from_dict(h.to_dict()) == h


class TestEventRing:
    def _event(self, seq):
        return TraceEvent(float(seq), seq, "x", 0.0, {})

    def test_no_drop_under_capacity(self):
        ring = EventRing(capacity=8)
        for i in range(5):
            ring.append(self._event(i))
        assert len(ring) == 5 and ring.dropped == 0
        assert [e.seq for e in ring] == [0, 1, 2, 3, 4]

    def test_overflow_drops_oldest_and_counts(self):
        ring = EventRing(capacity=4)
        for i in range(10):
            ring.append(self._event(i))
        assert len(ring) == 4
        assert ring.dropped == 6
        assert [e.seq for e in ring] == [6, 7, 8, 9]  # newest window, in order

    def test_clear_keeps_drop_counter(self):
        ring = EventRing(capacity=2)
        for i in range(5):
            ring.append(self._event(i))
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 3

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            EventRing(capacity=0)


class TestTracer:
    def test_null_tracer_is_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        # Every hook is a no-op returning None.
        assert NULL_TRACER.gc_phase(0.0, 0.1, "young", "c", "G1GC", 0, 0, 0) is None
        assert NULL_TRACER.annotate(0.0, "x", extra=1) is None
        assert not hasattr(NULL_TRACER, "__dict__")  # __slots__: no state

    def test_counts_exact_despite_ring_drops(self):
        tr = Tracer(capacity=2)
        for i in range(5):
            tr.gc_phase(float(i), 0.01, "young", "AF", "G1GC", 0.0, 0.0, 0.0)
        assert tr.counts[GC_PHASE] == 5
        assert tr.seq == 5
        assert len(tr.ring) == 2 and tr.ring.dropped == 3
        summary = tr.summary()
        assert summary["events_emitted"] == 5
        assert summary["events_dropped"] == 3
        assert tr.pause_hist.total_count == 5  # hist immune to ring drops

    def test_safepoint_end_backdates_to_begin(self):
        tr = Tracer()
        tr.safepoint_end(t=2.5, dur=0.5, threads=8)
        ev = next(iter(tr.ring))
        assert ev.name == SAFEPOINT_END
        assert ev.t == 2.0 and ev.dur == 0.5

    def test_gc_phase_feeds_pause_hist(self):
        tr = Tracer()
        tr.gc_phase(1.0, 0.25, "young", "AF", "SerialGC", 0.0, 8 * MB, 2 * MB)
        assert tr.pause_hist.percentile(100) == 0.25


class TestInstrumentedRuns:
    CONFIG = dict(gc="ParallelOld", heap=1 * GB, young=256 * MB, seed=0)

    def _run(self, tracer=None):
        jvm = JVM(JVMConfig(**self.CONFIG), tracer=tracer)
        return jvm, jvm.run(get_benchmark("lusearch"), iterations=2)

    def test_untraced_run_uses_null_tracer_everywhere(self):
        jvm, _result = self._run()
        assert jvm.tracer is NULL_TRACER
        assert jvm.world.tracer is NULL_TRACER
        assert jvm.world.engine.tracer is NULL_TRACER
        assert jvm.world.collector.tracer is NULL_TRACER

    def test_tracing_does_not_perturb_the_simulation(self):
        _, plain = self._run()
        tracer = Tracer()
        _, traced = self._run(tracer)
        assert traced.execution_time == plain.execution_time
        assert traced.gc_log.durations().tolist() == plain.gc_log.durations().tolist()
        # and the tracer saw exactly the pauses the log recorded
        assert tracer.pause_hist.total_count == traced.gc_log.count
        assert tracer.counts[GC_PHASE] == traced.gc_log.count
        assert tracer.meta["gc"] == "ParallelOldGC"

    def test_same_seed_traces_are_identical(self):
        a, b = Tracer(), Tracer()
        self._run(a)
        self._run(b)
        assert a.summary() == b.summary()
        assert list(a.ring) == list(b.ring)


class TestGCLogHistogram:
    def _log(self):
        log = GCLog()
        for i, dur in enumerate((0.25, 1.5, 0.10)):
            log.record(PauseRecord(float(i * 4), dur, "young",
                                   "Allocation Failure", "ParallelOldGC"))
        return log

    def test_hist_tracks_recorded_pauses(self):
        log = self._log()
        assert log.pause_hist.total_count == log.count
        assert log.pause_hist.percentile(100) == log.max_pause

    def test_hist_rebuilt_from_existing_pause_list(self):
        src = self._log()
        clone = GCLog(pauses=list(src.pauses))  # e.g. the store decode path
        assert clone.pause_hist == src.pause_hist

    def test_sublogs_keep_hist_consistent(self):
        log = self._log()
        sub = log.between(3.0, 100.0)
        assert sub.pause_hist.total_count == sub.count

    def test_text_round_trip_preserves_hist_within_precision(self):
        # The fixed .7f duration format (0.1 µs) must round-trip pauses
        # closely enough that the rebuilt histogram's percentiles match
        # the original's to within one histogram bucket.
        log = self._log()
        parsed = parse_gc_log(format_gc_log(log, 16 * GB))
        assert parsed.pause_hist.total_count == log.pause_hist.total_count
        for q in (50, 90, 100):
            assert parsed.pause_hist.percentile(q) == pytest.approx(
                log.pause_hist.percentile(q),
                rel=log.pause_hist.relative_error, abs=2e-7)


class TestLintStaysClean:
    def test_telemetry_package_and_perf_scripts_lint_clean(self):
        from repro.lint.core import run_lint

        result = run_lint([
            str(ROOT / "src" / "repro" / "telemetry"),
            str(ROOT / "benchmarks" / "run_perf.py"),
            str(ROOT / "benchmarks" / "check_regression.py"),
        ])
        assert result.files_checked >= 9
        # Zero findings and zero new baseline entries.
        assert [f.format() for f in result.findings] == []
        assert result.baselined == []


class TestMetricsRegistry:
    """The counters/gauges/histograms behind repro-serve's status."""

    def test_create_on_first_use_and_identity(self):
        from repro.telemetry import MetricsRegistry

        m = MetricsRegistry()
        assert m.counter("a").inc() == 1
        assert m.counter("a").inc(2) == 3
        assert m.counter("a") is m.counter("a")
        m.gauge("g").set(7.5)
        assert m.gauge("g").value == 7.5
        assert m.histogram("h") is m.histogram("h")

    def test_snapshot_is_deterministic_and_json_safe(self):
        import json

        from repro.telemetry import MetricsRegistry

        m = MetricsRegistry()
        m.counter("b").inc()
        m.counter("a").inc(4)
        m.gauge("depth").set(3)
        for v in (0.001, 0.002, 0.004):
            m.histogram("lat").record(v)
        snap = m.to_dict()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"] == {"a": 4, "b": 1}
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 3
        assert hist["max"] == pytest.approx(0.004)
        assert hist["p50"] >= 0.001
        # Stable under re-serialization (the status endpoint contract).
        assert json.dumps(snap, sort_keys=True) == json.dumps(m.to_dict(),
                                                              sort_keys=True)

    def test_empty_histogram_summary(self):
        from repro.telemetry import MetricsRegistry

        m = MetricsRegistry()
        m.histogram("empty")
        snap = m.to_dict()["histograms"]["empty"]
        assert snap == {"count": 0, "mean": 0.0, "max": 0.0}
