"""LatencySummary: the exactly-associative per-node → fleet merge path.

The fleet study's headline tables come from merging per-node histograms;
these properties pin that any association order — left fold, right fold,
balanced tree, pairwise — produces a byte-identical aggregate, and that
adopting a :func:`latency_band_stats` histogram loses nothing.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.latency import (LatencySummary, latency_band_stats)
from repro.errors import ConfigError

latency_arrays = st.lists(
    st.lists(st.floats(0.001, 60_000.0, allow_nan=False,
                       allow_infinity=False),
             min_size=0, max_size=40),
    min_size=1, max_size=6,
)


def canon(summary):
    """Canonical bytes of a summary (what the study JSON embeds)."""
    return json.dumps(summary.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def fold_left(parts):
    out = LatencySummary()
    for p in parts:
        out.merge(p)
    return out


def fold_right(parts):
    out = LatencySummary()
    for p in reversed(parts):
        out.merge(p)
    return out


def fold_tree(parts):
    nodes = [LatencySummary().merge(p) for p in parts]
    while len(nodes) > 1:
        nodes = [fold_left(nodes[i:i + 2]) for i in range(0, len(nodes), 2)]
    return nodes[0]


class TestMergeAssociativity:
    @given(groups=latency_arrays)
    @settings(max_examples=60, deadline=None)
    def test_any_association_order_is_byte_identical(self, groups):
        def fresh():
            return [LatencySummary.of_values(np.array(g)) for g in groups]

        left = canon(fold_left(fresh()))
        assert canon(fold_right(fresh())) == left
        assert canon(fold_tree(fresh())) == left

    @given(groups=latency_arrays)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, groups):
        merged = LatencySummary.merged(
            LatencySummary.of_values(np.array(g)) for g in groups)
        flat = LatencySummary.of_values(
            np.concatenate([np.array(g) for g in groups])
            if any(groups) else np.array([]))
        assert canon(merged) == canon(flat)

    @given(groups=latency_arrays)
    @settings(max_examples=40, deadline=None)
    def test_counts_and_extremes_exact(self, groups):
        merged = LatencySummary.merged(
            LatencySummary.of_values(np.array(g)) for g in groups)
        flat = [x for g in groups for x in g]
        assert merged.count == len(flat)
        if flat:
            assert merged.min_ms == pytest.approx(min(flat))
            assert merged.max_ms == pytest.approx(max(flat))


class TestSummaryQueries:
    def test_percentiles_never_underestimate(self):
        values = np.array([1.0, 2.0, 5.0, 100.0])
        s = LatencySummary.of_values(values)
        assert s.percentile(100.0) >= 100.0
        assert s.percentile(50.0) >= 2.0

    def test_avg_at_unit_resolution(self):
        s = LatencySummary.of_values(np.array([1.0, 3.0]))
        assert s.avg_ms == pytest.approx(2.0, abs=1e-3)

    def test_empty_summary(self):
        s = LatencySummary()
        assert s.count == 0
        assert s.min_ms == 0.0 and s.max_ms == 0.0

    def test_rows_shape(self):
        s = LatencySummary.of_values(np.array([1.0, 2.0]))
        labels = [r[0] for r in s.rows()]
        assert labels == ["AVG(ms)", "MAX(ms)", "MIN(ms)",
                          "P50(ms)", "P99(ms)", "P99.9(ms)"]

    def test_dict_round_trip(self):
        s = LatencySummary.of_values(np.array([0.7, 3.14, 2500.0]))
        back = LatencySummary.from_dict(json.loads(canon(s)))
        assert canon(back) == canon(s)


class TestBandStatsAdoption:
    def test_of_band_stats_adopts_histogram(self):
        from repro.seeding import rng_for

        rng = rng_for(1, "test.latency-summary")
        lat = rng.gamma(2.0, 1.5, size=500)
        times = np.sort(rng.uniform(0, 100, size=500))
        stats = latency_band_stats(times, lat, np.zeros((0, 2)))
        s = LatencySummary.of_band_stats(stats)
        assert s.count == 500
        assert s.percentile(99.0) == stats.hist.percentile(99.0)

    def test_of_band_stats_requires_histogram(self):
        from repro.analysis.latency import LatencyBandStats

        bare = LatencyBandStats(avg_ms=1.0, max_ms=2.0, min_ms=0.5)
        with pytest.raises(ConfigError):
            LatencySummary.of_band_stats(bare)
