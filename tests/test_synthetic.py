"""Tests for the synthetic phase-structured workload builder."""

import math

import pytest

from repro import JVM
from repro.errors import ConfigError
from repro.heap.lifetime import Exponential, Immortal
from repro.units import GB, MB
from repro.workloads.synthetic import (
    AllocationPhase,
    PhaseStats,
    SyntheticWorkload,
)


def run(phases, cfg_factory, threads=4, **cfg):
    jvm = JVM(cfg_factory(**cfg))
    result = jvm.run(SyntheticWorkload(phases, threads=threads))
    return jvm, result


class TestValidation:
    def test_empty_phase_list_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticWorkload([])

    def test_bad_duration_rejected(self):
        # Unrefused, NaN runs a zero-length phase and inf crashes the run.
        for duration in (0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                AllocationPhase("x", duration=duration, alloc_rate=1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            AllocationPhase("x", duration=1.0, alloc_rate=-1.0)
        # Unrefused, a NaN rate allocates nothing and reports success.
        for rate in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                AllocationPhase("x", duration=1.0, alloc_rate=rate)
            with pytest.raises(ConfigError):
                AllocationPhase("x", duration=1.0, alloc_rate=1.0,
                                dirty_rate=rate)

    def test_bad_object_size_rejected(self):
        # Unrefused, 0 divides by zero inside JVM.run.
        for size in (0, -4.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                AllocationPhase("x", duration=1.0, alloc_rate=1.0,
                                mean_object_size=size)

    def test_non_finite_pinned_growth_rejected(self):
        for growth in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                AllocationPhase("x", duration=1.0, alloc_rate=1.0,
                                pinned_growth=growth)
        AllocationPhase("x", duration=1.0, alloc_rate=1.0,
                        pinned_growth=-64 * MB)   # a release

    def test_bad_thread_count_rejected(self):
        # Unrefused, -3 allocates nothing; None, not 0, means one per core.
        # 2.5 would construct and then die in range() inside JVM.run.
        phases = [AllocationPhase("x", duration=1.0, alloc_rate=1.0)]
        for threads in (-3, 0, math.nan, 2.5):
            with pytest.raises(ConfigError):
                SyntheticWorkload(phases, threads=threads)
        assert SyntheticWorkload(phases).threads is None
        assert SyntheticWorkload(phases, threads=3).threads == 3

    def test_fractional_or_nan_quanta_rejected(self):
        # Unrefused, both construct and then die in range() inside JVM.run.
        for quanta in (2.5, math.nan, 0, -1):
            with pytest.raises(ConfigError, match="quanta"):
                AllocationPhase("x", duration=1.0, alloc_rate=1.0,
                                quanta=quanta)
        assert AllocationPhase("x", duration=1.0, alloc_rate=1.0,
                               quanta=3).quanta == 3

    def test_default_lifetime_short(self):
        phase = AllocationPhase("x", duration=1.0, alloc_rate=1.0)
        assert phase.dist().survival(10.0) < 1e-3


class TestExecution:
    def test_phases_run_in_order(self, small_jvm_config):
        phases = [
            AllocationPhase("a", duration=1.0, alloc_rate=10 * MB),
            AllocationPhase("b", duration=2.0, alloc_rate=10 * MB),
        ]
        _jvm, result = run(phases, small_jvm_config)
        stats = result.extras["phase_stats"]
        assert [s.name for s in stats] == ["a", "b"]
        assert stats[1].wall_seconds >= 2.0

    def test_allocation_volume_accounted(self, small_jvm_config):
        phases = [AllocationPhase("a", duration=2.0, alloc_rate=20 * MB)]
        _jvm, result = run(phases, small_jvm_config, threads=4)
        stats = result.extras["phase_stats"][0]
        # 4 threads x 2 s x 20 MB/s
        assert stats.allocated_bytes == pytest.approx(160 * MB, rel=0.01)

    def test_gc_activity_attributed_to_hot_phase(self, small_jvm_config):
        phases = [
            AllocationPhase("cold", duration=1.0, alloc_rate=1 * MB),
            AllocationPhase("hot", duration=1.0, alloc_rate=100 * MB),
        ]
        _jvm, result = run(phases, small_jvm_config, threads=4)
        cold, hot = result.extras["phase_stats"]
        assert hot.gc_pauses > cold.gc_pauses

    def test_pinned_growth_lands_in_heap(self, small_jvm_config):
        phases = [
            AllocationPhase("build", duration=0.5, alloc_rate=1 * MB,
                            lifetime=Immortal(), pinned_growth=64 * MB),
            AllocationPhase("serve", duration=0.5, alloc_rate=1 * MB),
        ]
        jvm, result = run(phases, small_jvm_config)
        assert result.extras["live_set_bytes"] == pytest.approx(64 * MB)
        assert jvm.heap.live_estimate(jvm.now) >= 64 * MB

    def test_pinned_release(self, small_jvm_config):
        phases = [
            AllocationPhase("build", duration=0.5, alloc_rate=1 * MB,
                            pinned_growth=64 * MB),
            AllocationPhase("teardown", duration=0.5, alloc_rate=1 * MB,
                            pinned_growth=-64 * MB),
        ]
        _jvm, result = run(phases, small_jvm_config)
        assert result.extras["live_set_bytes"] == pytest.approx(0.0)

    def test_dirty_rate_feeds_card_table(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        phases = [
            # Big enough to be promoted into the old generation (the card
            # table only covers old-gen data).
            AllocationPhase("build", duration=0.2, alloc_rate=1 * MB,
                            pinned_growth=160 * MB),
            AllocationPhase("mutate", duration=1.0, alloc_rate=1 * MB,
                            dirty_rate=16 * MB),
        ]
        result = jvm.run(SyntheticWorkload(phases, threads=2))
        assert not result.crashed
        assert jvm.heap.dirty_card_bytes > 0

    def test_build_then_serve_pause_profile(self, small_jvm_config):
        """The phase structure shows up in GC behaviour: a build phase
        (live data) makes collections during serve more expensive than a
        serve-only run."""
        build_serve = [
            AllocationPhase("build", duration=1.0, alloc_rate=30 * MB,
                            lifetime=Immortal(), pinned_growth=128 * MB),
            AllocationPhase("serve", duration=2.0, alloc_rate=60 * MB),
        ]
        serve_only = [
            AllocationPhase("serve", duration=2.0, alloc_rate=60 * MB),
        ]
        _j1, with_build = run(build_serve, small_jvm_config, threads=4)
        _j2, without = run(serve_only, small_jvm_config, threads=4)
        assert (with_build.gc_log.total_pause > without.gc_log.total_pause)

    def test_deterministic(self, small_jvm_config):
        phases = [AllocationPhase("a", duration=1.0, alloc_rate=50 * MB)]
        _a, ra = run(phases, small_jvm_config, threads=4, seed=9)
        _b, rb = run(phases, small_jvm_config, threads=4, seed=9)
        assert ra.execution_time == rb.execution_time
