"""Tests for the synthetic DaCapo suite: profiles, harness, selection."""

import pytest

from repro import JVM, BenchmarkCrash
from repro.errors import ConfigError
from repro.units import GB, MB
from repro.workloads.dacapo import (
    ALL_BENCHMARKS,
    CRASHING_BENCHMARKS,
    PROFILES,
    STABLE_SUBSET,
    get_benchmark,
    select_stable_subset,
)


class TestProfiles:
    def test_fourteen_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 14

    def test_paper_crashers(self):
        assert CRASHING_BENCHMARKS == ["eclipse", "tradebeans", "tradesoap"]

    def test_stable_subset_is_papers_table2(self):
        assert set(STABLE_SUBSET) == {
            "h2", "tomcat", "xalan", "jython", "pmd", "luindex", "batik"
        }

    def test_single_threaded_benchmarks(self):
        assert PROFILES["batik"].threads == 1
        assert PROFILES["fop"].threads == 1
        assert PROFILES["luindex"].threads == 2

    def test_per_core_benchmarks_use_all_cores(self):
        assert PROFILES["xalan"].threads_for(48) == 48
        assert PROFILES["h2"].threads_for(8) == 8

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError):
            get_benchmark("nope")

    def test_profiles_have_positive_volumes(self):
        for name, p in PROFILES.items():
            assert p.iteration_wall_seconds > 0, name
            assert p.alloc.alloc_bytes_per_iteration > 0, name


class TestHarness:
    def _run(self, cfg, name="lusearch", **kw):
        kw.setdefault("iterations", 3)
        kw.setdefault("system_gc", True)
        return JVM(cfg).run(get_benchmark(name), **kw)

    def test_records_iteration_times(self, small_jvm_config):
        result = self._run(small_jvm_config(), iterations=3)
        assert len(result.iteration_times) == 3
        assert all(t > 0 for t in result.iteration_times)

    def test_system_gc_between_iterations(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        jvm.run(get_benchmark("lusearch"), iterations=4, system_gc=True)
        explicit = [p for p in jvm.gc_log.pauses if p.cause == "System.gc()"]
        assert len(explicit) == 3  # between every two of 4 iterations

    def test_no_system_gc_when_disabled(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        jvm.run(get_benchmark("lusearch"), iterations=4, system_gc=False)
        assert not any(p.cause == "System.gc()" for p in jvm.gc_log.pauses)

    def test_crashing_benchmark_crashes(self, small_jvm_config):
        result = self._run(small_jvm_config(), name="eclipse")
        assert result.crashed
        assert "BenchmarkCrash" in result.crash_reason

    def test_thread_override(self, small_jvm_config):
        result = self._run(small_jvm_config(), name="lusearch", threads=2)
        assert result.extras["n_threads"] == 2

    def test_deterministic_given_seed(self, small_jvm_config):
        a = self._run(small_jvm_config(seed=5))
        b = self._run(small_jvm_config(seed=5))
        assert a.execution_time == b.execution_time
        assert a.iteration_times == b.iteration_times

    def test_different_seeds_differ(self, small_jvm_config):
        a = self._run(small_jvm_config(seed=5))
        b = self._run(small_jvm_config(seed=6))
        assert a.execution_time != b.execution_time

    def test_live_set_established(self, small_jvm_config):
        result = self._run(small_jvm_config(heap=2 * GB, young=256 * MB), name="h2")
        assert result.extras["live_set_bytes"] > 0

    @pytest.mark.parametrize("bad", [
        {"threads": 0}, {"threads": -4}, {"quanta_per_iteration": 0},
        {"quanta_per_iteration": -1}, {"iterations": 0}, {"iterations": -3},
        {"iterations": 2.5}, {"sim_thread_cap": 0},
    ], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
    def test_bad_drive_arguments_rejected_before_setup(self, small_jvm_config, bad):
        result = self._run(small_jvm_config(), name="h2", **bad)
        assert result.crashed
        assert "ConfigError" in result.crash_reason
        # Nothing ran: no setup body, no iteration.
        assert result.execution_time == 0.0
        assert result.allocated_bytes == 0.0
        assert result.iteration_times == []


class TestStableSubsetSelection:
    def test_selection_marks_crashers_unstable(self, small_jvm_config):
        def run_fn(name, seed):
            cfg = small_jvm_config(seed=seed, heap=2 * GB, young=256 * MB)
            return JVM(cfg).run(get_benchmark(name), iterations=3)

        table = select_stable_subset(
            run_fn, runs=2, benchmarks=["eclipse", "lusearch"]
        )
        assert table["eclipse"]["crashed"] is True
        assert table["eclipse"]["stable"] is False
        assert table["lusearch"]["crashed"] is False
        assert "rsd_final" in table["lusearch"]
