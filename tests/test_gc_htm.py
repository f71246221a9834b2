"""Tests for the HTM-based collector (the paper's future work, §6)."""

import numpy as np
import pytest

from repro import JVM, JVMConfig, baseline_config
from repro.gc import GC_NAMES, HTMGC, GCType, create_collector
from repro.gc.registry import resolve_gc
from repro.heap.heap import GenerationalHeap, HeapConfig
from repro.machine.costs import CostModel
from repro.machine.topology import MachineTopology
from repro.units import GB, MB
from repro.workloads.dacapo import get_benchmark


def make_htm(heap_mb=256, young_mb=64):
    heap = GenerationalHeap(
        HeapConfig(heap_bytes=heap_mb * MB, young_bytes=young_mb * MB),
        n_mutator_threads=4,
    )
    return create_collector("HTM", heap, CostModel(), rng=np.random.default_rng(5))


class TestRegistration:
    def test_htm_resolvable(self):
        assert resolve_gc("htm") is GCType.HTM
        assert isinstance(make_htm(), HTMGC)

    def test_htm_not_in_paper_six(self):
        assert "HTMGC" not in GC_NAMES
        assert len(GC_NAMES) == 6


class TestPauseBehaviour:
    def test_flip_pause_is_milliseconds(self):
        c = make_htm()
        c.noise = 0.0
        c.heap.allocate(0.0, 40 * MB, None, pinned=True)
        outcome = c.allocation_failure(1.0)
        assert outcome.pauses[0].duration < 0.02

    def test_flip_pause_independent_of_survivor_volume(self):
        small, big = make_htm(), make_htm()
        small.noise = big.noise = 0.0
        small.heap.allocate(0.0, 5 * MB, None, pinned=True)
        big.heap.allocate(0.0, 45 * MB, None, pinned=True)
        p_small = small.allocation_failure(1.0).pauses[0].duration
        p_big = big.allocation_failure(1.0).pauses[0].duration
        assert p_big == pytest.approx(p_small, rel=0.01)

    def test_evacuation_runs_concurrently(self):
        c = make_htm()
        c.heap.allocate(0.0, 40 * MB, None, pinned=True)
        outcome = c.allocation_failure(1.0)
        assert outcome.schedule  # concurrent completion pending
        assert any(r.phase == "htm-evacuation" for r in outcome.concurrent)
        assert c.concurrent_threads_active > 0

    def test_mutator_tax_always_on_and_worse_while_evacuating(self):
        c = make_htm()
        idle_tax = c.mutator_overhead
        assert idle_tax > 0.0
        c.heap.allocate(0.0, 40 * MB, None, pinned=True)
        outcome = c.allocation_failure(1.0)
        assert c.mutator_overhead > idle_tax
        # finishing the evacuation drops back to the base tax
        for delay, fn in outcome.schedule:
            fn(1.0 + delay)
        assert c.mutator_overhead == idle_tax

    def test_stale_finish_keeps_newer_evacuation_running(self):
        """The first evacuation's finish must not end the second one,
        which a flip 1 ms later started before the first could finish."""
        c = make_htm()
        c.heap.allocate(0.0, 40 * MB, None, pinned=True)
        first = c.allocation_failure(1.0)
        c.heap.allocate(1.0, 40 * MB, None, pinned=True)
        second = c.allocation_failure(1.001)
        assert first.schedule and second.schedule
        for delay, fn in first.schedule:
            fn(1.0 + delay)
        assert c.concurrent_threads_active > 0
        assert c.mutator_overhead == c.base_tax + c.cycle_tax

    def test_one_core_machine_evacuates_on_one_thread(self):
        one_core = MachineTopology(name="one-core", cores_per_numa_node=1)
        heap = GenerationalHeap(HeapConfig(heap_bytes=256 * MB,
                                           young_bytes=64 * MB))
        c = create_collector("HTM", heap, CostModel(topology=one_core))
        c.heap.allocate(0.0, 40 * MB, None, pinned=True)
        outcome = c.allocation_failure(1.0)
        assert c.conc_threads == 1
        assert any(r.phase == "htm-evacuation" for r in outcome.concurrent)
        assert c.concurrent_threads_active == 1

    def test_old_cycle_triggers_and_compacts(self):
        c = make_htm(heap_mb=512)
        garbage = c.heap.allocate_old(0.0, 50 * MB, pinned=True)
        c.heap.allocate_old(0.0, 230 * MB, pinned=True)  # occupancy > 0.6
        garbage.release()
        c.heap.fragmentation = 0.1
        c.heap.allocate(0.0, 20 * MB, None, pinned=True)
        outcome = c.allocation_failure(1.0)
        assert any(r.phase == "htm-old-compaction" for r in outcome.concurrent)
        # garbage reclaimed concurrently at cycle start
        assert c.heap.old.used < 280 * MB
        for delay, fn in list(outcome.schedule):
            fn(1.0 + delay)
        assert c.heap.fragmentation == 0.0

    def test_exhaustion_fallback_is_stw_full(self):
        c = make_htm(heap_mb=100, young_mb=80)
        c.heap.allocate_old(0.0, 18 * MB, pinned=True)
        c.heap.allocate(0.0, 40 * MB, None, pinned=True)
        outcome = c.allocation_failure(1.0)
        assert any(p.cause == "HTM Exhaustion" for p in outcome.pauses)
        assert c.concurrent_threads_active == 0

    def test_explicit_gc_stays_concurrent(self):
        c = make_htm()
        c.heap.allocate(0.0, 10 * MB, None, pinned=True)
        outcome = c.explicit_gc(1.0)
        assert all(p.duration < 0.05 for p in outcome.pauses)
        assert outcome.schedule


class TestEndToEnd:
    def test_dacapo_run_pauses_sub_10ms(self):
        jvm = JVM(baseline_config(gc="HTM", seed=1))
        result = jvm.run(get_benchmark("xalan"), iterations=10, system_gc=True)
        assert not result.crashed
        assert result.gc_log.max_pause < 0.02
        assert result.gc_log.full_count == 0

    def test_throughput_tax_visible(self):
        """HTM trades throughput for pauses: slower than ParallelOld when
        full GCs are NOT forced (where ParallelOld shines)."""
        import numpy as np

        def median_exec(gc):
            times = []
            for seed in (1, 2, 3):
                jvm = JVM(baseline_config(gc=gc, seed=seed))
                r = jvm.run(get_benchmark("xalan"), iterations=10, system_gc=False)
                times.append(r.execution_time)
            return float(np.median(times))

        assert median_exec("HTM") > median_exec("ParallelOld")

    def test_cassandra_stress_no_long_pauses(self):
        from repro.cassandra import CassandraServer, stress_config

        jvm = JVM(JVMConfig(gc="HTM", heap=64 * GB, young=12 * GB, seed=3))
        server = CassandraServer(stress_config(64 * GB, preload_records=8_000_000))
        result = jvm.run(server, duration=3600.0, ops_per_second=1350.0)
        assert not result.crashed
        assert result.gc_log.full_count == 0
        assert result.gc_log.max_pause < 0.05  # milliseconds, not minutes


class TestHumongousRouting:
    def test_g1_threshold_is_half_region(self):
        from repro.heap.regions import RegionTable

        c = make_htm  # reuse factory style below
        from repro.gc import create_collector
        from repro.heap.heap import GenerationalHeap, HeapConfig
        from repro.machine.costs import CostModel
        import numpy as np

        heap = GenerationalHeap(HeapConfig(heap_bytes=16 * GB, young_bytes=4 * GB))
        g1 = create_collector("G1", heap, CostModel(), rng=np.random.default_rng(0))
        table = RegionTable.for_heap(16 * GB)
        assert g1.humongous_threshold() == table.humongous_threshold

    def test_stock_threshold_is_eden_fraction(self):
        import numpy as np
        from repro.gc import create_collector
        from repro.heap.heap import GenerationalHeap, HeapConfig
        from repro.machine.costs import CostModel

        heap = GenerationalHeap(HeapConfig(heap_bytes=16 * GB, young_bytes=4 * GB))
        po = create_collector("ParallelOld", heap, CostModel(),
                              rng=np.random.default_rng(0))
        assert po.humongous_threshold() == pytest.approx(0.8 * heap.eden.capacity)

    def test_g1_routes_humongous_objects_to_old(self, tiny_topology):
        from repro import JVM, JVMConfig
        from repro.units import MB
        from tests.test_jvm_threads import ScriptedWorkload

        cfg = JVMConfig(gc="G1", heap=2 * GB, young=512 * MB,
                        topology=tiny_topology, seed=1)
        jvm = JVM(cfg)
        threshold = jvm.collector.humongous_threshold()

        def script(j, result):
            def body(ctx):
                # one humongous object: straight to old
                yield from ctx.allocate(threshold * 1.5, None,
                                        n_objects=1, pinned=True)
                result.extras["old_after_humongous"] = j.heap.old.used
                # a same-sized batch of small objects: lands in eden
                yield from ctx.allocate(threshold * 1.5, None,
                                        n_objects=10_000, pinned=True)
                result.extras["eden_after_batch"] = j.heap.eden.used

            yield from j.join([j.spawn_mutator(body)])

        result = jvm.run(ScriptedWorkload(script))
        assert result.extras["old_after_humongous"] == pytest.approx(threshold * 1.5)
        assert result.extras["eden_after_batch"] == pytest.approx(threshold * 1.5)
