"""A finished run is freed by reference counting (DESIGN.md §12.4).

Once the caller drops a :class:`~repro.jvm.JVM` and its result, nothing
the run made may be left in a reference cycle: normal, traced, audited
and crashed runs alike. Each case runs with automatic collection off, so
that no collection part-way through frees a cycle before it is counted,
and then requires ``gc.collect()`` to find nothing.
"""

import gc
import weakref

import pytest

from repro import GB, JVM, MB, JVMConfig, baseline_config
from repro.campaign import CellSpec, run_cell
from repro.cassandra import CassandraServer, default_config, stress_config
from repro.gc import GCType
from repro.heap.heap import GenerationalHeap, HeapConfig
from repro.lint.audit import InvariantAuditor
from repro.sim import Engine, Interrupt
from repro.telemetry import Tracer
from repro.workloads.dacapo import get_benchmark
from repro.workloads.specjbb import SPECjbbWorkload
from repro.ycsb import WORKLOAD_A_LIKE, YCSBClient


@pytest.fixture(autouse=True)
def no_automatic_collection():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_freed(case) -> None:
    """Run ``case()`` and require that what it dropped on return is left
    in no reference cycle."""
    gc.collect()
    case()
    found = gc.collect()
    assert found == 0, f"{found} objects left in reference cycles"


OUT_OF_MEMORY = "OutOfMemoryError: Java heap space"


def run_dacapo(config, bench="xalan", tracer=None, crash=None):
    jvm = JVM(config, tracer=tracer)
    result = jvm.run(get_benchmark(bench), iterations=3)
    if crash is None:
        assert not result.crashed, result.crash_reason
    else:
        assert result.crash_reason.startswith(crash)


# -- normal runs ---------------------------------------------------------

@pytest.mark.parametrize("gc_name", [t.value for t in GCType])
def test_dacapo_cell(gc_name):
    assert_freed(lambda: run_dacapo(JVMConfig(gc=gc_name, heap=1 * GB, seed=1)))


def test_stress_run():
    def case():
        jvm = JVM(JVMConfig(gc="G1", heap=8 * GB, young=1.5 * GB, seed=3))
        server = CassandraServer(stress_config(8 * GB,
                                               preload_records=1_000_000))
        result = jvm.run(server, duration=600.0, ops_per_second=1350.0)
        assert not result.crashed
    assert_freed(case)


def test_ycsb_client_run():
    def case():
        trace = YCSBClient(WORKLOAD_A_LIKE, seed=0).run(
            JVMConfig(gc="CMS", heap=8 * GB, young=1.5 * GB, seed=0),
            default_config(8 * GB), duration=600.0)
        assert not trace.server_result.crashed
        assert len(trace.reads.latencies_ms) > 0
    assert_freed(case)


def test_specjbb_run():
    def case():
        jvm = JVM(baseline_config(gc="ParallelOld", seed=1))
        result = jvm.run(SPECjbbWorkload(), measurement_seconds=2.0)
        assert result.extras["points"]
    assert_freed(case)


def test_asymmetric_topology_cell():
    config = JVMConfig(gc="ParallelOld", heap=8 * GB, seed=1,
                       topology="asym-hybrid", gc_placement="e-cores")
    assert_freed(lambda: run_dacapo(config))


# -- traced and audited runs ----------------------------------------------

def test_traced_cell():
    def case():
        tracer = Tracer()
        run_dacapo(JVMConfig(gc="G1", heap=1 * GB, seed=1, gc_placement="adaptive"),
                   tracer=tracer)
        assert len(tracer.ring) > 0
    assert_freed(case)


def test_campaign_cell_with_trace_dir(tmp_path):
    def case():
        cell = CellSpec.from_axes("xalan", "CMS", "1g", "256m", 0, iterations=3)
        assert not run_cell(cell, trace_dir=str(tmp_path)).crashed
        assert list(tmp_path.iterdir())
    assert_freed(case)


def test_audited_cell():
    def case():
        jvm = JVM(JVMConfig(gc="CMS", heap=250 * MB, seed=1))
        auditor = InvariantAuditor()
        with auditor.attached(jvm):
            assert not jvm.run(get_benchmark("h2"), iterations=3).crashed
        auditor.assert_clean()
    assert_freed(case)


# -- crashed runs --------------------------------------------------------

def test_out_of_memory_crash():
    config = JVMConfig(gc="ParallelOld", heap=64 * MB, seed=1)
    assert_freed(lambda: run_dacapo(config, "h2", crash=OUT_OF_MEMORY))


@pytest.mark.parametrize("gc_name", ["CMS", "G1", "ZGC", "Shenandoah"])
def test_out_of_memory_crash_with_misc_safepoints(gc_name):
    config = JVMConfig(gc=gc_name, heap=64 * MB, seed=1, misc_safepoints=True)
    assert_freed(lambda: run_dacapo(config, "h2", crash=OUT_OF_MEMORY))


def test_crashing_benchmark():
    config = JVMConfig(gc="G1", heap=1 * GB, seed=1)
    assert_freed(lambda: run_dacapo(
        config, "tradebeans",
        crash="BenchmarkCrash: benchmark 'tradebeans' crashed"))


# -- the pieces ------------------------------------------------------------

def test_finished_process_dies_with_its_last_reference():
    engine = Engine()

    def body():
        yield engine.timeout(1.0)

    process = engine.process(body())
    engine.run()
    assert not process.is_alive
    ref = weakref.ref(process)
    del process
    assert ref() is None


def test_interrupt_detaches_process_from_its_target():
    engine = Engine()
    gate = engine.event()
    causes = []

    def body():
        try:
            yield gate
        except Interrupt as interrupt:
            causes.append(interrupt.cause)

    process = engine.process(body())
    engine.run()
    assert len(gate.callbacks) == 1
    process.interrupt("safepoint")
    engine.run()
    assert causes == ["safepoint"] and not process.is_alive
    assert gate.callbacks == []
    gate.succeed()
    engine.run()


def test_pinned_handle_follows_its_row_to_the_old_generation():
    heap = GenerationalHeap(HeapConfig(heap_bytes=256 * MB, young_bytes=64 * MB),
                            n_mutator_threads=4)
    cohort = heap.allocate(0.0, 4 * MB, None, pinned=True)
    heap.minor_collection(1.0, tenuring_threshold=0)
    assert cohort in heap.old_cohorts
    assert cohort.resident == 4 * MB
    assert cohort.release() == 4 * MB
    assert heap.old_cohorts.released.tolist() == [True]
    assert cohort.resident == 4 * MB  # garbage until a collection visits it
