"""The homogeneous byte-identity guarantee of the asymmetric machinery.

`paper-48core-1class` is PAPER_SERVER re-expressed as a single-class
:class:`AsymmetricTopology`; the asymmetric code paths must degenerate
*exactly* — every collector x workload cell produces byte-identical GC
logs, execution times and traces. Likewise a placement policy on a
homogeneous machine resolves to scale 1.0 everywhere and must not
perturb a single simulated byte. The CI ``study-smoke`` job proves the
same property end-to-end with ``cmp`` on ``repro-dacapo --gc-log``
output.
"""

import json

import pytest

from repro.energy.placement import PLACEMENT_NAMES
from repro.gc import ALL_GC_NAMES
from repro.jvm import JVM, JVMConfig
from repro.jvm.gclog import format_gc_log
from repro.machine.topology import PAPER_SERVER, PAPER_SERVER_1CLASS
from repro.telemetry import Tracer, write_trace
from repro.units import GB
from repro.workloads.dacapo import get_benchmark


def _run(gc, topology, placement="", tracer=None):
    config = JVMConfig(gc=gc, heap=8 * GB, seed=3, topology=topology,
                       gc_placement=placement)
    jvm = JVM(config, tracer=tracer)
    return jvm.run(get_benchmark("xalan"), iterations=2, system_gc=True)


def _fingerprint(result):
    """Everything a run observably produced, as comparable bytes."""
    return (
        result.execution_time,
        tuple(result.iteration_times),
        result.allocated_bytes,
        result.alloc_overhead_time,
        result.crashed,
        tuple(sorted(result.extras.items())),
        format_gc_log(result.gc_log, result.config.heap_bytes),
        tuple((r.start, r.duration, r.phase, r.collector)
              for r in result.gc_log.concurrent),
    )


class TestSingleClassTopologyIdentity:
    def test_one_class_preset_mirrors_paper_server(self):
        t = PAPER_SERVER_1CLASS
        assert (t.cores, t.numa_nodes, t.ram_bytes) == \
            (PAPER_SERVER.cores, PAPER_SERVER.numa_nodes,
             PAPER_SERVER.ram_bytes)
        (cls,) = t.core_class_layout()
        assert cls.count == 48 and cls.gc_bw_scale == 1.0

    @pytest.mark.parametrize("gc", ALL_GC_NAMES)
    def test_every_collector_byte_identical(self, gc):
        homogeneous = _run(gc, "paper-48core")
        one_class = _run(gc, "paper-48core-1class")
        assert _fingerprint(one_class) == _fingerprint(homogeneous)

    def test_trace_identical_modulo_topology_name(self, tmp_path):
        """Traces differ only in the meta ``topology`` label — events,
        counts and timestamps are bit-equal."""
        lines = {}
        for topo in ("paper-48core", "paper-48core-1class"):
            tracer = Tracer()
            _run("G1GC", topo, tracer=tracer)
            path = tmp_path / f"{topo}.jsonl"
            write_trace(tracer, str(path))
            rows = [json.loads(x) for x in path.read_text().splitlines()]
            for row in rows:
                if row["type"] == "meta":
                    row["meta"].pop("topology")
            lines[topo] = rows
        assert lines["paper-48core"] == lines["paper-48core-1class"]


class TestPlacementNoOpOnHomogeneous:
    @pytest.mark.parametrize("gc", ["ParallelOldGC", "ConcMarkSweepGC",
                                    "G1GC"])
    def test_gc_log_unchanged(self, gc):
        baseline = _run(gc, "paper-48core")
        for placement in PLACEMENT_NAMES:
            pinned = _run(gc, "paper-48core", placement=placement)
            assert _fingerprint(pinned) == _fingerprint(baseline), placement

    def test_noop_on_single_class_asym_too(self):
        baseline = _run("G1GC", "paper-48core-1class")
        pinned = _run("G1GC", "paper-48core-1class", placement="adaptive")
        assert _fingerprint(pinned) == _fingerprint(baseline)
