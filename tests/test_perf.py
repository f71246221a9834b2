"""repro.perf: fast-path byte-identity pins and the repro-perf CLI.

The contract under test (DESIGN.md §12): the fast path (the lockstep
group spans) may change how fast the simulator runs, but never what it
simulates. With the same seed, ``REPRO_FASTPATH=0`` and ``=1`` must
produce identical GC logs and identical telemetry traces — timestamps,
event order, logical event counts, everything — for every collector.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import GB, JVM, MB, JVMConfig
from repro.cassandra import CassandraServer, default_config, stress_config
from repro.gc import GCType
from repro.heap.cohort import COLUMNS
from repro.heap.tlab import TLABConfig
from repro.jvm.gclog import format_gc_log
from repro.lint import InvariantAuditor
from repro.perf import fastpath
from repro.perf.profile import profile_run
from repro.perf.report import SCHEMA, render_text, to_json
from repro.telemetry import Tracer
from repro.telemetry.events import ENGINE_RUN
from repro.telemetry.export import write_trace
from repro.workloads.dacapo import get_benchmark
from repro.ycsb import WORKLOAD_A_LIKE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: Every collector on a roomy heap, plus ZGC at 1g, where one safepoint
#: end wakes both mutators and a GC continuation that starts the next
#: safepoint at the same instant.
CELLS = [pytest.param(t.value, 16 * GB, 3, id=t.value) for t in GCType] + [
    pytest.param("ZGC", 1 * GB, 1, id="ZGC-1g")]


def _run_cell(gc: str, enabled: bool, tmp_path, tag: str,
              heap: float = 16 * GB, seed: int = 3):
    """One xalan run with the fast path forced on/off; returns
    (gc log text, trace file bytes)."""
    previous = fastpath.set_enabled(enabled)
    try:
        config = JVMConfig(gc=gc, heap=heap, seed=seed)
        tracer = Tracer()
        jvm = JVM(config, tracer=tracer)
        result = jvm.run(get_benchmark("xalan"), iterations=4, system_gc=True)
    finally:
        fastpath.set_enabled(previous)
    log_text = format_gc_log(result.gc_log, config.heap_bytes)
    trace_path = tmp_path / f"{gc}-{tag}.trace.jsonl"
    write_trace(tracer, str(trace_path))
    return log_text, trace_path.read_bytes()


class TestFastpathByteIdentity:
    @pytest.mark.parametrize("gc,heap,seed", CELLS)
    def test_gc_log_and_trace_identical(self, gc, heap, seed, tmp_path):
        log_off, trace_off = _run_cell(gc, False, tmp_path, "off", heap, seed)
        log_on, trace_on = _run_cell(gc, True, tmp_path, "on", heap, seed)
        assert log_off == log_on
        assert trace_off == trace_on

    def test_set_enabled_returns_previous(self):
        initial = fastpath.enabled()
        assert fastpath.set_enabled(not initial) == initial
        assert fastpath.enabled() == (not initial)
        assert fastpath.set_enabled(initial) == (not initial)
        assert fastpath.enabled() == initial

    def test_env_gate_parsing(self):
        # Spawn fresh interpreters: ENABLED is read at import time.
        for value, expect in (("0", False), ("off", False), ("", True),
                              ("1", True), ("FALSE", False)):
            env = dict(os.environ)
            env["REPRO_FASTPATH"] = value
            env["PYTHONPATH"] = os.path.join(ROOT, "src")
            out = subprocess.run(
                [sys.executable, "-c",
                 "from repro.perf import fastpath; print(fastpath.ENABLED)"],
                env=env, capture_output=True, text=True, check=True,
            )
            assert out.stdout.strip() == str(expect), value


#: DaCapo cells at the edges of the group span (DESIGN.md §12.1): rounds
#: that would not fit eden, a crash, one and two groups, quanta of
#: several pieces, no TLABs, vm-op safepoints, no System.gc() and groups
#: that fall out of lockstep after allocation stalls.
DACAPO_EDGE_CELLS = [
    pytest.param("h2", "CMS", 250 * MB, {}, {}, id="h2-CMS-250m"),
    pytest.param("h2", "G1", 250 * MB, {}, {}, id="h2-G1-250m-crash"),
    pytest.param("luindex", "ParallelOld", 16 * GB, {}, {}, id="luindex"),
    pytest.param("batik", "CMS", 16 * GB, {}, {}, id="batik-16g"),
    pytest.param("batik", "CMS", 250 * MB, {}, {}, id="batik-250m"),
    pytest.param("xalan", "CMS", 16 * GB, {}, {"threads": 3}, id="xalan-3-threads"),
    pytest.param("xalan", "G1", 16 * GB, {"tlab": TLABConfig(enabled=False)}, {},
                 id="xalan-no-tlab"),
    pytest.param("xalan", "ParallelOld", 16 * GB, {"misc_safepoints": True}, {},
                 id="xalan-misc-safepoints"),
    pytest.param("xalan", "Shenandoah", 16 * GB, {}, {"system_gc": False},
                 id="xalan-Shenandoah-no-system-gc"),
    pytest.param("xalan", "ZGC", 512 * MB, {}, {}, id="xalan-ZGC-512m"),
]


def _dacapo_jvm(gc: str, heap: float, config: dict, tracer=None) -> JVM:
    return JVM(JVMConfig(**{"gc": gc, "heap": heap, "seed": 0, **config}),
               tracer=tracer)


def _run_dacapo(jvm: JVM, bench: str, drive: dict, iterations: int = 4):
    return jvm.run(get_benchmark(bench),
                   **{"iterations": iterations, "system_gc": True, **drive})


class TestDaCapoSpan:
    """The DaCapo harness's lockstep group span (DESIGN.md §12.1) under
    the fast-path contract, at the edges of its admission rules."""

    @pytest.mark.parametrize("bench,gc,heap,config,drive", DACAPO_EDGE_CELLS)
    def test_edge_cells_identical(self, bench, gc, heap, config, drive, tmp_path):
        outputs = []
        for enabled in (False, True):
            previous = fastpath.set_enabled(enabled)
            try:
                tracer = Tracer()
                jvm = _dacapo_jvm(gc, heap, config, tracer)
                result = _run_dacapo(jvm, bench, drive)
            finally:
                fastpath.set_enabled(previous)
            trace_path = tmp_path / f"{enabled}.trace.jsonl"
            write_trace(tracer, str(trace_path))
            outputs.append((format_gc_log(result.gc_log, jvm.config.heap_bytes),
                            trace_path.read_bytes(), result.crash_reason,
                            result.iteration_times))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bench,gc,heap,config,drive", DACAPO_EDGE_CELLS)
    def test_edge_cells_audit_clean(self, bench, gc, heap, config, drive):
        previous = fastpath.set_enabled(True)
        try:
            jvm = _dacapo_jvm(gc, heap, config)
            with InvariantAuditor().attached(jvm) as auditor:
                _run_dacapo(jvm, bench, drive)
        finally:
            fastpath.set_enabled(previous)
        auditor.assert_clean()
        assert auditor.counters["allocations"] > 0

    def test_event_due_with_a_round_runs_first(self):
        """The horizon rule: an event queued for the very instant a
        round's allocations happen runs before them, as in the plain
        loop, so it sees the same heap with the fast path on."""
        jvm = _dacapo_jvm("CMS", 16 * GB, {})
        times = []
        allocate = jvm.heap.allocate

        def record(now, *args, **kwargs):
            times.append(now)
            return allocate(now, *args, **kwargs)

        jvm.heap.allocate = record
        previous = fastpath.set_enabled(False)
        try:
            _run_dacapo(jvm, "xalan", {})
        finally:
            fastpath.set_enabled(previous)
        probes = times[len(times) // 6::len(times) // 5]
        seen = []
        for enabled in (False, True):
            previous = fastpath.set_enabled(enabled)
            try:
                jvm = _dacapo_jvm("CMS", 16 * GB, {})
                for due in probes:
                    jvm.engine.call_at(due, lambda jvm=jvm: seen.append(
                        (jvm.heap.eden.used,
                         sum(c.allocated_bytes for c in jvm._contexts))))
                _run_dacapo(jvm, "xalan", {})
            finally:
                fastpath.set_enabled(previous)
        assert len(seen) == 2 * len(probes) >= 8
        assert seen[:len(probes)] == seen[len(probes):]

    def test_span_opens(self):
        """Lockstep groups collapse most of their events: the engine pops
        about a third of what it reports (all of it without the span)."""
        previous = fastpath.set_enabled(True)
        try:
            tracer = Tracer()
            jvm = _dacapo_jvm("CMS", 16 * GB, {}, tracer)
            pops = []
            jvm.engine.step_hook = lambda before, after: pops.append(after)
            _run_dacapo(jvm, "h2", {}, iterations=10)
        finally:
            fastpath.set_enabled(previous)
        logical = sum(e.args["events"] for e in tracer.ring if e.name == ENGINE_RUN)
        assert 0 < len(pops) < logical / 2


#: A short stress server and a short YCSB server for every collector:
#: 8g heap, 1.5g young, JVM seed 3, 600 simulated seconds.
SERVER_CELLS = [pytest.param(t.value, kind, id=f"{t.value}-{kind}")
                for t in GCType for kind in ("stress", "ycsb")]


def _server_jvm(gc: str, tracer=None) -> JVM:
    return JVM(JVMConfig(gc=gc, heap=8 * GB, young=1.5 * GB, seed=3),
               tracer=tracer)


def _card_state(jvm: JVM):
    """The write barrier's end state, which no GC log or trace shows:
    a span's held-back card writes must reach the card table while old
    occupancy is what the plain loop saw."""
    heap = jvm.heap
    return heap.dirty_card_bytes, heap.card_table.dirty_cards_count


def _hidden_state(jvm: JVM, result, server: CassandraServer) -> str:
    """What a span must leave as the plain loop does, though no GC log or
    trace shows it: every heap space's cohort columns byte for byte and
    its occupancy, the run's allocation totals, and the commit log's and
    the memtable's counters. The ``cid`` column is left out: handle ids count up across
    the process, and the plain loop gives every allocation a handle
    where a span appends handle-less bump rows."""
    heap = jvm.heap
    columns = [space._arrays[name][:space.n].tobytes()
               for space in (heap.eden_cohorts, heap.survivor_cohorts,
                             heap.old_cohorts)
               for name, _ in COLUMNS if name != "cid"]
    log, table = server.commitlog, server.memtable
    return repr((columns, [space.used for space in (heap.eden, heap.survivor,
                                                    heap.old)],
                 result.allocated_bytes, result.alloc_overhead_time,
                 log.pending_bytes, log.appended_bytes, log.recycled_segments,
                 len(log.segments), table.pending_bytes, table.obsolete_bytes,
                 table.record_count, len(table.chunks)))


def _serve(jvm: JVM, kind: str):
    """Run a server cell; returns the result and the server."""
    if kind == "stress":
        server = CassandraServer(stress_config(8 * GB, preload_records=1_000_000))
        return jvm.run(server, duration=600.0, ops_per_second=1350.0), server
    mix = WORKLOAD_A_LIKE
    server = CassandraServer(default_config(8 * GB))
    return jvm.run(server, duration=600.0,
                   ops_per_second=mix.operations_per_second,
                   read_fraction=mix.read_proportion,
                   update_fraction=mix.update_proportion,
                   n_client_threads=mix.client_threads), server


class TestServerSpan:
    """The lockstep worker-group span of the Cassandra server (DESIGN.md
    §12.1) under the same contract as the DaCapo span."""

    @pytest.mark.parametrize("gc,kind", SERVER_CELLS)
    def test_gc_log_and_trace_identical(self, gc, kind, tmp_path):
        outputs = []
        for enabled in (False, True):
            previous = fastpath.set_enabled(enabled)
            try:
                tracer = Tracer()
                jvm = _server_jvm(gc, tracer)
                result, server = _serve(jvm, kind)
            finally:
                fastpath.set_enabled(previous)
            assert not result.crashed, result.crash_reason
            trace_path = tmp_path / f"{enabled}.trace.jsonl"
            write_trace(tracer, str(trace_path))
            outputs.append((format_gc_log(result.gc_log, jvm.config.heap_bytes),
                            trace_path.read_bytes(),
                            repr(result.extras["server_stats"]),
                            _card_state(jvm),
                            _hidden_state(jvm, result, server)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("gc,config,drive,memtable_cap", [
        pytest.param("G1", {}, {"n_client_threads": 1}, 1 * GB,
                     id="one-group"),
        pytest.param("CMS", {"tlab": TLABConfig(enabled=False)}, {}, 1 * GB,
                     id="no-tlab"),
        pytest.param("ZGC", {"misc_safepoints": True}, {}, 1 * GB,
                     id="misc-safepoints"),
        pytest.param("ParallelOld", {}, {"quantum": 0.7, "sim_thread_cap": 5},
                     1 * GB, id="odd-quantum"),
        pytest.param("CMS", {}, {}, 200 * MB, id="flushes"),
        # Roomier heap: flushes fall inside both kinds of span round.
        pytest.param("CMS", {"heap": 8 * GB, "young": 2 * GB}, {}, 150 * MB,
                     id="flushes-in-spans"),
        # No writes: quiet runs touch neither commit log nor memtable.
        pytest.param("G1", {}, {"read_fraction": 1.0, "update_fraction": 0.0},
                     1 * GB, id="reads-only"),
        # Eden holds many quanta, so quiet runs form: some of one round,
        # some ended by eden's room, with commit-log recycles and chunk
        # releases inside them; byte counts are fractions.
        pytest.param("CMS", {"heap": 4 * GB, "young": 2 * GB},
                     {"ops_per_second": 1111.1, "read_fraction": 0.1}, 1 * GB,
                     id="quiet-runs"),
        pytest.param("G1", {"heap": 4 * GB, "young": 2 * GB},
                     {"ops_per_second": 1111.1, "read_fraction": 0.1}, 100 * MB,
                     id="quiet-run-flushes"),
    ])
    def test_edge_cells_identical(self, gc, config, drive, memtable_cap):
        """Spans over one group, without TLABs, beside vm-op safepoints,
        on a quantum that is no binary fraction, across flushes, with
        reads only, and over quiet runs that recycle, release and flush."""
        cass = default_config(2 * GB, memtable_cap_bytes=memtable_cap,
                              commitlog_cap_bytes=64 * MB)
        logs = []
        for enabled in (False, True):
            previous = fastpath.set_enabled(enabled)
            try:
                jvm = JVM(JVMConfig(**{"gc": gc, "heap": 2 * GB,
                                       "young": 256 * MB, "seed": 9, **config}))
                server = CassandraServer(cass)
                result = jvm.run(server, duration=300.0, **{
                    "ops_per_second": 2000.0, "update_fraction": 0.4, **drive})
            finally:
                fastpath.set_enabled(previous)
            assert not result.crashed, result.crash_reason
            logs.append((format_gc_log(result.gc_log, jvm.config.heap_bytes),
                         result.execution_time,
                         repr(result.extras["server_stats"]),
                         _hidden_state(jvm, result, server)))
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("gc,kind", SERVER_CELLS)
    def test_audits_clean(self, gc, kind):
        """Clean, and checking every allocation the plain loop makes."""
        allocations = []
        for enabled in (False, True):
            previous = fastpath.set_enabled(enabled)
            try:
                jvm = _server_jvm(gc)
                with InvariantAuditor().attached(jvm) as auditor:
                    result, _ = _serve(jvm, kind)
            finally:
                fastpath.set_enabled(previous)
            assert not result.crashed, result.crash_reason
            auditor.assert_clean()
            allocations.append(auditor.counters["allocations"])
        assert allocations[0] == allocations[1] > 0

    def test_span_opens(self):
        previous = fastpath.set_enabled(True)
        try:
            tracer = Tracer()
            jvm = _server_jvm("CMS", tracer)
            pops = []
            jvm.engine.step_hook = lambda before, after: pops.append(after)
            _serve(jvm, "ycsb")
        finally:
            fastpath.set_enabled(previous)
        logical = sum(e.args["events"] for e in tracer.ring if e.name == ENGINE_RUN)
        assert 0 < len(pops) < logical / 4


class TestProfileHarness:
    def test_profile_run_measures_the_cell(self):
        result = profile_run(
            JVMConfig(gc="CMS", heap=16 * GB, seed=1), "xalan",
            iterations=2, top=10,
        )
        assert not result.crashed
        assert result.sim_s > 0 and result.wall_s > 0
        assert result.events > 0
        assert result.pauses == result.event_kinds.get("gc_phase", 0)
        assert len(result.hotspots) == 10
        # Hot spots are sorted by self-time.
        tots = [h.tottime for h in result.hotspots]
        assert tots == sorted(tots, reverse=True)

    def test_profiled_run_matches_unprofiled_sim_output(self, tmp_path):
        """Profiling must not disturb the simulated results."""
        result = profile_run(
            JVMConfig(gc="G1", heap=16 * GB, seed=2), "xalan", iterations=3,
        )
        config = JVMConfig(gc="G1", heap=16 * GB, seed=2)
        jvm = JVM(config, tracer=Tracer())
        plain = jvm.run(get_benchmark("xalan"), iterations=3, system_gc=True)
        assert result.pauses == plain.gc_log.count
        assert result.sim_s == jvm.engine.now

    def test_report_renderers(self):
        result = profile_run(
            JVMConfig(gc="Serial", heap=16 * GB, seed=1), "xalan",
            iterations=1, top=5,
        )
        text = render_text(result)
        assert "repro-perf: xalan [SerialGC]" in text
        assert "engine events" in text
        doc = json.loads(to_json(result))
        assert doc["schema"] == SCHEMA
        assert doc["benchmark"] == "xalan"
        assert len(doc["hotspots"]) == 5


class TestPerfCli:
    def test_profile_text_and_json(self, tmp_path, capsys):
        from repro.perf.cli import main

        rc = main(["profile", "xalan", "-n", "2", "--gc", "CMS",
                   "--seed", "1", "--top", "5"])
        assert rc == 0
        assert "repro-perf: xalan [ConcMarkSweepGC]" in capsys.readouterr().out

        out = tmp_path / "perf.json"
        rc = main(["profile", "xalan", "-n", "2", "--gc", "CMS",
                   "--seed", "1", "--json", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["gc"] == "ConcMarkSweepGC"
        assert doc["pauses"] > 0

    def test_fastpath_subcommand(self, capsys):
        from repro.perf.cli import main

        assert main(["fastpath"]) == 0
        assert "fastpath:" in capsys.readouterr().out

    def test_entry_point_delegates(self, capsys):
        from repro.cli import perf_main

        assert perf_main(["fastpath"]) == 0
        capsys.readouterr()


class TestLintStaysClean:
    def test_perf_package_lints_clean(self):
        from repro.lint.core import run_lint

        result = run_lint([os.path.join(ROOT, "src", "repro", "perf")])
        assert result.files_checked >= 5
        assert [f.format() for f in result.findings] == []
        assert result.baselined == []
