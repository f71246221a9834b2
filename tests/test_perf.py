"""repro.perf: fast-path byte-identity pins and the repro-perf CLI.

The contract under test (DESIGN.md §12): the batched allocation fast
path may change how fast the simulator runs, but never what it
simulates. With the same seed, ``REPRO_FASTPATH=0`` and ``=1`` must
produce identical GC logs and identical telemetry traces — timestamps,
event order, logical event counts, everything — for every collector.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import GB, JVM, JVMConfig
from repro.gc import GCType
from repro.jvm.gclog import format_gc_log
from repro.perf import fastpath
from repro.perf.profile import profile_run
from repro.perf.report import SCHEMA, render_text, to_json
from repro.telemetry import Tracer
from repro.telemetry.export import write_trace
from repro.workloads.dacapo import get_benchmark

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
