"""ZGC / Shenandoah / Epsilon: the fully-concurrent collector suite.

Covers the ISSUE 9 acceptance criteria: audited-clean runs with the
concurrent-relocation phases (no STW-exclusivity false positives),
allocation-stall accounting that sums to the world's wall-time total,
byte-identical reruns, and the Distilling paper's qualitative pause
result (concurrent collectors' P99.9 orders of magnitude below
ParallelOld's).
"""

import pytest

from repro.gc import (ALL_GC_NAMES, GC_NAMES, MODERN_GC_NAMES,
                      TABLE8_GC_NAMES, GCType, ShenandoahGC, ZGC)
from repro.gc.registry import GC_HELP, resolve_gc
from repro.jvm import JVM, JVMConfig
from repro.lint.audit import InvariantAuditor, KNOWN_PAUSE_KINDS
from repro.telemetry import Tracer
from repro.telemetry.events import ALLOC_STALL, CONCURRENT_RELOCATION
from repro.units import GB, MB
from repro.workloads.dacapo import get_benchmark


def run_jvm(gc, heap=16 * GB, bench="xalan", seed=1, iterations=3,
            system_gc=False, tracer=None, audit=False):
    jvm = JVM(JVMConfig(gc=gc, heap=heap, seed=seed), tracer=tracer)
    auditor = InvariantAuditor().attach(jvm) if audit else None
    result = jvm.run(get_benchmark(bench), iterations=iterations,
                     system_gc=system_gc)
    return result, jvm, auditor


class TestRegistry:
    def test_paper_six_unchanged(self):
        assert len(GC_NAMES) == 6
        assert "ZGC" not in GC_NAMES and "EpsilonGC" not in GC_NAMES

    def test_modern_names(self):
        assert MODERN_GC_NAMES == ["ZGC", "ShenandoahGC"]
        assert ALL_GC_NAMES == GC_NAMES + MODERN_GC_NAMES

    def test_table8_covers_modern(self):
        assert set(MODERN_GC_NAMES) <= set(TABLE8_GC_NAMES)

    def test_aliases(self):
        assert resolve_gc("z") is GCType.ZGC
        assert resolve_gc("zgc") is GCType.ZGC
        assert resolve_gc("shenandoah") is GCType.SHENANDOAH
        assert resolve_gc("epsilon") is GCType.EPSILON
        assert resolve_gc("nogc") is GCType.EPSILON

    def test_cli_help_names_every_collector_once(self):
        names = [resolve_gc(n) for n in GC_HELP.split(", ")]
        assert sorted(t.value for t in names) == sorted(t.value for t in GCType)

    def test_flag_parsing(self):
        assert JVMConfig.from_flags(["-XX:+UseZGC"]).gc is GCType.ZGC
        assert (JVMConfig.from_flags(["-XX:+UseShenandoahGC"]).gc
                is GCType.SHENANDOAH)
        assert (JVMConfig.from_flags(["-XX:+UseEpsilonGC"]).gc
                is GCType.EPSILON)

    def test_modern_pause_kinds_are_known(self):
        for kind in ("mark-start", "mark-end", "relocate-start",
                     "degenerated"):
            assert kind in KNOWN_PAUSE_KINDS

    def test_modern_collectors_force_fidelity(self):
        for gc in (GCType.ZGC, GCType.SHENANDOAH):
            jvm = JVM(JVMConfig(gc=gc, heap=4 * GB, seed=0))
            assert jvm.collector.card_fidelity
            assert jvm.heap.card_fidelity

    def test_legacy_default_is_coarse(self):
        for gc in ("ParallelOld", "G1", "HTMGC"):
            jvm = JVM(JVMConfig(gc=gc, heap=4 * GB, seed=0))
            assert not jvm.collector.card_fidelity
            assert not jvm.heap.card_fidelity


class TestAuditedRuns:
    @pytest.mark.parametrize("gc", ["ZGC", "ShenandoahGC", "HTMGC",
                                    "EpsilonGC"])
    def test_audit_clean_at_comfortable_heap(self, gc):
        result, _, auditor = run_jvm(gc, audit=True)
        assert not result.crashed
        auditor.assert_clean()

    def test_audit_clean_under_stall_pressure(self):
        """Stalls fire (h2 @ 1g) and the auditor stays clean: stalls are
        never recorded during STW and never flag exclusivity."""
        result, jvm, auditor = run_jvm("ZGC", heap=1 * GB, bench="h2",
                                       audit=True)
        assert not result.crashed
        assert auditor.counters["alloc_stalls"] > 0
        auditor.assert_clean()

    def test_audit_clean_under_degeneration(self):
        result, _, auditor = run_jvm("ShenandoahGC", heap=1 * GB, bench="h2",
                                     audit=True)
        assert not result.crashed
        degens = sum(1 for p in result.gc_log.pauses
                     if p.kind == "degenerated")
        assert degens > 0
        auditor.assert_clean()


class TestZGC:
    def test_tiny_pauses_vs_parallel_old(self):
        """The Distilling result: ZGC's max pause is orders of magnitude
        below ParallelOld's on the same workload."""
        z, _, _ = run_jvm("ZGC", system_gc=True)
        po, _, _ = run_jvm("ParallelOld", system_gc=True)
        assert not z.crashed and not po.crashed
        assert z.gc_log.max_pause < 0.01
        assert po.gc_log.max_pause > 10 * z.gc_log.max_pause

    def test_stall_accounting_sums_to_wall_time(self):
        """Tracer stall spans, JVM extras and World counters agree."""
        tracer = Tracer()
        result, jvm, _ = run_jvm("ZGC", heap=1 * GB, bench="h2",
                                 tracer=tracer)
        assert not result.crashed
        world = jvm.world
        assert world.stall_count > 0
        spans = [e for e in tracer.ring if e.name == ALLOC_STALL]
        assert len(spans) == world.stall_count
        assert sum(e.dur for e in spans) == pytest.approx(
            world.total_stall_time)
        assert result.extras["alloc_stall_seconds"] == pytest.approx(
            world.total_stall_time)
        assert result.extras["alloc_stall_count"] == world.stall_count

    def test_relocation_events_traced(self):
        tracer = Tracer()
        result, _, _ = run_jvm("ZGC", tracer=tracer)
        relocs = [e for e in tracer.ring if e.name == CONCURRENT_RELOCATION]
        assert relocs
        assert all(e.dur > 0 for e in relocs)
        assert all(e.args["collector"] == "ZGC" for e in relocs)
        assert len(relocs) == len([c for c in result.gc_log.concurrent
                                   if c.phase == "concurrent-relocation"])

    def test_no_stalls_in_extras_when_none_happened(self):
        result, _, _ = run_jvm("ZGC")
        assert "alloc_stall_seconds" not in result.extras

    def test_byte_identical_reruns(self):
        a, _, _ = run_jvm("ZGC", heap=2 * GB, bench="h2")
        b, _, _ = run_jvm("ZGC", heap=2 * GB, bench="h2")
        assert a.execution_time == b.execution_time
        assert a.iteration_times == b.iteration_times
        assert [(p.start, p.duration, p.kind) for p in a.gc_log.pauses] == \
               [(p.start, p.duration, p.kind) for p in b.gc_log.pauses]
        assert a.extras.get("alloc_stall_seconds") == \
               b.extras.get("alloc_stall_seconds")


class TestShenandoah:
    def test_degenerates_instead_of_stalling(self):
        result, jvm, _ = run_jvm("ShenandoahGC", heap=1 * GB, bench="h2")
        assert not result.crashed
        assert jvm.world.stall_count == 0
        assert jvm.collector.degenerated_count > 0
        assert any(p.kind == "degenerated" for p in result.gc_log.pauses)

    def test_pause_vocabulary(self):
        result, _, _ = run_jvm("ShenandoahGC", heap=1 * GB, bench="h2")
        kinds = {p.kind for p in result.gc_log.pauses}
        assert kinds <= KNOWN_PAUSE_KINDS
        assert "young" in kinds

    def test_brooks_tax_higher_than_zgc(self):
        assert ShenandoahGC.base_tax > ZGC.base_tax


class TestEpsilon:
    def test_zero_pauses(self):
        result, _, _ = run_jvm("EpsilonGC", system_gc=True)
        assert not result.crashed
        assert result.gc_log.count == 0
        assert result.gc_log.concurrent == []

    def test_is_fastest_at_same_noise_draw(self):
        """With the collector-noise stream pinned, the ideal baseline is
        never slower than a real collector on the same coordinates."""
        # Compare against ZGC's 4% always-on tax: same seed, same
        # benchmark; the run multiplier differs per collector (paper
        # methodology), so compare per-iteration *minimums* over seeds.
        eps = min(run_jvm("EpsilonGC", seed=s)[0].execution_time
                  for s in (1, 2, 3))
        zgc = min(run_jvm("ZGC", seed=s)[0].execution_time
                  for s in (1, 2, 3))
        assert eps < zgc * 1.05  # ideal ~ at or below the taxed run

    def test_crashes_when_live_exceeds_heap(self):
        result, _, _ = run_jvm("EpsilonGC", heap=256 * MB, bench="h2",
                               iterations=1)
        assert result.crashed

    def test_not_allowed_in_gc_names(self):
        assert "EpsilonGC" not in ALL_GC_NAMES
