"""Tests for the runtime InvariantAuditor (repro.lint.audit)."""

import math

import pytest

from repro import GB, JVM, JVMConfig
from repro.gc.registry import GC_NAMES
from repro.gc.stats import PauseRecord
from repro.lint import (
    AuditError,
    InvariantAuditor,
    validate_pause_record,
)
from repro.perf import fastpath
from repro.units import MB
from repro.workloads.dacapo import get_benchmark


def pause_record(**overrides):
    kw = dict(
        start=1.0, duration=0.01, kind="young", cause="Allocation Failure",
        collector="ParallelOldGC", heap_used_before=64 * MB,
        heap_used_after=32 * MB, promoted=1 * MB,
    )
    kw.update(overrides)
    return PauseRecord(**kw)


class TestSchema:
    def test_well_formed_record_passes(self):
        assert validate_pause_record(pause_record()) == []

    @pytest.mark.parametrize("field,value", [
        ("start", float("nan")),
        ("start", -1.0),
        ("duration", float("inf")),
        ("duration", -0.5),
        ("kind", "banana"),
        ("cause", ""),
        ("collector", ""),
        ("promoted", float("nan")),
    ])
    def test_malformed_field_reported(self, field, value):
        problems = validate_pause_record(pause_record(**{field: value}))
        assert any(p.startswith(f"{field}:") for p in problems)

    def test_collection_never_creates_bytes(self):
        problems = validate_pause_record(
            pause_record(heap_used_before=10 * MB, heap_used_after=20 * MB)
        )
        assert any(p.startswith("heap_used_after:") for p in problems)

    def test_used_before_bounded_by_capacity(self):
        problems = validate_pause_record(
            pause_record(heap_used_before=100 * MB), heap_capacity=64 * MB
        )
        assert any(p.startswith("heap_used_before:") for p in problems)


class TestFullRunsAreClean:
    """The ISSUE's acceptance bar: byte conservation and STW exclusivity
    hold over full DaCapo-profile simulations for every collector."""

    @pytest.mark.parametrize("gc", GC_NAMES)
    def test_dacapo_run_audits_clean(self, gc, small_jvm_config):
        jvm = JVM(small_jvm_config(gc=gc))
        auditor = InvariantAuditor()
        with auditor.attached(jvm):
            jvm.run(get_benchmark("xalan"), iterations=2, system_gc=True)
        auditor.assert_clean()
        assert auditor.counters["minor_collections"] > 0
        assert auditor.counters["pauses"] > 0
        assert auditor.counters["allocations"] > 0
        assert "clean" in auditor.summary()

    def test_stranding_full_collections_audit_clean(self):
        """ParallelOld's System.gc() full collections on h2 at 250m all
        leave young rows in the survivor space; byte conservation checks
        each one's freed bytes, space by space, against how much the
        heap shrank."""
        jvm = JVM(JVMConfig(gc="ParallelOld", heap=250 * MB, seed=1))
        auditor = InvariantAuditor()
        with auditor.attached(jvm):
            jvm.run(get_benchmark("h2"), iterations=5, system_gc=True)
        auditor.assert_clean()
        assert auditor.counters["full_collections"] == 356
        assert auditor.counters["minor_collections"] == 357


class TestFastPathAudited:
    """Span commits allocate through ``heap.allocate_bump``; the auditor
    checks those allocations like any other."""

    @pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
    def test_bump_allocations_are_checked(self, enabled):
        previous = fastpath.set_enabled(enabled)
        try:
            jvm = JVM(JVMConfig(gc="ParallelOld", heap=16 * GB, seed=0))
            with InvariantAuditor().attached(jvm) as auditor:
                jvm.run(get_benchmark("batik"), iterations=10, system_gc=True)
        finally:
            fastpath.set_enabled(previous)
        auditor.assert_clean()
        assert auditor.counters["allocations"] == 76


class TestViolationDetection:
    def test_corrupted_minor_accounting_is_caught(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        orig = jvm.heap.minor_collection

        def corrupt(now, tenuring, **kw):
            vol = orig(now, tenuring, **kw)
            vol.promoted += 5 * MB  # misreport: bytes from nowhere
            return vol

        jvm.heap.minor_collection = corrupt
        auditor = InvariantAuditor().attach(jvm)
        jvm.heap.minor_collection(0.0, 15)
        assert not auditor.ok
        assert auditor.violations[0].check == "byte-conservation"
        with pytest.raises(AuditError, match="leaks bytes"):
            auditor.assert_clean()

    def test_non_finite_clock_is_caught(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        jvm.engine.call_at(1.0, lambda: setattr(jvm.engine, "now", float("nan")))
        jvm.engine.step()
        assert [v.check for v in auditor.violations] == ["clock"]

    def test_allocation_during_stw_is_caught_live(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        jvm.world.stw = True
        jvm.heap.allocate(0.0, 1024.0, None, pinned=True)
        assert any(v.check == "stw-exclusivity" for v in auditor.violations)

    def test_allocation_inside_pause_caught_posthoc(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        jvm.heap.allocate(5.0, 1024.0, None, pinned=True)  # mutator allocates at t=5
        jvm.gc_log.record(pause_record(start=4.0, duration=2.0))
        assert any(
            v.check == "stw-exclusivity" and "inside STW pause" in v.detail
            for v in auditor.violations
        )

    def test_overlapping_pauses_are_caught(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        jvm.gc_log.record(pause_record(start=1.0, duration=1.0))
        jvm.gc_log.record(pause_record(start=1.5, duration=0.1))
        assert any(
            v.check == "stw-exclusivity" and "overlaps" in v.detail
            for v in auditor.violations
        )

    def test_malformed_record_caught_at_runtime(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        jvm.gc_log.record(pause_record(kind="banana"))
        assert any(v.check == "gc-log-schema" for v in auditor.violations)

    def test_strict_mode_raises_immediately(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        InvariantAuditor(strict=True).attach(jvm)
        jvm.world.stw = True
        with pytest.raises(AuditError):
            jvm.heap.allocate(0.0, 1024.0, None, pinned=True)


class TestLifecycle:
    def test_detach_restores_instrumented_methods(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        assert "minor_collection" in jvm.heap.__dict__
        assert jvm.engine.step_hook is not None  # slotted: hook, not patch
        auditor.detach()
        assert "minor_collection" not in jvm.heap.__dict__
        assert jvm.engine.step_hook is None
        assert "record" not in jvm.gc_log.__dict__

    def test_double_attach_rejected(self, small_jvm_config):
        jvm = JVM(small_jvm_config())
        auditor = InvariantAuditor().attach(jvm)
        with pytest.raises(AuditError):
            auditor.attach(jvm)

    def test_detached_run_behaves_identically(self, small_jvm_config):
        """Audited and unaudited runs produce the same simulation — the
        auditor is pure observation."""
        def total_pause(audit):
            jvm = JVM(small_jvm_config())
            auditor = InvariantAuditor()
            if audit:
                auditor.attach(jvm)
            result = jvm.run(get_benchmark("lusearch"), iterations=2,
                             system_gc=True)
            return result.gc_log.total_pause

        assert math.isclose(total_pause(True), total_pause(False), rel_tol=0.0)
