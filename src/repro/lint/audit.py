"""Runtime invariant auditing — the dynamic half of ``repro.lint``.

:class:`InvariantAuditor` is the simulator's analogue of HotSpot's
``-XX:+VerifyBeforeGC``/``-XX:+VerifyAfterGC``: attached to a
:class:`~repro.jvm.jvm.JVM`, it instruments the engine, heap and GC log
and *systematically* asserts what
:meth:`~repro.heap.heap.GenerationalHeap.check_invariants` only
spot-checks:

* **monotonic clock** — the engine's simulated time never runs backwards
  and never goes non-finite;
* **STW exclusivity** — no mutator progress (heap allocation, card
  dirtying) while a stop-the-world pause is in flight, checked both live
  (at the allocation site) and post-hoc (allocation timestamps against
  recorded pause intervals);
* **byte conservation** — for every minor collection,
  ``survived + promoted + freed == pre-collection young used``; for full
  collections and sweeps, bytes leaving the heap equal the reported
  freed volumes;
* **GC-log well-formedness** — every :class:`~repro.gc.stats.PauseRecord`
  validates against :data:`PAUSE_RECORD_SCHEMA` and pauses never overlap.

Violations are collected (``strict=False``, the default) and raised
together by :meth:`InvariantAuditor.assert_clean`, or raised immediately
(``strict=True``). The auditor is pure observation: detaching restores
the instrumented objects bit-for-bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import HeapError, ReproError

#: Pause kinds the simulator is allowed to emit (HotSpot-style). The
#: last row is the fully-concurrent collectors' vocabulary: ZGC's three
#: sub-millisecond synchronisation points and Shenandoah's degenerated
#: (finish-evacuation-at-STW-speed) pause.
KNOWN_PAUSE_KINDS = frozenset(
    {"young", "full", "mixed", "initial-mark", "remark", "cleanup", "vm-op",
     "mark-start", "mark-end", "relocate-start", "degenerated"}
)

#: Declarative schema for one GC-log pause record: field -> (predicate,
#: description). Used by :func:`validate_pause_record`.
PAUSE_RECORD_SCHEMA = {
    "start": (lambda r, cap: math.isfinite(r.start) and r.start >= 0.0,
              "start must be a finite, non-negative simulated time"),
    "duration": (lambda r, cap: math.isfinite(r.duration) and r.duration >= 0.0,
                 "duration must be finite and non-negative"),
    "kind": (lambda r, cap: r.kind in KNOWN_PAUSE_KINDS,
             f"kind must be one of {sorted(KNOWN_PAUSE_KINDS)}"),
    "cause": (lambda r, cap: isinstance(r.cause, str) and bool(r.cause),
              "cause must be a non-empty HotSpot-style cause string"),
    "collector": (lambda r, cap: isinstance(r.collector, str) and bool(r.collector),
                  "collector must be a non-empty name"),
    "heap_used_before": (
        lambda r, cap: math.isfinite(r.heap_used_before)
        and r.heap_used_before >= 0.0
        and (cap is None or r.heap_used_before <= cap * (1.0 + 1e-3)),
        "heap_used_before must be finite, >= 0 and within heap capacity",
    ),
    "heap_used_after": (
        lambda r, cap: math.isfinite(r.heap_used_after)
        and r.heap_used_after >= 0.0
        and r.heap_used_after <= r.heap_used_before + 1.0,
        "heap_used_after must be finite, >= 0 and <= heap_used_before "
        "(a collection never creates bytes)",
    ),
    "promoted": (lambda r, cap: math.isfinite(r.promoted) and r.promoted >= 0.0,
                 "promoted must be finite and non-negative"),
}


def validate_pause_record(record, heap_capacity: Optional[float] = None) -> List[str]:
    """Check *record* against :data:`PAUSE_RECORD_SCHEMA`.

    Returns a list of problem descriptions (empty = well-formed).
    """
    problems = []
    for field, (pred, description) in PAUSE_RECORD_SCHEMA.items():
        try:
            ok = pred(record, heap_capacity)
        except (TypeError, AttributeError):
            ok = False
        if not ok:
            problems.append(f"{field}: {description} (got {getattr(record, field, '<missing>')!r})")
    return problems


#: Sentinel distinguishing "attribute was absent" (restore by deletion)
#: from "attribute was None" (restore by assignment — e.g. the engine's
#: ``step_hook``, whose slot must stay readable after detach).
_MISSING = object()


class AuditError(ReproError):
    """One or more runtime invariants were violated during an audited run."""


@dataclass(frozen=True)
class AuditViolation:
    """A single invariant violation observed at a simulated time."""

    check: str   #: clock | stw-exclusivity | byte-conservation | gc-log-schema | heap-invariant | stall-accounting
    time: float  #: simulated time of the observation
    detail: str

    def format(self) -> str:
        """Human-readable one-liner."""
        return f"[{self.check}] t={self.time:.6f}: {self.detail}"


class InvariantAuditor:
    """Attachable runtime auditor for a single JVM run.

    Typical use::

        jvm = JVM(config)
        auditor = InvariantAuditor()
        auditor.attach(jvm)
        result = jvm.run(workload, ...)
        auditor.assert_clean()      # raises AuditError on any violation

    or as a context manager::

        with InvariantAuditor().attached(jvm) as auditor:
            jvm.run(workload, ...)
    """

    def __init__(self, *, strict: bool = False):
        self.strict = strict
        self.violations: List[AuditViolation] = []
        self.counters: Dict[str, int] = {
            "steps": 0, "minor_collections": 0, "full_collections": 0,
            "sweeps": 0, "allocations": 0, "pauses": 0, "alloc_stalls": 0,
        }
        self._jvm = None
        self._originals: List[tuple] = []
        #: Sorted mutator allocation timestamps (STW-exclusivity post-check).
        self._alloc_times: List[float] = []
        self._last_pause_end = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, jvm) -> "InvariantAuditor":
        """Instrument *jvm*'s engine, heap and GC log. Returns self."""
        if self._jvm is not None:
            raise AuditError("auditor is already attached")
        self._jvm = jvm
        self._wrap_engine(jvm.engine)
        self._wrap_heap(jvm.heap, jvm)
        self._wrap_gc_log(jvm.gc_log, jvm)
        self._wrap_world(jvm.world)
        return self

    def detach(self) -> None:
        """Restore every instrumented method."""
        for obj, name, original in reversed(self._originals):
            if original is _MISSING:
                try:
                    delattr(obj, name)
                except AttributeError:  # pragma: no cover - defensive
                    pass
            else:
                setattr(obj, name, original)
        self._originals.clear()
        self._jvm = None

    def attached(self, jvm):
        """Context-manager form of :meth:`attach`/:meth:`detach`."""
        auditor = self

        class _Ctx:
            def __enter__(self):
                auditor.attach(jvm)
                return auditor

            def __exit__(self, exc_type, exc, tb):
                auditor.detach()
                return False

        return _Ctx()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when no violation has been observed."""
        return not self.violations

    def assert_clean(self) -> None:
        """Raise :class:`AuditError` when any invariant was violated."""
        if self.violations:
            lines = "\n".join(v.format() for v in self.violations[:20])
            more = len(self.violations) - 20
            if more > 0:
                lines += f"\n... and {more} more"
            raise AuditError(
                f"{len(self.violations)} invariant violation(s):\n{lines}"
            )

    def summary(self) -> str:
        """One-line audit report."""
        c = self.counters
        verdict = "clean" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"audit {verdict}: {c['steps']} events, "
            f"{c['minor_collections']} minor / {c['full_collections']} full "
            f"collections, {c['sweeps']} sweeps, {c['pauses']} pauses, "
            f"{c['allocations']} allocations checked"
        )

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------

    def _violate(self, check: str, time: float, detail: str) -> None:
        violation = AuditViolation(check, time, detail)
        self.violations.append(violation)
        if self.strict:
            raise AuditError(violation.format())

    @staticmethod
    def _epsilon(magnitude: float) -> float:
        """Absolute tolerance for byte accounting at a given magnitude."""
        return max(1.0, 1e-6 * abs(magnitude))

    def _patch(self, obj, name, replacement) -> None:
        self._originals.append((obj, name, obj.__dict__.get(name, _MISSING)))
        setattr(obj, name, replacement)

    # ------------------------------------------------------------------
    # Engine: monotonic, finite clock
    # ------------------------------------------------------------------

    def _wrap_engine(self, engine) -> None:
        # The engine is slotted and its run loop inlines step(), so the
        # clock check rides the first-class step_hook instead of a patch.
        def audited_step(before: float, after: float) -> None:
            self.counters["steps"] += 1
            if not math.isfinite(after):
                self._violate("clock", before,
                              f"engine clock became non-finite: {after!r}")
            elif after < before:
                self._violate(
                    "clock", before,
                    f"engine clock ran backwards: {before!r} -> {after!r}",
                )

        self._originals.append((engine, "step_hook", engine.step_hook))
        engine.step_hook = audited_step

    # ------------------------------------------------------------------
    # Heap: byte conservation + structural invariants + STW exclusivity
    # ------------------------------------------------------------------

    def _wrap_heap(self, heap, jvm) -> None:
        world = jvm.world

        def check_structure(now: float) -> None:
            try:
                heap.check_invariants(now)
            except HeapError as exc:
                self._violate("heap-invariant", now, str(exc))

        orig_minor = heap.minor_collection

        def audited_minor(now, tenuring_threshold, **kwargs):
            young_before = heap.young_used
            vol = orig_minor(now, tenuring_threshold, **kwargs)
            self.counters["minor_collections"] += 1
            accounted = (
                vol.copied_to_survivor + vol.promoted
                + vol.eden_freed + vol.survivor_freed
            )
            if abs(accounted - young_before) > self._epsilon(young_before):
                self._violate(
                    "byte-conservation", now,
                    "minor collection leaks bytes: survived+promoted+freed="
                    f"{accounted:.1f} but pre-collection young used was "
                    f"{young_before:.1f} (delta {accounted - young_before:+.1f})",
                )
            check_structure(now)
            return vol

        orig_full = heap.full_collection

        def audited_full(now, **kwargs):
            used_before = heap.used
            vol = orig_full(now, **kwargs)
            used_after = heap.used
            self.counters["full_collections"] += 1
            delta = used_before - used_after
            if abs(delta - vol.total_freed) > self._epsilon(used_before):
                self._violate(
                    "byte-conservation", now,
                    f"full collection accounting drift: heap shrank by "
                    f"{delta:.1f} bytes but reported {vol.total_freed:.1f} "
                    "freed",
                )
            check_structure(now)
            return vol

        orig_sweep = heap.sweep_old

        def audited_sweep(now, **kwargs):
            used_before = heap.old.used
            vol = orig_sweep(now, **kwargs)
            used_after = heap.old.used
            self.counters["sweeps"] += 1
            delta = used_before - used_after
            if abs(delta - vol.old_freed) > self._epsilon(used_before):
                self._violate(
                    "byte-conservation", now,
                    f"old-gen sweep drift: old.used shrank by {delta:.1f} "
                    f"bytes but reported {vol.old_freed:.1f} freed",
                )
            check_structure(now)
            return vol

        def record_mutator_allocation(now: float) -> None:
            self.counters["allocations"] += 1
            bisect.insort(self._alloc_times, now)
            if world.stw:
                self._violate(
                    "stw-exclusivity", now,
                    "mutator allocated during a stop-the-world pause",
                )

        orig_alloc = heap.allocate

        def audited_alloc(now, n_bytes, *args, **kwargs):
            record_mutator_allocation(now)
            return orig_alloc(now, n_bytes, *args, **kwargs)

        orig_alloc_old = heap.allocate_old

        def audited_alloc_old(now, n_bytes, *args, **kwargs):
            record_mutator_allocation(now)
            return orig_alloc_old(now, n_bytes, *args, **kwargs)

        orig_alloc_bump = heap.allocate_bump

        def audited_alloc_bump(now, n_bytes, *args, **kwargs):
            record_mutator_allocation(now)
            return orig_alloc_bump(now, n_bytes, *args, **kwargs)

        orig_alloc_bumps = heap.allocate_bumps

        def audited_alloc_bumps(times, n_bytes, *args, count, **kwargs):
            for now in times:
                for _ in range(count):
                    record_mutator_allocation(now)
            return orig_alloc_bumps(times, n_bytes, *args, count=count, **kwargs)

        orig_dirty = heap.dirty_cards

        def audited_dirty(n_bytes, *args, **kwargs):
            if world.stw:
                self._violate(
                    "stw-exclusivity", jvm.engine.now,
                    "mutator dirtied cards during a stop-the-world pause",
                )
            return orig_dirty(n_bytes, *args, **kwargs)

        self._patch(heap, "minor_collection", audited_minor)
        self._patch(heap, "full_collection", audited_full)
        self._patch(heap, "sweep_old", audited_sweep)
        self._patch(heap, "allocate", audited_alloc)
        self._patch(heap, "allocate_old", audited_alloc_old)
        self._patch(heap, "allocate_bump", audited_alloc_bump)
        self._patch(heap, "allocate_bumps", audited_alloc_bumps)
        self._patch(heap, "dirty_cards", audited_dirty)

    # ------------------------------------------------------------------
    # GC log: schema + pause exclusivity
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # World: allocation-stall accounting (fully-concurrent collectors)
    # ------------------------------------------------------------------

    def _wrap_world(self, world) -> None:
        original = world._record_stall

        def audited_record_stall(now, seconds):
            self.counters["alloc_stalls"] += 1
            if not (math.isfinite(seconds) and seconds >= 0.0):
                self._violate(
                    "stall-accounting", now,
                    f"allocation stall with non-finite/negative duration "
                    f"{seconds!r}",
                )
            if world.stw:
                self._violate(
                    "stw-exclusivity", now,
                    "allocation stall recorded while the world is stopped "
                    "(stalls are served after the safepoint releases)",
                )
            return original(now, seconds)

        self._patch(world, "_record_stall", audited_record_stall)

    # ------------------------------------------------------------------
    # GC log: schema + pause exclusivity
    # ------------------------------------------------------------------

    def _wrap_gc_log(self, gc_log, jvm) -> None:
        heap_capacity = jvm.config.heap_bytes
        original = gc_log.record

        def audited_record(record):
            self.counters["pauses"] += 1
            for problem in validate_pause_record(record, heap_capacity):
                self._violate(
                    "gc-log-schema", record.start,
                    f"malformed pause record — {problem}",
                )
            if record.start < self._last_pause_end - 1e-9:
                self._violate(
                    "stw-exclusivity", record.start,
                    f"pause starting at {record.start:.6f} overlaps the "
                    f"previous pause ending at {self._last_pause_end:.6f}",
                )
            self._last_pause_end = max(self._last_pause_end, record.end)
            # Post-hoc STW exclusivity: no mutator allocation strictly
            # inside this pause's interval.
            lo = bisect.bisect_right(self._alloc_times, record.start + 1e-12)
            hi = bisect.bisect_left(self._alloc_times, record.end - 1e-12)
            if hi > lo:
                self._violate(
                    "stw-exclusivity", record.start,
                    f"{hi - lo} mutator allocation(s) inside STW pause "
                    f"[{record.start:.6f}, {record.end:.6f}]",
                )
            return original(record)

        self._patch(gc_log, "record", audited_record)
