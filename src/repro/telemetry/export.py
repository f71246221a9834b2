"""Trace exporters: JSONL, Chrome ``trace_event`` JSON, text reports.

The on-disk trace is JSON Lines with three record types::

    {"type": "meta",    "v": 1, "meta": {...run coordinates...}}
    {"type": "event",   "t": ..., "seq": ..., "name": ..., "dur": ..., "args": {...}}
    {"type": "summary", "counts": {...}, "events_dropped": ..., "pause_hist": {...}}

Every line is serialized with sorted keys and compact separators, and
every value derives from simulated time and the run's own configuration
— so two runs with the same seed produce **byte-identical** files (an
acceptance criterion pinned by ``tests/test_trace_cli.py``).

:func:`to_chrome` converts a trace to the Chrome ``trace_event`` format
(the JSON-object flavour with a ``traceEvents`` array), which Perfetto
and ``chrome://tracing`` open directly: STW pauses and concurrent phases
become complete (``X``) slices on separate tracks, instant events become
``i`` markers, and heap occupancy becomes a counter (``C``) track.
:func:`validate_chrome` checks the subset of the schema we emit and is
run in CI against a real exported trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..errors import ReproError
from .events import (ALLOC_STALL, CONCURRENT_PHASE, CONCURRENT_RELOCATION,
                     GC_PHASE, SAFEPOINT_END, TraceEvent)
from .hist import LogHistogram
from .tracer import Tracer

#: Bump on incompatible trace-file layout changes.
TRACE_SCHEMA_VERSION = 1

#: Microseconds per simulated second (trace_event timestamps are in µs).
_US = 1_000_000.0

_TID_MUTATOR = 0   # safepoints / mutator-side instants
_TID_STW = 1       # stop-the-world pauses
_TID_CONC = 2      # concurrent GC phases


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    """An in-memory trace: meta line + events + summary line."""

    meta: Dict[str, object] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def pause_hist(self) -> LogHistogram:
        """The trace's pause histogram (empty if the summary lacks one)."""
        d = self.summary.get("pause_hist")
        return LogHistogram.from_dict(d) if d else LogHistogram()

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow."""
        return int(self.summary.get("events_dropped", 0))


def write_trace(tracer: Tracer, path: str) -> None:
    """Serialize *tracer*'s state to the JSONL trace file *path*."""
    write_jsonl(path, tracer.meta, tracer.ring, tracer.summary())


def write_jsonl(path: str, meta: Dict[str, object],
                events: Iterable[TraceEvent],
                summary: Dict[str, object]) -> None:
    """Write the JSONL trace file *path*: the meta line, one line per
    event, then the summary line."""
    with open(path, "w") as fh:
        fh.write(_dumps({"type": "meta", "v": TRACE_SCHEMA_VERSION,
                         "meta": meta}) + "\n")
        for ev in events:
            line = {"type": "event"}
            line.update(ev.to_dict())
            fh.write(_dumps(line) + "\n")
        line = {"type": "summary"}
        line.update(summary)
        fh.write(_dumps(line) + "\n")


def read_trace(path: str) -> Trace:
    """Parse a JSONL trace file back into a :class:`Trace`."""
    trace = Trace()
    try:
        fh = open(path)
    except OSError as exc:
        raise ReproError(f"cannot open trace {path}: {exc}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except ValueError:
                raise ReproError(f"{path}:{lineno}: not valid JSON")
            kind = d.get("type")
            if kind == "meta":
                if d.get("v") != TRACE_SCHEMA_VERSION:
                    raise ReproError(
                        f"{path}: trace schema v{d.get('v')} != "
                        f"supported v{TRACE_SCHEMA_VERSION}")
                trace.meta = d.get("meta", {})
            elif kind == "event":
                trace.events.append(TraceEvent.from_dict(d))
            elif kind == "summary":
                trace.summary = {k: v for k, v in d.items() if k != "type"}
            else:
                raise ReproError(f"{path}:{lineno}: unknown record type {kind!r}")
    return trace


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------

def to_chrome(trace: Trace) -> Dict[str, object]:
    """Convert *trace* to a Chrome/Perfetto ``trace_event`` document."""
    out: List[Dict[str, object]] = []
    pid = 0
    out.append({"ph": "M", "pid": pid, "tid": _TID_MUTATOR, "ts": 0,
                "name": "process_name",
                "args": {"name": trace.meta.get("workload", "simulated-jvm")}})
    for tid, label in ((_TID_MUTATOR, "mutators/safepoints"),
                       (_TID_STW, "GC (stop-the-world)"),
                       (_TID_CONC, "GC (concurrent)")):
        out.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                    "name": "thread_name", "args": {"name": label}})
    for ev in trace.events:
        ts = ev.t * _US
        if ev.name == GC_PHASE:
            out.append({"ph": "X", "pid": pid, "tid": _TID_STW, "ts": ts,
                        "dur": ev.dur * _US,
                        "name": str(ev.args.get("kind", "gc")),
                        "cat": "gc", "args": ev.args})
            out.append({"ph": "C", "pid": pid, "tid": _TID_STW, "ts": ts,
                        "name": "heap_used",
                        "args": {"bytes": ev.args.get("heap_before", 0)}})
            out.append({"ph": "C", "pid": pid, "tid": _TID_STW,
                        "ts": ts + ev.dur * _US, "name": "heap_used",
                        "args": {"bytes": ev.args.get("heap_after", 0)}})
        elif ev.name == CONCURRENT_PHASE:
            out.append({"ph": "X", "pid": pid, "tid": _TID_CONC, "ts": ts,
                        "dur": ev.dur * _US,
                        "name": str(ev.args.get("phase", "concurrent")),
                        "cat": "gc", "args": ev.args})
        elif ev.name == CONCURRENT_RELOCATION:
            out.append({"ph": "X", "pid": pid, "tid": _TID_CONC, "ts": ts,
                        "dur": ev.dur * _US, "name": "relocation",
                        "cat": "gc", "args": ev.args})
        elif ev.name == ALLOC_STALL:
            out.append({"ph": "X", "pid": pid, "tid": _TID_MUTATOR, "ts": ts,
                        "dur": ev.dur * _US, "name": "alloc_stall",
                        "cat": "gc", "args": ev.args})
        elif ev.name == SAFEPOINT_END:
            out.append({"ph": "X", "pid": pid, "tid": _TID_MUTATOR, "ts": ts,
                        "dur": ev.dur * _US, "name": "safepoint",
                        "cat": "safepoint", "args": ev.args})
        else:
            out.append({"ph": "i", "pid": pid, "tid": _TID_MUTATOR, "ts": ts,
                        "s": "t", "name": ev.name, "cat": "telemetry",
                        "args": ev.args})
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": dict(trace.meta)}


def validate_chrome(doc: Dict[str, object]) -> List[str]:
    """Schema-check a trace_event document; returns a list of problems.

    Covers the subset we emit: top-level ``traceEvents`` array, per-event
    required keys, known phase codes, numeric non-negative timestamps,
    durations on complete events, scope on instant events.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in {"X", "i", "C", "M", "B", "E"}:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("name", "pid", "tid", "ts"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs numeric dur")
        if ph == "i" and ev.get("s") not in {"t", "p", "g"}:
            problems.append(f"{where}: instant event needs scope s in t/p/g")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: counter event needs args dict")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


def write_chrome(trace: Trace, path: str) -> None:
    """Export *trace* to Perfetto-openable JSON at *path* (validated)."""
    doc = to_chrome(trace)
    problems = validate_chrome(doc)
    if problems:  # pragma: no cover - emission and validator agree
        raise ReproError("chrome export failed validation: " + "; ".join(problems))
    with open(path, "w") as fh:
        fh.write(_dumps(doc))


# ----------------------------------------------------------------------
# Text reports
# ----------------------------------------------------------------------

_REPORT_QS: Sequence[float] = (50, 90, 99, 99.9, 100)


def render_report(trace: Trace, qs: Sequence[float] = _REPORT_QS) -> str:
    """Plain-text percentile report for one trace."""
    lines: List[str] = []
    meta = " ".join(f"{k}={trace.meta[k]}" for k in sorted(trace.meta))
    lines.append(f"trace: {meta or '(no meta)'}")
    counts = trace.summary.get("counts", {})
    total = trace.summary.get("events_emitted", len(trace.events))
    lines.append(f"events: {total} emitted, {len(trace.events)} buffered, "
                 f"{trace.dropped} dropped")
    for name in sorted(counts):
        lines.append(f"  {name:<20} {counts[name]}")
    hist = trace.pause_hist
    lines.append(f"pauses: {hist.total_count} "
                 f"(mean {hist.mean * 1000:.3f} ms, "
                 f"±{hist.relative_error * 100:.2f}% bucket precision)")
    for q in qs:
        lines.append(f"  p{q:<6g} {hist.percentile(q) * 1000:12.3f} ms")
    return "\n".join(lines)


def render_diff(a: Trace, b: Trace, label_a: str = "a", label_b: str = "b",
                qs: Sequence[float] = _REPORT_QS) -> str:
    """Side-by-side pause-histogram comparison of two traces."""
    ha, hb = a.pause_hist, b.pause_hist
    lines = [f"pause histogram diff: {label_a} vs {label_b}",
             f"{'':>8} {label_a[:14]:>14} {label_b[:14]:>14} {'delta':>10}"]
    rows = [("count", float(ha.total_count), float(hb.total_count), ""),
            ("mean", ha.mean * 1000, hb.mean * 1000, "ms")]
    for q in qs:
        rows.append((f"p{q:g}", ha.percentile(q) * 1000,
                     hb.percentile(q) * 1000, "ms"))
    for name, va, vb, unit in rows:
        if va > 0:
            delta = f"{100.0 * (vb - va) / va:+.1f}%"
        else:
            delta = "n/a" if vb == 0 else "+inf"
        lines.append(f"{name:>8} {va:>14.3f} {vb:>14.3f} {delta:>10} {unit}")
    return "\n".join(lines)
