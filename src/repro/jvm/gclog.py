"""HotSpot-style GC log emission and parsing.

The paper's server-side analysis (§4.1) is based on reading Cassandra's GC
logs. We provide the same workflow: :func:`format_gc_log` renders a
:class:`~repro.gc.stats.GCLog` in a ``-XX:+PrintGCDetails``-inspired
format, and :func:`parse_gc_log` reads it back, so analysis pipelines can
be exercised end-to-end on text logs.

Example line::

    12.345: [GC (Allocation Failure) [ParallelOldGC: young] 812M->211M(16384M), 0.1830 secs]
"""

from __future__ import annotations

import re

from ..errors import ReproError
from ..gc.stats import GCLog, PauseRecord
from ..units import MB

_LINE_RE = re.compile(
    r"^(?P<start>[0-9.]+): \[(?P<major>GC|Full GC) \((?P<cause>.*?)\) "
    r"\[(?P<collector>[\w]+): (?P<kind>[\w-]+)\] "
    r"(?P<before>[0-9.]+)M->(?P<after>[0-9.]+)M\((?P<capacity>[0-9.]+)M\), "
    r"(?P<duration>[0-9.]+) secs\]$"
)


def format_pause(p: PauseRecord, heap_capacity: float) -> str:
    """Render one pause as a GC-log line.

    Durations print with seven decimals (0.1 µs). The historical ``.4f``
    rounded to 0.1 ms — re-parsing a log then shifted sub-millisecond
    pauses across bucket boundaries of the telemetry histogram, so the
    percentiles of a round-tripped log disagreed with the in-memory
    :attr:`~repro.gc.stats.GCLog.pause_hist` (the source of truth). At
    0.1 µs the text round-trip is finer than the histogram's bucket
    resolution and the percentiles match within one bucket width
    (``tests/test_telemetry.py`` pins this).
    """
    major = "Full GC" if p.is_full else "GC"
    return (
        f"{p.start:.3f}: [{major} ({p.cause}) "
        f"[{p.collector}: {p.kind}] "
        f"{p.heap_used_before / MB:.0f}M->{p.heap_used_after / MB:.0f}M"
        f"({heap_capacity / MB:.0f}M), {p.duration:.7f} secs]"
    )


def format_gc_log(log: GCLog, heap_capacity: float) -> str:
    """Render a whole GC log (one line per STW pause)."""
    return "\n".join(format_pause(p, heap_capacity) for p in log.pauses)


def parse_gc_log(text: str) -> GCLog:
    """Parse a log produced by :func:`format_gc_log` back into a GCLog.

    Raises :class:`~repro.errors.ReproError` on malformed non-empty lines.
    """
    log = GCLog()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ReproError(f"unparseable GC log line {lineno}: {line!r}")
        d = m.groupdict()
        log.record(
            PauseRecord(
                start=float(d["start"]),
                duration=float(d["duration"]),
                kind=d["kind"],
                cause=d["cause"],
                collector=d["collector"],
                heap_used_before=float(d["before"]) * MB,
                heap_used_after=float(d["after"]) * MB,
            )
        )
    return log
