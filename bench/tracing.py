"""Spans and cProfile roll-ups for the traced benchmark run.

Everything here observes the program from outside: spans are timed
around calls into its public API, and cProfile is started and stopped by
the benchmark. Spans stay in memory until the run ends and are then
written as JSON lines, one span per line, with the self time of each
span (its duration minus the part of it that its children cover).
"""

from __future__ import annotations

import cProfile
import itertools
import json
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.perf.profile import engine_event_count

#: The program's packages that get a ``<pkg>.self_s`` roll-up.
LAYER_PACKAGES = ("sim", "heap", "gc", "jvm", "machine", "workloads",
                  "cassandra", "ycsb", "analysis", "campaign", "serve",
                  "telemetry")

#: cProfile call counts that must repeat exactly: (file tail, function).
CALL_COUNTERS = {
    ("heap/heap.py", "batch_live_bytes"): "heap.batch_live_bytes.calls",
    ("heap/lifetime.py", "_integrated_survival"): "heap.integrated_survival.calls",
    ("heap/cards.py", "record"): "heap.remset_record.calls",
    ("gc/g1.py", "_evacuate_old"): "gc.g1_evacuate_old.calls",
}


def package_of(filename: str) -> str:
    """The roll-up bucket of a cProfile entry's file name."""
    if filename == "~":
        return "builtin"
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        if i + 2 < len(parts) and parts[i + 1] in LAYER_PACKAGES:
            return parts[i + 1]
    return "other"


#: An event loop waiting for its sockets is idle, not working.
IDLE = ("~", 0, "<method 'poll' of 'select.epoll' objects>")


def rollup(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per package plus the exact call counters."""
    out: Dict[str, float] = {f"{p}.self_s": 0.0 for p in LAYER_PACKAGES}
    out.update({"builtin.self_s": 0.0, "other.self_s": 0.0,
                "profile.total_s": 0.0})
    out.update({name: 0 for name in CALL_COUNTERS.values()})
    for key, (_cc, nc, tt, _ct, _callers) in stats.stats.items():
        if key == IDLE:
            continue
        filename, _line, func = key
        out[f"{package_of(filename)}.self_s"] += tt
        out["profile.total_s"] += tt
        tail = "/".join(filename.replace("\\", "/").split("/")[-2:])
        counter = CALL_COUNTERS.get((tail, func))
        if counter is not None:
            out[counter] += nc
    return out


class Spans:
    """In-memory span log. Parents are explicit, so spans opened by
    interleaved asyncio tasks or by worker threads nest correctly.

    *ref* converts a ``time.monotonic`` interval into the seconds that
    :meth:`total` reports.
    """

    def __init__(self, ref: Callable[[float, float], float]):
        self._ref = ref
        self._ids = itertools.count(1)
        self.records: List[dict] = []

    @contextmanager
    def span(self, name: str, *, parent: Optional[int] = None,
             rid: Optional[int] = None, gc: Optional[str] = None):
        """Time the block as one span; yields the span's id."""
        sid = next(self._ids)
        start = time.monotonic()
        try:
            yield sid
        finally:
            self.records.append({"id": sid, "name": name, "start": start,
                                 "end": time.monotonic(), "parent": parent,
                                 "rid": rid, "gc": gc})

    def total(self, name: str, gc: Optional[str] = None) -> float:
        """Summed duration of the spans called *name* (under collector *gc*)."""
        return sum(self._ref(r["start"], r["end"]) for r in self.records
                   if r["name"] == name and (gc is None or r["gc"] == gc))

    def with_self_times(self) -> List[dict]:
        """The spans in start order, each with ``self_s`` added."""
        children: Dict[int, List[dict]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append(r)
        out = []
        for r in sorted(self.records, key=lambda r: (r["start"], r["id"])):
            covered, reach = 0.0, r["start"]
            for c in sorted(children.get(r["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], r["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(dict(r, self_s=r["end"] - r["start"] - covered))
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for r in self.with_self_times():
                fh.write(json.dumps(r, sort_keys=True) + "\n")


class Recorder:
    """What one traced pass collects: spans, per-thread profiles, and the
    exact counts read off each simulated run."""

    def __init__(self, ref: Callable[[float, float], float]):
        self.spans = Spans(ref)
        self._profiles: List[cProfile.Profile] = []
        self.counts = {"sim.engine_events": 0, "telemetry.events": 0,
                       "gc.pauses": 0}

    @contextmanager
    def profiled(self):
        """Profile the calling thread for the duration of the block."""
        prof = cProfile.Profile()
        self._profiles.append(prof)
        prof.enable()
        try:
            yield
        finally:
            prof.disable()

    def count_run(self, result, tracer) -> None:
        """Add one simulated run's pauses and its tracer's event counts."""
        self.counts["gc.pauses"] += result.gc_log.count
        self.counts["sim.engine_events"] += engine_event_count(tracer)
        self.counts["telemetry.events"] += tracer.seq

    def layers(self, factor: float) -> Dict[str, float]:
        """Package roll-up and call counters over every profiled thread,
        profile seconds scaled by *factor*."""
        stats = pstats.Stats(self._profiles[0])
        for prof in self._profiles[1:]:
            stats.add(prof)
        out = {name: value * factor if name.endswith("_s") else value
               for name, value in rollup(stats).items()}
        out.update(self.counts)
        return out
