"""LBO cost distillation — "Distilling the Real Cost of Production GCs".

The Lower Bound Overhead methodology distills each collector's *total*
GC cost into one number: run every collector over a ladder of heap
sizes, divide by an **ideal** baseline run in which reclamation is free
(:class:`~repro.gc.epsilon.EpsilonGC`), and take the *minimum* overhead
across heap sizes — the cost the collector cannot buy its way out of
with more memory. Alongside the distilled throughput cost the study
reports each collector's pause profile (nearest-rank P50/P90/P99/P99.9
and max over the pooled pause log) and its allocation-stall /
degenerated-cycle counts, reproducing the paper's qualitative result:
the fully-concurrent collectors trade single-digit throughput overhead
for orders-of-magnitude lower P99.9 pauses than ParallelOld.

Every JVM run is a content-addressed campaign cell
(:class:`~repro.campaign.cells.CellSpec`), so a shared
:class:`~repro.campaign.store.ResultStore` serves repeat studies from
cache and the study JSON is byte-identical either way — the CI
``study-smoke`` job enforces exactly that with ``cmp``. Because separate
JVM invocations carry independent log-normal run noise (the paper's
§3.2 methodology), overheads are averaged over the config's *seeds* and
the distilled minimum is floored at zero: with finitely many
invocations a low-overhead collector can "beat" the ideal baseline by
luck of the draw, and a negative GC cost is always noise.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..gc.registry import TABLE8_GC_NAMES, resolve_gc
from ..units import GB, parse_size
from .report import render_table
# nearest_rank keeps its import path here.
from .study import (Axis, GridConfig, PauseTail, StudyResult, nearest_rank,
                    serve_cells)

#: Bump on incompatible study-output changes (part of the JSON).
LBO_SCHEMA_VERSION = 1

#: The ideal no-GC-cost oracle every overhead is measured against.
IDEAL_GC = "EpsilonGC"

#: Pause percentiles reported per collector (paper's tail view).
_QS = (50.0, 90.0, 99.0, 99.9)


def _studied_gc(gc) -> str:
    name = resolve_gc(gc).value
    if name == IDEAL_GC:
        raise ConfigError(
            f"{IDEAL_GC} is the implicit ideal baseline; "
            "it cannot also be a studied collector")
    return name


@dataclass(frozen=True)
class LBOConfig(GridConfig):
    """One LBO study: collectors x heap ladder vs the ideal baseline."""

    benchmarks: Tuple[str, ...] = ("xalan",)
    gcs: Tuple[str, ...] = tuple(TABLE8_GC_NAMES)
    heaps: Tuple[object, ...] = (8 * GB, 16 * GB, 32 * GB)
    seeds: Tuple[int, ...] = (1, 2, 3)
    iterations: int = 6
    system_gc: bool = False

    STUDY = "an LBO study"
    AXES = (Axis("benchmarks", "benchmark"),
            Axis("gcs", "collector", _studied_gc),
            Axis("heaps", "heap size", lambda h: float(parse_size(h)),
                 sort=True),
            Axis("seeds", "seed", int, sort=True))

    def cells(self) -> List["CellSpec"]:
        """Every cell the study needs, ideal baseline first, in the
        deterministic execution order."""
        return [self.cell(gc, benchmark, heap, seed)
                for gc in (IDEAL_GC,) + self.gcs
                for benchmark in self.benchmarks
                for heap in self.heaps
                for seed in self.seeds]


def _heap_key(heap: float) -> str:
    """Canonical JSON key for one heap rung (bytes, integral)."""
    return f"{heap:.0f}"


@dataclass
class CollectorDistillate:
    """Everything the study reports about one collector."""

    gc: str
    #: heap key -> mean overhead vs ideal (None where every seed crashed).
    overheads: Dict[str, Optional[float]] = field(default_factory=dict)
    #: The distilled cost: min over heaps, floored at zero. None when no
    #: heap rung produced a valid overhead.
    lbo: Optional[float] = None
    #: The heap (bytes) achieving the minimum.
    lbo_heap: Optional[float] = None
    pauses: PauseTail = field(default_factory=PauseTail)
    stall_count: int = 0
    stall_seconds: float = 0.0
    crashed_cells: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (field order fixed by sort_keys)."""
        return {
            "gc": self.gc,
            "overheads": {k: (None if v is None else round(v, 6))
                          for k, v in self.overheads.items()},
            "lbo": None if self.lbo is None else round(self.lbo, 6),
            "lbo_heap": self.lbo_heap,
            "pauses": self.pauses.to_dict(),
            "stalls": {"count": self.stall_count,
                       "seconds": round(self.stall_seconds, 6)},
            "crashed_cells": self.crashed_cells,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CollectorDistillate":
        """Inverse of :meth:`to_dict` (for ``report``)."""
        return cls(
            gc=d["gc"], overheads=dict(d["overheads"]),
            lbo=d["lbo"], lbo_heap=d["lbo_heap"],
            pauses=PauseTail(**d["pauses"]),
            stall_count=d["stalls"]["count"],
            stall_seconds=d["stalls"]["seconds"],
            crashed_cells=d["crashed_cells"],
        )


@dataclass
class LBOStudyResult(StudyResult):
    """All distillates plus the knobs that produced them."""

    config: LBOConfig
    #: benchmark -> heap key -> mean ideal execution time (None = crashed).
    baseline: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    distillates: List[CollectorDistillate] = field(default_factory=list)
    #: Cache accounting (stdout-only — a cached rerun must stay
    #: byte-identical to the run that populated the cache).
    cache_hits: int = 0
    cells_total: int = 0

    def distillate(self, gc: str) -> CollectorDistillate:
        """The distillate for one collector."""
        gc = resolve_gc(gc).value
        for d in self.distillates:
            if d.gc == gc:
                return d
        raise ConfigError(f"no distillate for {gc}")

    def ranking(self) -> List[str]:
        """Collectors sorted by distilled cost (valid LBOs first,
        ascending; crashed-everywhere collectors last, by name)."""
        return [d.gc for d in sorted(
            self.distillates,
            key=lambda d: (d.lbo is None, d.lbo if d.lbo is not None else 0.0,
                           d.gc))]

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form of the whole study."""
        return {
            "v": LBO_SCHEMA_VERSION,
            "config": {**self.config.echo(), "ideal": IDEAL_GC},
            "baseline": {
                b: {k: (None if v is None else round(v, 6))
                    for k, v in heaps.items()}
                for b, heaps in self.baseline.items()
            },
            "collectors": {d.gc: d.to_dict() for d in self.distillates},
            "ranking": self.ranking(),
        }

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """The distilled-cost table, cheapest collector first."""
        rows = []
        for gc in self.ranking():
            d = self.distillate(gc)
            rows.append([
                d.gc,
                ("-" if d.lbo is None else f"{100.0 * d.lbo:.2f}"),
                ("-" if d.lbo_heap is None
                 else f"{d.lbo_heap / GB:g}g"),
                f"{1e3 * d.pauses.percentiles.get('p50', 0.0):.2f}",
                f"{1e3 * d.pauses.percentiles.get('p99', 0.0):.2f}",
                f"{1e3 * d.pauses.percentiles.get('p99.9', 0.0):.2f}",
                f"{1e3 * d.pauses.max:.2f}",
                d.pauses.count,
                d.stall_count,
                d.crashed_cells,
            ])
        return render_table(
            ["collector", "LBO %", "@heap", "P50 ms", "P99 ms",
             "P99.9 ms", "max ms", "pauses", "stalls", "crashed"],
            rows,
            title="LBO cost distillation (min overhead vs ideal no-GC run)",
        )

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "LBOStudyResult":
        """Rehydrate a study from its JSON (``report`` path)."""
        config = LBOConfig.from_echo(d["config"])
        result = cls(config=config,
                     baseline={b: dict(h) for b, h in d["baseline"].items()})
        # `collectors` is keyed by name; rebuild in ranking order so
        # render() round-trips exactly.
        by_name = {k: CollectorDistillate.from_dict(v)
                   for k, v in d["collectors"].items()}
        result.distillates = [by_name[gc] for gc in config.gcs]
        return result


# ----------------------------------------------------------------------
# the study
# ----------------------------------------------------------------------


def run_lbo_study(config: LBOConfig, store=None) -> LBOStudyResult:
    """Run the full collector x heap ladder against the ideal baseline."""
    result = LBOStudyResult(config=config)

    #: (gc, benchmark, heap_key) -> mean execution time (None = crashed).
    mean_exec: Dict[Tuple[str, str, str], Optional[float]] = {}
    #: gc -> pooled pause durations / stall totals over non-crashed cells.
    pooled_pauses: Dict[str, List[float]] = defaultdict(list)
    stalls: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    crashes: Dict[str, int] = defaultdict(int)

    rungs = groupby(serve_cells(result, config.cells(), store),
                    key=lambda pair: (pair[0].gc, pair[0].benchmark,
                                      _heap_key(pair[0].heap)))
    for key, pairs in rungs:
        gc = key[0]
        times = []
        for _cell, run in pairs:
            if run.crashed:
                crashes[gc] += 1
                continue
            times.append(run.execution_time)
            pooled_pauses[gc].extend(p.duration for p in run.gc_log.pauses)
            stalls[gc][0] += int(run.extras.get("alloc_stall_count", 0))
            stalls[gc][1] += float(run.extras.get("alloc_stall_seconds", 0.0))
        mean_exec[key] = sum(times) / len(times) if times else None

    for benchmark in config.benchmarks:
        result.baseline[benchmark] = {
            _heap_key(h): mean_exec[(IDEAL_GC, benchmark, _heap_key(h))]
            for h in config.heaps
        }

    for gc in config.gcs:
        d = CollectorDistillate(gc=gc)
        for heap in config.heaps:
            key = _heap_key(heap)
            ratios = []
            for benchmark in config.benchmarks:
                t_gc = mean_exec[(gc, benchmark, key)]
                t_ideal = mean_exec[(IDEAL_GC, benchmark, key)]
                if t_gc is None or t_ideal is None or t_ideal <= 0.0:
                    continue
                ratios.append(t_gc / t_ideal - 1.0)
            # A rung only counts when EVERY benchmark produced a valid
            # ratio — a partial mean would not be comparable across heaps.
            if len(ratios) == len(config.benchmarks):
                d.overheads[key] = sum(ratios) / len(ratios)
            else:
                d.overheads[key] = None
        valid = [(v, h) for h, v in
                 zip(config.heaps,
                     (d.overheads[_heap_key(h)] for h in config.heaps))
                 if v is not None]
        if valid:
            best = min(valid, key=lambda vh: vh[0])
            # Floor at zero: with finitely many invocations a cheap
            # collector can "beat" the ideal baseline by noise, and a
            # negative GC cost is always noise.
            d.lbo = max(0.0, best[0])
            d.lbo_heap = best[1]
        d.pauses = PauseTail.of(pooled_pauses[gc], _QS)
        d.stall_count = stalls[gc][0]
        d.stall_seconds = stalls[gc][1]
        d.crashed_cells = crashes[gc]
        result.distillates.append(d)
    return result
