"""The energy/pause Pareto study over {collector x placement x topology}.

:func:`run_energy_study` runs every combination as content-addressed
campaign cells (served from a shared
:class:`~repro.campaign.store.ResultStore` when given one — a cached
rerun must produce byte-identical JSON, enforced by the CI
``study-smoke`` job with ``cmp``) and reports, per combination:

* mean execution time and pooled nearest-rank pause percentiles;
* the folded :class:`~repro.energy.model.EnergyAccount` — exact
  integer microjoules per (phase, core class), so totals computed from
  per-shard stores and from a ``merge_stores`` result agree to the bit;
* GC joules per GB allocated, the figure of merit the Pareto frontier
  trades against the P99.9 pause.

The qualitative result (EXPERIMENTS.md X7): pinning GC to the P-cores
buys the shortest tail pauses at the highest GC power; pinning to the
E-cores stretches pauses by ~35% (the bandwidth-scale gap, damped by
the wider thread pool) while the GC power drops by half, so E-pinned
points dominate on joules/GB and P-pinned points dominate on the tail
— the frontier keeps both, and the adaptive split sits between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from ..analysis.report import render_table
from ..analysis.study import (Axis, GridConfig, PauseTail, StudyResult,
                              serve_cells)
from ..errors import ConfigError
from ..gc.registry import resolve_gc
from ..machine.topology import resolve_topology
from ..units import GB, parse_size
from .model import ENERGY_PHASES, EnergyAccount, EnergyModel, UJ_PER_J
from .placement import PLACEMENT_NAMES, resolve_placement

#: Bump on incompatible study-output changes (part of the JSON).
ENERGY_SCHEMA_VERSION = 1

#: Pause percentiles reported per combination (the tail view).
_QS = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class EnergyStudyConfig(GridConfig):
    """One Pareto study: collectors x placements x topologies."""

    benchmarks: Tuple[str, ...] = ("xalan",)
    gcs: Tuple[str, ...] = ("ParallelOldGC", "ConcMarkSweepGC", "G1GC")
    placements: Tuple[str, ...] = PLACEMENT_NAMES
    topologies: Tuple[str, ...] = ("asym-hybrid",)
    heap: object = 8 * GB
    seeds: Tuple[int, ...] = (1, 2)
    iterations: int = 4
    system_gc: bool = False

    STUDY = "an energy study"
    AXES = (Axis("benchmarks", "benchmark"),
            Axis("gcs", "collector", lambda g: resolve_gc(g).value),
            Axis("placements", "placement",
                 lambda p: resolve_placement(p).name),
            Axis("topologies", "topology",
                 lambda t: resolve_topology(t).name),
            Axis("seeds", "seed", int, sort=True))

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "heap", float(parse_size(self.heap)))

    def cells(self) -> List["CellSpec"]:
        """Every cell of the grid, in deterministic execution order."""
        return [self.cell(gc, benchmark, self.heap, seed, topology=topology,
                          gc_placement=placement)
                for topology in self.topologies
                for gc in self.gcs
                for placement in self.placements
                for benchmark in self.benchmarks
                for seed in self.seeds]


@dataclass
class ComboResult:
    """Everything the study reports about one (topology, gc, placement)."""

    topology: str
    gc: str
    placement: str
    exec_s: Optional[float] = None  #: mean over non-crashed runs
    crashed_cells: int = 0
    pauses: PauseTail = field(default_factory=PauseTail)
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    allocated_bytes: float = 0.0

    @property
    def allocated_gb(self) -> float:
        """GB allocated, rounded as the study JSON stores it. GB is
        2**30, so the stored value reloads to exactly this float."""
        return round(self.allocated_bytes / GB, 6)

    @property
    def gc_j_per_gb(self) -> Optional[float]:
        """GC joules (STW + concurrent) per GB allocated, over the stored
        :attr:`allocated_gb`, so a reloaded study computes the same."""
        gb = self.allocated_gb
        return None if gb == 0.0 else (self.energy.gc_uj / UJ_PER_J) / gb

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form. The ``uj`` ledger stays integral;
        derived joule figures are rounded for byte stability."""
        gjg = self.gc_j_per_gb
        return {
            "exec_s": None if self.exec_s is None else round(self.exec_s, 6),
            "crashed_cells": self.crashed_cells,
            "pauses": self.pauses.to_dict(),
            "energy": {
                "uj": self.energy.to_dict(),
                "phases_j": {p: round(self.energy.joules(p), 6)
                             for p in ENERGY_PHASES},
                "total_j": round(self.energy.joules(), 6),
                "gc_j": round(self.energy.gc_uj / UJ_PER_J, 6),
                "gc_j_per_gb": None if gjg is None else round(gjg, 6),
            },
            "allocated_gb": self.allocated_gb,
        }

    @classmethod
    def from_dict(cls, topology: str, gc: str, placement: str,
                  d: Dict[str, object]) -> "ComboResult":
        return cls(
            topology=topology, gc=gc, placement=placement,
            exec_s=d["exec_s"], crashed_cells=d["crashed_cells"],
            pauses=PauseTail(**d["pauses"]),
            energy=EnergyAccount.from_dict(d["energy"]["uj"]),
            allocated_bytes=float(d["allocated_gb"]) * GB,
        )


def pareto_frontier(combos: List[ComboResult]) -> List[ComboResult]:
    """The non-dominated set minimising (P99.9 pause, GC joules/GB).

    A combo is dominated when another is no worse on both axes and
    strictly better on at least one. Combos without a valid joules/GB
    figure (crashed everywhere) are excluded. Deterministic order:
    ascending P99.9, then joules/GB, then names.
    """
    pts = [(c.pauses.percentiles.get("p99.9", 0.0), c.gc_j_per_gb, c)
           for c in combos if c.gc_j_per_gb is not None]
    frontier = []
    for p, j, c in pts:
        dominated = any(
            (p2 <= p and j2 <= j) and (p2 < p or j2 < j)
            for p2, j2, c2 in pts if c2 is not c)
        if not dominated:
            frontier.append((p, j, c))
    frontier.sort(key=lambda pjc: (pjc[0], pjc[1], pjc[2].gc,
                                   pjc[2].placement))
    return [c for _p, _j, c in frontier]


@dataclass
class EnergyStudyResult(StudyResult):
    """All combination results plus the knobs that produced them."""

    config: EnergyStudyConfig
    combos: List[ComboResult] = field(default_factory=list)
    #: Cache accounting (stdout-only — a cached rerun must stay
    #: byte-identical to the run that populated the cache).
    cache_hits: int = 0
    cells_total: int = 0

    def combo(self, topology: str, gc: str, placement: str) -> ComboResult:
        """Result for one combination (:class:`ConfigError` if absent)."""
        gc = resolve_gc(gc).value
        placement = resolve_placement(placement).name
        topology = resolve_topology(topology).name
        for c in self.combos:
            if (c.topology, c.gc, c.placement) == (topology, gc, placement):
                return c
        raise ConfigError(f"no result for {topology}/{gc}/{placement}")

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form of the whole study."""
        c = self.config
        results: Dict[str, Dict[str, Dict[str, object]]] = {}
        for combo in self.combos:
            results.setdefault(combo.topology, {}).setdefault(
                combo.gc, {})[combo.placement] = combo.to_dict()
        pareto = {
            topo: [{"gc": f.gc, "placement": f.placement,
                    "p99_9": round(f.pauses.percentiles.get("p99.9", 0.0), 9),
                    "gc_j_per_gb": round(f.gc_j_per_gb, 6)}
                   for f in pareto_frontier(
                       [x for x in self.combos if x.topology == topo])]
            for topo in c.topologies
        }
        return {
            "v": ENERGY_SCHEMA_VERSION,
            "config": c.echo(),
            "results": results,
            "pareto": pareto,
        }

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """The Pareto table, grouped by topology, frontier rows starred."""
        rows = []
        for topo in self.config.topologies:
            topo_combos = [c for c in self.combos if c.topology == topo]
            frontier = set(map(id, pareto_frontier(topo_combos)))
            for c in topo_combos:
                gjg = c.gc_j_per_gb
                rows.append([
                    topo,
                    c.gc,
                    c.placement + (" *" if id(c) in frontier else ""),
                    ("-" if c.exec_s is None else f"{c.exec_s:.2f}"),
                    f"{1e3 * c.pauses.percentiles.get('p99.9', 0.0):.2f}",
                    f"{c.energy.gc_uj / UJ_PER_J:.1f}",
                    f"{c.energy.joules():.1f}",
                    ("-" if gjg is None else f"{gjg:.2f}"),
                    c.crashed_cells,
                ])
        return render_table(
            ["topology", "collector", "placement", "exec s", "P99.9 ms",
             "GC J", "total J", "J/GB", "crashed"],
            rows,
            title="Energy/pause Pareto study (* = frontier point)",
        )

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "EnergyStudyResult":
        """Rehydrate a study from its JSON (``report`` path)."""
        config = EnergyStudyConfig.from_echo(d["config"])
        # The combinations in the grid's order, as the study folded them.
        keys = dict.fromkeys(map(_combo_key, config.cells()))
        return cls(config=config, combos=[
            ComboResult.from_dict(t, gc, p, d["results"][t][gc][p])
            for t, gc, p in keys])


# ----------------------------------------------------------------------
# the study
# ----------------------------------------------------------------------


def run_energy_study(config: EnergyStudyConfig,
                     store=None) -> EnergyStudyResult:
    """Run the full {collector x placement x topology} grid.

    Energy is folded per combination by merging per-run integer
    accounts, so any partition of the same cells — per-seed shards, a
    ``merge_stores`` result, a cached rerun — yields identical totals.
    """
    result = EnergyStudyResult(config=config)
    combos = groupby(serve_cells(result, config.cells(), store),
                     key=lambda pair: _combo_key(pair[0]))
    for (topology, gc, placement), pairs in combos:
        combo = ComboResult(topology=topology, gc=gc, placement=placement)
        times: List[float] = []
        pooled: List[float] = []
        for _cell, run in pairs:
            if run.crashed:
                combo.crashed_cells += 1
                continue
            times.append(run.execution_time)
            pooled.extend(p.duration for p in run.gc_log.pauses)
            combo.allocated_bytes += float(run.allocated_bytes)
            model = EnergyModel.for_config(run.config)
            combo.energy.merge(model.account_run(run))
        combo.exec_s = sum(times) / len(times) if times else None
        combo.pauses = PauseTail.of(pooled, _QS)
        result.combos.append(combo)
    return result


def _combo_key(cell) -> Tuple[str, str, str]:
    """The (topology, gc, placement) combination a cell belongs to."""
    overrides = dict(cell.overrides)
    return overrides["topology"], cell.gc, overrides["gc_placement"]
