"""Joules-per-phase energy accounting for simulated JVM runs.

:class:`EnergyModel` decomposes a finished run's wall clock into four
phases — mutator run, STW pause, concurrent GC, and the always-on idle
baseline — and prices each from the per-core active/idle power of the
:class:`~repro.machine.topology.CoreClass` doing the work. The model is
strictly *post-hoc*: it reads the GC log a run already produced and
never feeds back into the simulation, so enabling energy accounting
cannot perturb a single simulated byte.

First-order power model (documented simplifications):

* A core draws ``idle_w`` for the whole run (the idle baseline) plus
  ``active_w - idle_w`` while it is doing attributed work. Frequency
  scaling, package states and uncore power are folded into those two
  numbers per class.
* During mutator phases ``mutator_threads`` cores are active, packed
  across classes in declaration order (P-cores first). During STW
  pauses the mutators are stopped (idle) and the GC threads are active
  on the class the placement policy selected, spilling onto
  neighbouring classes if the class is smaller than the thread count.
* Concurrent phases charge the concurrent GC threads on top of the
  mutator baseline; the mutator slowdown they cause is already in the
  simulated durations.

All per-run totals are quantised once to integer **microjoules** per
(phase, core class). Integer addition is exactly associative, so — like
``LogHistogram`` merges — energy folded run-by-run, shard-by-shard, or
from a merged store agrees to the last microjoule (pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from ..gc.registry import collector_class
from ..machine.topology import CoreClass, MachineTopology
from .placement import (GCPlacementPolicy, effective_gc_threads,
                        resolve_placement)

#: The four accounting phases, in reporting order.
ENERGY_PHASES = ("mutator", "stw", "concurrent", "idle")

#: Microjoules per joule (the quantum of the integer ledger).
UJ_PER_J = 1_000_000

#: Per-collector map from STW pause kind to the GC work bucket whose
#: placement class runs it (``young`` or ``old``). Concurrent phases all
#: land in the ``concurrent`` bucket and need no per-kind map. The
#: nightly registry guard asserts every collector in ``ALL_GC_NAMES``
#: has an entry, so a future collector cannot silently report zero
#: joules.
GC_PHASE_MAP: Dict[str, Dict[str, str]] = {
    "SerialGC": {"young": "young", "full": "old"},
    "ParNewGC": {"young": "young", "full": "old"},
    "ParallelGC": {"young": "young", "full": "old"},
    "ParallelOldGC": {"young": "young", "full": "old"},
    "ConcMarkSweepGC": {"young": "young", "full": "old",
                        "initial-mark": "old", "remark": "old"},
    "G1GC": {"young": "young", "mixed": "young", "remark": "old",
             "cleanup": "old", "full": "old"},
    "HTMGC": {"young": "young", "full": "old"},
    "ZGC": {"young": "young", "mark-start": "old", "mark-end": "old",
            "relocate-start": "old", "full": "old"},
    "ShenandoahGC": {"young": "young", "initial-mark": "old",
                     "remark": "old", "degenerated": "old", "full": "old"},
    # Epsilon never pauses; present so the registry guard holds for the
    # full roster.
    "EpsilonGC": {},
}

#: JVM-level (non-GC) safepoint kinds shared by every collector.
_COMMON_KINDS = {"vm-op": "old"}

#: The MetricsRegistry counter names the serve/cluster layers fold
#: energy into (integer microjoules per phase; counters sum exactly
#: across nodes).
ENERGY_COUNTERS = tuple(f"energy.{p}_uj" for p in ENERGY_PHASES)


def energy_section(counters: Dict[str, int]) -> Dict[str, object]:
    """The human-readable ``energy`` status section, derived from the
    exact per-phase microjoule counters (serve and cluster share it)."""
    uj = {p: int(counters.get(f"energy.{p}_uj", 0)) for p in ENERGY_PHASES}
    gc = uj["stw"] + uj["concurrent"]
    return {
        "phases_j": {p: round(v / UJ_PER_J, 6) for p, v in uj.items()},
        "gc_j": round(gc / UJ_PER_J, 6),
        "total_j": round(sum(uj.values()) / UJ_PER_J, 6),
    }


class EnergyAccount:
    """An integer-microjoule ledger keyed by (phase, core class).

    The energy analogue of ``LogHistogram``: merges are integer adds,
    hence exactly associative and commutative — fold order can never
    change a total.
    """

    __slots__ = ("_uj",)

    def __init__(self) -> None:
        self._uj: Dict[Tuple[str, str], int] = {}

    def add_uj(self, phase: str, core_class: str, uj: int) -> None:
        """Add *uj* microjoules to one (phase, class) bucket."""
        if phase not in ENERGY_PHASES:
            raise ConfigError(f"unknown energy phase {phase!r}")
        key = (phase, core_class)
        self._uj[key] = self._uj.get(key, 0) + int(uj)

    def merge(self, other: "EnergyAccount") -> "EnergyAccount":
        """Fold *other* into this account (exact; returns self)."""
        for key, uj in other._uj.items():
            self._uj[key] = self._uj.get(key, 0) + uj
        return self

    def items(self) -> Tuple[Tuple[str, str, int], ...]:
        """All ``(phase, core_class, microjoules)`` entries, sorted."""
        return tuple((p, c, v) for (p, c), v in sorted(self._uj.items()))

    def uj(self, phase: Optional[str] = None,
           core_class: Optional[str] = None) -> int:
        """Total microjoules, optionally filtered by phase and/or class."""
        return sum(v for (p, c), v in self._uj.items()
                   if (phase is None or p == phase)
                   and (core_class is None or c == core_class))

    def joules(self, phase: Optional[str] = None,
               core_class: Optional[str] = None) -> float:
        """Total joules (derived from the exact microjoule ledger)."""
        return self.uj(phase, core_class) / UJ_PER_J

    @property
    def gc_uj(self) -> int:
        """Microjoules attributable to GC work (STW + concurrent)."""
        return self.uj("stw") + self.uj("concurrent")

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        """``{phase: {core_class: microjoules}}`` with sorted keys."""
        out: Dict[str, Dict[str, int]] = {}
        for phase in ENERGY_PHASES:
            row = {c: v for (p, c), v in self._uj.items() if p == phase}
            if row:
                out[phase] = {c: row[c] for c in sorted(row)}
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Dict[str, int]]) -> "EnergyAccount":
        acct = cls()
        for phase, row in d.items():
            for core_class, uj in row.items():
                acct.add_uj(phase, core_class, uj)
        return acct

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnergyAccount):
            return NotImplemented
        return self._uj == other._uj

    def __repr__(self) -> str:
        return f"EnergyAccount({self.joules():.3f} J, gc={self.gc_uj / UJ_PER_J:.3f} J)"


@dataclass(frozen=True)
class EnergyModel:
    """Prices a finished run's phases in joules on its machine."""

    topology: MachineTopology
    collector: str
    mutator_threads: int
    young_threads: int
    old_threads: int
    conc_threads: int
    placement: Optional[GCPlacementPolicy] = None

    @classmethod
    def for_config(cls, config) -> "EnergyModel":
        """Build the model matching a :class:`~repro.jvm.flags.JVMConfig`.

        Thread counts follow the same HotSpot ergonomics the collectors
        themselves use, honouring an explicit ``gc_threads`` override
        and each collector's serial/parallel phase flags.
        """
        topo = config.topology
        placement = (resolve_placement(config.gc_placement)
                     if config.gc_placement else None)
        gc_threads = effective_gc_threads(topo, placement, config.gc_threads)
        conc_threads = max(1, (gc_threads + 3) // 4)
        gc_cls = collector_class(config.gc)
        return cls(
            topology=topo,
            collector=config.gc.value,
            mutator_threads=config.mutator_threads,
            young_threads=gc_threads if gc_cls.parallel_young else 1,
            old_threads=gc_threads if gc_cls.parallel_full else 1,
            conc_threads=conc_threads,
            placement=placement,
        )

    # ------------------------------------------------------------------

    def work_for(self, pause_kind: str) -> str:
        """Map a pause kind to its work bucket (``young`` or ``old``)."""
        kinds = GC_PHASE_MAP.get(self.collector, {})
        return kinds.get(pause_kind) or _COMMON_KINDS.get(pause_kind, "old")

    def _spread(self, n_threads: int,
                start_class: Optional[str] = None
                ) -> Tuple[Tuple[CoreClass, int], ...]:
        """Assign *n_threads* to core classes, packed.

        Fills the start class first (declaration order when none given),
        spilling the surplus onto the remaining classes in declaration
        order. Thread counts above the core count clamp to it.
        """
        layout = list(self.topology.core_class_layout())
        if start_class is not None:
            layout.sort(key=lambda c: c.name != start_class)
        out = []
        remaining = min(n_threads, self.topology.cores)
        for cls in layout:
            take = min(remaining, cls.count)
            if take > 0:
                out.append((cls, take))
                remaining -= take
        return tuple(out)

    def _gc_class(self, work: str) -> Optional[str]:
        if self.placement is None:
            return None
        return self.placement.core_class(self.topology, work).name

    def account_run(self, result) -> EnergyAccount:
        """Price one :class:`~repro.jvm.jvm.RunResult` (exact ledger).

        Float joules are accumulated per (phase, class) and quantised
        *once* per run, so merging per-run accounts in any order yields
        identical totals.
        """
        joules: Dict[Tuple[str, str], float] = {}

        def add(phase: str, core_class: str, j: float) -> None:
            key = (phase, core_class)
            joules[key] = joules.get(key, 0.0) + j

        wall = result.execution_time
        log = result.gc_log

        # Idle baseline: every core draws idle_w for the whole run.
        for cls in self.topology.core_class_layout():
            add("idle", cls.name, cls.count * cls.idle_w * wall)

        # STW seconds per work bucket (mutators are stopped, GC active).
        stw_secs: Dict[str, float] = {}
        for pause in log.pauses:
            work = self.work_for(pause.kind)
            stw_secs[work] = stw_secs.get(work, 0.0) + pause.duration
        total_stw = sum(stw_secs.values())
        for work in sorted(stw_secs):
            n = self.young_threads if work == "young" else self.old_threads
            for cls, take in self._spread(n, self._gc_class(work)):
                add("stw", cls.name,
                    take * (cls.active_w - cls.idle_w) * stw_secs[work])

        # Mutator phase: the run minus its pauses.
        t_run = max(wall - total_stw, 0.0)
        for cls, take in self._spread(self.mutator_threads):
            add("mutator", cls.name,
                take * (cls.active_w - cls.idle_w) * t_run)

        # Concurrent GC rides alongside the mutators.
        conc_secs = 0.0
        for rec in log.concurrent:
            conc_secs += rec.duration
        if conc_secs > 0.0:
            for cls, take in self._spread(self.conc_threads,
                                          self._gc_class("concurrent")):
                add("concurrent", cls.name,
                    take * (cls.active_w - cls.idle_w) * conc_secs)

        acct = EnergyAccount()
        for (phase, core_class), j in joules.items():
            acct.add_uj(phase, core_class, int(round(j * UJ_PER_J)))
        return acct
