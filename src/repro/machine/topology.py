"""Machine topology: cores, sockets, NUMA nodes, caches, RAM.

Only the quantities that influence the cost model are represented:
core/socket/NUMA counts (parallel efficiency, remote-access penalty) and
total RAM (maximum heap). Cache sizes are carried for documentation and
for the cache-locality term of the cost model.

Two machine shapes exist:

* :class:`MachineTopology` — the paper's homogeneous NUMA box.
* :class:`AsymmetricTopology` — a strict superset adding P/E-style
  :class:`CoreClass` groups (per-class frequency, per-thread GC
  bandwidth scaling, active/idle power).  A single-class asymmetric
  topology behaves byte-identically to the homogeneous model; the
  extra structure only matters to `repro.energy` placement policies
  and the joules-per-phase energy model (DESIGN.md §18).

Named topologies are registered in :data:`TOPOLOGIES` so configs,
campaign cells and CLIs can refer to a machine by name and round-trip
it through byte-stable JSON.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from ..errors import ConfigError
from ..units import GB, KB, MB


def _as_count(value: object, fname: str) -> int:
    """Coerce *value* to a positive ``int`` or raise :class:`ConfigError`.

    Accepts anything implementing ``__index__`` (so numpy integer
    scalars normalise to plain ``int`` and hash/encode identically) but
    rejects ``bool`` — ``sockets=True`` is a misconfiguration, not a
    1-socket box — and rejects floats outright: ``cores_per_numa_node=2.5``
    silently truncating would corrupt every packed-placement ceiling
    division downstream.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{fname} must be an integer, got bool {value!r}")
    try:
        count = operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise ConfigError(
            f"{fname} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if count < 1:
        raise ConfigError(f"{fname} must be >= 1, got {count}")
    return count


@dataclass(frozen=True)
class CoreClass:
    """One homogeneous group of cores inside an asymmetric machine.

    ``gc_bw_scale`` is the per-thread GC bandwidth of this class
    relative to the calibrated cost-model baseline (the paper's
    homogeneous cores sit at 1.0); placement policies feed it into
    :class:`~repro.machine.costs.CostModel` rate scales.  ``active_w``
    and ``idle_w`` are per-core package power draws used by the energy
    model; a core doing work costs ``active_w``, a parked one ``idle_w``.
    """

    name: str
    count: int
    freq_ghz: float = 2.2
    gc_bw_scale: float = 1.0
    active_w: float = 10.0
    idle_w: float = 1.2

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("core class name must be a non-empty string")
        object.__setattr__(self, "count", _as_count(self.count, "core class count"))
        if self.freq_ghz <= 0:
            raise ConfigError(f"freq_ghz must be positive, got {self.freq_ghz}")
        if self.gc_bw_scale <= 0:
            raise ConfigError(f"gc_bw_scale must be positive, got {self.gc_bw_scale}")
        if self.active_w <= 0:
            raise ConfigError(f"active_w must be positive, got {self.active_w}")
        if self.idle_w < 0:
            raise ConfigError(f"idle_w must be >= 0, got {self.idle_w}")
        if self.idle_w > self.active_w:
            raise ConfigError(
                f"idle_w ({self.idle_w}) must not exceed active_w ({self.active_w})"
            )


@dataclass(frozen=True)
class MachineTopology:
    """A NUMA multicore machine.

    Parameters mirror the paper's experimental setup (§3.1): cores are
    distributed over sockets, each socket holding ``numa_nodes_per_socket``
    NUMA nodes of ``cores_per_numa_node`` cores each.

    **No-SMT assumption.** ``cores`` counts *hardware threads*, and the
    model assumes one hardware thread per physical core (the paper's
    box has SMT disabled). There is no notion of sibling threads
    sharing a core's execution resources: a machine with SMT should be
    described either by its physical core count (conservative) or by
    its hardware-thread count with correspondingly derated cost-model
    bandwidths — the topology itself cannot express the distinction.

    All three count fields must be integers (anything implementing
    ``__index__`` is normalised to ``int``); fractional or boolean
    values raise :class:`ConfigError` rather than silently truncating
    the packed-placement arithmetic.
    """

    name: str = "generic"
    sockets: int = 1
    numa_nodes_per_socket: int = 1
    cores_per_numa_node: int = 4
    ram_bytes: float = 16 * GB
    l1_bytes: float = 64 * KB
    l2_bytes: float = 512 * KB
    l3_bytes_per_numa_node: float = 8 * MB

    def __post_init__(self) -> None:
        object.__setattr__(self, "sockets", _as_count(self.sockets, "sockets"))
        object.__setattr__(
            self, "numa_nodes_per_socket",
            _as_count(self.numa_nodes_per_socket, "numa_nodes_per_socket"))
        object.__setattr__(
            self, "cores_per_numa_node",
            _as_count(self.cores_per_numa_node, "cores_per_numa_node"))
        if self.ram_bytes <= 0:
            raise ConfigError("ram_bytes must be positive")

    @property
    def numa_nodes(self) -> int:
        """Total NUMA node count."""
        return self.sockets * self.numa_nodes_per_socket

    @property
    def cores(self) -> int:
        """Total hardware-thread count (no SMT: one per physical core)."""
        return self.numa_nodes * self.cores_per_numa_node

    def core_class_layout(self) -> Tuple[CoreClass, ...]:
        """The machine's core classes, in physical core order.

        A homogeneous box is a single implicit class named ``uniform``
        at the calibrated baseline bandwidth (``gc_bw_scale=1.0``), so
        all class-aware code paths degenerate exactly to the
        homogeneous behaviour.
        """
        return (CoreClass(name="uniform", count=self.cores),)

    def nodes_spanned(self, n_threads: int) -> int:
        """How many NUMA nodes *n_threads* threads occupy (packed placement).

        Thread placement is modelled as packed: threads fill one NUMA node
        before spilling onto the next, which matches the default Linux
        scheduler behaviour closely enough for the efficiency model.
        Thread counts above ``cores`` clamp to ``cores`` (the box cannot
        span more nodes than it has).
        """
        if n_threads <= 0:
            raise ConfigError("n_threads must be >= 1")
        n_threads = min(n_threads, self.cores)
        return -(-n_threads // self.cores_per_numa_node)  # ceil division

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.name}: {self.cores} cores, {self.sockets} sockets x "
            f"{self.numa_nodes_per_socket} NUMA nodes x {self.cores_per_numa_node} cores, "
            f"{self.ram_bytes / GB:.0f} GB RAM"
        )


@dataclass(frozen=True)
class AsymmetricTopology(MachineTopology):
    """A NUMA machine with named core classes (P/E-style asymmetry).

    A strict superset of :class:`MachineTopology`: the NUMA geometry is
    unchanged and all inherited cost-model inputs behave identically —
    only :meth:`core_class_layout` reports the explicit classes instead
    of the implicit uniform one. With a single class at
    ``gc_bw_scale=1.0`` every simulation output is byte-identical to
    the homogeneous equivalent (pinned in tests and CI).

    The class counts must sum to ``cores`` exactly.
    """

    core_classes: Tuple[CoreClass, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "core_classes", tuple(self.core_classes))
        if not self.core_classes:
            raise ConfigError("AsymmetricTopology needs at least one core class")
        names = [c.name for c in self.core_classes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate core class names: {names}")
        total = sum(c.count for c in self.core_classes)
        if total != self.cores:
            raise ConfigError(
                f"core class counts sum to {total}, topology has {self.cores} cores"
            )

    def core_class_layout(self) -> Tuple[CoreClass, ...]:
        return self.core_classes

    def describe(self) -> str:
        classes = ", ".join(
            f"{c.count}x{c.name}@{c.freq_ghz:g}GHz" for c in self.core_classes
        )
        return super().describe() + f" [{classes}]"


#: The paper's server (§3.1): 48 cores over 4 sockets, 2 NUMA nodes per
#: socket, 6 cores each, 64 GB RAM, 1.5 MB L1 / 6 MB L2 per core and
#: 12 MB L3 per NUMA node (sizes as reported in the paper).
PAPER_SERVER = MachineTopology(
    name="paper-48core",
    sockets=4,
    numa_nodes_per_socket=2,
    cores_per_numa_node=6,
    ram_bytes=64 * GB,
    l1_bytes=1.5 * MB,
    l2_bytes=6 * MB,
    l3_bytes_per_numa_node=12 * MB,
)

#: The paper's YCSB client machine (§4): 16 cores, 8 GB RAM.
PAPER_CLIENT = MachineTopology(
    name="paper-16core-client",
    sockets=2,
    numa_nodes_per_socket=1,
    cores_per_numa_node=8,
    ram_bytes=8 * GB,
)

#: The paper's server re-expressed as a single-class asymmetric box.
#: Exists purely as the byte-identity witness: every collector/workload
#: cell must simulate identically on this topology and on
#: :data:`PAPER_SERVER` (see tests/test_energy_identity.py and the CI
#: ``study-smoke`` job).
PAPER_SERVER_1CLASS = AsymmetricTopology(
    name="paper-48core-1class",
    sockets=4,
    numa_nodes_per_socket=2,
    cores_per_numa_node=6,
    ram_bytes=64 * GB,
    l1_bytes=1.5 * MB,
    l2_bytes=6 * MB,
    l3_bytes_per_numa_node=12 * MB,
    core_classes=(CoreClass(name="uniform", count=48),),
)

#: An Alder-Lake-style hybrid client: 8 performance cores + 16
#: efficiency cores on one die. E-cores run GC work at ~0.65x the
#: calibrated per-thread bandwidth but draw less than a third of the
#: active power — the machine the energy/pause Pareto study (X7) pivots
#: on. Power figures are representative per-core package draws, not a
#: measured part.
ASYM_HYBRID = AsymmetricTopology(
    name="asym-hybrid",
    sockets=1,
    numa_nodes_per_socket=1,
    cores_per_numa_node=24,
    ram_bytes=32 * GB,
    l1_bytes=80 * KB,
    l2_bytes=1.25 * MB,
    l3_bytes_per_numa_node=30 * MB,
    core_classes=(
        CoreClass(name="P", count=8, freq_ghz=3.8, gc_bw_scale=1.0,
                  active_w=13.0, idle_w=1.6),
        CoreClass(name="E", count=16, freq_ghz=2.4, gc_bw_scale=0.65,
                  active_w=3.2, idle_w=0.45),
    ),
)

#: A two-socket asymmetric server: 16 P-cores + 48 E-cores across four
#: NUMA nodes, for studies that need placement and NUMA effects to
#: interact.
ASYM_SERVER = AsymmetricTopology(
    name="asym-64core",
    sockets=2,
    numa_nodes_per_socket=2,
    cores_per_numa_node=16,
    ram_bytes=128 * GB,
    l1_bytes=80 * KB,
    l2_bytes=2 * MB,
    l3_bytes_per_numa_node=36 * MB,
    core_classes=(
        CoreClass(name="P", count=16, freq_ghz=3.4, gc_bw_scale=1.0,
                  active_w=12.0, idle_w=1.5),
        CoreClass(name="E", count=48, freq_ghz=2.2, gc_bw_scale=0.6,
                  active_w=4.5, idle_w=0.5),
    ),
)


#: Registry of named topologies: configs and campaign cells refer to
#: machines by name so cell digests and store records stay byte-stable.
TOPOLOGIES: Dict[str, MachineTopology] = {}


def register_topology(topo: MachineTopology) -> MachineTopology:
    """Register *topo* under its name; re-registering the same value is a
    no-op, a different value under an existing name is a
    :class:`ConfigError` (names are part of persisted cell digests)."""
    existing = TOPOLOGIES.get(topo.name)
    if existing is not None and existing != topo:
        raise ConfigError(f"topology name {topo.name!r} already registered")
    TOPOLOGIES[topo.name] = topo
    return topo


def resolve_topology(spec: Union[str, MachineTopology]) -> MachineTopology:
    """Resolve a topology given by name or instance."""
    if isinstance(spec, MachineTopology):
        return spec
    if isinstance(spec, str):
        try:
            return TOPOLOGIES[spec]
        except KeyError:
            raise ConfigError(
                f"unknown topology {spec!r}; known: {sorted(TOPOLOGIES)}"
            ) from None
    raise ConfigError(f"topology must be a name or MachineTopology, got {spec!r}")


for _topo in (PAPER_SERVER, PAPER_CLIENT, PAPER_SERVER_1CLASS,
              ASYM_HYBRID, ASYM_SERVER):
    register_topology(_topo)
del _topo
