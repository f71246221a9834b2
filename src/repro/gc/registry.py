"""Collector registry: name -> factory, mirroring the JVM's GC flags.

The name table (:class:`GCType`, :func:`resolve_gc`, :data:`GC_HELP`)
loads without the collectors, which pull in the heap, numpy and scipy:
a collector's class is imported when one is first built.
"""

from __future__ import annotations

import enum
import importlib
from typing import TYPE_CHECKING, Dict, Type

from ..errors import ConfigError

if TYPE_CHECKING:
    from .base import Collector


class GCType(enum.Enum):
    """The six collectors evaluated by the paper (Table 1), plus the
    extensions: the HTM-based collector the paper proposes as future
    work (§6) and the modern fully-concurrent set measured by the
    Distilling-the-Real-Cost study (ZGC, Shenandoah, Epsilon)."""

    SERIAL = "SerialGC"
    PARNEW = "ParNewGC"
    PARALLEL = "ParallelGC"
    PARALLEL_OLD = "ParallelOldGC"
    CMS = "ConcMarkSweepGC"
    G1 = "G1GC"
    HTM = "HTMGC"
    ZGC = "ZGC"
    SHENANDOAH = "ShenandoahGC"
    EPSILON = "EpsilonGC"


#: Each collector's class, by its name among the ``repro.gc`` package's
#: exports (the package imports the defining module on first use).
_CLASS_NAMES: Dict[GCType, str] = {
    GCType.SERIAL: "SerialGC",
    GCType.PARNEW: "ParNewGC",
    GCType.PARALLEL: "ParallelGC",
    GCType.PARALLEL_OLD: "ParallelOldGC",
    GCType.CMS: "ConcurrentMarkSweepGC",
    GCType.G1: "G1GC",
    GCType.HTM: "HTMGC",
    GCType.ZGC: "ZGC",
    GCType.SHENANDOAH: "ShenandoahGC",
    GCType.EPSILON: "EpsilonGC",
}

#: Collectors beyond the paper's measured six: the HTM future-work
#: extension and the modern fully-concurrent set (Epsilon is the LBO
#: ideal baseline, not a production collector).
_EXTENSIONS = frozenset({GCType.HTM, GCType.ZGC, GCType.SHENANDOAH, GCType.EPSILON})

#: The paper's six collectors, in its plotting order (the extensions
#: above are deliberately excluded — the paper never measured them).
GC_NAMES = [t.value for t in GCType if t not in _EXTENSIONS]

#: The modern fully-concurrent production collectors (Distilling study).
MODERN_GC_NAMES = [GCType.ZGC.value, GCType.SHENANDOAH.value]

#: Every production collector the simulator models (paper six + modern;
#: excludes the HTM thought experiment and the Epsilon oracle).
ALL_GC_NAMES = GC_NAMES + MODERN_GC_NAMES

#: Table 8's qualitative-summary roster extended into the modern era:
#: the paper's three headline collectors plus the concurrent newcomers.
TABLE8_GC_NAMES = (
    GCType.PARALLEL_OLD.value,
    GCType.CMS.value,
    GCType.G1.value,
    *MODERN_GC_NAMES,
)

#: The short name of every collector, as ``--gc`` options take them (the
#: help text of every CLI).
GC_HELP = "Serial, ParNew, Parallel, ParallelOld, CMS, G1, ZGC, Shenandoah, HTM, Epsilon"

_ALIASES = {
    "serial": GCType.SERIAL,
    "serialgc": GCType.SERIAL,
    "parnew": GCType.PARNEW,
    "parnewgc": GCType.PARNEW,
    "parallel": GCType.PARALLEL,
    "parallelgc": GCType.PARALLEL,
    "parallelold": GCType.PARALLEL_OLD,
    "paralleloldgc": GCType.PARALLEL_OLD,
    "cms": GCType.CMS,
    "concmarksweep": GCType.CMS,
    "concmarksweepgc": GCType.CMS,
    "concurrentmarksweep": GCType.CMS,
    "g1": GCType.G1,
    "g1gc": GCType.G1,
    "htm": GCType.HTM,
    "htmgc": GCType.HTM,
    "z": GCType.ZGC,
    "zgc": GCType.ZGC,
    "shenandoah": GCType.SHENANDOAH,
    "shenandoahgc": GCType.SHENANDOAH,
    "epsilon": GCType.EPSILON,
    "epsilongc": GCType.EPSILON,
    "nogc": GCType.EPSILON,
}


def resolve_gc(name) -> GCType:
    """Resolve a flexible collector name/enum to a :class:`GCType`."""
    if isinstance(name, GCType):
        return name
    key = str(name).replace("-", "").replace("_", "").lower()
    try:
        return _ALIASES[key]
    except KeyError:
        raise ConfigError(
            f"unknown GC {name!r}; choose from {sorted(set(_ALIASES))}"
        ) from None


def collector_class(gc_type) -> Type[Collector]:
    """The collector class for *gc_type* (for registry introspection —
    e.g. the energy model reads its ``parallel_young``/``parallel_full``
    flags without instantiating a heap)."""
    return getattr(importlib.import_module(__package__),
                   _CLASS_NAMES[resolve_gc(gc_type)])


def create_collector(gc_type, heap, costs, **kwargs) -> Collector:
    """Instantiate the collector for *gc_type* on *heap* with *costs*.

    Extra keyword arguments (``gc_threads``, ``rng``, ``pause_target`` for
    G1...) are forwarded to the collector constructor.
    """
    gc = resolve_gc(gc_type)
    if gc is not GCType.G1:
        kwargs.pop("pause_target", None)
    return collector_class(gc)(heap, costs, **kwargs)
