"""JVM configuration, including HotSpot-style flag parsing.

The paper configures the JVM via standard HotSpot flags (``-Xmx``,
``-Xmn``, ``-XX:+UseG1GC``, ``-XX:-UseTLAB`` ...). :class:`JVMConfig`
accepts both a structured form and :meth:`JVMConfig.from_flags` for the
flag-string form, so experiment scripts read like the paper's setup.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..errors import ConfigError
from ..gc.registry import GCType, resolve_gc
from ..heap.tlab import TLABConfig
from ..machine.topology import MachineTopology, PAPER_SERVER, resolve_topology
from ..units import GB, parse_size

#: The paper's baseline young-generation fraction: ~5.6 GB of a ~16 GB heap.
DEFAULT_YOUNG_FRACTION = 0.35


@dataclass(frozen=True)
class JVMConfig:
    """Configuration of one simulated JVM instance.

    ``heap`` and ``young`` accept bytes or HotSpot size strings ("64g").
    Minimum and maximum heap are pinned equal (as the paper does, §3.1).
    """

    gc: GCType = GCType.PARALLEL_OLD
    heap: object = 16 * GB
    young: Optional[object] = None  #: None = heap * DEFAULT_YOUNG_FRACTION
    survivor_ratio: int = 8
    tlab: TLABConfig = field(default_factory=TLABConfig)
    gc_threads: Optional[int] = None
    pause_target: float = 0.2  #: G1 MaxGCPauseMillis (seconds here)
    n_threads: Optional[int] = None  #: mutator threads; None = one per core
    #: Machine model; accepts a :class:`MachineTopology` or a registered
    #: topology name (``"asym-hybrid"``) so campaign-cell overrides can
    #: carry machines as plain JSON strings.
    topology: object = PAPER_SERVER
    seed: int = 0
    #: GC-thread placement policy name (``"p-cores"``, ``"e-cores"``,
    #: ``"adaptive"``; see :mod:`repro.energy.placement`). Empty = the
    #: default packed placement, byte-identical to pre-energy runs.
    gc_placement: str = ""
    #: Emit non-GC safepoints (deoptimization, biased-lock revocation,
    #: periodic "no vm operation" — the other stop-the-world causes the
    #: paper lists in §2). Off by default so GC statistics stay pure.
    misc_safepoints: bool = False
    #: Mean interval between non-GC safepoints (seconds, exponential).
    misc_safepoint_interval: float = 1.0
    #: Card/remset fidelity: price young scans off the explicit card
    #: table and G1's remark off real remset cardinality (see
    #: :mod:`repro.heap.cards`). Off by default — the paper's six
    #: collectors stay byte-identical to the committed baselines; the
    #: fully-concurrent collectors force it on regardless.
    remset_fidelity: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "gc", resolve_gc(self.gc))
        object.__setattr__(self, "topology", resolve_topology(self.topology))
        if self.gc_placement:
            # Validate eagerly so a typo fails at config time, not at
            # JVM construction. Lazy import: energy sits above jvm.
            from ..energy.placement import resolve_placement
            resolve_placement(self.gc_placement)
        object.__setattr__(self, "heap", parse_size(self.heap))
        if self.young is not None:
            object.__setattr__(self, "young", parse_size(self.young))
        if not 0 < self.heap < math.inf:
            raise ConfigError(f"heap must be positive and finite: {self.heap!r}")
        if self.heap > self.topology.ram_bytes:
            raise ConfigError(
                f"heap {self.heap:.0f} exceeds machine RAM {self.topology.ram_bytes:.0f}"
            )
        if self.young is not None and not (0 < self.young <= self.heap):
            raise ConfigError("young must be in (0, heap]")
        # `not 0 < x < inf` also rejects NaN, which every comparison fails.
        for name in ("pause_target", "misc_safepoint_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite: {value!r}")
        # Refuse here what JVM construction refuses: the TLAB manager
        # takes n_threads only when set (it checks, then int()s it), a
        # collector int()s gc_threads unless a placement sizes an unset
        # or zero pool, and the heap compares survivor_ratio with 1.
        # A thread count must also be a number: "" or False would run
        # as 0 and "2" or True as 2 or 1, each under a digest of its own.
        def number(n) -> bool:
            return isinstance(n, (int, float)) and not isinstance(n, bool)

        for name, accept in (
                ("n_threads", lambda n: n is None or number(n) and (
                    not n or n >= 1 and int(n) >= 1)),
                ("gc_threads", lambda n: n is None or number(n) and (
                    self.gc_placement and not n or int(n) >= 1)),
                ("survivor_ratio", lambda n: not n < 1)):
            value = getattr(self, name)
            try:
                ok = accept(value)
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")

    @property
    def heap_bytes(self) -> float:
        """Heap size in bytes."""
        return float(self.heap)

    @property
    def young_bytes(self) -> float:
        """Young-generation size in bytes (defaulted when unset)."""
        if self.young is not None:
            return float(self.young)
        return float(self.heap) * DEFAULT_YOUNG_FRACTION

    @property
    def mutator_threads(self) -> int:
        """Number of mutator threads (defaults to one per hardware thread,
        DaCapo's default)."""
        return self.n_threads if self.n_threads else self.topology.cores

    def with_(self, **changes) -> "JVMConfig":
        """Return a modified copy (convenience for parameter sweeps)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # HotSpot flag parsing
    # ------------------------------------------------------------------

    _GC_FLAGS = {
        "UseSerialGC": GCType.SERIAL,
        "UseParNewGC": GCType.PARNEW,
        "UseParallelGC": GCType.PARALLEL,
        "UseParallelOldGC": GCType.PARALLEL_OLD,
        "UseConcMarkSweepGC": GCType.CMS,
        "UseG1GC": GCType.G1,
        "UseZGC": GCType.ZGC,
        "UseShenandoahGC": GCType.SHENANDOAH,
        "UseEpsilonGC": GCType.EPSILON,
    }

    @classmethod
    def from_flags(cls, flags: Sequence[str], **overrides) -> "JVMConfig":
        """Build a config from HotSpot command-line flags.

        Supported: ``-Xmx<size>``/``-Xms<size>`` (must agree when both
        given), ``-Xmn<size>``, ``-XX:+Use<GC>GC``, ``-XX:+/-UseTLAB``,
        ``-XX:TLABSize=<size>``, ``-XX:ParallelGCThreads=<n>``,
        ``-XX:MaxGCPauseMillis=<n>``, ``-XX:SurvivorRatio=<n>``.

        >>> cfg = JVMConfig.from_flags(["-Xmx64g", "-Xmn12g", "-XX:+UseG1GC"])
        >>> cfg.gc
        <GCType.G1: 'G1GC'>
        """
        kw: dict = {}
        tlab_enabled = True
        tlab_size = None
        xmx = xms = None
        for flag in flags:
            if flag.startswith("-Xmx"):
                xmx = parse_size(flag[4:])
            elif flag.startswith("-Xms"):
                xms = parse_size(flag[4:])
            elif flag.startswith("-Xmn"):
                kw["young"] = parse_size(flag[4:])
            elif flag == "-XX:+UseTLAB":
                tlab_enabled = True
            elif flag == "-XX:-UseTLAB":
                tlab_enabled = False
            elif flag.startswith("-XX:TLABSize="):
                tlab_size = parse_size(flag.split("=", 1)[1])
            elif flag.startswith("-XX:ParallelGCThreads="):
                kw["gc_threads"] = int(flag.split("=", 1)[1])
            elif flag.startswith("-XX:MaxGCPauseMillis="):
                kw["pause_target"] = int(flag.split("=", 1)[1]) / 1000.0
            elif flag.startswith("-XX:SurvivorRatio="):
                kw["survivor_ratio"] = int(flag.split("=", 1)[1])
            elif flag.startswith("-XX:GCPlacement="):
                kw["gc_placement"] = flag.split("=", 1)[1]
            else:
                m = re.match(r"^-XX:\+(\w+)$", flag)
                if m and m.group(1) in cls._GC_FLAGS:
                    kw["gc"] = cls._GC_FLAGS[m.group(1)]
                else:
                    raise ConfigError(f"unsupported JVM flag: {flag!r}")
        if xmx is not None and xms is not None and xmx != xms:
            raise ConfigError("-Xms and -Xmx must agree (fixed-size heap)")
        if xmx is not None or xms is not None:
            kw["heap"] = xmx if xmx is not None else xms
        kw["tlab"] = TLABConfig(enabled=tlab_enabled, size=tlab_size)
        kw.update(overrides)
        return cls(**kw)


#: The paper's baseline configuration (§3.1): default GC (ParallelOld),
#: ~16 GB fixed heap, ~5.6 GB young generation, TLAB enabled.
def baseline_config(**overrides) -> JVMConfig:
    """The paper's baseline JVM configuration, optionally overridden."""
    defaults = dict(gc=GCType.PARALLEL_OLD, heap=16 * GB, young=5.6 * GB)
    defaults.update(overrides)
    return JVMConfig(**defaults)
