"""The unit of campaign work: one grid cell, pure and picklable.

A :class:`CellSpec` is the *canonical* identity of one JVM run — axis
values are normalized at construction (GC aliases resolved, sizes parsed
to bytes) so that ``GridSpec(gcs=["g1"])`` and ``GridSpec(gcs=["G1GC"])``
address the same cached result. :func:`run_cell` executes one cell from
scratch; it closes over nothing, so ``ProcessPoolExecutor`` can ship it
to workers by reference, and its output depends only on the cell's own
coordinates (all RNG streams derive from ``(seed, gc, ...)`` via
:mod:`repro.seeding`), never on which worker ran it or in what order.

:func:`encode_run`/:func:`decode_run` are the JSON codecs the
:class:`~repro.campaign.store.ResultStore` uses; they round-trip a
:class:`~repro.jvm.RunResult` exactly (Python's shortest-repr float
serialization is lossless), so a grid assembled from cache hits compares
equal to one assembled from fresh runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..gc.registry import resolve_gc
from ..gc.stats import ConcurrentRecord, GCLog, PauseRecord
from ..jvm import JVM, JVMConfig, RunResult
from ..machine.topology import TOPOLOGIES
from ..studies import CellKey
from ..units import parse_size

#: Bump when the cell → result contract changes incompatibly; digests
#: include it, so stale store entries miss instead of poisoning results.
CELL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CellSpec:
    """Canonical, picklable identity of one grid cell."""

    benchmark: str
    gc: str                     #: canonical ``GCType.value`` ("G1GC", ...)
    heap: float                 #: bytes
    young: Optional[float]      #: bytes, or None for the default fraction
    seed: int
    iterations: int = 10
    system_gc: bool = True
    tlab_enabled: bool = True
    #: Extra ``JVMConfig`` kwargs, as sorted items for hashability.
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_axes(cls, benchmark, gc, heap, young, seed, *,
                  iterations: int = 10, system_gc: bool = True,
                  tlab_enabled: bool = True,
                  overrides: Optional[Dict[str, object]] = None) -> "CellSpec":
        """Build a cell from raw grid-axis values, normalizing them."""
        return cls(
            benchmark=str(benchmark),
            gc=resolve_gc(gc).value,
            heap=float(parse_size(heap)),
            young=float(parse_size(young)) if young is not None else None,
            seed=int(seed),
            iterations=int(iterations),
            system_gc=bool(system_gc),
            tlab_enabled=bool(tlab_enabled),
            overrides=tuple(sorted((overrides or {}).items())),
        )

    def jvm_config(self) -> JVMConfig:
        """The :class:`JVMConfig` this cell runs under; raises
        ``ConfigError`` or ``TypeError`` when the JVM refuses the cell."""
        from ..heap.tlab import TLABConfig

        return JVMConfig(
            gc=self.gc, heap=self.heap, young=self.young, seed=self.seed,
            tlab=TLABConfig(enabled=self.tlab_enabled),
            **dict(self.overrides),
        )

    def check(self) -> None:
        """Raise ``ConfigError`` when the simulator would refuse this cell:
        JVM settings :class:`JVMConfig` rejects, an unknown benchmark, or
        no iterations. The one check behind ``run_campaign`` (on the cells
        its cache pass did not serve) and ``repro-serve``'s job intake."""
        from ..workloads.dacapo import get_benchmark

        try:
            self.jvm_config()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        get_benchmark(self.benchmark)
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1: {self.iterations}")

    def key(self) -> CellKey:
        """The :class:`~repro.studies.CellKey` this cell produces, built
        once per instance and kept beside the fields like :meth:`digest`."""
        key = self.__dict__.get("_key")
        if key is None:
            key = CellKey(benchmark=self.benchmark, gc=self.gc, heap=self.heap,
                          young=self.young, seed=self.seed)
            object.__setattr__(self, "_key", key)
        return key

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (used by the store and the digest)."""
        return {
            "benchmark": self.benchmark,
            "gc": self.gc,
            "heap": self.heap,
            "young": self.young,
            "seed": self.seed,
            "iterations": self.iterations,
            "system_gc": self.system_gc,
            "tlab_enabled": self.tlab_enabled,
            "overrides": [[k, _jsonable(v)] for k, v in self.overrides],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CellSpec":
        """Inverse of :meth:`to_dict` (overrides come back JSON-shaped)."""
        return cls(
            benchmark=d["benchmark"], gc=d["gc"], heap=d["heap"],
            young=d["young"], seed=d["seed"], iterations=d["iterations"],
            system_gc=d["system_gc"], tlab_enabled=d["tlab_enabled"],
            overrides=tuple((k, v) for k, v in d.get("overrides", [])),
        )

    def digest(self) -> str:
        """Content address of this cell: sha256 over the canonical JSON.

        Two cells with the same digest are guaranteed to simulate the
        same run, so the store can serve either's result for both.
        Computed once per instance and kept beside the fields (not as
        one), so equality, hashing and ``repr`` ignore it.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            payload = {"v": CELL_SCHEMA_VERSION, "cell": self.to_dict()}
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest


def run_cell(cell: CellSpec, trace_dir: Optional[str] = None) -> RunResult:
    """Execute one cell from scratch and return its :class:`RunResult`.

    Pure in the campaign sense: no shared state, no ambient
    configuration — everything the run needs is in *cell*. Simulated-JVM
    crashes (OOM, crashing benchmarks) come back as ``crashed`` results;
    any *raised* exception is an infrastructure failure the runner
    retries and eventually quarantines.

    With *trace_dir*, the run is traced and the telemetry trace written
    to ``<trace_dir>/<digest>.trace.jsonl`` — content-addressed by the
    same digest as the result store, so a cell's trace and its cached
    result always refer to the same simulation. The trace does not enter
    the cell's identity: results stay cache-compatible with untraced
    runs (tracing is observation, not configuration).
    """
    import os

    from ..workloads.dacapo import get_benchmark

    config = cell.jvm_config()
    tracer = None
    if trace_dir is not None:
        from ..telemetry import Tracer

        tracer = Tracer(meta={"benchmark": cell.benchmark,
                              "cell_digest": cell.digest()})
    jvm = JVM(config, tracer=tracer)
    result = jvm.run(get_benchmark(cell.benchmark),
                     iterations=cell.iterations, system_gc=cell.system_gc)
    if tracer is not None:
        from ..telemetry import write_trace

        os.makedirs(trace_dir, exist_ok=True)
        write_trace(tracer, os.path.join(
            trace_dir, f"{cell.digest()}.trace.jsonl"))
    return result


# ----------------------------------------------------------------------
# RunResult <-> JSON codecs
# ----------------------------------------------------------------------

# The central machine registry: every named topology (the paper pair
# plus the asymmetric presets) decodes back to its exact instance.
_TOPOLOGIES = TOPOLOGIES


def _jsonable(value):
    """Best-effort JSON-safe projection of *value* (repr as last resort)."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return repr(value)


def _encode_config(config: JVMConfig) -> Dict[str, object]:
    out = {
        "gc": config.gc.value,
        "heap": config.heap_bytes,
        "young": float(config.young) if config.young is not None else None,
        "survivor_ratio": config.survivor_ratio,
        "tlab_enabled": config.tlab.enabled,
        "tlab_size": config.tlab.size,
        "gc_threads": config.gc_threads,
        "pause_target": config.pause_target,
        "n_threads": config.n_threads,
        "seed": config.seed,
        "topology": config.topology.name,
        "misc_safepoints": config.misc_safepoints,
        "misc_safepoint_interval": config.misc_safepoint_interval,
    }
    # Emitted only when set, so every record written before the field
    # existed (and every legacy-collector record) keeps its exact bytes.
    if config.remset_fidelity:
        out["remset_fidelity"] = True
    if config.gc_placement:
        out["gc_placement"] = config.gc_placement
    return out


def _decode_config(d: Dict[str, object]) -> JVMConfig:
    from ..heap.tlab import TLABConfig

    kw = dict(
        gc=d["gc"], heap=d["heap"], young=d["young"],
        survivor_ratio=d["survivor_ratio"],
        tlab=TLABConfig(enabled=d["tlab_enabled"], size=d["tlab_size"]),
        gc_threads=d["gc_threads"], pause_target=d["pause_target"],
        n_threads=d["n_threads"], seed=d["seed"],
        misc_safepoints=d["misc_safepoints"],
        misc_safepoint_interval=d["misc_safepoint_interval"],
        remset_fidelity=d.get("remset_fidelity", False),
        gc_placement=d.get("gc_placement", ""),
    )
    topology = _TOPOLOGIES.get(d["topology"])
    if topology is not None:
        kw["topology"] = topology
    return JVMConfig(**kw)


def encode_run(result: RunResult) -> Dict[str, object]:
    """Serialize a :class:`RunResult` to a JSON-safe dict, losslessly for
    everything :class:`~repro.studies.GridResult` consumes (full pause
    log included; ``extras`` values that are not JSON-representable are
    projected through ``repr``)."""
    return {
        "workload": result.workload,
        "config": _encode_config(result.config),
        "execution_time": result.execution_time,
        "iteration_times": [float(t) for t in result.iteration_times],
        "allocated_bytes": float(result.allocated_bytes),
        "alloc_overhead_time": float(result.alloc_overhead_time),
        "crashed": result.crashed,
        "crash_reason": result.crash_reason,
        "extras": {k: _jsonable(v) for k, v in sorted(result.extras.items())},
        "gc_log": {
            "pauses": [
                [p.start, p.duration, p.kind, p.cause, p.collector,
                 p.heap_used_before, p.heap_used_after, p.promoted]
                for p in result.gc_log.pauses
            ],
            "concurrent": [
                [c.start, c.duration, c.phase, c.collector]
                for c in result.gc_log.concurrent
            ],
        },
    }


def decode_run(d: Dict[str, object]) -> RunResult:
    """Inverse of :func:`encode_run`."""
    log = GCLog(
        pauses=[
            PauseRecord(start=p[0], duration=p[1], kind=p[2], cause=p[3],
                        collector=p[4], heap_used_before=p[5],
                        heap_used_after=p[6], promoted=p[7])
            for p in d["gc_log"]["pauses"]
        ],
        concurrent=[
            ConcurrentRecord(start=c[0], duration=c[1], phase=c[2], collector=c[3])
            for c in d["gc_log"]["concurrent"]
        ],
    )
    return RunResult(
        workload=d["workload"],
        config=_decode_config(d["config"]),
        execution_time=d["execution_time"],
        gc_log=log,
        iteration_times=list(d["iteration_times"]),
        allocated_bytes=d["allocated_bytes"],
        alloc_overhead_time=d["alloc_overhead_time"],
        extras=dict(d["extras"]),
        crashed=d["crashed"],
        crash_reason=d["crash_reason"],
    )
