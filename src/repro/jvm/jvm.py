"""The JVM facade: wires heap, collector, machine and DES together.

One :class:`JVM` instance corresponds to one ``java`` process in the
paper's experiments: it is configured once (GC, heap geometry, TLAB,
machine), then runs a workload to completion and exposes the GC log and
run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..errors import ReproError
from ..gc.registry import create_collector
from ..gc.stats import GCLog
from ..heap.heap import GenerationalHeap, HeapConfig
from ..machine.costs import CostModel
from ..sim import Engine
from .flags import JVMConfig
from .threads import MutatorContext, World


@dataclass
class RunResult:
    """Outcome of one workload run on a JVM."""

    workload: str
    config: JVMConfig
    execution_time: float           #: total simulated wall time (seconds)
    gc_log: GCLog
    iteration_times: List[float] = field(default_factory=list)
    allocated_bytes: float = 0.0
    alloc_overhead_time: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)
    crashed: bool = False
    crash_reason: str = ""

    @property
    def final_iteration_time(self) -> float:
        """Duration of the last (measured) iteration, 0 if none recorded."""
        return self.iteration_times[-1] if self.iteration_times else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        state = "CRASHED " if self.crashed else ""
        return (
            f"{state}{self.workload} [{self.config.gc.value}] "
            f"exec {self.execution_time:.2f}s, {self.gc_log.summary()}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary of the run (for result archives)."""
        return {
            "workload": self.workload,
            "gc": self.config.gc.value,
            "heap_bytes": self.config.heap_bytes,
            "young_bytes": self.config.young_bytes,
            "seed": self.config.seed,
            "execution_time": self.execution_time,
            "iteration_times": list(self.iteration_times),
            "allocated_bytes": self.allocated_bytes,
            "crashed": self.crashed,
            "crash_reason": self.crash_reason,
            "gc_log": {
                "pauses": self.gc_log.count,
                "full_pauses": self.gc_log.full_count,
                "total_pause": self.gc_log.total_pause,
                "max_pause": self.gc_log.max_pause,
                "avg_pause": self.gc_log.avg_pause,
            },
        }


class JVM:
    """A simulated OpenJDK 8 JVM instance.

    Create one per run; the engine, heap and collector state are
    per-instance and a JVM cannot be reused after :meth:`run`.
    """

    def __init__(self, config: JVMConfig, tracer=None):
        self.config = config
        self.engine = Engine()
        # Mix the collector into the seed: separate JVM invocations (one per
        # GC in the paper's methodology) have independent noise.
        from ..seeding import rng_for
        from ..telemetry.tracer import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.rng = rng_for(config.seed, config.gc.value, "jvm")
        self.costs = CostModel(topology=config.topology)
        gc_threads = config.gc_threads
        if config.gc_placement:
            # Fold the placement policy's per-phase bandwidth scales into
            # the cost model and cap the GC thread pool at the pinned
            # class's size. On a homogeneous topology every scale is
            # exactly 1.0 and the cap equals the ergonomic default, so
            # this is byte-transparent.
            from ..energy.placement import (apply_placement,
                                            effective_gc_threads,
                                            resolve_placement)
            policy = resolve_placement(config.gc_placement)
            self.costs = apply_placement(self.costs, policy)
            gc_threads = effective_gc_threads(config.topology, policy,
                                              config.gc_threads)
        self.heap = GenerationalHeap(
            HeapConfig(
                heap_bytes=config.heap_bytes,
                young_bytes=config.young_bytes,
                survivor_ratio=config.survivor_ratio,
                tlab=config.tlab,
            ),
            n_mutator_threads=config.mutator_threads,
        )
        self.collector = create_collector(
            config.gc,
            self.heap,
            self.costs,
            gc_threads=gc_threads,
            rng=rng_for(config.seed, config.gc.value, "collector"),
            pause_target=config.pause_target,
        )
        self.gc_log = GCLog()
        self.world = World(
            self.engine, self.heap, self.collector, self.costs,
            self.gc_log, config.topology.cores,
        )
        if self.tracer.enabled:
            self.engine.tracer = self.tracer
            self.world.tracer = self.tracer
            self.collector.tracer = self.tracer
            self.tracer.meta.update({
                "gc": config.gc.value,
                "heap_bytes": config.heap_bytes,
                "young_bytes": (float(config.young)
                                if config.young is not None else None),
                "seed": config.seed,
                "tlab": config.tlab.enabled,
                "topology": config.topology.name,
            })
            if config.gc_placement:
                self.tracer.meta["gc_placement"] = config.gc_placement
        self._contexts: List[MutatorContext] = []
        self._ran = False

    # ------------------------------------------------------------------
    # Process helpers (used by workloads/harnesses)
    # ------------------------------------------------------------------

    def spawn_mutator(self, body: Callable[[MutatorContext], object], name: str = "mutator"):
        """Start a mutator thread running the generator ``body(ctx)``.

        Returns the underlying process (an awaitable Event).
        """
        ctx = MutatorContext(self.world, name)
        self.world.register(ctx)
        self._contexts.append(ctx)

        def _wrapper():
            try:
                yield from body(ctx)
            finally:
                ctx.alive = False

        ctx.process = self.engine.process(_wrapper())
        return ctx.process

    def join(self, processes):
        """Generator: wait until every process in *processes* finished."""
        for proc in processes:
            if proc.is_alive:
                yield proc

    def system_gc(self):
        """Generator: perform ``System.gc()`` (a stop-the-world full GC)."""
        yield from self.world.gc_cycle(None, self.collector.explicit_gc, must_run=True)

    def sleep(self, seconds: float):
        """Generator: simulated sleep (not stretched by GC activity)."""
        yield self.engine.timeout(seconds)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    def _misc_safepoint_loop(self):
        """Background process emitting non-GC safepoints (paper §2).

        Beyond collections, HotSpot stops the world for code
        deoptimization, biased-lock revocation and periodic cleanup; when
        ``misc_safepoints`` is enabled these appear in the GC log with
        kind ``vm-op``. The loop retires once the workload's mutators are
        gone so the simulation can terminate.
        """
        from ..gc.base import Outcome, STWPause
        from ..seeding import rng_for

        rng = rng_for(self.config.seed, self.config.gc.value, "vm-ops")
        causes = ["Deoptimize", "RevokeBias", "no vm operation"]
        seen_mutators = False
        while True:
            yield self.engine.timeout(
                float(rng.exponential(self.config.misc_safepoint_interval))
            )
            alive = self.world.alive_mutators() > 0
            if alive:
                seen_mutators = True
            elif seen_mutators or self.engine.now > 60.0:
                return
            else:
                continue
            cause = causes[int(rng.integers(len(causes)))]
            duration = float(rng.uniform(0.0005, 0.004))

            def vm_op(_now, c=cause, d=duration):
                return Outcome(pauses=[STWPause("vm-op", c, d)])

            yield from self.world.gc_cycle(None, vm_op, must_run=True)

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------

    def run(self, workload, **kwargs) -> RunResult:
        """Run *workload* to completion and return its :class:`RunResult`.

        The workload must implement the :class:`repro.workloads.base.Workload`
        protocol; extra keyword arguments are forwarded to its
        :meth:`~repro.workloads.base.Workload.drive` generator factory.
        """
        if self._ran:
            raise ReproError("a JVM instance can only run once; create a new one")
        self._ran = True
        if self.tracer.enabled:
            self.tracer.meta.setdefault(
                "workload", getattr(workload, "name", str(workload)))
        result = RunResult(
            workload=getattr(workload, "name", str(workload)),
            config=self.config,
            execution_time=0.0,
            gc_log=self.gc_log,
        )
        driver = self.engine.process(workload.drive(self, result, **kwargs))
        if self.config.misc_safepoints:
            self.engine.process(self._misc_safepoint_loop())
        crash = ""
        try:
            self.engine.run()
        except ReproError as exc:
            # Keep the reason only: the traceback holds this frame.
            crash = f"{type(exc).__name__}: {exc}"
        result.execution_time = self.engine.now
        result.allocated_bytes = sum(c.allocated_bytes for c in self._contexts)
        result.alloc_overhead_time = sum(c.alloc_overhead_time for c in self._contexts)
        if self.world.total_stall_time > 0.0:
            # Only the concurrent collectors ever stall, so legacy runs'
            # extras (and their cached encodings) are untouched.
            result.extras["alloc_stall_seconds"] = self.world.total_stall_time
            result.extras["alloc_stall_count"] = self.world.stall_count
        if crash:
            result.crashed = True
            result.crash_reason = crash
        elif driver.is_alive:
            result.crashed = True
            result.crash_reason = "driver did not finish (deadlock?)"
        if self.tracer.enabled and self.config.gc_placement:
            # Post-hoc energy summary events, one per (phase, class).
            # Gated on an explicit placement so legacy traces (and the
            # CI byte-identity proofs) keep their exact bytes.
            from ..energy.model import EnergyModel
            account = EnergyModel.for_config(self.config).account_run(result)
            for phase, core_class, uj in account.items():
                self.tracer.energy_phase(result.execution_time, phase,
                                         core_class, uj)
        # A JVM runs once: let go of what a crash left waiting.
        self.engine.close()
        return result
