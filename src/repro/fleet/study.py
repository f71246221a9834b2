"""The fleet study: policies x collectors under one diurnal trace.

:func:`run_fleet_study` is the Fig. 5-style deliverable of the fleet
subsystem. For each collector it simulates the **same** open-loop
diurnal arrival sequence under every balancing policy, and reports:

* fleet tail latency — P50/P99/P99.9 from exactly-merged per-node
  :class:`~repro.analysis.latency.LatencySummary` histograms (never a
  re-bucketing of raw samples);
* the scaling story — node-count-over-time, scale-out counts and the
  time of the first scale-out (Monk's "how long did valley collections
  delay buying a node").

Calibration runs (one real simulated Cassandra JVM per collector) are
content-addressed campaign cells: a :class:`~repro.campaign.cells.CellSpec`
with the reserved benchmark name :data:`FLEET_BENCHMARK` identifies each
run, and a shared :class:`~repro.campaign.store.ResultStore` serves
repeat studies from cache — the study JSON is byte-identical either way
(the codec round-trip is exact and every RNG stream derives from the
study's own coordinates via :mod:`repro.seeding`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.ascii_plot import scatter_plot
from ..analysis.latency import LatencySummary
from ..analysis.report import render_table
from ..analysis.study import Axis, StudyResult, normalise_axes, serve_cell
from ..campaign.cells import CellSpec
from ..errors import ConfigError
from ..gc.registry import resolve_gc
from ..seeding import derive_seed
from ..telemetry.tracer import NULL_TRACER
from ..units import GB
from .autoscaler import AutoscalerConfig, ReactiveAutoscaler
from .balancer import FleetBalancer
from .node import FleetNode, GCCalibration, NodeModelConfig, calibrate
from .policies import POLICY_NAMES, make_policy
from .traffic import DiurnalTraffic, TrafficConfig

#: Reserved CellSpec benchmark name for fleet calibration cells.
FLEET_BENCHMARK = "fleet-cassandra"

#: Bump on incompatible study-output changes (part of the JSON).
STUDY_SCHEMA_VERSION = 1

#: Percentiles reported per policy (the paper's tail view).
_QS = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class FleetStudyConfig:
    """One fleet study: collectors x policies over a diurnal trace."""

    gcs: Tuple[str, ...] = ("ParallelOld", "CMS", "G1")
    policies: Tuple[str, ...] = tuple(POLICY_NAMES)
    n_nodes: int = 16
    duration: float = 86_400.0
    tick: float = 1.0
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    node_model: NodeModelConfig = field(default_factory=NodeModelConfig)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    #: Calibration cell coordinates (one JVM run per collector).
    calibration_heap: float = 64 * GB
    calibration_young: float = 12 * GB
    calibration_duration: float = 3600.0
    calibration_ops: float = 1350.0
    #: Node-count timeline sampling interval.
    report_interval: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        normalise_axes(self, "a fleet study", (
            Axis("gcs", "collector", lambda g: resolve_gc(g).value),
            Axis("policies", "policy")))
        if not isinstance(self.n_nodes, numbers.Integral) or self.n_nodes < 1:
            raise ConfigError(
                f"n_nodes must be an integer >= 1, got {self.n_nodes!r}")
        # Normalize numerics so to_json() is identical whether the
        # config came from Python literals (64 * GB is an int) or from
        # a parsed study JSON (floats). `not 0 < x < inf` also rejects
        # NaN, which every comparison fails.
        for name in ("duration", "tick", "calibration_heap",
                     "calibration_young", "calibration_duration",
                     "calibration_ops", "report_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite: {value!r}")
            object.__setattr__(self, name, float(value))
        if self.duration < self.tick:
            raise ConfigError("duration must cover at least one tick")
        if self.report_interval < self.tick:
            raise ConfigError("report_interval must be >= tick")
        for p in self.policies:
            make_policy(p)      # fail fast on unknown names

    def calibration_cell(self, gc: str) -> CellSpec:
        """The content-addressed identity of one calibration run."""
        return CellSpec.from_axes(
            FLEET_BENCHMARK, gc, self.calibration_heap,
            self.calibration_young, self.seed, iterations=1,
            overrides={
                "fleet_calibration_duration": self.calibration_duration,
                "fleet_calibration_ops": self.calibration_ops,
            },
        )


def run_calibration_cell(cell: CellSpec) -> "RunResult":
    """Execute one fleet calibration cell from scratch.

    A real discrete-event Cassandra JVM run — the expensive, cacheable
    part of a fleet study.
    """
    from ..cassandra import CassandraServer, stress_config
    from ..jvm import JVM, JVMConfig

    overrides = dict(cell.overrides)
    config = JVMConfig(gc=cell.gc, heap=cell.heap, young=cell.young,
                       seed=cell.seed)
    server = CassandraServer(stress_config(cell.heap))
    return JVM(config).run(
        server,
        duration=float(overrides["fleet_calibration_duration"]),
        ops_per_second=float(overrides["fleet_calibration_ops"]),
    )


def calibrate_collector(config: FleetStudyConfig, gc: str,
                        store=None) -> Tuple[GCCalibration, bool]:
    """Calibration for *gc*, served from *store* when possible.

    Returns ``(calibration, was_cache_hit)``. A fresh run, crashed or
    not, is recorded into the store so the next study (or the CI smoke's
    second pass) is a pure cache run; a crashed run raises ConfigError.
    """
    run, hit = serve_cell(config.calibration_cell(gc), store,
                          run_calibration_cell)
    if run.crashed:
        raise ConfigError(
            f"calibration run for {gc} crashed: {run.crash_reason}")
    return calibrate(run, config.calibration_ops), hit


# ----------------------------------------------------------------------
# one (collector, policy) combination
# ----------------------------------------------------------------------


@dataclass
class PolicyOutcome:
    """Everything the study reports about one (gc, policy) pair."""

    gc: str
    policy: str
    summary: LatencySummary
    ops: int = 0
    young_gcs: int = 0
    full_gcs: int = 0
    forced_gcs: int = 0
    pause_seconds: float = 0.0
    scale_outs: int = 0
    scale_ins: int = 0
    first_scale_out: Optional[float] = None
    #: ``[t, n_nodes]`` sampled every ``report_interval``.
    node_timeline: List[List[float]] = field(default_factory=list)
    scale_events: List[dict] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Fleet latency percentile (ms)."""
        return self.summary.percentile(q)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (field order fixed by sort_keys)."""
        return {
            "gc": self.gc,
            "policy": self.policy,
            "ops": self.ops,
            "avg_ms": round(self.summary.avg_ms, 6),
            "max_ms": round(self.summary.max_ms, 6),
            "percentiles_ms": {f"p{q:g}": round(self.percentile(q), 6)
                               for q in _QS},
            "young_gcs": self.young_gcs,
            "full_gcs": self.full_gcs,
            "forced_gcs": self.forced_gcs,
            "pause_seconds": round(self.pause_seconds, 6),
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "first_scale_out": self.first_scale_out,
            "node_timeline": self.node_timeline,
            "scale_events": self.scale_events,
            "latency_summary": self.summary.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PolicyOutcome":
        """Inverse of :meth:`to_dict` (for ``report``/``plot``)."""
        return cls(
            gc=d["gc"], policy=d["policy"],
            summary=LatencySummary.from_dict(d["latency_summary"]),
            ops=d["ops"], young_gcs=d["young_gcs"], full_gcs=d["full_gcs"],
            forced_gcs=d["forced_gcs"], pause_seconds=d["pause_seconds"],
            scale_outs=d["scale_outs"], scale_ins=d["scale_ins"],
            first_scale_out=d["first_scale_out"],
            node_timeline=[list(row) for row in d["node_timeline"]],
            scale_events=[dict(e) for e in d["scale_events"]],
        )


def simulate_policy(config: FleetStudyConfig, gc: str, policy_name: str,
                    cal: GCCalibration, tracer=NULL_TRACER) -> PolicyOutcome:
    """Run one policy over the study's diurnal trace for one collector.

    The traffic model is seeded from the study seed alone — every policy
    (and every collector) faces the *identical* arrival sequence, so
    outcome differences are attributable to the policy, not the trace.
    """
    traffic = DiurnalTraffic(config.traffic, seed=config.seed)
    node_seed = derive_seed(config.seed, "fleet.study", gc)
    nodes = [FleetNode(i, cal, config.node_model, node_seed)
             for i in range(config.n_nodes)]
    policy = make_policy(policy_name)
    balancer = FleetBalancer(nodes, policy, traffic, tracer=tracer)
    scaler = ReactiveAutoscaler(config.autoscaler, cal, config.node_model,
                                node_seed, tracer=tracer)
    scaler.attach(balancer)

    arrivals = traffic.arrivals(0.0, config.duration, config.tick)
    outcome = PolicyOutcome(gc=gc, policy=policy_name,
                            summary=LatencySummary())
    next_sample = 0.0
    dt = config.tick
    for i in range(arrivals.size):
        t = i * dt
        if t >= next_sample:
            outcome.node_timeline.append([t, float(len(balancer.nodes))])
            next_sample += config.report_interval
        latencies, counts = balancer.tick(t, dt, int(arrivals[i]))
        scaler.observe(t, dt, balancer, traffic, latencies, counts)

    all_nodes = list(balancer.nodes) + list(scaler.retired)
    all_nodes.sort(key=lambda n: n.node_id)
    outcome.summary = LatencySummary.merged(
        LatencySummary(hist=n.hist) for n in all_nodes)
    outcome.ops = sum(n.ops_served for n in all_nodes)
    outcome.young_gcs = sum(n.young_gcs for n in all_nodes)
    outcome.full_gcs = sum(n.full_gcs for n in all_nodes)
    outcome.forced_gcs = sum(n.forced_gcs for n in all_nodes)
    outcome.pause_seconds = float(sum(n.pause_seconds for n in all_nodes))
    outcome.scale_outs = scaler.scale_out_count
    outcome.scale_ins = sum(1 for e in scaler.events if e.action == "in")
    outcome.first_scale_out = scaler.first_scale_out()
    outcome.scale_events = [e.to_dict() for e in scaler.events]
    return outcome


# ----------------------------------------------------------------------
# the study
# ----------------------------------------------------------------------


@dataclass
class FleetStudyResult(StudyResult):
    """All outcomes plus the knobs that produced them."""

    config: FleetStudyConfig
    outcomes: List[PolicyOutcome] = field(default_factory=list)
    #: Calibration cache accounting (not part of the canonical JSON —
    #: a cached rerun must stay byte-identical to the original).
    cache_hits: int = 0
    cells_total: int = 0

    def outcome(self, gc: str, policy: str) -> PolicyOutcome:
        """The outcome for one (collector, policy) pair."""
        gc = resolve_gc(gc).value
        for o in self.outcomes:
            if o.gc == gc and o.policy == policy:
                return o
        raise ConfigError(f"no outcome for ({gc}, {policy})")

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form of the whole study."""
        c = self.config
        return {
            "v": STUDY_SCHEMA_VERSION,
            "config": {
                "gcs": list(c.gcs),
                "policies": list(c.policies),
                "n_nodes": c.n_nodes,
                "duration": c.duration,
                "tick": c.tick,
                "seed": c.seed,
                "traffic": {
                    "users": c.traffic.users,
                    "ops_per_user_day": c.traffic.ops_per_user_day,
                    "period": c.traffic.period,
                    "amplitude": c.traffic.amplitude,
                    "mean_rate": c.traffic.mean_rate,
                },
                "calibration": {
                    "heap": c.calibration_heap,
                    "young": c.calibration_young,
                    "duration": c.calibration_duration,
                    "ops_per_second": c.calibration_ops,
                },
            },
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Per-collector policy comparison tables."""
        blocks = []
        for gc in self.config.gcs:
            rows = []
            for o in self.outcomes:
                if o.gc != gc:
                    continue
                rows.append([
                    o.policy, o.ops,
                    round(o.summary.avg_ms, 3),
                    round(o.percentile(50), 3),
                    round(o.percentile(99), 3),
                    round(o.percentile(99.9), 3),
                    o.young_gcs, o.full_gcs, o.forced_gcs,
                    o.scale_outs,
                    ("-" if o.first_scale_out is None
                     else round(o.first_scale_out, 0)),
                ])
            blocks.append(render_table(
                ["policy", "ops", "AVG", "P50", "P99", "P99.9",
                 "young", "full", "forced", "outs", "1st out (s)"],
                rows,
                title=f"fleet study [{gc}] — latency (ms) and scaling",
            ))
        return "\n\n".join(blocks)

    def plot_nodes(self, gc: str) -> str:
        """Node-count-over-time, one series per policy."""
        gc = resolve_gc(gc).value
        series = {}
        for o in self.outcomes:
            if o.gc != gc or not o.node_timeline:
                continue
            xs = [row[0] / 3600.0 for row in o.node_timeline]
            ys = [row[1] for row in o.node_timeline]
            series[o.policy] = (xs, ys)
        if not series:
            raise ConfigError(f"no outcomes for collector {gc}")
        return scatter_plot(series, title=f"fleet size over time [{gc}]",
                            x_label="hours", y_label="nodes")

    def plot_tail(self, gc: str) -> str:
        """Latency tail curves (P50→P99.9), one series per policy."""
        gc = resolve_gc(gc).value
        series = {}
        for o in self.outcomes:
            if o.gc != gc:
                continue
            xs = list(range(len(_QS)))
            ys = [o.percentile(q) for q in _QS]
            series[o.policy] = (xs, ys)
        if not series:
            raise ConfigError(f"no outcomes for collector {gc}")
        return scatter_plot(
            series,
            title=f"latency tail [{gc}] (x: {', '.join(f'P{q:g}' for q in _QS)})",
            x_label="percentile rank", y_label="ms",
        )

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FleetStudyResult":
        """Rehydrate a study from its JSON (``report``/``plot`` path).

        The embedded config subset is enough for rendering; simulation
        knobs that do not affect presentation fall back to defaults.
        """
        c = d["config"]
        config = FleetStudyConfig(
            gcs=tuple(c["gcs"]), policies=tuple(c["policies"]),
            n_nodes=int(c["n_nodes"]), duration=float(c["duration"]),
            tick=float(c["tick"]), seed=int(c["seed"]),
            traffic=TrafficConfig(
                users=int(c["traffic"]["users"]),
                ops_per_user_day=float(c["traffic"]["ops_per_user_day"]),
                period=float(c["traffic"]["period"]),
                amplitude=float(c["traffic"]["amplitude"]),
            ),
            calibration_heap=float(c["calibration"]["heap"]),
            calibration_young=float(c["calibration"]["young"]),
            calibration_duration=float(c["calibration"]["duration"]),
            calibration_ops=float(c["calibration"]["ops_per_second"]),
        )
        return cls(config=config,
                   outcomes=[PolicyOutcome.from_dict(o)
                             for o in d["outcomes"]])


def run_fleet_study(config: FleetStudyConfig, store=None,
                    tracer=NULL_TRACER) -> FleetStudyResult:
    """Run the full policy x collector matrix over one diurnal trace."""
    result = FleetStudyResult(config=config)
    for gc in config.gcs:
        cal, hit = calibrate_collector(config, gc, store=store)
        result.cells_total += 1
        result.cache_hits += int(hit)
        for policy in config.policies:
            result.outcomes.append(
                simulate_policy(config, gc, policy, cal, tracer=tracer))
    return result
