"""Fleet nodes: a calibrated, load-coupled GC model per Cassandra JVM.

Running a full discrete-event JVM simulation per node per policy would
make a 100-node day-long study cost hours; instead each collector is
simulated **once** (a real :class:`~repro.jvm.JVM` +
:class:`~repro.cassandra.server.CassandraServer` run, cached in the
campaign :class:`~repro.campaign.store.ResultStore`) and every node runs
a cheap surrogate *calibrated from that run's pause log*:

* allocation advances eden in proportion to routed operations (plus the
  server's own background churn — compaction, gossip), so **routing
  decisions feed back into GC timing**, which is the whole point of a
  GC-aware balancer;
* when eden fills, a young pause fires whose duration and promotion are
  drawn from the calibration run's *empirical* samples (each node has
  its own :func:`~repro.seeding.rng_for` stream, so replicas are
  unsynchronized like real ones);
* promoted bytes accumulate in the old generation; crossing the full
  threshold triggers a full collection whose duration scales with the
  bytes it has to process, at the calibration run's observed (or
  derived) seconds-per-byte cost.

Client latency follows the YCSB queue-behind-pause synthesis
(:mod:`repro.ycsb.client`): an operation routed at a node that is inside
a stop-the-world window completes only when the safepoint ends. All
per-node latencies land in a :class:`~repro.telemetry.hist.LogHistogram`
with the same geometry as :func:`repro.analysis.latency.latency_band_stats`
(1 µs resolution over ms values), so fleet aggregation is an exact
histogram merge, never a re-bucketing of raw samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..jvm import RunResult
from ..seeding import rng_for
from ..telemetry.hist import LogHistogram

#: Histogram geometry shared with ``analysis.latency`` (ms values at
#: 1 µs resolution) — merges are exact across nodes and policies.
LATENCY_UNIT = 1e-3


@dataclass(frozen=True)
class GCCalibration:
    """Per-collector surrogate parameters, extracted from one real run.

    Everything here derives from values that survive the campaign
    store's JSON round trip exactly (pause log, config, allocation
    totals), so calibrating from a cached run is bit-identical to
    calibrating from a fresh one.
    """

    gc: str
    #: Eden bytes consumed between young collections (effective young
    #: capacity as the collector actually ran it).
    young_capacity: float
    #: Allocation attributable to one operation (bytes).
    alloc_per_op: float
    #: Load-independent allocation (compaction, gossip; bytes/s).
    background_alloc: float
    #: Empirical young-pause durations (seconds, calibration order).
    young_pauses: Tuple[float, ...]
    #: Empirical per-young-GC promoted bytes.
    promoted: Tuple[float, ...]
    #: Old-generation capacity (bytes).
    old_capacity: float
    #: Full-collection cost (seconds per live byte processed).
    full_seconds_per_byte: float
    #: Live fraction surviving a full collection.
    full_residual: float

    def __post_init__(self) -> None:
        if self.young_capacity <= 0 or self.old_capacity <= 0:
            raise ConfigError("calibrated capacities must be positive")
        if not self.young_pauses:
            raise ConfigError("calibration needs at least one young pause")


#: Conservative fallback: a full collection is this many times less
#: efficient per byte than a young collection (it touches the whole
#: heap, defeats the nursery's locality, and is single-generation work).
_FULL_COST_FACTOR = 3.0

#: Share of the calibration run's allocation charged to background
#: server work rather than client operations.
_BACKGROUND_FRACTION = 0.15


def calibrate(run: RunResult, ops_per_second: float) -> GCCalibration:
    """Extract a :class:`GCCalibration` from a reference server run."""
    if ops_per_second <= 0:
        raise ConfigError("ops_per_second must be positive")
    if run.execution_time <= 0:
        raise ConfigError("calibration run has no duration")
    young = [p for p in run.gc_log.pauses if not p.is_full]
    full = [p for p in run.gc_log.pauses if p.is_full]
    if not young:
        raise ConfigError(
            f"calibration run for {run.config.gc.value} recorded no young "
            f"pauses; lengthen the calibration duration")
    alloc_rate = run.allocated_bytes / run.execution_time
    # Mean eden fill between young GCs, from the collector's own cadence.
    spacing = run.execution_time / len(young)
    young_capacity = alloc_rate * spacing
    full_residual = 0.5
    if full:
        after = [p.heap_used_after / p.heap_used_before
                 for p in full if p.heap_used_before > 0]
        if after:
            full_residual = float(np.clip(np.mean(after), 0.05, 0.95))
        per_byte = [p.duration / p.heap_used_before
                    for p in full if p.heap_used_before > 0]
        full_seconds_per_byte = float(np.mean(per_byte)) if per_byte else 0.0
    else:
        full_seconds_per_byte = 0.0
    if full_seconds_per_byte <= 0:
        # Derive from young cost: seconds per byte young work, scaled by
        # the full collector's inefficiency.
        young_per_byte = float(np.mean([p.duration for p in young])) / young_capacity
        full_seconds_per_byte = young_per_byte * _FULL_COST_FACTOR
    heap = run.config.heap_bytes
    young_bytes = run.config.young_bytes or heap / 3.0
    return GCCalibration(
        gc=run.config.gc.value,
        young_capacity=float(young_capacity),
        alloc_per_op=float(alloc_rate * (1.0 - _BACKGROUND_FRACTION)
                           / ops_per_second),
        background_alloc=float(alloc_rate * _BACKGROUND_FRACTION),
        young_pauses=tuple(p.duration for p in young),
        promoted=tuple(p.promoted for p in young),
        old_capacity=float(heap - young_bytes),
        full_seconds_per_byte=float(full_seconds_per_byte),
        full_residual=full_residual,
    )


@dataclass(frozen=True)
class NodeModelConfig:
    """Fleet-level knobs layered over a :class:`GCCalibration`."""

    #: Old-generation occupancy fraction at study start (a long-running
    #: server joins the study mid-life, not freshly restarted).
    old_start_fraction: float = 0.6
    #: Full collection triggers at this old-occupancy fraction.
    full_threshold: float = 0.9
    #: Scale on calibrated per-young-GC promotion (fleet workloads skew
    #: read-heavier than the insert-heavy calibration stress run).
    promotion_scale: float = 1.0
    #: Scale on calibrated old capacity (None keeps the calibrated one);
    #: lets studies compress days of old-gen filling into shorter runs.
    old_capacity: Optional[float] = None
    #: Base service latency band (ms): constant + gamma(shape, scale),
    #: the YCSB read path's non-GC component.
    base_ms: float = 0.9
    base_gamma_shape: float = 2.0
    base_gamma_scale: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.old_start_fraction < 1:
            raise ConfigError("old_start_fraction must be in [0, 1)")
        if not 0 < self.full_threshold <= 1:
            raise ConfigError("full_threshold must be in (0, 1]")
        if self.old_start_fraction >= self.full_threshold:
            raise ConfigError("old_start_fraction must be below full_threshold")
        if self.promotion_scale <= 0:
            raise ConfigError("promotion_scale must be positive")
        if self.old_capacity is not None and self.old_capacity <= 0:
            raise ConfigError("old_capacity override must be positive")


class FleetNode:
    """One simulated Cassandra JVM behind the balancer.

    State advances in fixed ticks driven by the balancer; every random
    draw comes from the node's own derived stream, so a node's behaviour
    is a pure function of ``(fleet seed, node id, calibration)`` and the
    op counts routed to it.
    """

    __slots__ = ("node_id", "cal", "model", "rng", "eden_used", "old_used",
                 "busy_until", "hist", "ops_served", "young_gcs", "full_gcs",
                 "forced_gcs", "pause_seconds", "joined_at")

    def __init__(self, node_id: int, cal: GCCalibration,
                 model: NodeModelConfig, seed: int, joined_at: float = 0.0):
        self.node_id = int(node_id)
        self.cal = cal
        self.model = model
        self.rng = rng_for(seed, "fleet.node", node_id, cal.gc)
        self.eden_used = 0.0
        old_cap = self.old_capacity
        self.old_used = model.old_start_fraction * old_cap
        self.busy_until = float(joined_at)
        self.joined_at = float(joined_at)
        self.hist = LogHistogram(unit=LATENCY_UNIT)
        self.ops_served = 0
        self.young_gcs = 0
        self.full_gcs = 0
        self.forced_gcs = 0
        self.pause_seconds = 0.0

    # -- observable GC state (what a JMX poller would see) ---------------

    @property
    def old_capacity(self) -> float:
        """Effective old-generation capacity (model override wins)."""
        return (self.model.old_capacity
                if self.model.old_capacity is not None
                else self.cal.old_capacity)

    def backlog(self, t: float) -> float:
        """Seconds of queued work at *t* (> 0 while inside a pause)."""
        return max(0.0, self.busy_until - t)

    def predicted_time_to_pause(self, t: float, offered_rate: float) -> float:
        """Seconds until the next young pause at *offered_rate* ops/s.

        The pause-predictive policy's signal: eden headroom over the
        projected allocation rate. Uses only state a balancer could poll
        (occupancy and its own routing rate), not oracle pause times.
        """
        alloc_rate = (offered_rate * self.cal.alloc_per_op
                      + self.cal.background_alloc)
        headroom = max(0.0, self.cal.young_capacity - self.eden_used)
        if alloc_rate <= 0:
            return float("inf")
        return headroom / alloc_rate

    def old_fraction(self) -> float:
        """Old-generation occupancy fraction."""
        return self.old_used / self.old_capacity

    # -- the per-tick contract ------------------------------------------

    def offer(self, t: float, dt: float, n_ops: int) -> Tuple[float, int]:
        """Serve *n_ops* arriving in ``[t, t + dt)``.

        Returns ``(latency_ms, n_ops)`` — the tick's recorded latency and
        how many operations experienced it. Operations in one tick share
        one base-service draw and the node's queue-behind-pause delay at
        tick start; the tail is therefore entirely GC-shaped, which is
        the paper's client-side observation and what the balancer
        policies compete on.
        """
        base = (self.model.base_ms
                + self.rng.gamma(self.model.base_gamma_shape,
                                 self.model.base_gamma_scale))
        wait_ms = self.backlog(t) * 1000.0
        latency = base + wait_ms
        if n_ops > 0:
            self.hist.record(latency, count=n_ops)
            self.ops_served += n_ops
            self.eden_used += n_ops * self.cal.alloc_per_op
        self.eden_used += self.cal.background_alloc * dt
        if self.eden_used >= self.cal.young_capacity:
            self._young_gc(t + dt)
        return latency, n_ops

    def _sample(self, values: Tuple[float, ...]) -> float:
        return values[int(self.rng.integers(0, len(values)))]

    def _begin_pause(self, t: float, duration: float) -> None:
        self.busy_until = max(self.busy_until, t) + duration
        self.pause_seconds += duration

    def _young_gc(self, t: float) -> float:
        """Eden filled: stop the world, promote, maybe go full."""
        duration = self._sample(self.cal.young_pauses)
        self._begin_pause(t, duration)
        self.young_gcs += 1
        self.eden_used = 0.0
        promoted = (self._sample(self.cal.promoted)
                    * self.model.promotion_scale)
        self.old_used = min(self.old_used + promoted, self.old_capacity)
        if self.old_used >= self.model.full_threshold * self.old_capacity:
            duration += self._full_gc(t)
        return duration

    def _full_gc(self, t: float) -> float:
        """Old generation crossed the threshold: full collection."""
        duration = self.old_used * self.cal.full_seconds_per_byte
        self._begin_pause(t, duration)
        self.full_gcs += 1
        self.old_used *= self.cal.full_residual
        return duration

    def force_gc(self, t: float) -> float:
        """Monk's move: collect *now*, in a valley, on purpose.

        Runs a young + full cycle regardless of occupancy thresholds and
        returns the total pause length. The pause still queues whatever
        little valley traffic arrives behind it — opportunistic, not
        free.
        """
        duration = self._sample(self.cal.young_pauses)
        self._begin_pause(t, duration)
        self.eden_used = 0.0
        full = self.old_used * self.cal.full_seconds_per_byte
        self._begin_pause(t, full)
        self.old_used *= self.cal.full_residual
        self.forced_gcs += 1
        return duration + full
