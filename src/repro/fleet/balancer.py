"""The fleet balancer: splits each tick's arrivals across ready nodes.

The balancer owns the node list (the autoscaler grows and shrinks it)
and applies the policy's weights with a largest-remainder integer split,
which is deterministic, exact (ops are conserved), and fair under ties
(remainders break by node id; the round-robin rotation offset keeps the
GC-blind baseline honest instead of always favouring node 0).

Routing and forced-GC decisions flow to the telemetry tracer via
dedicated typed hooks (``fleet_route`` / ``fleet_forced_gc``), so a
traced study shows *why* the latency surface looks the way it does.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigError
from ..telemetry.tracer import NULL_TRACER
from .node import FleetNode
from .policies import Policy
from .traffic import DiurnalTraffic


def split_ops(n_ops: int, weights: np.ndarray,
              rotation: int = 0) -> np.ndarray:
    """Largest-remainder split of *n_ops* proportional to *weights*.

    Exact: the returned integer counts always sum to ``n_ops``. Ties in
    the remainder ranking resolve by ``(index + rotation) % n`` so a
    uniform-weight policy distributes its remainder round-robin over
    ticks instead of piling it on the first node.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ConfigError("weights must be a non-empty 1-d array")
    if (w < 0).any():
        raise ConfigError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        w = np.ones(w.size, dtype=float)
        total = float(w.size)
    quota = n_ops * w / total
    counts = np.floor(quota).astype(np.int64)
    short = n_ops - int(counts.sum())
    if short > 0:
        remainder = quota - counts
        order = np.lexsort((np.arange(w.size - rotation % w.size,
                                      2 * w.size - rotation % w.size) % w.size,
                            -remainder))
        counts[order[:short]] += 1
    return counts


class FleetBalancer:
    """Routes the open-loop arrival stream through a policy."""

    def __init__(self, nodes: List[FleetNode], policy: Policy,
                 traffic: DiurnalTraffic, tracer=NULL_TRACER):
        if not nodes:
            raise ConfigError("a fleet needs at least one node")
        self.nodes = nodes
        self.policy = policy
        self.traffic = traffic
        self.tracer = tracer
        self._tick_index = 0

    def ready_nodes(self, t: float) -> List[FleetNode]:
        """Nodes that have finished warming up by *t*."""
        return [n for n in self.nodes if n.joined_at <= t]

    def tick(self, t: float, dt: float, n_ops: int):
        """Run one tick: maintenance, routing, serving.

        Returns ``(latencies_ms, counts)`` arrays over the ready nodes —
        the tick's recorded latency classes, for SLO accounting.
        """
        ready = self.ready_nodes(t)
        if not ready:
            raise ConfigError(f"no ready nodes at t={t}")
        forced = self.policy.maintain(t, ready, self.traffic)
        for node in forced:
            self.tracer.fleet_forced_gc(t, node.node_id,
                                        node.backlog(t),
                                        node.old_fraction())
        per_node_rate = n_ops / dt / len(ready)
        weights = self.policy.weights(t, ready, per_node_rate)
        counts = split_ops(n_ops, weights, rotation=self._tick_index)
        self._tick_index += 1
        latencies = np.empty(len(ready), dtype=float)
        for i, node in enumerate(ready):
            lat, _ = node.offer(t, dt, int(counts[i]))
            latencies[i] = lat
        if counts.any():
            busiest = int(np.argmax(counts))
            self.tracer.fleet_route(t, self.policy.name, len(ready),
                                    ready[busiest].node_id, int(counts[busiest]))
        return latencies, counts
