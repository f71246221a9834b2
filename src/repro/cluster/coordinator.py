"""The cluster coordinator: consistent-hash routing over worker nodes.

Architecture (DESIGN.md §16)::

    client ──ndjson──▶ coordinator ──ring──▶ worker A (ExperimentService)
                        │   │  ▲             worker B   "
                        │   │  └─ steal ───▶ worker C   "
                        │   └─ scatter-gather status / drain
                        └─ coalescing (digest → one forward)

The coordinator speaks the same NDJSON protocol as a single worker —
``repro-serve submit`` against a coordinator socket works unchanged — and
adds the cluster ops (``join``/``leave``); both are
:class:`~repro.serve.server.NdjsonServer` subclasses, so the listener,
framing and lifecycle are one code path. Placement is the
:class:`~repro.cluster.membership.Membership` ring over job content
digests, so identical fabrics route identically and a node's departure
re-homes only that node's digests.

Invariants the tests pin:

* **at-most-once execution under stealing** — a straggler's queued job
  moves only after the victim's ``cancel`` verdict says ``cancelled``
  (queued-but-unstarted, withdrawn before any worker loop saw it); a
  ``busy`` verdict leaves it where it runs. Node *death* is the one
  case that legitimately re-executes: the victim's partial work is gone.
* **coalescing** — concurrent submits of one digest share one forward,
  one worker execution, one result fan-out, exactly like the in-service
  dedup they sit above.
* **exact aggregation** — scatter-gather status sums per-node counters
  and merges per-node pause histograms with the exactly associative
  :class:`~repro.telemetry.hist.LogHistogram` merge, so cluster-level
  percentiles equal those of a single node that had seen every pause.

Wall-clock readings come only from the injected clock (service metadata
and steal pacing; simulated results never see it) — same discipline as
:mod:`repro.serve.service`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.latency import LatencySummary
from ..energy.model import energy_section
from ..errors import ConfigError, ProtocolError
from ..serve import protocol
from ..serve.client import ServiceClient
from ..serve.protocol import COORDINATOR_OPS, PROTOCOL_VERSION
from ..serve.server import Connection, NdjsonServer
from ..telemetry.tracer import NULL_TRACER
from ..units import check_budget
from .membership import Membership, NodeSpec
from .ring import DEFAULT_REPLICAS

def _loop_clock() -> float:
    """Default clock: asyncio's own monotonic time base.

    ``cluster/`` is part of the SL102 deterministic core, so the
    coordinator never reaches for the wall clock — its only time reads
    are service metadata (uptime, trace timestamps), keyed to the event
    loop it runs on. Tests inject a clock via ``ClusterCoordinator``.
    """
    return asyncio.get_event_loop().time()

#: Connection-shaped failures that mean "this node is gone", including
#: the client's 499 ProtocolError when a reader loop dies mid-request.
_NODE_ERRORS = (ProtocolError, ConnectionError, OSError, asyncio.TimeoutError)


@dataclass
class ClusterConfig:
    """Everything one :class:`ClusterCoordinator` instance needs."""

    nodes: Sequence[str] = field(default_factory=tuple)  #: initial workers
    socket_path: Optional[str] = None   #: Unix socket (preferred locally)
    host: str = "127.0.0.1"             #: TCP bind host (when no socket_path)
    port: int = 0                       #: TCP port (0 = ephemeral)
    queue_limit: int = 256              #: in-flight forward bound (429 beyond)
    forward_timeout: Optional[float] = 600.0  #: per-forward response budget
    steal_interval: float = 0.5         #: straggler-check period (seconds)
    steal_threshold: int = 2            #: min pending imbalance before a steal
    replicas: int = DEFAULT_REPLICAS    #: ring virtual nodes per worker
    max_line_bytes: int = protocol.MAX_LINE_BYTES

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1")
        if not self.steal_interval > 0:
            raise ConfigError("steal_interval must be > 0")
        if self.steal_threshold < 1:
            raise ConfigError("steal_threshold must be >= 1")
        check_budget("forward_timeout", self.forward_timeout)


class _Forward:
    """One distinct digest in flight: its waiters and routing state."""

    __slots__ = ("digest", "job", "waiters", "node_id", "route_seq",
                 "attempts", "steal_to", "withdrawn", "unstealable")

    def __init__(self, digest: str, job: Dict[str, object]):
        self.digest = digest
        self.job = job
        self.waiters: List[Tuple[Connection, object]] = []
        self.node_id: Optional[str] = None
        self.route_seq = 0
        self.attempts = 0
        self.steal_to: Optional[str] = None   #: set by the steal loop
        self.withdrawn = False                #: external cancel succeeded
        self.unstealable = False              #: a victim answered ``busy``


class ClusterCoordinator(NdjsonServer):
    """Route, steal, aggregate: the fabric's single front door."""

    OPS = COORDINATOR_OPS
    FAILURE_COUNTER = "cluster.jobs.failed"

    def __init__(self, config: ClusterConfig, *,
                 clock: Optional[Callable[[], float]] = None,
                 tracer=NULL_TRACER):
        super().__init__(config, clock=clock or _loop_clock)
        self.tracer = tracer
        self.members = Membership(config.replicas)
        for address in config.nodes:
            self.members.join(NodeSpec.parse(address))
        self._clients: Dict[str, ServiceClient] = {}
        self._connect_lock = asyncio.Lock()
        self._forwards: Dict[str, _Forward] = {}
        self._pending_by_node: Dict[str, Set[str]] = {}
        self._route_seq = 0

    # -- lifecycle -------------------------------------------------------

    def _open(self) -> None:
        self._spawn(self._steal_loop())

    async def _release(self) -> None:
        for client in self._clients.values():
            await client.close()        # never raises
        self._clients.clear()

    def _busy(self) -> bool:
        return bool(self._forwards)

    async def _drained(self) -> Dict[str, object]:
        """Drain every live worker, then take the aggregated snapshot."""
        async def drain(client: ServiceClient) -> Dict[str, object]:
            msg = await client.drain(timeout=self.config.forward_timeout)
            return msg.get("stats", {})

        return await self._scatter(drain)

    # -- worker connections ----------------------------------------------

    async def _client_for(self, node_id: str) -> ServiceClient:
        client = self._clients.get(node_id)
        if client is not None:
            return client
        spec = self.members.get(node_id)
        if spec is None:
            raise ConnectionError(f"node {node_id} is not a live member")
        async with self._connect_lock:
            client = self._clients.get(node_id)
            if client is not None:
                return client
            client = await ServiceClient.connect(
                spec.socket_path, spec.host, spec.port)
            self._clients[node_id] = client
            return client

    def _node_failed(self, node_id: str) -> None:
        """Failure path: off the ring, client closed; the failed node's
        forwards re-route themselves via their own dispatch loops."""
        if self.members.mark_dead(node_id):
            self.metrics.counter("cluster.nodes.failed").inc()
        client = self._clients.pop(node_id, None)
        if client is not None:
            self._spawn(client.close())

    # -- ops -------------------------------------------------------------

    async def _handle(self, conn: Connection, rid, op: str,
                      msg: Dict[str, object]) -> None:
        if op == "submit":
            await self._handle_submit(conn, rid, msg.get("job"))
        elif op == "cancel":
            await self._handle_cancel(conn, rid, protocol.parse_cancel(msg))
        elif op in ("join", "leave"):
            await self._handle_membership(conn, rid, op, msg)
        else:   # subscribe: workers stream events, the coordinator doesn't
            await conn.send(protocol.error_msg(
                rid, 501, "subscribe is not supported by the coordinator; "
                          "subscribe to a worker node directly"))

    async def _handle_membership(self, conn: Connection, rid, op: str,
                                 msg: Dict[str, object]) -> None:
        address = msg.get("node")
        if not isinstance(address, str) or not address:
            await conn.send(protocol.error_msg(
                rid, 400, f"{op} requires a non-empty 'node' address field"))
            return
        try:
            spec = NodeSpec.parse(address)
        except ConfigError as exc:
            await conn.send(protocol.error_msg(rid, 400, str(exc)))
            return
        if op == "join":
            self.members.join(spec)
            self.metrics.counter("cluster.nodes.joined").inc()
            await conn.send(protocol.joined_msg(
                rid, spec.node_id, self.members.live_ids()))
        else:
            self.members.leave(spec.node_id)
            client = self._clients.pop(spec.node_id, None)
            if client is not None:
                self._spawn(client.close())
            self.metrics.counter("cluster.nodes.left").inc()
            await conn.send(protocol.left_msg(
                rid, spec.node_id, self.members.live_ids()))

    # -- admission / routing ----------------------------------------------

    async def _handle_submit(self, conn: Connection, rid, job: object) -> None:
        m = self.metrics
        m.counter("cluster.jobs.submitted").inc()
        if self._draining:
            m.counter("cluster.jobs.rejected").inc()
            await conn.send(protocol.rejected_msg(
                rid, 503, "coordinator is draining"))
            return
        digest = protocol.job_to_cell(job).digest()

        existing = self._forwards.get(digest)
        if existing is not None and not existing.withdrawn:
            # Coalesce: one forward (one worker execution) answers all.
            m.counter("cluster.jobs.coalesced").inc()
            existing.waiters.append((conn, rid))
            await conn.send(protocol.queued_msg(
                rid, digest, position=len(self._forwards)))
            return

        if len(self._forwards) >= self.config.queue_limit:
            m.counter("cluster.jobs.rejected").inc()
            await conn.send(protocol.rejected_msg(
                rid, 429,
                f"coordinator has {self.config.queue_limit} forwards in "
                "flight"))
            return

        fwd = _Forward(digest, dict(job))
        fwd.waiters.append((conn, rid))
        self._forwards[digest] = fwd
        m.counter("cluster.jobs.accepted").inc()
        await conn.send(protocol.queued_msg(
            rid, digest, position=len(self._forwards)))
        self._spawn(self._dispatch_forward(fwd))

    async def _handle_cancel(self, conn: Connection, rid,
                             digest: str) -> None:
        fwd = self._forwards.get(digest)
        if fwd is None:
            await conn.send(protocol.cancelled_msg(rid, digest, "unknown"))
            return
        outcome = "busy"
        node_id = fwd.node_id
        if node_id is not None and not fwd.withdrawn:
            try:
                client = await self._client_for(node_id)
                resp = await client.cancel(digest, timeout=30.0)
                if resp.get("outcome") == "cancelled":
                    fwd.withdrawn = True    # dispatch loop fans it out
                    outcome = "cancelled"
            except _NODE_ERRORS:
                pass    # in transit or node dying: conservatively busy
        await conn.send(protocol.cancelled_msg(rid, digest, outcome))

    # -- the forward loop --------------------------------------------------

    async def _dispatch_forward(self, fwd: _Forward) -> None:
        """Route one digest until a terminal lands; re-route on node
        death and after confirmed steals."""
        m = self.metrics
        # Enough headroom to walk the whole ring twice under churn.
        max_attempts = 2 * max(1, len(self.members)) + 4
        while fwd.attempts < max_attempts:
            if fwd.withdrawn:
                self._deliver(fwd, lambda rid: protocol.cancelled_msg(
                    rid, fwd.digest, "cancelled"))
                return
            if fwd.steal_to is not None and \
                    self.members.get(fwd.steal_to) is not None:
                node_id = fwd.steal_to
            else:
                spec = self.members.assign(fwd.digest)
                if spec is None:
                    m.counter("cluster.jobs.unroutable").inc()
                    self._deliver(fwd, lambda rid: protocol.rejected_msg(
                        rid, 503, "no live worker nodes"))
                    return
                node_id = spec.node_id
            fwd.steal_to = None
            reroute = fwd.attempts > 0
            fwd.attempts += 1
            fwd.node_id = node_id
            self._route_seq += 1
            fwd.route_seq = self._route_seq
            m.counter("cluster.routes").inc()
            if reroute:
                m.counter("cluster.reroutes").inc()
            self.tracer.cluster_route(self._now(), fwd.digest[:12], node_id,
                                      reroute)
            pending = self._pending_by_node.setdefault(node_id, set())
            pending.add(fwd.digest)
            try:
                client = await self._client_for(node_id)
                resp = await client.submit(
                    fwd.job, timeout=self.config.forward_timeout)
            except _NODE_ERRORS:
                self._node_failed(node_id)
                continue
            finally:
                pending.discard(fwd.digest)
            kind = resp.get("type")
            if kind == "cancelled" and not fwd.withdrawn:
                continue    # stolen: next lap honours steal_to / the ring
            if kind == "result":
                m.counter("cluster.jobs.completed").inc()
                m.counter("cluster.cache.hits" if resp.get("cached")
                          else "cluster.cache.misses").inc()
            elif kind == "failed":
                m.counter("cluster.jobs.failed").inc()
            self._deliver(fwd, lambda rid: self._relay(rid, resp, node_id))
            return
        m.counter("cluster.jobs.unroutable").inc()
        self._deliver(fwd, lambda rid: protocol.rejected_msg(
            rid, 503, f"gave up after {fwd.attempts} routing attempts"))

    @staticmethod
    def _relay(rid, resp: Dict[str, object], node_id: str) -> Dict[str, object]:
        """A worker's terminal, re-addressed to one waiter (the serving
        node rides along in ``meta`` for observability)."""
        out = dict(resp)
        out["id"] = rid
        if rid is None:
            out.pop("id", None)
        meta = dict(out.get("meta") or {})
        meta["node"] = node_id
        out["meta"] = meta
        if "queued" in out:     # the worker's ack is not the client's
            del out["queued"]
        return out

    def _deliver(self, fwd: _Forward, build) -> None:
        if self._forwards.get(fwd.digest) is fwd:
            del self._forwards[fwd.digest]
        for conn, rid in fwd.waiters:
            self._spawn(conn.send(build(rid)))
        fwd.waiters = []
        self._check_idle()

    # -- work stealing -----------------------------------------------------

    async def _steal_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.steal_interval)
            self._maybe_steal()

    def _maybe_steal(self) -> None:
        """One rebalance decision: move a queued digest from the most
        loaded node to the least loaded, iff confirmed unstarted."""
        live = self.members.live_ids()
        if len(live) < 2:
            return
        counts = {nid: len(self._pending_by_node.get(nid, ()))
                  for nid in live}
        victim = max(live, key=lambda n: (counts[n], n))
        thief = min(live, key=lambda n: (counts[n], n))
        if victim == thief or \
                counts[victim] - counts[thief] < self.config.steal_threshold:
            return
        candidates = [
            self._forwards[d]
            for d in sorted(self._pending_by_node.get(victim, ()))
            if d in self._forwards
        ]
        candidates = [f for f in candidates
                      if f.node_id == victim and f.steal_to is None
                      and not f.withdrawn and not f.unstealable]
        if not candidates:
            return
        # The most recently routed forward is the likeliest still queued.
        fwd = max(candidates, key=lambda f: f.route_seq)
        self._spawn(self._steal_one(fwd, victim, thief))

    async def _steal_one(self, fwd: _Forward, victim: str,
                         thief: str) -> None:
        """Cancel on the victim; only a ``cancelled`` verdict moves the
        job (at-most-once: the victim provably never started it)."""
        fwd.steal_to = thief
        self.metrics.counter("cluster.steal_attempts").inc()
        try:
            client = await self._client_for(victim)
            resp = await client.cancel(fwd.digest, timeout=30.0)
        except _NODE_ERRORS:
            fwd.steal_to = None     # node death re-routes on its own
            return
        if resp.get("outcome") == "cancelled":
            self.metrics.counter("cluster.steals").inc()
            self.tracer.cluster_steal(self._now(), fwd.digest[:12],
                                      victim, thief)
        else:
            fwd.steal_to = None
            if resp.get("outcome") == "busy":
                fwd.unstealable = True

    # -- scatter-gather status ---------------------------------------------

    async def stats_async(self) -> Dict[str, object]:
        """Aggregate snapshot of every live node's stats."""
        return await self._scatter(lambda client: client.status(timeout=30.0))

    async def _scatter(self, ask) -> Dict[str, object]:
        """Aggregate snapshot over ``ask(client)`` of every live node,
        asked concurrently; an unreachable node is marked dead rather
        than failing the call."""
        node_stats: Dict[str, Dict[str, object]] = {}

        async def one(node_id: str) -> None:
            try:
                node_stats[node_id] = await ask(
                    await self._client_for(node_id))
            except _NODE_ERRORS:
                self._node_failed(node_id)

        await asyncio.gather(*(one(n) for n in self.members.live_ids()))
        return self.stats(node_stats=node_stats)

    def stats(self, *, node_stats: Dict[str, Dict[str, object]]
              ) -> Dict[str, object]:
        """Merge per-node snapshots (counters summed exactly, pause
        histograms merged exactly) under the coordinator's own view."""
        totals: Dict[str, int] = {}
        for ns in node_stats.values():
            counters = ns.get("metrics", {}).get("counters", {})
            for name, value in counters.items():
                totals[name] = totals.get(name, 0) + int(value)
        hits = sum(int(ns.get("cache", {}).get("hits", 0))
                   for ns in node_stats.values())
        misses = sum(int(ns.get("cache", {}).get("misses", 0))
                     for ns in node_stats.values())
        served = hits + misses
        merged = LatencySummary.merged_from_dicts(
            ns["pauses"]["hist"] for ns in node_stats.values()
            if isinstance(ns.get("pauses"), dict) and "hist" in ns["pauses"])
        pause_summary = merged.summary_dict()
        pause_summary["hist"] = merged.hist.to_dict()
        return {
            "protocol": PROTOCOL_VERSION,
            "role": "coordinator",
            "draining": self._draining,
            "uptime_s": self._now(),
            "cluster": {
                "live": self.members.live_ids(),
                "dead": self.members.dead_ids(),
                "inflight": len(self._forwards),
                "queue_limit": self.config.queue_limit,
                "pending_by_node": {
                    nid: len(self._pending_by_node.get(nid, ()))
                    for nid in self.members.live_ids()},
            },
            "totals": {
                "counters": {k: totals[k] for k in sorted(totals)},
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": round(hits / served, 6) if served else None,
                },
                # Integer microjoule counters sum exactly, so the
                # cluster-wide energy section is as bit-faithful as the
                # merged pause histograms above.
                "energy": energy_section(totals),
            },
            "pauses": pause_summary,
            "metrics": self.metrics.to_dict(),
            "nodes": {nid: node_stats[nid] for nid in sorted(node_stats)},
        }
