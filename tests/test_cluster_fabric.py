"""Integration tests for the cluster coordinator fabric.

Everything runs in-process: N real ``ExperimentService`` workers on Unix
sockets, one ``ClusterCoordinator`` fronting them, and real
``ServiceClient`` connections — the same moving parts the CI
``service-smoke`` job exercises across processes. Injected ``cell_fn``s
count executions per digest (the at-most-once proof) and gate workers
(to force stealing and node death) without faking simulator output.
"""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.campaign import CellSpec, run_campaign, run_cell
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, merge_stores
from repro.cluster import ClusterConfig, ClusterCoordinator, NodeSpec
from repro.errors import ConfigError
from repro.serve import ExperimentService, ServiceConfig, ServiceClient
from repro.serve import protocol
from repro.studies import GridSpec
from repro.telemetry.hist import LogHistogram

JOB = {"benchmark": "lusearch", "gc": "Serial", "heap": "1g",
       "young": "256m", "seed": 0, "iterations": 2}


def canon(d):
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


async def wait_until(cond, timeout=15.0, what="condition"):
    for _ in range(int(timeout / 0.01)):
        if cond():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class Counted:
    """A cell_fn wrapper counting executions per digest (thread-safe —
    executions happen on worker offload threads)."""

    def __init__(self, inner=run_cell, gate=None):
        self.inner = inner
        self.gate = gate
        self.counts = {}
        self._lock = threading.Lock()

    def __call__(self, cell):
        digest = cell.digest()
        with self._lock:
            self.counts[digest] = self.counts.get(digest, 0) + 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        return self.inner(cell)


class Fabric:
    """N in-process workers + one coordinator, torn down in one place."""

    def __init__(self, tmp_path, n_nodes=3, cell_fns=None, **coord_kw):
        self.tmp_path = tmp_path
        self.n_nodes = n_nodes
        self.cell_fns = cell_fns or [run_cell] * n_nodes
        self.coord_kw = coord_kw
        self.services = []
        self.coordinator = None

    async def __aenter__(self):
        addrs = []
        for i in range(self.n_nodes):
            cfg = ServiceConfig(store=str(self.tmp_path / f"shard{i}"),
                                socket_path=str(self.tmp_path / f"w{i}.sock"),
                                workers=1)
            svc = ExperimentService(cfg, cell_fn=self.cell_fns[i])
            await svc.start()
            self.services.append(svc)
            addrs.append(f"unix:{cfg.socket_path}")
        kw = dict(nodes=addrs, socket_path=str(self.tmp_path / "coord.sock"),
                  steal_interval=0.05)
        kw.update(self.coord_kw)
        self.coordinator = ClusterCoordinator(ClusterConfig(**kw))
        await self.coordinator.start()
        return self

    async def __aexit__(self, *exc):
        await self.coordinator.close()
        for svc in self.services:
            with contextlib.suppress(Exception):
                await svc.close()

    def node_id(self, i):
        return f"unix:{self.services[i].config.socket_path}"

    async def client(self):
        return await ServiceClient.connect(self.coordinator.config.socket_path)

    def jobs_for_node(self, i, count, gc="Serial"):
        """Jobs whose digests the ring assigns to worker *i* (placement
        is deterministic, so the seeds are found by scanning)."""
        target = self.node_id(i)
        jobs = []
        for seed in range(1000):
            job = dict(JOB, seed=seed, gc=gc)
            cell = protocol.job_to_cell(job)
            owner = self.coordinator.members.assign(cell.digest())
            if owner is not None and owner.node_id == target:
                jobs.append(job)
                if len(jobs) == count:
                    return jobs
        raise AssertionError(f"could not find {count} jobs for node {i}")


async def raw_op(socket_path, msg):
    """One request/response on a fresh connection (ops the client
    wrapper has no verb for: join/leave)."""
    reader, writer = await asyncio.open_unix_connection(socket_path)
    try:
        writer.write(protocol.encode(msg))
        await writer.drain()
        line = await reader.readuntil(b"\n")
        return protocol.decode(line)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


# ----------------------------------------------------------------------
# Routing, caching, byte identity
# ----------------------------------------------------------------------


class TestShardedExecution:
    def test_cluster_run_merges_byte_identical_to_serial(self, tmp_path):
        grid = GridSpec(benchmarks=["lusearch"],
                        gcs=["Serial", "ParallelOld"], heaps=["1g"],
                        youngs=["256m"], seeds=[0, 1], iterations=2)
        jobs = [
            {"benchmark": b, "gc": gc, "heap": h, "young": y, "seed": s,
             "iterations": 2}
            for b, gc, h, y, s in grid.cells()
        ]

        async def run_fabric():
            async with Fabric(tmp_path) as fab:
                client = await fab.client()
                resps = await asyncio.gather(
                    *(client.submit(j, timeout=60) for j in jobs))
                await client.close()
                return resps

        resps = asyncio.run(run_fabric())
        assert all(r["type"] == "result" for r in resps)
        assert all(r["meta"]["node"].startswith("unix:") for r in resps)

        merged = merge_stores(
            [str(tmp_path / f"shard{i}") for i in range(3)],
            str(tmp_path / "merged"))
        assert merged.records == len(jobs) and merged.failed == 0

        serial = ResultStore(str(tmp_path / "serial"))
        run_campaign(CampaignSpec(name="ref", grids=[grid]), store=serial,
                     executor="serial")
        serial.compact()
        merged_bytes = (tmp_path / "merged" / "records.jsonl").read_bytes()
        serial_bytes = (tmp_path / "serial" / "records.jsonl").read_bytes()
        assert merged_bytes == serial_bytes

    def test_coalesced_submits_share_one_execution(self, tmp_path):
        counted = Counted()

        async def main():
            fns = [counted] * 3
            async with Fabric(tmp_path, cell_fns=fns) as fab:
                client = await fab.client()
                a, b = await asyncio.gather(
                    client.submit(JOB, timeout=60),
                    client.submit(JOB, timeout=60))
                coalesced = fab.coordinator.metrics.counter(
                    "cluster.jobs.coalesced").value
                await client.close()
                return a, b, coalesced

        a, b, coalesced = asyncio.run(main())
        assert a["type"] == b["type"] == "result"
        assert canon(a["run"]) == canon(b["run"])
        assert coalesced == 1
        assert sum(counted.counts.values()) == 1


# ----------------------------------------------------------------------
# Work stealing: at-most-once
# ----------------------------------------------------------------------


class TestWorkStealing:
    def test_steal_moves_queued_jobs_without_double_execution(self, tmp_path):
        gate = threading.Event()
        slow = Counted(gate=gate)       # node 0: every execution blocks
        fast = Counted()

        async def main():
            async with Fabric(tmp_path, n_nodes=2, cell_fns=[slow, fast],
                              steal_interval=0.05) as fab:
                coord = fab.coordinator
                jobs = fab.jobs_for_node(0, 4)
                client = await fab.client()
                tasks = [asyncio.ensure_future(client.submit(j, timeout=60))
                         for j in jobs]
                await wait_until(
                    lambda: coord.metrics.counter("cluster.steals").value >= 1,
                    what="a confirmed steal")
                gate.set()
                resps = await asyncio.gather(*tasks)
                steals = coord.metrics.counter("cluster.steals").value
                victim_cancelled = fab.services[0].metrics.counter(
                    "jobs.cancelled").value
                await client.close()
                return resps, steals, victim_cancelled

        resps, steals, victim_cancelled = asyncio.run(main())
        assert all(r["type"] == "result" for r in resps)
        assert steals >= 1 and victim_cancelled == steals
        # The at-most-once proof: across both nodes every digest ran
        # exactly once, steals included.
        executed = {}
        for counted in (slow, fast):
            for digest, n in counted.counts.items():
                executed[digest] = executed.get(digest, 0) + n
        assert all(n == 1 for n in executed.values()), executed
        assert sum(fast.counts.values()) >= 1   # something actually moved

    def test_started_jobs_answer_busy_and_stay_put(self, tmp_path):
        gate = threading.Event()
        slow = Counted(gate=gate)

        async def main():
            async with Fabric(tmp_path, n_nodes=2,
                              cell_fns=[slow, Counted()]) as fab:
                job = fab.jobs_for_node(0, 1)[0]
                digest = protocol.job_to_cell(job).digest()
                client = await fab.client()
                task = asyncio.ensure_future(client.submit(job, timeout=60))
                await wait_until(lambda: slow.counts.get(digest),
                                 what="the job to start on its owner")
                verdict = await client.cancel(digest, timeout=10)
                gate.set()
                resp = await task
                await client.close()
                return verdict, resp

        verdict, resp = asyncio.run(main())
        assert verdict["outcome"] == "busy"
        assert resp["type"] == "result"

    def test_cancel_unknown_digest(self, tmp_path):
        async def main():
            async with Fabric(tmp_path, n_nodes=1) as fab:
                client = await fab.client()
                verdict = await client.cancel("f" * 64, timeout=10)
                await client.close()
                return verdict

        assert asyncio.run(main())["outcome"] == "unknown"


# ----------------------------------------------------------------------
# Node failure and membership
# ----------------------------------------------------------------------


class TestFailureAndMembership:
    def test_node_death_reroutes_inflight_jobs(self, tmp_path):
        gate = threading.Event()
        doomed = Counted(gate=gate)
        survivor = Counted()

        async def main():
            async with Fabric(tmp_path, n_nodes=2,
                              cell_fns=[doomed, survivor]) as fab:
                coord = fab.coordinator
                job = fab.jobs_for_node(0, 1)[0]
                digest = protocol.job_to_cell(job).digest()
                client = await fab.client()
                task = asyncio.ensure_future(client.submit(job, timeout=60))
                await wait_until(lambda: doomed.counts.get(digest),
                                 what="the job to start on its owner")
                await fab.services[0].close()     # the node "dies"
                gate.set()                        # unblock its zombie thread
                resp = await task
                stats = await client.status(timeout=30)
                reroutes = coord.metrics.counter("cluster.reroutes").value
                await client.close()
                return resp, stats, reroutes, digest

        resp, stats, reroutes, digest = asyncio.run(main())
        assert resp["type"] == "result"
        assert resp["meta"]["node"].endswith("w1.sock")
        assert reroutes >= 1
        assert stats["cluster"]["dead"] and \
            stats["cluster"]["dead"][0].endswith("w0.sock")
        # Node death is the legitimate re-execution case (the victim's
        # work died with it) — the survivor ran the cell once.
        assert survivor.counts.get(digest) == 1

    def test_join_and_leave_rehash_the_ring(self, tmp_path):
        async def main():
            async with Fabric(tmp_path, n_nodes=3) as fab:
                sock = fab.coordinator.config.socket_path
                extra = str(fab.tmp_path / "w-extra.sock")
                svc = ExperimentService(ServiceConfig(
                    store=str(fab.tmp_path / "shard-extra"),
                    socket_path=extra, workers=1))
                await svc.start()
                try:
                    joined = await raw_op(sock, {
                        "op": "join", "id": 1, "node": f"unix:{extra}"})
                    after_join = list(fab.coordinator.members.live_ids())
                    left = await raw_op(sock, {
                        "op": "leave", "id": 2, "node": f"unix:{extra}"})
                    after_leave = list(fab.coordinator.members.live_ids())
                finally:
                    await svc.close()
                return joined, after_join, left, after_leave

        joined, after_join, left, after_leave = asyncio.run(main())
        assert joined["type"] == "joined"
        assert joined["node_id"].endswith("w-extra.sock")
        assert sorted(joined["nodes"]) == sorted(after_join)
        assert len(after_join) == 4
        assert left["type"] == "left" and len(after_leave) == 3

    def test_workers_reject_cluster_ops(self, tmp_path):
        async def main():
            async with Fabric(tmp_path, n_nodes=1) as fab:
                resp = await raw_op(
                    fab.services[0].config.socket_path,
                    {"op": "join", "id": 1, "node": "unix:/x"})
                return resp

        resp = asyncio.run(main())
        assert resp["type"] == "error" and resp["code"] == 400


# ----------------------------------------------------------------------
# Scatter-gather aggregation
# ----------------------------------------------------------------------


class TestAggregation:
    def test_status_sums_counters_and_exactly_merges_pauses(self, tmp_path):
        jobs = [dict(JOB, seed=s, gc=gc)
                for gc in ("Serial", "ParallelOld") for s in (0, 1)]

        async def main():
            async with Fabric(tmp_path) as fab:
                client = await fab.client()
                await asyncio.gather(
                    *(client.submit(j, timeout=60) for j in jobs))
                stats = await client.status(timeout=30)
                await client.close()
                return stats

        stats = asyncio.run(main())
        nodes = stats["nodes"]
        assert len(nodes) == 3
        # Counters: the totals section is the exact per-name sum.
        for name, total in stats["totals"]["counters"].items():
            assert total == sum(
                ns["metrics"]["counters"].get(name, 0)
                for ns in nodes.values()), name
        assert stats["totals"]["cache"]["misses"] == len(jobs)
        # Pauses: the aggregate equals a hand-made LogHistogram merge of
        # the per-node histograms (exact, not an average of summaries).
        reference = None
        for ns in nodes.values():
            h = LogHistogram.from_dict(ns["pauses"]["hist"])
            if reference is None:
                reference = h
            else:
                reference.merge(h)
        assert stats["pauses"]["count"] == reference.total_count > 0
        for q, key in ((50.0, "p50"), (99.0, "p99")):
            assert stats["pauses"][key] == reference.percentile(q)
        assert stats["pauses"]["max"] == reference.max_raw
        # The merged histogram rides along for higher-level aggregation.
        assert LogHistogram.from_dict(
            stats["pauses"]["hist"]).total_count == reference.total_count

    def test_drain_reports_aggregate_and_stops_admission(self, tmp_path):
        async def main():
            async with Fabric(tmp_path, n_nodes=2) as fab:
                client = await fab.client()
                await client.submit(JOB, timeout=60)
                msg = await client.drain(timeout=60)
                late = await client.submit(JOB, timeout=10)
                await client.close()
                return msg, late

        msg, late = asyncio.run(main())
        assert msg["type"] == "drained"
        assert msg["stats"]["totals"]["cache"]["misses"] == 1
        assert msg["stats"]["draining"] is True
        assert late["type"] == "rejected" and late["code"] == 503


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"queue_limit": 0}, {"steal_interval": 0}, {"steal_threshold": 0},
        {"forward_timeout": 0}, {"forward_timeout": -1.0},
        {"forward_timeout": float("nan")}, {"forward_timeout": float("inf")},
        {"steal_interval": float("nan")},
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            ClusterConfig(**kw)

    def test_no_forward_timeout_means_no_budget(self):
        assert ClusterConfig(forward_timeout=None).forward_timeout is None
