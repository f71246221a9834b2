"""Integration tests for the repro-serve experiment service.

Everything runs in-process on a real Unix socket (no pytest-asyncio in
the environment, so each test owns its loop via ``asyncio.run``). The
injectable ``cell_fn`` supplies doctored behaviours — gated, crashing,
worker-killing — without faking simulator output.
"""

import asyncio
import contextlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading

import pytest

from repro.campaign import CellSpec, ResultStore, encode_run, run_campaign, run_cell
from repro.campaign.spec import CampaignSpec
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.errors import ConfigError
from repro.serve import ExperimentService, ServiceConfig, ServiceClient
from repro.serve import protocol
from repro.studies import GridSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: One small, fast cell shared by the determinism tests (~10 ms to run).
JOB = {"benchmark": "lusearch", "gc": "Serial", "heap": "1g",
       "young": "256m", "seed": 0, "iterations": 2}
CELL = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0, iterations=2)


def canon(d):
    """Canonical JSON bytes — the byte-identity yardstick."""
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


@contextlib.asynccontextmanager
async def service(tmp_path, **kw):
    cell_fn = kw.pop("cell_fn", run_cell)
    defaults = dict(store=str(tmp_path / "store"),
                    socket_path=str(tmp_path / "serve.sock"))
    defaults.update(kw)
    svc = ExperimentService(ServiceConfig(**defaults), cell_fn=cell_fn)
    await svc.start()
    try:
        yield svc
    finally:
        await svc.close()


@contextlib.asynccontextmanager
async def coordinated(tmp_path, max_line_bytes=protocol.MAX_LINE_BYTES,
                      **kw):
    """A coordinator in front of one service; yields both. The line
    limit is the coordinator's, the other keywords the service's."""
    async with service(tmp_path, **kw) as worker:
        coord = ClusterCoordinator(ClusterConfig(
            nodes=[f"unix:{worker.config.socket_path}"],
            socket_path=str(tmp_path / "coord.sock"),
            max_line_bytes=max_line_bytes))
        await coord.start()
        try:
            yield coord, worker
        finally:
            await coord.close()


def live_tasks(qualname):
    """How many unfinished tasks run a coroutine named *qualname*."""
    return sum(1 for t in asyncio.all_tasks()
               if not t.done() and t.get_coro().__qualname__ == qualname)


async def wait_until(cond, timeout=10.0, what="condition"):
    for _ in range(int(timeout / 0.01)):
        if cond():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def gated(event):
    """A cell_fn that blocks until *event* is set, then runs for real."""
    def fn(cell):
        assert event.wait(timeout=30.0)
        return run_cell(cell)
    return fn


# Module level so the process-pool tests can pickle them.
def _kill_worker(cell):
    if cell.seed == 999:
        os._exit(17)        # simulates a hard worker crash (no cleanup)
    return run_cell(cell)


def _always_raises(cell):
    raise RuntimeError(f"synthetic failure for {cell.benchmark}")


# ----------------------------------------------------------------------
# Determinism and caching
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_served_run_byte_identical_to_campaign_path(self, tmp_path):
        async def main():
            async with service(tmp_path) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                first = await client.submit(JOB, timeout=60)
                second = await client.submit(JOB, timeout=60)
                stats = await client.status(timeout=10)
                await client.close()
                return first, second, stats

        first, second, stats = asyncio.run(main())
        assert first["type"] == second["type"] == "result"
        assert first["cached"] is False and second["cached"] is True
        # The proof: the service's run payload is byte-identical to the
        # campaign codec's output for the same cell, both times.
        direct = encode_run(run_cell(CELL))
        assert canon(first["run"]) == canon(direct)
        assert canon(second["run"]) == canon(direct)
        assert first["digest"] == second["digest"] == CELL.digest()
        # Wall-clock observations live in meta only, never in run.
        assert "exec_s" in first["meta"] and "exec_s" not in first["run"]
        assert stats["cache"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_resubmission_is_100_percent_cache_hit(self, tmp_path):
        async def round_trip():
            async with service(tmp_path) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                resp = await client.submit(JOB, timeout=60)
                await client.close()
                return resp

        first = asyncio.run(round_trip())
        # A *fresh* service over the same store must serve from cache.
        second = asyncio.run(round_trip())
        assert first["cached"] is False and second["cached"] is True
        assert canon(first["run"]) == canon(second["run"])

    def test_campaign_sees_service_results_as_cached(self, tmp_path):
        async def main():
            async with service(tmp_path) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                resp = await client.submit(JOB, timeout=60)
                await client.close()
                return resp

        resp = asyncio.run(main())
        assert resp["type"] == "result"
        spec = CampaignSpec("shared", [GridSpec(
            benchmarks=["lusearch"], gcs=["Serial"], heaps=["1g"],
            youngs=["256m"], seeds=[0], iterations=2)])
        result = run_campaign(spec, store=str(tmp_path / "store"),
                              executor="serial")
        assert result.stats.total == 1
        assert result.stats.cached == 1 and result.stats.simulated == 0

    def test_store_record_matches_wire_payload(self, tmp_path):
        async def main():
            async with service(tmp_path) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                resp = await client.submit(JOB, timeout=60)
                await client.close()
                return resp

        resp = asyncio.run(main())
        store = ResultStore(tmp_path / "store")
        rec = store.get(CELL.digest())
        assert rec["status"] == "ok"
        assert canon(rec["run"]) == canon(resp["run"])


# ----------------------------------------------------------------------
# Admission control and coalescing
# ----------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_gets_explicit_429(self, tmp_path):
        gate = threading.Event()

        async def main():
            async with service(tmp_path, cell_fn=gated(gate), workers=1,
                               queue_limit=1) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                jobs = [dict(JOB, seed=s) for s in (1, 2, 3)]
                # First job occupies the single worker...
                t1 = asyncio.ensure_future(client.submit(jobs[0], timeout=60))
                await wait_until(lambda: svc._queue.qsize() == 0
                                 and svc._inflight, what="job 1 started")
                # ...second fills the queue...
                t2 = asyncio.ensure_future(client.submit(jobs[1], timeout=60))
                await wait_until(lambda: svc._queue.qsize() == 1,
                                 what="job 2 queued")
                # ...third must be explicitly rejected, not hang.
                r3 = await asyncio.wait_for(client.submit(jobs[2]), timeout=10)
                gate.set()
                r1, r2 = await asyncio.gather(t1, t2)
                stats = await client.status(timeout=10)
                await client.close()
                return r1, r2, r3, stats

        r1, r2, r3, stats = asyncio.run(main())
        assert r1["type"] == "result" and r2["type"] == "result"
        assert r3["type"] == "rejected" and r3["code"] == 429
        assert "queue full" in r3["reason"]
        assert stats["metrics"]["counters"]["jobs.rejected"] == 1

    def test_duplicate_submissions_coalesce(self, tmp_path):
        gate = threading.Event()

        async def main():
            async with service(tmp_path, cell_fn=gated(gate),
                               workers=2) as svc:
                a = await ServiceClient.connect(svc.config.socket_path)
                b = await ServiceClient.connect(svc.config.socket_path)
                t1 = asyncio.ensure_future(a.submit(JOB, timeout=60))
                await wait_until(lambda: svc._inflight,
                                 what="first submit admitted")
                t2 = asyncio.ensure_future(b.submit(JOB, timeout=60))
                await wait_until(
                    lambda: svc.metrics.counter("jobs.coalesced").value == 1,
                    what="second submit coalesced")
                gate.set()
                r1, r2 = await asyncio.gather(t1, t2)
                stats = await a.status(timeout=10)
                await a.close()
                await b.close()
                return r1, r2, stats

        r1, r2, stats = asyncio.run(main())
        assert r1["type"] == r2["type"] == "result"
        assert canon(r1["run"]) == canon(r2["run"])
        counters = stats["metrics"]["counters"]
        # One simulation answered both clients.
        assert counters["jobs.simulated"] == 1
        assert counters["jobs.coalesced"] == 1
        assert counters["cache.hits"] == 0


# ----------------------------------------------------------------------
# Failure supervision
# ----------------------------------------------------------------------


class TestSupervision:
    def test_job_the_jvm_refuses_is_400_and_never_stored(self, tmp_path):
        """A young generation larger than the heap is refused at submit:
        nothing is queued, retried, quarantined or stored."""
        async def main():
            async with service(tmp_path, retries=2) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                resp = await client.submit(dict(JOB, young="2g"), timeout=60)
                stats = await client.status(timeout=10)
                await client.close()
                return resp, stats

        resp, stats = asyncio.run(main())
        assert resp["type"] == "error" and resp["code"] == 400
        assert "young must be in (0, heap]" in resp["reason"]
        counters = stats["metrics"]["counters"]
        for name in ("jobs.accepted", "jobs.retried", "jobs.quarantined"):
            assert counters.get(name, 0) == 0, name
        assert stats["store"]["records"] == 0
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_retry_then_quarantine_keeps_service_alive(self, tmp_path):
        async def main():
            async with service(tmp_path, cell_fn=_always_raises,
                               retries=2) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                resp = await client.submit(JOB, timeout=60)
                pong = await client.ping(timeout=10)
                stats = await client.status(timeout=10)
                await client.close()
                return resp, pong, stats

        resp, pong, stats = asyncio.run(main())
        assert resp["type"] == "failed"
        failure = resp["failure"]
        assert failure["kind"] == "exception"
        assert "synthetic failure" in failure["error"]
        assert failure["attempts"] == 3          # 1 try + 2 retries
        assert "exc" not in failure              # never the live exception
        assert pong["type"] == "pong"            # the service survived
        assert stats["metrics"]["counters"]["jobs.retried"] == 2
        assert stats["metrics"]["counters"]["jobs.quarantined"] == 1
        # Quarantined exactly like the campaign runner would record it.
        store = ResultStore(tmp_path / "store")
        rec = store.get(CELL.digest())
        assert rec["status"] == "failed" and rec["kind"] == "exception"
        assert rec["attempts"] == 3

    def test_killed_worker_recycles_pool_and_service_recovers(self, tmp_path):
        async def main():
            async with service(tmp_path, cell_fn=_kill_worker,
                               executor="process", pool_workers=1,
                               retries=1, workers=1) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                # seed=999 makes the pool worker os._exit mid-cell.
                bad = await client.submit(dict(JOB, seed=999), timeout=120)
                good = await client.submit(JOB, timeout=120)
                stats = await client.status(timeout=10)
                await client.close()
                return bad, good, stats

        bad, good, stats = asyncio.run(main())
        assert bad["type"] == "failed"
        assert bad["failure"]["kind"] == "broken-pool"
        assert bad["failure"]["attempts"] == 2
        # The pool was recycled and the next job simulated normally.
        assert good["type"] == "result" and good["cached"] is False
        assert canon(good["run"]) == canon(encode_run(run_cell(CELL)))
        assert stats["workers"]["pools_recycled"] >= 1
        assert stats["workers"]["alive"] == 1


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_drain_finishes_pending_and_rejects_new(self, tmp_path):
        gate = threading.Event()

        async def main():
            async with service(tmp_path, cell_fn=gated(gate), workers=1,
                               queue_limit=8) as svc:
                a = await ServiceClient.connect(svc.config.socket_path)
                b = await ServiceClient.connect(svc.config.socket_path)
                pending = [asyncio.ensure_future(
                    a.submit(dict(JOB, seed=s), timeout=60)) for s in (1, 2)]
                await wait_until(lambda: len(svc._inflight) == 2,
                                 what="both jobs admitted")
                drain_task = asyncio.ensure_future(b.drain(timeout=60))
                await wait_until(lambda: svc._draining, what="draining flag")
                # Submissions during the drain get an explicit 503.
                refused = await a.submit(dict(JOB, seed=3), timeout=10)
                gate.set()
                drained = await drain_task
                results = await asyncio.gather(*pending)
                await a.close()
                await b.close()
                return refused, drained, results

        refused, drained, results = asyncio.run(main())
        assert refused["type"] == "rejected" and refused["code"] == 503
        assert drained["type"] == "drained"
        # Every in-flight job completed before the drain resolved.
        assert [r["type"] for r in results] == ["result", "result"]
        stats = drained["stats"]
        assert stats["draining"] is True
        assert stats["queue"] == {"depth": 0, "limit": 8, "inflight": 0}
        assert stats["cache"]["misses"] == 2
        assert stats["metrics"]["counters"].get("jobs.quarantined", 0) == 0

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--socket", sock,
             "--store", str(tmp_path / "store"), "--workers", "1"],
            cwd=str(ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            async def main():
                for _ in range(200):
                    if os.path.exists(sock):
                        break
                    await asyncio.sleep(0.05)
                client = await ServiceClient.connect(sock)
                resp = await client.submit(JOB, timeout=120)
                await client.close()
                return resp

            resp = asyncio.run(main())
            assert resp["type"] == "result"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained" in out
        assert not os.path.exists(sock)          # socket cleaned up
        # The SIGTERM'd service's result is on disk and intact.
        assert ResultStore(tmp_path / "store").get_run(CELL.digest()) is not None


# ----------------------------------------------------------------------
# Protocol robustness over a live socket
# ----------------------------------------------------------------------


class TestWireRobustness:
    """Line framing over a live socket, against the service itself.
    :class:`TestCoordinatorWireRobustness` runs the same cases against a
    coordinator in front of it."""

    #: The front server's counter of jobs it answered with a result.
    COMPLETED = "jobs.simulated"

    @staticmethod
    @contextlib.asynccontextmanager
    async def servers(tmp_path, **kw):
        """Yields the server a client talks to and the service that runs
        its jobs (here one and the same)."""
        async with service(tmp_path, **kw) as svc:
            yield svc, svc

    def test_disconnect_mid_line_does_not_kill_service(self, tmp_path):
        async def main():
            async with self.servers(tmp_path) as (front, _):
                reader, writer = await asyncio.open_unix_connection(
                    front.config.socket_path)
                writer.write(b'{"op": "submit", "job": {"bench')  # no \n
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await wait_until(
                    lambda: front.metrics.counter("connections.closed").value
                    == 1, what="server-side cleanup")
                client = await ServiceClient.connect(front.config.socket_path)
                pong = await client.ping(timeout=10)
                await client.close()
                return pong, front.metrics.counter("protocol.errors").value

        pong, errors = asyncio.run(main())
        assert pong["type"] == "pong"
        assert errors == 0                       # half a line is no request

    def test_disconnect_with_job_in_flight(self, tmp_path):
        gate = threading.Event()

        async def main():
            async with self.servers(tmp_path, cell_fn=gated(gate)) as (
                    front, worker):
                client = await ServiceClient.connect(front.config.socket_path)
                task = asyncio.ensure_future(client.submit(JOB, timeout=60))
                await wait_until(lambda: worker._inflight,
                                 what="job admitted")
                task.cancel()
                await client.close()             # client gives up and leaves
                gate.set()
                await wait_until(
                    lambda: front.metrics.counter(self.COMPLETED).value == 1,
                    what="job still completed")
                other = await ServiceClient.connect(front.config.socket_path)
                resp = await other.submit(JOB, timeout=60)
                await other.close()
                return resp

        resp = asyncio.run(main())
        # The abandoned job's result was stored; the rerun is a cache hit.
        assert resp["type"] == "result" and resp["cached"] is True

    def test_oversized_line_gets_413_and_drops_connection(self, tmp_path):
        async def main():
            async with self.servers(tmp_path, max_line_bytes=2048) as (
                    front, _):
                reader, writer = await asyncio.open_unix_connection(
                    front.config.socket_path)
                writer.write(b'{"op":"ping","pad":"' + b"x" * 8192 + b'"}\n')
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                msg = json.loads(line)
                eof = await asyncio.wait_for(reader.read(), timeout=10)
                counters = {name: front.metrics.counter(name).value
                            for name in ("protocol.errors",
                                         "connections.closed")}
                writer.close()
                await writer.wait_closed()
                client = await ServiceClient.connect(front.config.socket_path)
                pong = await client.ping(timeout=10)
                await client.close()
                return msg, eof, pong, counters

        msg, eof, pong, counters = asyncio.run(main())
        assert msg["type"] == "error" and msg["code"] == 413
        assert eof == b""                        # framing lost: conn dropped
        assert pong["type"] == "pong"
        assert counters == {"protocol.errors": 1, "connections.closed": 1}

    def test_malformed_line_gets_400_and_connection_survives(self, tmp_path):
        async def main():
            async with self.servers(tmp_path) as (front, _):
                reader, writer = await asyncio.open_unix_connection(
                    front.config.socket_path)
                writer.write(b"this is not json\n")
                writer.write(b'{"op":"ping","id":1}\n')
                await writer.drain()
                err = json.loads(await reader.readline())
                pong = json.loads(await reader.readline())
                counters = {name: front.metrics.counter(name).value
                            for name in ("protocol.errors",
                                         "connections.closed")}
                writer.close()
                await writer.wait_closed()
                return err, pong, counters

        err, pong, counters = asyncio.run(main())
        assert err["type"] == "error" and err["code"] == 400
        assert pong["type"] == "pong" and pong["id"] == 1
        assert counters == {"protocol.errors": 1, "connections.closed": 0}


class TestCoordinatorWireRobustness(TestWireRobustness):
    """The same framing cases against a cluster coordinator, which runs
    the same connection handler as the service."""

    COMPLETED = "cluster.jobs.completed"
    servers = staticmethod(coordinated)


# ----------------------------------------------------------------------
# Event streaming
# ----------------------------------------------------------------------


class TestEvents:
    def test_subscriber_sees_job_lifecycle(self, tmp_path):
        async def main():
            async with service(tmp_path) as svc:
                watcher = await ServiceClient.connect(svc.config.socket_path)
                await watcher.subscribe()
                client = await ServiceClient.connect(svc.config.socket_path)
                await client.submit(JOB, timeout=60)
                await client.submit(JOB, timeout=60)      # cache hit
                kinds = []
                async for event in watcher.events():
                    kinds.append(event["kind"])
                    if event["kind"] == "cache-hit":
                        break
                await client.close()
                await watcher.close()
                return kinds

        kinds = asyncio.run(main())
        assert kinds[:3] == ["queued", "started", "completed"]
        assert kinds[-1] == "cache-hit"


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"queue_limit": 0}, {"workers": 0}, {"retries": -1},
        {"timeout": 0}, {"timeout": -1.0},
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            ServiceConfig(**kw)


# ----------------------------------------------------------------------
# Lifecycle: start, run, close
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_run_serves_the_started_service(self, tmp_path):
        """``run()`` after ``start()`` must not start the service again:
        a second start spawned a second worker loop, so a queued job
        started beside the first and could no longer be cancelled."""
        gate = threading.Event()
        queued = dict(JOB, seed=7)
        queued_digest = protocol.job_to_cell(queued).digest()

        async def main():
            async with service(tmp_path, workers=1,
                               cell_fn=gated(gate)) as svc:
                runner = asyncio.ensure_future(
                    svc.run(handle_signals=False))
                client = await ServiceClient.connect(svc.config.socket_path)
                first = asyncio.ensure_future(client.submit(JOB, timeout=60))
                await wait_until(lambda: svc.metrics.counter(
                    "jobs.accepted").value == 1, what="the first job")
                second = asyncio.ensure_future(
                    client.submit(queued, timeout=60))
                await wait_until(lambda: svc.metrics.counter(
                    "jobs.accepted").value == 2, what="the second job")
                await client.ping(timeout=10)
                loops = live_tasks("ExperimentService._worker_loop")
                started = sum(job.started is not None
                              for job in svc._inflight.values())
                verdict = await client.cancel(queued_digest, timeout=10)
                gate.set()
                results = [await first, await second]
                await client.drain(timeout=60)
                await client.close()
                code = await asyncio.wait_for(runner, 10)
                left = live_tasks("ExperimentService._worker_loop")
                return loops, started, verdict, results, code, left

        loops, started, verdict, results, code, left = asyncio.run(main())
        assert loops == 1 and started == 1
        assert verdict["outcome"] == "cancelled"
        assert [r["type"] for r in results] == ["result", "cancelled"]
        assert code == 0 and left == 0           # close() ended the loop

    def test_run_serves_the_started_coordinator(self, tmp_path):
        async def main():
            async with coordinated(tmp_path) as (coord, _):
                runner = asyncio.ensure_future(
                    coord.run(handle_signals=False))
                client = await ServiceClient.connect(
                    coord.config.socket_path)
                await client.ping(timeout=10)
                loops = live_tasks("ClusterCoordinator._steal_loop")
                drained = await client.drain(timeout=60)
                await client.close()
                code = await asyncio.wait_for(runner, 10)
                left = live_tasks("ClusterCoordinator._steal_loop")
                return loops, drained, code, left

        loops, drained, code, left = asyncio.run(main())
        assert loops == 1
        assert drained["type"] == "drained"
        assert code == 0 and left == 0

    def test_run_requires_start(self, tmp_path):
        async def main():
            svc = ExperimentService(ServiceConfig(
                socket_path=str(tmp_path / "serve.sock")))
            with pytest.raises(RuntimeError, match="start"):
                await asyncio.wait_for(svc.run(handle_signals=False), 5)

        asyncio.run(main())

    def test_close_returns_while_clients_stay_connected(self, tmp_path):
        """Since Python 3.12.1 ``wait_closed()`` waits for every open
        connection, so ``close()`` must drop its clients first."""
        async def main():
            async with coordinated(tmp_path) as (coord, worker):
                raw = []
                for front in (worker, coord):
                    reader, writer = await asyncio.open_unix_connection(
                        front.config.socket_path)
                    writer.write(b'{"op":"status","id":1}\n')
                    await writer.drain()
                    assert json.loads(await reader.readline())["type"] == \
                        "stats"
                    raw.append(writer)
                # The coordinator's status call left it connected to the
                # worker, as a live fabric would be.
                await asyncio.wait_for(worker.close(), 5)
                await asyncio.wait_for(coord.close(), 5)
                for writer in raw:
                    writer.close()
            return worker.address, coord.address

        worker_sock, coord_sock = asyncio.run(main())
        assert not os.path.exists(worker_sock)
        assert not os.path.exists(coord_sock)


# ----------------------------------------------------------------------
# Cancellation (the cluster coordinator's steal primitive)
# ----------------------------------------------------------------------


class TestCancel:
    def test_queued_job_is_cancelled_and_waiters_learn(self, tmp_path):
        gate = threading.Event()

        async def main():
            async with service(tmp_path, workers=1,
                               cell_fn=gated(gate)) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                blocker = asyncio.ensure_future(
                    client.submit(JOB, timeout=60))
                await wait_until(lambda: svc.metrics.counter(
                    "jobs.accepted").value == 1, what="the blocker to queue")
                victim_job = dict(JOB, seed=7)
                digest = CellSpec.from_axes(
                    "lusearch", "Serial", "1g", "256m", 7,
                    iterations=2).digest()
                waiter = asyncio.ensure_future(
                    client.submit(victim_job, timeout=60))
                await wait_until(lambda: svc.metrics.counter(
                    "jobs.accepted").value == 2, what="the victim to queue")
                verdict = await client.cancel(digest, timeout=10)
                withdrawn = await waiter        # the waiter is notified
                gate.set()
                first = await blocker
                stats = await client.status(timeout=10)
                await client.close()
                return verdict, withdrawn, first, stats, digest

        verdict, withdrawn, first, stats, digest = asyncio.run(main())
        assert verdict["outcome"] == "cancelled"
        assert verdict["digest"] == digest
        assert withdrawn["type"] == "cancelled"
        assert first["type"] == "result"        # the started job finished
        counters = stats["metrics"]["counters"]
        assert counters["jobs.cancelled"] == 1
        assert counters["jobs.simulated"] == 1  # the victim never ran

    def test_started_job_answers_busy(self, tmp_path):
        gate = threading.Event()

        async def main():
            async with service(tmp_path, workers=1,
                               cell_fn=gated(gate)) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                task = asyncio.ensure_future(client.submit(JOB, timeout=60))
                await wait_until(
                    lambda: any(j.started is not None
                                for j in svc._inflight.values()),
                    what="the job to start")
                verdict = await client.cancel(CELL.digest(), timeout=10)
                gate.set()
                resp = await task
                await client.close()
                return verdict, resp

        verdict, resp = asyncio.run(main())
        assert verdict["outcome"] == "busy"
        assert resp["type"] == "result"

    def test_unknown_digest_and_malformed_cancel(self, tmp_path):
        async def main():
            async with service(tmp_path) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                unknown = await client.cancel("a" * 64, timeout=10)
                # A cancel without a digest is a 400, not a hang.
                rid = 999
                queue = await client._request(
                    {"op": "cancel", "id": rid}, rid)
                malformed = await client._next(queue, 10)
                client._pending.pop(rid, None)
                await client.close()
                return unknown, malformed

        unknown, malformed = asyncio.run(main())
        assert unknown["outcome"] == "unknown"
        assert malformed["type"] == "error" and malformed["code"] == 400

    def test_status_ships_the_full_pause_histogram(self, tmp_path):
        async def main():
            async with service(tmp_path) as svc:
                client = await ServiceClient.connect(svc.config.socket_path)
                await client.submit(JOB, timeout=60)
                stats = await client.status(timeout=10)
                await client.close()
                return stats

        stats = asyncio.run(main())
        pauses = stats["pauses"]
        assert pauses["count"] > 0
        from repro.telemetry.hist import LogHistogram

        hist = LogHistogram.from_dict(pauses["hist"])
        # The encoded histogram carries exactly the summarized pauses, so
        # a coordinator can merge shards without losing precision.
        assert hist.total_count == pauses["count"]
        assert hist.percentile(99.0) == pauses["p99"]
