"""The benchmark's four workloads.

A workload builds its inputs from the seed in its constructor, makes the
untimed per-pass state in :meth:`Workload.prepare`, and runs one fixed
pass per :meth:`Workload.run_pass`. Every pass is timed from outside, by
wrapping calls into the program's public API, and ends with a sha256
digest over the simulated output. Simulation is deterministic, so every
pass of one seed, traced or not, must give the same digest. Durations
are reference seconds (see :mod:`speed`).

An *op* is the unit a user waits for: one ``run_campaign`` call
(dacapo-grid), one stress run (cassandra-stress), one client run with
its band analysis (ycsb-client), one service request (serve-mixed).
*Work* is what a pass completes: grid cells, simulated seconds, YCSB
client operations, service requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import GB, JVM, JVMConfig
from repro.analysis.latency import latency_band_stats
from repro.campaign import (CampaignSpec, ResultStore, encode_run,
                            run_campaign, run_cell)
from repro.cassandra import CassandraServer, default_config, stress_config
from repro.errors import ProtocolError
from repro.gc.registry import ALL_GC_NAMES
from repro.heap.tlab import TLABConfig
from repro.lint.audit import InvariantAuditor
from repro.perf import fastpath
from repro.seeding import rng_for
from repro.serve import ExperimentService, ServiceClient, ServiceConfig
from repro.serve.protocol import job_to_cell
from repro.studies import GridSpec
from repro.telemetry import Tracer
from repro.workloads.dacapo import STABLE_SUBSET, get_benchmark
from repro.ycsb import WORKLOAD_A_LIKE, YCSBClient

from metric_names import STRESS_GCS, YCSB_GCS
from speed import mark

clock = time.monotonic


@dataclass
class Pass:
    """What one untraced pass measured, in reference seconds."""

    attempted: int              #: ops started
    failed: int                 #: ops that raised or returned a wrong answer
    ops_s: List[float]          #: duration of each completed op
    work: float                 #: work units completed
    busy_s: float               #: time the work took
    sim_s: float                #: time spent simulating
    digest: str
    samples: Dict[str, List[float]] = field(default_factory=dict)


def canonical(obj) -> str:
    """The canonical JSON text digests are taken over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(payloads) -> str:
    """sha256 over the canonical JSON of each payload, in order."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(canonical(payload).encode())
        h.update(b"\n")
    return h.hexdigest()


def report_failure(what: str) -> None:
    """Print the current exception's traceback; the op counts as failed."""
    print(f"bench: {what} failed", file=sys.stderr)
    traceback.print_exc()


def median(values) -> float:
    return float(statistics.median(values))


def percentile_ms(values_s, q: float) -> float:
    return float(np.percentile(np.asarray(values_s), q)) * 1e3 if values_s else 0.0


def cell_config(cell) -> JVMConfig:
    """The JVM configuration ``run_cell`` builds for *cell*."""
    return JVMConfig(gc=cell.gc, heap=cell.heap, young=cell.young,
                     seed=cell.seed, tlab=TLABConfig(enabled=cell.tlab_enabled),
                     **dict(cell.overrides))


def run_jvm(cell, jvm):
    return jvm.run(get_benchmark(cell.benchmark), iterations=cell.iterations,
                   system_gc=cell.system_gc)


def traced_cell(rec, cell, *, parent=None, rid=None):
    """Simulate *cell* as ``run_cell`` does, with a tracer attached and
    spans around JVM construction and run."""
    tracer = Tracer()
    with rec.spans.span("jvm.construct", parent=parent, rid=rid, gc=cell.gc):
        jvm = JVM(cell_config(cell), tracer=tracer)
    with rec.spans.span("jvm.run", parent=parent, rid=rid, gc=cell.gc):
        result = run_jvm(cell, jvm)
    rec.count_run(result, tracer)
    return result


class Workload:
    """Base class: the speed probe and per-pass scratch directories.
    Subclasses build their inputs from ``seed``."""

    name = ""

    def __init__(self, seed: int, scratch: str, speed):
        self.scratch = scratch
        self.speed = speed
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{self.name}-{self._dirs}")
        os.makedirs(path)
        return path

    def prepare(self) -> None:
        """Untimed state for the next pass."""

    def close(self) -> None:
        """Release what :meth:`prepare` opened and no pass consumed."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def traced_pass(self, rec) -> str:
        """Run the pass again under *rec*; return its digest."""
        raise NotImplementedError

    def metrics(self, passes: List[Pass]) -> Dict[str, float]:
        """Workload-specific metrics over the untraced passes."""
        return {}

    def traced_share(self, passes: List[Pass]) -> float:
        """The share of an untraced pass's work the traced pass repeats."""
        return 1.0

    def overheads(self) -> Dict[str, object]:
        """Observability overheads (only dacapo-grid measures them)."""
        return {}


# ----------------------------------------------------------------------
# dacapo-grid
# ----------------------------------------------------------------------

class DacapoGrid(Workload):
    """224 short DaCapo cells through ``run_campaign``, one campaign per
    benchmark (32 cells): a cold run into the pass's fresh store, then
    ``WARM_RUNS`` runs served from it. Warm runs follow each benchmark's
    cold run, so they are timed all through the pass rather than in one
    burst at its end, and one busy second on the host moves few of them."""

    name = "dacapo-grid"
    BENCHMARKS = STABLE_SUBSET
    GCS = ALL_GC_NAMES
    HEAPS = ("16g", "64g")
    WARM_RUNS = 50

    def __init__(self, seed: int, scratch: str, speed):
        super().__init__(seed, scratch, speed)
        self.specs = [
            CampaignSpec(f"bench-dacapo-grid-{seed}-{benchmark}", [
                GridSpec(benchmarks=[benchmark], gcs=self.GCS,
                         heaps=self.HEAPS, seeds=[2 * seed, 2 * seed + 1],
                         iterations=10)])
            for benchmark in self.BENCHMARKS]
        #: Every cell, benchmark-major as in one grid over all of them.
        self.cells = [c for spec in self.specs for c in spec.cell_specs()[0]]
        self.store: Optional[ResultStore] = None

    def prepare(self) -> None:
        self.store = ResultStore(self.fresh_dir())

    @staticmethod
    def _payloads(spec, result) -> list:
        runs = result.grid(0).runs
        return [encode_run(runs[c.key()]) if c.key() in runs else None
                for c in spec.cell_specs()[0]]

    def run_pass(self) -> Pass:
        cold_s, warm_s, expected, failed = [], [], [], 0
        for spec in self.specs:
            m0 = mark()
            cold = run_campaign(spec, store=self.store)
            cold_s.append(self.speed.ref(m0, mark()))
            payloads = self._payloads(spec, cold)
            expected.extend(payloads)
            failed += int(cold.stats.quarantined > 0)
            for _ in range(self.WARM_RUNS):
                m0 = mark()
                warm = run_campaign(spec, store=self.store)
                warm_s.append(self.speed.ref(m0, mark()))
                # Served from the store, a warm run must equal the cold one.
                if (warm.stats.cached != len(payloads)
                        or self._payloads(spec, warm) != payloads):
                    failed += 1
        ops = cold_s + warm_s
        return Pass(attempted=len(ops), failed=failed, ops_s=ops,
                    work=(1 + self.WARM_RUNS) * len(self.cells),
                    busy_s=sum(ops), sim_s=sum(cold_s),
                    digest=digest_of(expected),
                    samples={"cold_s": cold_s, "warm_s": warm_s})

    def metrics(self, passes):
        n = len(self.cells)
        return {
            "cold_cells_per_s": n / median(sum(p.samples["cold_s"]) for p in passes),
            "warm_cells_per_s": n * self.WARM_RUNS / median(
                sum(p.samples["warm_s"]) for p in passes),
        }

    def traced_pass(self, rec) -> str:
        spans = rec.spans
        payloads = []
        with rec.profiled():
            for cell in self.cells:
                with spans.span("campaign.run_cell", gc=cell.gc) as sid:
                    result = traced_cell(rec, cell, parent=sid)
                with spans.span("campaign.encode"):
                    payloads.append(encode_run(result))
                with spans.span("campaign.store_append"):
                    self.store.record_ok(cell, result)
            digests = [c.digest() for c in self.cells]
            for _ in range(self.WARM_RUNS):
                for digest in digests:
                    with spans.span("campaign.store_get"):
                        self.store.get_run(digest)
        return digest_of(payloads)

    def overheads(self) -> Dict[str, object]:
        """Lower-bound costs of the tracer, the invariant auditor and the
        slow allocation path, from the cold cells alone: each mode's
        fastest run against the fastest plain run."""
        took: Dict[str, float] = {}
        digests: Dict[str, str] = {}
        for mode in ("plain", "tracer", "auditor", "fastpath_off", "plain"):
            previous = fastpath.set_enabled(mode != "fastpath_off")
            try:
                m0 = mark()
                results = []
                for cell in self.cells:
                    jvm = JVM(cell_config(cell),
                              tracer=Tracer() if mode == "tracer" else None)
                    if mode == "auditor":
                        InvariantAuditor().attach(jvm)
                    results.append(run_jvm(cell, jvm))
                elapsed = self.speed.ref(m0, mark())
            finally:
                fastpath.set_enabled(previous)
            took[mode] = min(took.get(mode, elapsed), elapsed)
            digests[mode] = digest_of(encode_run(r) for r in results)
        fracs = {f"overhead.{m}_frac": took[m] / took["plain"] - 1.0
                 for m in ("tracer", "auditor", "fastpath_off")}
        return {"metrics": fracs, "digests": digests}


# ----------------------------------------------------------------------
# cassandra-stress
# ----------------------------------------------------------------------

class CassandraStress(Workload):
    """The §4.1 stress server: two simulated hours of inserts into a
    pre-loaded, never-flushing node, under five collectors by two JVM
    seeds (with one seed, the median run follows that seed's luck)."""

    name = "cassandra-stress"
    GCS = STRESS_GCS
    SEEDS = 2
    DURATION = 7200.0
    OPS_PER_SECOND = 1350.0

    def __init__(self, seed: int, scratch: str, speed):
        super().__init__(seed, scratch, speed)
        seeds = range(3 + self.SEEDS * seed, 3 + self.SEEDS * (seed + 1))
        self.configs = [JVMConfig(gc=gc, heap=64 * GB, young=12 * GB, seed=s)
                        for gc in self.GCS for s in seeds]
        self.server_config = stress_config(64 * GB, preload_records=8_000_000)
        self.payloads: list = []

    def _serve(self, jvm):
        return jvm.run(CassandraServer(self.server_config),
                       duration=self.DURATION, ops_per_second=self.OPS_PER_SECOND)

    @staticmethod
    def _payload(config, result) -> dict:
        return {"gc": config.gc.value, "seed": config.seed,
                "execution_time": result.execution_time,
                "gc_log": encode_run(result)["gc_log"]}

    def run_pass(self) -> Pass:
        ops, runs, payloads, failed, sim_s = [], [], [], 0, 0.0
        for config in self.configs:
            try:
                m0 = mark()
                jvm = JVM(config)
                m1 = mark()
                result = self._serve(jvm)
                m2 = mark()
            except Exception:
                report_failure(f"stress run under {config.gc.value}")
                failed += 1
                payloads.append(None)
                continue
            ops.append(self.speed.ref(m0, m2))
            runs.append(self.speed.ref(m1, m2))
            sim_s += result.execution_time
            payloads.append(self._payload(config, result))
        self.payloads = payloads
        return Pass(attempted=len(self.configs), failed=failed, ops_s=ops,
                    work=sim_s, busy_s=sum(runs), sim_s=sum(runs),
                    digest=digest_of(payloads))

    def metrics(self, passes):
        return {"sim_s_per_host_s": median(p.work / p.busy_s for p in passes)}

    def traced_share(self, passes) -> float:
        return median(sum(p.ops_s[::self.SEEDS]) / sum(p.ops_s) for p in passes)

    def traced_pass(self, rec) -> str:
        # A whole pass under cProfile would take most of a run's three
        # minutes, so only each collector's first seed is traced. Its
        # payloads replace those runs' in the last untraced pass, so a
        # traced run that differs changes the digest.
        payloads = list(self.payloads)
        with rec.profiled():
            for i in range(0, len(self.configs), self.SEEDS):
                config = self.configs[i]
                tracer = Tracer()
                with rec.spans.span("jvm.construct", gc=config.gc.value):
                    jvm = JVM(config, tracer=tracer)
                with rec.spans.span("jvm.run", gc=config.gc.value):
                    result = self._serve(jvm)
                rec.count_run(result, tracer)
                payloads[i] = self._payload(config, result)
        return digest_of(payloads)


# ----------------------------------------------------------------------
# ycsb-client
# ----------------------------------------------------------------------

class YcsbClientRuns(Workload):
    """YCSB 50/50 read/update against the default Cassandra node for two
    simulated hours, three collectors by four seeds, band analysis
    included. The median client run sits among the ParallelOld and CMS
    runs, so it takes four seeds to steady it."""

    name = "ycsb-client"
    GCS = YCSB_GCS
    SEEDS = 4
    DURATION = 7200.0

    def __init__(self, seed: int, scratch: str, speed):
        super().__init__(seed, scratch, speed)
        seeds = range(self.SEEDS * seed, self.SEEDS * (seed + 1))
        self.runs = [(JVMConfig(gc=gc, heap=64 * GB, young=12 * GB, seed=s), s)
                     for gc in self.GCS for s in seeds]
        self.server_config = default_config(64 * GB)

    @staticmethod
    def _bands(trace) -> list:
        return [latency_band_stats(t.op_times, t.latencies_ms,
                                   trace.pause_intervals).rows()
                for t in (trace.reads, trace.updates)]

    @staticmethod
    def _payload(config, seed, trace, bands) -> dict:
        arrays = hashlib.sha256()
        for a in (trace.op_times, trace.latencies_ms, trace.kinds):
            arrays.update(np.ascontiguousarray(a).tobytes())
        return {"gc": config.gc.value, "seed": seed,
                "arrays": arrays.hexdigest(), "bands": bands}

    def run_pass(self) -> Pass:
        ops, runs, payloads, failed, client_ops = [], [], [], 0, 0
        for config, seed in self.runs:
            try:
                m0 = mark()
                trace = YCSBClient(WORKLOAD_A_LIKE, seed=seed).run(
                    config, self.server_config, duration=self.DURATION)
                m1 = mark()
                bands = self._bands(trace)
                m2 = mark()
            except Exception:
                report_failure(f"client run under {config.gc.value}")
                failed += 1
                payloads.append(None)
                continue
            ops.append(self.speed.ref(m0, m2))
            runs.append(self.speed.ref(m0, m1))
            client_ops += len(trace.latencies_ms)
            payloads.append(self._payload(config, seed, trace, bands))
        return Pass(attempted=len(self.runs), failed=failed, ops_s=ops,
                    work=client_ops, busy_s=sum(ops), sim_s=sum(runs),
                    digest=digest_of(payloads))

    def metrics(self, passes):
        return {"client_ops_per_s": median(p.work / p.busy_s for p in passes)}

    def traced_pass(self, rec) -> str:
        spans = rec.spans
        payloads = []
        with rec.profiled():
            for config, seed in self.runs:
                gc = config.gc.value
                # YCSBClient.run, step by step, so a tracer can be attached.
                with spans.span("ycsb.client_run", gc=gc) as sid:
                    client = YCSBClient(WORKLOAD_A_LIKE, seed=seed)
                    w = client.workload
                    server = CassandraServer(self.server_config)
                    tracer = Tracer()
                    with spans.span("jvm.construct", parent=sid, gc=gc):
                        jvm = JVM(config, tracer=tracer)
                    with spans.span("jvm.run", parent=sid, gc=gc):
                        result = jvm.run(
                            server, duration=self.DURATION,
                            ops_per_second=w.operations_per_second,
                            read_fraction=w.read_proportion,
                            update_fraction=w.update_proportion,
                            n_client_threads=w.client_threads)
                    with spans.span("ycsb.synthesize", parent=sid, gc=gc):
                        trace = client.synthesize(config, result, server)
                rec.count_run(result, tracer)
                with spans.span("analysis.band_stats", gc=gc):
                    bands = self._bands(trace)
                payloads.append(self._payload(config, seed, trace, bands))
        return digest_of(payloads)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

class ServeMixed(Workload):
    """An open loop of ``REQUESTS`` requests at ``RPS`` against one
    ``ExperimentService`` over ``CLIENTS`` connections. Nine requests in
    ten hit a pre-simulated hot set; every tenth is a fresh cell."""

    name = "serve-mixed"
    REQUESTS = 1000
    RPS = 100.0
    # The hot set's benchmark x collector grid is fixed and only its cell
    # seeds follow the benchmark seed: reply sizes, and so hit latency,
    # depend on the collector mix.
    HOT_BENCHMARKS = STABLE_SUBSET[:5]
    HOT_GCS = ("ParallelOld", "CMS", "G1", "ZGC")
    MISS_EVERY = 10
    CLIENTS = 2
    TIMEOUT = 30.0

    def __init__(self, seed: int, scratch: str, speed, cell_fn=run_cell):
        super().__init__(seed, scratch, speed)
        self._cell_fn = cell_fn
        hot_jobs = [{"benchmark": b, "gc": gc, "heap": "16g", "seed": seed}
                    for b in self.HOT_BENCHMARKS for gc in self.HOT_GCS]
        self.hot = []
        for job in hot_jobs:
            cell = job_to_cell(job)
            self.hot.append((cell, run_cell(cell)))
        rng = rng_for(seed, "bench", self.name)
        choices = rng.integers(0, len(hot_jobs), size=self.REQUESTS)
        #: (job, whether the reply must come from the cache)
        self.requests = []
        for i in range(self.REQUESTS):
            if i % self.MISS_EVERY == self.MISS_EVERY - 1:
                miss_seed = 1_000_000 + 1_000 * seed + i // self.MISS_EVERY
                self.requests.append(({"benchmark": "xalan", "gc": "ParallelOld",
                                       "heap": "16g", "seed": miss_seed}, False))
            else:
                self.requests.append((hot_jobs[int(choices[i])], True))
        self.digests = [job_to_cell(job).digest() for job, _ in self.requests]
        self._rec = None
        self._parents: Dict[str, tuple] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- per-pass service ---------------------------------------------------

    def prepare(self) -> None:
        root = self.fresh_dir()
        store = ResultStore(root)
        for cell, run in self.hot:
            store.record_ok(cell, run)
        # A relative path keeps the socket under the kernel's length limit
        # however deep the checkout is.
        socket_path = os.path.relpath(os.path.join(root, "serve.sock"))
        self._loop = asyncio.new_event_loop()
        self._loop.run_until_complete(self._open(root, socket_path))

    async def _open(self, root: str, socket_path: str) -> None:
        self.service = ExperimentService(
            ServiceConfig(store=root, socket_path=socket_path, workers=1,
                          executor="serial"),
            cell_fn=self._run_cell)
        await self.service.start()
        self.clients = [await ServiceClient.connect(socket_path)
                        for _ in range(self.CLIENTS)]

    async def _close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.service.close()
        # As asyncio.run does: end the tasks still alive (the server's
        # connection handlers) before the loop closes.
        rest = asyncio.all_tasks() - {asyncio.current_task()}
        for task in rest:
            task.cancel()
        await asyncio.gather(*rest, return_exceptions=True)

    def close(self) -> None:
        if self._loop is not None:
            self._loop.run_until_complete(self._close())
            self._loop.close()
            self._loop = None

    def _run_cell(self, cell):
        """The service's cell function (it runs on the service's offload
        thread); traced passes profile and span it."""
        rec = self._rec
        if rec is None:
            return self._cell_fn(cell)
        parent, rid = self._parents.get(cell.digest(), (None, None))
        with rec.profiled():
            with rec.spans.span("campaign.run_cell", parent=parent, rid=rid,
                                gc=cell.gc) as sid:
                return traced_cell(rec, cell, parent=sid, rid=rid)

    # -- the open loop ------------------------------------------------------

    async def _request(self, i: int, due: float):
        job, cached = self.requests[i]
        client = self.clients[i % self.CLIENTS]
        rec = self._rec
        sent = clock()
        try:
            if rec is None:
                reply = await client.submit(job, timeout=self.TIMEOUT)
            else:
                with rec.spans.span("serve.request", rid=i) as sid:
                    self._parents[self.digests[i]] = (sid, i)
                    reply = await client.submit(job, timeout=self.TIMEOUT)
        except (asyncio.TimeoutError, ProtocolError, OSError):
            report_failure(f"request {i}")
            return None
        done = clock()
        ok = reply.get("type") == "result" and reply.get("cached") is cached
        return {"ok": ok, "cached": cached, "due": due, "sent": sent,
                "done": done, "meta": reply.get("meta") or {},
                "run": canonical(reply["run"]) if ok else None}

    async def _schedule(self):
        loop = asyncio.get_running_loop()
        tasks, sends = [], []
        t0 = clock()
        for i in range(self.REQUESTS):
            due = t0 + i / self.RPS
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            sends.append((due, clock()))
            tasks.append(loop.create_task(self._request(i, due)))
        replies = await asyncio.gather(*tasks)
        return replies, sends, (t0, clock())

    def _drive(self):
        try:
            return self._loop.run_until_complete(self._schedule())
        finally:
            self.close()

    def run_pass(self) -> Pass:
        replies, sends, (t0, t1) = self._drive()
        ref = self.speed.ref_wall
        done = [r for r in replies if r is not None and r["ok"]]
        # How late a request left is timer granularity, not core speed, so
        # only the round trip converts to reference seconds.
        latency = [r["sent"] - r["due"] + ref(r["sent"], r["done"]) for r in done]
        misses = [(r, lat) for r, lat in zip(done, latency) if not r["cached"]]
        queued, execs, overhead = [], [], []
        for r, _ in misses:
            q, e = float(r["meta"]["queued_s"]), float(r["meta"]["exec_s"])
            factor = self.speed.factor(r["sent"], r["done"])
            queued.append(q * factor)
            execs.append(e * factor)
            overhead.append((r["done"] - r["sent"] - q - e) * factor)
        return Pass(
            attempted=len(replies), failed=len(replies) - len(done),
            ops_s=latency, work=len(done), busy_s=t1 - t0, sim_s=sum(execs),
            digest=digest_of(sorted({r["run"] for r in done})),
            samples={
                "hit_s": [lat for r, lat in zip(done, latency) if r["cached"]],
                "miss_s": [lat for _, lat in misses],
                "miss_queued_s": queued,
                "miss_exec_s": execs,
                "miss_overhead_s": overhead,
                "late_s": [sent - due for due, sent in sends],
            })

    def metrics(self, passes):
        def pooled(key):
            return [v for p in passes for v in p.samples[key]]
        return {
            "hit_p50_ms": percentile_ms(pooled("hit_s"), 50),
            "miss_p50_ms": percentile_ms(pooled("miss_s"), 50),
            "serve.hit_p99_ms": percentile_ms(pooled("hit_s"), 99),
            "serve.miss_p95_ms": percentile_ms(pooled("miss_s"), 95),
            "serve.miss_queued_ms": percentile_ms(pooled("miss_queued_s"), 50),
            "serve.miss_exec_ms": percentile_ms(pooled("miss_exec_s"), 50),
            "serve.miss_overhead_ms": percentile_ms(pooled("miss_overhead_s"), 50),
            "serve.gen_late_p50_ms": percentile_ms(pooled("late_s"), 50),
            "serve.gen_late_max_ms": max(pooled("late_s")) * 1e3,
        }

    def traced_pass(self, rec) -> str:
        self._rec = rec
        try:
            with rec.profiled():
                replies, _sends, _span = self._drive()
        finally:
            self._rec = None
        runs = {r["run"] for r in replies if r is not None and r["ok"]}
        return digest_of(sorted(runs))


WORKLOADS = {cls.name: cls for cls in
             (DacapoGrid, CassandraStress, YcsbClientRuns, ServeMixed)}
