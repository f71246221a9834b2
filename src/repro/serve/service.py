"""The asyncio GC-experiment service behind ``repro-serve``.

Architecture (DESIGN.md §13)::

    client ──ndjson──▶ connection handler ──▶ admission ──▶ queue
                                              │   │             │
                                  cache hit ◀─┘   └─ reject      ▼
                                 (ResultStore)    (429/503)   worker tasks
                                                              │  offload
                                                              ▼  thread
                                                     executor.run_one
                                                     (serial | supervised
                                                      process pool)

* **Admission** is explicit: a submit is answered with ``queued``,
  a cache-served ``result``, or a ``rejected`` (429 when the bounded
  queue is full, 503 while draining) — never silence, never a hang.
* **Dedup/coalescing**: submissions whose cell digest matches an
  in-flight job attach to it instead of re-queueing; identical requests
  cost one simulation no matter how many clients ask.
* **Caching**: results are read from and written to the same
  content-addressed :class:`~repro.campaign.store.ResultStore` the
  campaign runner uses (appends run under the store's advisory file
  lock), so the service and ``repro-campaign`` share one cache. A hit
  is answered from a per-digest memo of the stored run's reply bytes
  and energy account (DESIGN.md §13.3).
* **Supervision**: worker failures (:class:`CellFailure` — crash,
  timeout, broken pool) are retried up to ``retries`` times, then the
  cell is quarantined exactly as the campaign runner would; a dead
  process pool is recycled by the executor, never fatal to the service.
* **Drain**: SIGTERM (or a ``drain`` request) stops admission, lets
  queued and in-flight jobs finish, then exits cleanly.

The listener, line framing, the ``ping``/``status``/``drain`` ops, event
fan-out and the lifecycle come from
:class:`~repro.serve.server.NdjsonServer`; this module adds the
``submit``, ``cancel`` and ``subscribe`` ops and the job machinery.

Determinism: simulation happens in :func:`repro.campaign.cells.run_cell`
exactly as on the campaign path; the service adds *no* configuration of
its own to a cell, so a served ``run`` payload is byte-identical (under
canonical JSON dumping) to the campaign's for the same job. Wall-clock
readings exist only in service metadata (``meta``, stats, events) and
come from an injected clock, keeping simulation paths SL001-clean.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..campaign.cells import CellSpec, encode_run, run_cell
from ..campaign.executors import CellFailure, get_executor
from ..campaign.store import ResultStore, store_status
from ..energy.model import ENERGY_COUNTERS, EnergyModel, energy_section
from ..errors import ConfigError
from ..jvm.jvm import RunResult
from ..units import check_budget
from . import protocol
from .protocol import PROTOCOL_VERSION
from .server import Connection, NdjsonServer

#: Default clock (referenced, not called, at import time — the service is
#: observational infrastructure; simulated results never see it).
WALL_CLOCK: Callable[[], float] = time.monotonic

#: ``EnergyAccount.items()`` of one run: (phase, core class, microjoules).
EnergyItems = Tuple[Tuple[str, str, int], ...]


@dataclass
class ServiceConfig:
    """Everything one :class:`ExperimentService` instance needs."""

    store: Optional[str] = None         #: ResultStore directory (None = no cache)
    socket_path: Optional[str] = None   #: Unix socket (preferred for local use)
    host: str = "127.0.0.1"             #: TCP bind host (when no socket_path)
    port: int = 0                       #: TCP port (0 = ephemeral)
    queue_limit: int = 64               #: admission bound (429 beyond it)
    workers: int = 2                    #: concurrent in-service job slots
    executor: str = "serial"            #: "serial" | "process"
    pool_workers: Optional[int] = None  #: process-pool size (process executor)
    timeout: Optional[float] = None     #: per-job wall-clock budget (seconds)
    retries: int = 1                    #: retries before quarantine
    max_line_bytes: int = protocol.MAX_LINE_BYTES

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        check_budget("timeout", self.timeout)


class _Job:
    """One admitted cell: its waiters and its service-side bookkeeping."""

    __slots__ = ("cell", "digest", "attempts", "futures", "enqueued",
                 "started", "cancelled")

    def __init__(self, cell: CellSpec, digest: str, enqueued: float):
        self.cell = cell
        self.digest = digest
        self.attempts = 0
        self.futures: List[asyncio.Future] = []
        self.enqueued = enqueued
        self.started: Optional[float] = None
        self.cancelled = False


class ExperimentService(NdjsonServer):
    """Async experiment service: admission, dedup, cache, supervision.

    *cell_fn* defaults to the campaign's :func:`run_cell`; tests inject
    doctored functions (slow, crashing, worker-killing) to exercise the
    robustness paths without faking simulator behaviour.
    """

    FAILURE_COUNTER = "jobs.quarantined"

    def __init__(self, config: ServiceConfig, *,
                 cell_fn: Callable[[CellSpec], object] = run_cell,
                 clock: Optional[Callable[[], float]] = None):
        super().__init__(config, clock=clock or WALL_CLOCK)
        self._cell_fn = cell_fn
        self.store = ResultStore(config.store) if config.store else None
        self.executor = get_executor(config.executor,
                                     workers=config.pool_workers)
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        self._inflight: Dict[str, _Job] = {}
        #: digest -> (the store's run, its reply bytes, its energy items)
        self._hits: Dict[str, Tuple[RunResult, bytes, EnergyItems]] = {}
        self._workers: List[asyncio.Task] = []
        self._offload: Optional[ThreadPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------

    def _open(self) -> None:
        """Open the executor and offload pool; spawn the worker tasks."""
        if hasattr(self.executor, "open"):
            self.executor.open()
        self._offload = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-exec")
        self._workers = [self._spawn(self._worker_loop())
                         for _ in range(self.config.workers)]

    async def _release(self) -> None:
        if self._offload is not None:
            self._offload.shutdown(wait=False)
            self._offload = None
        if hasattr(self.executor, "close"):
            self.executor.close()

    def _busy(self) -> bool:
        return bool(self._inflight) or self._queue.qsize() > 0

    # -- stats -------------------------------------------------------------

    async def stats_async(self) -> Dict[str, object]:
        """The status endpoint's snapshot (also the drain report).

        The store section reads the manifest under the advisory flock —
        a blocking syscall — so it is gathered on the offload pool, not
        the event-loop thread.
        """
        store = None
        if self.store is not None:
            loop = asyncio.get_running_loop()
            if self._offload is not None:
                store = await loop.run_in_executor(
                    self._offload, store_status, self.store)
            else:       # not started yet (direct API use): borrow a thread
                store = await asyncio.to_thread(store_status, self.store)
        return self.stats(store=store)

    def stats(self, *, store: Optional[Dict[str, object]] = None,
              ) -> Dict[str, object]:
        """Synchronous snapshot; *store* is the pre-gathered store
        section (:func:`~repro.campaign.store.store_status` output) —
        pass it explicitly, since gathering it here would block."""
        m = self.metrics
        hits = m.counter("cache.hits").value
        simulated = m.counter("jobs.simulated").value
        served = hits + simulated
        pauses = m.histogram("gc.pause_seconds")
        pause_summary: Dict[str, object] = {"count": pauses.total_count}
        if pauses.total_count:
            pause_summary.update(pauses.percentiles((50.0, 99.0, 99.9)))
            pause_summary["max"] = pauses.max_raw or 0.0
        # Full histogram encoding rides along so an aggregator (the
        # cluster coordinator's scatter-gather status) can exactly-merge
        # per-node percentiles instead of averaging summaries.
        pause_summary["hist"] = pauses.to_dict()
        energy = energy_section(
            {name: m.counter(name).value for name in ENERGY_COUNTERS})
        return {
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "uptime_s": self._now(),
            "queue": {
                "depth": self._queue.qsize(),
                "limit": self.config.queue_limit,
                "inflight": len(self._inflight),
            },
            "workers": {
                "configured": self.config.workers,
                "alive": sum(1 for t in self._workers if not t.done()),
                "executor": self.executor.name,
                "pools_recycled": getattr(self.executor, "pools_recycled", 0),
            },
            "cache": {
                "hits": hits,
                "misses": simulated,
                "hit_rate": round(hits / served, 6) if served else None,
            },
            "pauses": pause_summary,
            "energy": energy,
            "subscribers": sum(c.subscribed for c in self._conns),
            "metrics": m.to_dict(),
            "store": store,
        }

    # -- ops -------------------------------------------------------------

    async def _handle(self, conn: Connection, rid, op: str,
                      msg: Dict[str, object]) -> None:
        if op == "subscribe":
            conn.subscribed = True
            await conn.send(protocol.subscribed_msg(rid))
        elif op == "cancel":
            digest = protocol.parse_cancel(msg)
            await conn.send(protocol.cancelled_msg(
                rid, digest, self._cancel(digest)))
        elif op == "submit":
            await self._handle_submit(conn, rid, msg.get("job"))

    # -- admission ----------------------------------------------------------

    async def _handle_submit(self, conn: Connection, rid, job: object) -> None:
        m = self.metrics
        m.counter("jobs.submitted").inc()
        if self._draining:
            m.counter("jobs.rejected").inc()
            await conn.send(protocol.rejected_msg(
                rid, 503, "service is draining"))
            return
        cell = protocol.job_to_cell(job)
        digest = cell.digest()

        hit = self._hit(digest)
        if hit is not None:
            run, run_json, energy = hit
            m.counter("cache.hits").inc()
            self._observe_pauses(run, energy)
            meta = {"cached": True, "attempts": 0, "queued_s": 0.0,
                    "exec_s": 0.0, "exec_interval": None}
            self._publish("cache-hit", digest=digest[:12],
                          benchmark=cell.benchmark, gc=cell.gc)
            await conn.send(protocol.result_line(
                rid, digest, run_json, cached=True, meta=meta))
            return

        existing = self._inflight.get(digest)
        if existing is not None:
            # Coalesce: one simulation answers every identical submit.
            m.counter("jobs.coalesced").inc()
            future = asyncio.get_running_loop().create_future()
            existing.futures.append(future)
            await conn.send(protocol.queued_msg(
                rid, digest, position=self._queue.qsize()))
            self._spawn(self._await_result(conn, rid, future))
            return

        if self._queue.qsize() >= self.config.queue_limit:
            m.counter("jobs.rejected").inc()
            await conn.send(protocol.rejected_msg(
                rid, 429,
                f"admission queue full ({self.config.queue_limit} jobs)"))
            return

        jobrec = _Job(cell, digest, self._clock())
        future = asyncio.get_running_loop().create_future()
        jobrec.futures.append(future)
        self._inflight[digest] = jobrec
        self._queue.put_nowait(jobrec)
        m.counter("jobs.accepted").inc()
        m.gauge("queue.depth").set(self._queue.qsize())
        self._publish("queued", digest=digest[:12],
                      benchmark=cell.benchmark, gc=cell.gc, seed=cell.seed)
        await conn.send(protocol.queued_msg(
            rid, digest, position=self._queue.qsize()))
        self._spawn(self._await_result(conn, rid, future))

    async def _await_result(self, conn: Connection, rid,
                            future: asyncio.Future) -> None:
        kind, digest, payload, meta = await future
        if kind == "result":
            await conn.send(protocol.result_line(
                rid, digest, payload, cached=False, meta=meta))
        elif kind == "cancelled":
            # Every waiter coalesced onto the digest learns the job was
            # withdrawn (cluster steal): resubmitting is the caller's call.
            await conn.send(protocol.cancelled_msg(rid, digest, "cancelled"))
        else:
            await conn.send(protocol.failed_msg(rid, digest, payload,
                                                meta=meta))

    # -- cancellation (the coordinator's steal primitive) -------------------

    def _cancel(self, digest: str) -> str:
        """Withdraw a queued-but-unstarted job; returns the at-most-once
        verdict for :func:`protocol.cancelled_msg` (``cancelled`` only
        when the job never started here and never will)."""
        job = self._inflight.get(digest)
        if job is None:
            return "unknown"
        if job.started is not None or job.cancelled:
            # Started (possibly retried) or already withdrawn: the caller
            # must not schedule it elsewhere.
            return "busy"
        job.cancelled = True           # the worker loop discards it
        self._inflight.pop(digest, None)
        self.metrics.counter("jobs.cancelled").inc()
        self._publish("cancelled", digest=digest[:12],
                      benchmark=job.cell.benchmark, gc=job.cell.gc)
        for future in job.futures:
            if not future.done():
                future.set_result(("cancelled", digest, None, None))
        self._check_idle()
        return "cancelled"

    # -- execution ----------------------------------------------------------

    def _run_one(self, cell: CellSpec):
        """Thread-offloaded: run one cell on the supervised executor."""
        return self.executor.run_one(cell, self._cell_fn,
                                     timeout=self.config.timeout)

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        m = self.metrics
        while True:
            job = await self._queue.get()
            m.gauge("queue.depth").set(self._queue.qsize())
            if job.cancelled:           # withdrawn while queued (steal)
                self._check_idle()
                continue
            job.started = self._clock()
            job.attempts += 1
            self._publish("started", digest=job.digest[:12],
                          benchmark=job.cell.benchmark, gc=job.cell.gc,
                          attempt=job.attempts)
            try:
                outcome = await loop.run_in_executor(
                    self._offload, self._run_one, job.cell)
            except Exception as exc:   # offload infrastructure itself broke
                outcome = CellFailure(cell=job.cell, kind="exception",
                                      error=f"{type(exc).__name__}: {exc}",
                                      exc=exc)
            finished = self._clock()
            if isinstance(outcome, CellFailure):
                if job.attempts <= self.config.retries:
                    m.counter("jobs.retried").inc()
                    self._publish("retrying", digest=job.digest[:12],
                                  failure_kind=outcome.kind,
                                  error=outcome.error, attempt=job.attempts)
                    self._queue.put_nowait(job)
                    continue
                # Store writes take the flock and fsync — off the loop
                # thread; futures/metrics/events stay loop-side.
                if self.store is not None:
                    await loop.run_in_executor(
                        self._offload,
                        functools.partial(self.store.record_cell_failure,
                                          outcome, attempts=job.attempts))
                self._quarantine(job, outcome, finished)
            else:
                if self.store is not None:
                    await loop.run_in_executor(
                        self._offload, self.store.record_ok,
                        job.cell, outcome)
                self._complete(job, outcome, finished)
            self._check_idle()

    def _job_meta(self, job: _Job, finished: float) -> Dict[str, object]:
        started = job.started if job.started is not None else finished
        return {
            "cached": False,
            "attempts": job.attempts,
            "queued_s": round(started - job.enqueued, 6),
            "exec_s": round(finished - started, 6),
            "exec_interval": [round(started - self._t0, 6),
                              round(finished - self._t0, 6)],
        }

    def _complete(self, job: _Job, result, finished: float) -> None:
        """Loop-side completion (the store write already happened on the
        offload thread in :meth:`_worker_loop`)."""
        m = self.metrics
        self._observe_pauses(result, _energy_items(result))
        meta = self._job_meta(job, finished)
        m.counter("jobs.simulated").inc()
        m.histogram("service.exec_s", unit=1e-6).record(meta["exec_s"])
        m.histogram("service.queued_s", unit=1e-6).record(meta["queued_s"])
        self._inflight.pop(job.digest, None)
        log = result.gc_log
        self._publish("completed", digest=job.digest[:12],
                      benchmark=job.cell.benchmark, gc=job.cell.gc,
                      exec_s=meta["exec_s"], pauses=log.count,
                      full_pauses=log.full_count,
                      max_pause_s=round(log.max_pause, 6),
                      total_pause_s=round(log.total_pause, 6),
                      crashed=result.crashed)
        run_json = protocol.canonical(encode_run(result))
        for future in job.futures:
            if not future.done():
                future.set_result(("result", job.digest, run_json, meta))

    def _quarantine(self, job: _Job, failure: CellFailure,
                    finished: float) -> None:
        m = self.metrics
        m.counter("jobs.quarantined").inc()
        meta = self._job_meta(job, finished)
        self._inflight.pop(job.digest, None)
        self._publish("quarantined", digest=job.digest[:12],
                      failure_kind=failure.kind, error=failure.error,
                      attempts=job.attempts)
        payload = failure.to_json()
        payload["attempts"] = job.attempts
        for future in job.futures:
            if not future.done():
                future.set_result(("failed", job.digest, payload, meta))

    def _hit(self, digest: str,
             ) -> Optional[Tuple[RunResult, bytes, EnergyItems]]:
        """The memo entry for *digest*'s stored run, or None on a miss.

        An entry is derived once from the run :meth:`ResultStore.get_run`
        returns and rebuilt only when it returns another object, so a
        record replaced by a write, merge or clear is never served stale.
        """
        run = self.store.get_run(digest) if self.store is not None else None
        if run is None:
            return None
        hit = self._hits.get(digest)
        if hit is None or hit[0] is not run:
            hit = (run, protocol.canonical(encode_run(run)),
                   _energy_items(run))
            self._hits[digest] = hit
        return hit

    def _observe_pauses(self, result: RunResult,
                        energy: EnergyItems) -> None:
        """Fold a served run into the service-wide observations.

        Its pause histogram (``GCLog.pause_hist``, the same unit and
        digits) merges into ``gc.pause_seconds``, the status endpoint's
        P50/P99/P99.9 source: counts, ``sum_units``, min and max merge
        exactly, as recording each pause would. Its energy account adds
        integer microjoules per phase — counters sum exactly, so the
        cluster coordinator's scatter-gather totals (which add per-node
        counters) fold service energy with the same bit-exactness as
        the pause histograms.
        """
        self.metrics.histogram("gc.pause_seconds").merge(
            result.gc_log.pause_hist)
        for phase, _core_class, uj in energy:
            self.metrics.counter(f"energy.{phase}_uj").inc(uj)


def _energy_items(result: RunResult) -> EnergyItems:
    """Price one run under its own configuration's energy model."""
    return EnergyModel.for_config(result.config).account_run(result).items()
