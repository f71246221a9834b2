"""The YCSB client: drives the server and records operation latencies.

The heavy lifting on the server side is the discrete-event simulation
(:class:`~repro.cassandra.server.CassandraServer` on a
:class:`~repro.jvm.JVM`); the client-side latencies are then synthesized
from the server's pause log in array passes, with no per-operation loop:

1. operation timestamps are drawn over the serving window and sorted;
2. each operation gets a kind and a base service time — updates follow a
   tight constant band, reads add an SSTable-dependent component that
   *steps up* as flushes accumulate (paper Figure 5, observation 1);
3. operations that arrive during a stop-the-world pause complete only
   when the safepoint ends: ``latency += pause_end - arrival`` (paper
   Figure 5, observation 2 — every latency peak is a GC), pause by pause
   (:func:`add_pause_overlap`).

Step 2 runs block by block, ``telemetry.hist.BLOCK`` operations at a
time in one reused buffer, and draws its streams in one order: the kind
of every operation, then every write's service time, then every read's
cache miss, then every read's service time. A PCG64 stream of one
distribution yields the same values drawn in one call or in slices, so
the trace does not depend on the block size, and the only full-size
arrays the synthesis allocates are the three the trace holds. Those, and
a sub-trace's (:meth:`ClientResult.of_kind`), take their memory in
blocks rounded up to whole MiB (:func:`_trace_array`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cassandra.config import CassandraConfig
from ..cassandra.server import CassandraServer
from ..errors import ConfigError, SimulationError
from ..seeding import rng_for
from ..jvm import JVM, JVMConfig, RunResult
from ..telemetry import hist
from .workload import CoreWorkload

#: Operation kind codes in :class:`ClientResult` arrays.
KIND_READ, KIND_UPDATE, KIND_INSERT = 0, 1, 2

#: Trace arrays take their memory in whole multiples of this many bytes.
_TRACE_QUANTUM = 1 << 20


def _trace_array(n: int, dtype=float) -> np.ndarray:
    """An uninitialised length-*n* array in a memory block rounded up to
    a whole multiple of :data:`_TRACE_QUANTUM` bytes. Traces of one
    duration differ by a few hundred operations, so an exact-size block
    one trace frees is often too small for the next trace's array; the C
    allocator then extends its heap by an amount that depends on where
    earlier blocks landed, and peak resident memory varied by process."""
    dtype = np.dtype(dtype)
    per_block = _TRACE_QUANTUM // dtype.itemsize
    return np.empty(-(-n // per_block) * per_block, dtype)[:n]


@dataclass
class OperationSample:
    """One recorded operation (for spot-checking / examples)."""

    time: float
    kind: int
    latency_ms: float


@dataclass
class ClientResult:
    """Latency traces of one client run against one server configuration."""

    gc: str
    op_times: np.ndarray          #: arrival times (s since experiment start)
    latencies_ms: np.ndarray      #: operation latencies (ms)
    kinds: np.ndarray             #: KIND_READ / KIND_UPDATE / KIND_INSERT
    pause_intervals: np.ndarray   #: (n, 2) server STW [start, end) intervals
    server_result: Optional[RunResult] = None

    def of_kind(self, kind: int) -> "ClientResult":
        """Sub-trace of one operation kind."""
        rows = np.flatnonzero(self.kinds == kind)
        n = len(rows)
        kinds = _trace_array(n, self.kinds.dtype)
        kinds.fill(kind)
        # Every row is in range; mode "raise" would copy ``out`` first.
        return ClientResult(
            self.gc,
            np.take(self.op_times, rows, mode="clip",
                    out=_trace_array(n, self.op_times.dtype)),
            np.take(self.latencies_ms, rows, mode="clip",
                    out=_trace_array(n, self.latencies_ms.dtype)),
            kinds,
            self.pause_intervals,
            self.server_result,
        )

    @property
    def reads(self) -> "ClientResult":
        """READ operations only."""
        return self.of_kind(KIND_READ)

    @property
    def updates(self) -> "ClientResult":
        """UPDATE operations only."""
        return self.of_kind(KIND_UPDATE)

    def top_points(self, n: int = 10_000):
        """The *n* highest-latency points (paper plots only these)."""
        if len(self.latencies_ms) <= n:
            idx = np.argsort(self.op_times)
            return self.op_times[idx], self.latencies_ms[idx]
        idx = np.argpartition(self.latencies_ms, -n)[-n:]
        idx = idx[np.argsort(self.op_times[idx])]
        return self.op_times[idx], self.latencies_ms[idx]


class YCSBClient:
    """Runs a :class:`CoreWorkload` against a simulated Cassandra node."""

    def __init__(self, workload: CoreWorkload, seed: int = 0):
        self.workload = workload
        self.seed = int(seed)

    # ------------------------------------------------------------------

    def run(
        self,
        jvm_config: JVMConfig,
        cassandra_config: CassandraConfig,
        *,
        duration: float = 7200.0,
        samples_per_second: float = 140.0,
    ) -> ClientResult:
        """Run the workload for *duration* simulated seconds; return latencies.

        ``samples_per_second`` controls how many operations are *recorded*
        (the paper records >1 M points per run; the server-side memory
        behaviour is driven by the workload's full offered rate).
        """
        if not 0.0 < duration < float("inf"):
            raise ConfigError(f"duration must be finite and > 0, got {duration}")
        _check_rate(samples_per_second)
        w = self.workload
        server = CassandraServer(cassandra_config)
        jvm = JVM(jvm_config)
        result = jvm.run(
            server,
            duration=duration,
            ops_per_second=w.operations_per_second,
            read_fraction=w.read_proportion,
            update_fraction=w.update_proportion,
            n_client_threads=w.client_threads,
        )
        return self.synthesize(jvm_config, result, server,
                               samples_per_second=samples_per_second)

    # ------------------------------------------------------------------

    def synthesize(
        self,
        jvm_config: JVMConfig,
        server_result: RunResult,
        server: CassandraServer,
        *,
        samples_per_second: float = 140.0,
    ) -> ClientResult:
        """Latency synthesis from a finished server run, block by block."""
        _check_rate(samples_per_second)
        w = self.workload
        rng = rng_for(self.seed, "ycsb-client", jvm_config.gc.value)
        t0 = float(server_result.extras.get("serve_start", 0.0))
        t1 = float(server_result.execution_time)
        if t1 <= t0:
            raise ConfigError("server run has an empty serving window")
        n = max(1, int((t1 - t0) * samples_per_second))
        step = hist.BLOCK
        times = _trace_array(n)
        for a in range(0, n, step):
            block = times[a:a + step]
            block[:] = rng.uniform(t0, t1, size=len(block))
        times.sort()
        kinds = _trace_array(n, np.int8)
        lat = _trace_array(n)
        blocks = [(kinds[a:a + step], lat[a:a + step], times[a:a + step])
                  for a in range(0, n, step)]
        buf = np.empty(min(step, n))

        # Kind codes (READ 0, UPDATE 1, INSERT 2) count the mix thresholds u clears.
        for kb, _, _ in blocks:
            u = rng.random(out=buf[:len(kb)])
            np.greater_equal(u, w.read_proportion, out=kb)
            kb += u >= w.read_proportion + w.update_proportion
        # Updates/inserts: commit-log append + memtable write; a tight,
        # constant band (paper: "the line of points is constant").
        for kb, lb, _ in blocks:
            rows = np.flatnonzero(kb != KIND_READ)
            service = rng.standard_gamma(2.0, out=buf[:len(rows)])
            service *= 0.11
            service += 0.55
            lb[rows] = service
        # Reads: memtable hit or on-disk consultation. The on-disk path
        # grows as data accumulates — each flush adds an SSTable, and even
        # between flushes the growing data volume adds discrete index /
        # partition levels: the paper's increasing "steps" in the read line.
        # Every read's miss is drawn before any read's service time, so a
        # read holds its SSTable cost until its service time is added.
        n_reads = n - np.count_nonzero(kinds)
        if n_reads:
            hot = _hot_share(w)
            flush_times = np.sort(np.array(
                [t.created_at for t in server.sstables.tables], dtype=float
            ))
            written = server.commitlog.appended_bytes - server.stats.replayed_bytes
            write_rate = max(written, 0.0) / (t1 - t0)
            level_quantum = 2.0 * 1024 ** 3  # one level per ~2 GB written
            for kb, lb, tb in blocks:
                rows = np.flatnonzero(kb == KIND_READ)
                read_times = tb[rows]
                tables_at = (np.searchsorted(flush_times, read_times)
                             if flush_times.size else 0.0)
                levels_at = np.floor((read_times - t0) * write_rate / level_quantum)
                miss = rng.random(out=buf[:len(rows)]) > hot
                lb[rows] = miss * 0.30 * np.log2(2.0 + tables_at + levels_at)
            for kb, lb, _ in blocks:
                rows = np.flatnonzero(kb == KIND_READ)
                service = rng.standard_gamma(2.0, out=buf[:len(rows)])
                service *= 0.28
                service += 0.85
                lb[rows] += service

        intervals = server_result.gc_log.intervals()
        if intervals.size:
            add_pause_overlap(lat, times, intervals)
        else:
            intervals = np.zeros((0, 2))

        return ClientResult(
            gc=jvm_config.gc.value,
            op_times=times,
            latencies_ms=lat,
            kinds=kinds,
            pause_intervals=intervals,
            server_result=server_result,
        )


@functools.lru_cache(maxsize=None)
def _hot_share(workload: CoreWorkload) -> float:
    """Share of requests that hit the hottest 5 % of keys."""
    return workload.key_chooser().hot_fraction(0.05)


def _check_rate(rate: float) -> None:
    if not 0.0 < rate < float("inf"):
        raise ConfigError(f"samples_per_second must be finite and > 0, got {rate}")


def add_pause_overlap(lat: np.ndarray, times: np.ndarray,
                      intervals: np.ndarray) -> None:
    """Add ``(end - arrival) * 1000`` to ``lat`` (ms) of each arrival in
    sorted *times* that falls in a pause's ``[start, end)`` row of
    *intervals*. An arrival belongs to the last pause starting at or
    before it, so a pause covers the arrivals from its start to its end
    or the next start, whichever comes first; starts must not decrease."""
    starts, ends = intervals[:, 0], intervals[:, 1]
    if np.any(starts[1:] < starts[:-1]):
        raise SimulationError("pause starts must not decrease")
    lo = np.searchsorted(times, starts)
    hi = np.minimum(np.searchsorted(times, ends), np.append(lo[1:], len(times)))
    for a, b, end in zip(lo.tolist(), hi.tolist(), ends.tolist()):
        lat[a:b] += (end - times[a:b]) * 1000.0   # empty unless a < b
