"""The Cassandra server's quiet run (DESIGN.md §12.1) against its per-round
oracle, :func:`tests.oracles.quiet_run_by_rounds`.

Each case runs one server cell twice with the fast path on: once with
the block (``_Serving._quiet_run``: pass 1 admits a run of rounds from
copies of the state, pass 2 commits it with one bulk step per module)
and once with the oracle, which commits and admits round by round.
Before one chosen call both runs make the same change to the state, so
that the case under test falls inside that call; both calls therefore
start from equal states. After every call the two runs must hold equal
cohort columns, commit-log and memtable counters, ``ServerStats``,
bookings, wake-ups and sequence counters, and in the end equal traces.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import GB, JVM, MB, JVMConfig
from repro.cassandra import CassandraServer, default_config
from repro.cassandra.server import _Serving
from repro.heap.cohort import COLUMNS
from repro.jvm.gclog import format_gc_log
from repro.perf import fastpath
from repro.telemetry import Tracer

from .oracles import quiet_run_by_rounds

BLOCK = _Serving._quiet_run


def _snapshot(serving, order, returned) -> str:
    """What a quiet run leaves behind, floats by their exact repr."""
    server, heap = serving.server, serving.jvm.heap
    log, table = server.commitlog, server.memtable
    columns = [space._arrays[name][:space.n].tobytes()
               for space in (heap.eden_cohorts, heap.survivor_cohorts,
                             heap.old_cohorts)
               for name, _ in COLUMNS if name != "cid"]
    return repr((
        columns, heap.eden.used, heap.old.used,
        log.pending_bytes, log.appended_bytes, log.recycled_segments,
        len(log.segments), log._segment_bytes,
        table.pending_bytes, table.obsolete_bytes, table.record_count,
        len(table.chunks), table._chunk_bytes, table.flush_count,
        server.sstables.count, server.stats, serving._cards,
        [(ctx.alloc_overhead_time, ctx.allocated_bytes, ctx.deadline)
         for ctx in order],
        returned))


def _counts(serving) -> dict:
    server = serving.server
    return {"segments": len(server.commitlog.segments),
            "recycled": server.commitlog.recycled_segments,
            "chunks": len(server.memtable.chunks),
            "flushes": server.memtable.flush_count}


def _run(monkeypatch, quiet_run, perturb=None):
    """Serve the cell with *quiet_run* as the quiet run. Before call *i*,
    ``perturb(i, serving, order, due)`` may change the state. Returns, for
    each call, its rounds, the module counts it left and its snapshot, and
    then the run's GC log and trace."""
    calls = []

    def wrapped(serving, order, due, seq):
        if perturb is not None:
            perturb(len(calls), serving, order, due)
        out = quiet_run(serving, order, due, seq)
        record = _counts(serving)
        record.update(n=len(order),
                      rounds=(out[1] - seq) // (3 * len(order)))
        calls.append((record, _snapshot(serving, order, out)))
        return out

    monkeypatch.setattr(_Serving, "_quiet_run", wrapped)
    previous = fastpath.set_enabled(True)
    try:
        tracer = Tracer()
        # Eden holds about 16 quanta of garbage; segments and chunks fill
        # in a few rounds, and the log recycles from the third minute on.
        # A rate that is no round number makes every byte count a
        # fraction, so a sum in any other order shows in the bits.
        jvm = JVM(JVMConfig(gc="CMS", heap=4 * GB, young=2 * GB, seed=9),
                  tracer=tracer)
        server = CassandraServer(default_config(
            4 * GB, memtable_cap_bytes=1 * GB, commitlog_cap_bytes=64 * MB,
            commitlog_segment_bytes=16 * MB, memtable_chunk_bytes=8 * MB))
        result = jvm.run(server, duration=240.0, ops_per_second=1111.1,
                         read_fraction=0.1, update_fraction=0.4)
    finally:
        fastpath.set_enabled(previous)
        monkeypatch.setattr(_Serving, "_quiet_run", BLOCK)
    assert not result.crashed, result.crash_reason
    end = (format_gc_log(result.gc_log, jvm.config.heap_bytes),
           [(e.t, e.name, e.dur, repr(e.args)) for e in tracer.ring])
    return calls, end


def _identical(monkeypatch, perturb=None):
    """Run block and oracle under *perturb*; returns the block's calls."""
    block, block_end = _run(monkeypatch, BLOCK, perturb)
    oracle, oracle_end = _run(monkeypatch, quiet_run_by_rounds, perturb)
    assert [s for _, s in block] == [s for _, s in oracle]
    assert block_end == oracle_end
    return block


@pytest.fixture(scope="module")
def probe():
    """Each call of the unperturbed block run: its rounds and the module
    counts it started from. The perturbations below leave the rounds of
    their call as they are, unless they are meant to end it."""
    starts = []

    def perturb(i, serving, order, due):
        starts.append(_counts(serving))

    with pytest.MonkeyPatch.context() as mp:
        calls, _ = _run(mp, BLOCK, perturb)
    return [dict(start, rounds=record["rounds"], n=record["n"])
            for start, (record, _) in zip(starts, calls)]


def _target(probe, rounds: int = 3) -> int:
    """The first call of at least *rounds* rounds that starts with two
    commit-log segments and a memtable chunk to release."""
    return next(i for i, c in enumerate(probe)
                if c["rounds"] >= rounds and c["segments"] > 1 and c["chunks"])


def _pending(start: float, step: float, times: int) -> float:
    for _ in range(times):
        start += step
    return start


class TestQuietBlock:
    def test_unperturbed_runs_identical(self, monkeypatch):
        calls = _identical(monkeypatch)
        assert max(c["rounds"] for c, _ in calls) >= 3

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_recycle_in_block(self, monkeypatch, probe, where):
        """The commit log goes over its cap on the block's first, middle
        or last append."""
        target = _target(probe)
        m = probe[target]["rounds"] * probe[target]["n"]
        j = {"first": 1, "middle": m // 2, "last": m}[where]

        def perturb(i, serving, order, due):
            if i == target:
                log = serving.server.commitlog
                # Over the cap from the j-th append on, not before.
                cap = log._segment_bytes + _pending(log.pending_bytes,
                                                    serving.log_bytes, j - 1)
                log.config = dataclasses.replace(log.config,
                                                 commitlog_cap_bytes=cap)

        record, _ = _identical(monkeypatch, perturb)[target]
        assert record["rounds"] * record["n"] == m
        assert record["recycled"] == probe[target]["recycled"] + 1

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_release_in_block(self, monkeypatch, probe, where):
        """The memtable's obsolete bytes reach a chunk on the block's
        first, middle or last write."""
        target = _target(probe)
        m = probe[target]["rounds"] * probe[target]["n"]
        j = {"first": 1, "middle": m // 2, "last": m}[where]

        def perturb(i, serving, order, due):
            if i == target:
                table = serving.server.memtable
                step = serving.table_bytes * serving.update_share
                chunk = table.config.memtable_chunk_bytes
                table.obsolete_bytes = chunk - (j - 0.5) * step
                assert _pending(table.obsolete_bytes, step, j - 1) < chunk
                assert _pending(table.obsolete_bytes, step, j) >= chunk

        record, _ = _identical(monkeypatch, perturb)[target]
        assert record["rounds"] * record["n"] == m
        assert record["chunks"] == probe[target]["chunks"] - 1

    def test_flush_round(self, monkeypatch, probe):
        """A round in the middle of a quiet run flushes the memtable; the
        run goes on after it."""
        target = _target(probe)

        def perturb(i, serving, order, due):
            if i == target:
                table = serving.server.memtable
                table.obsolete_bytes = 0.0   # no release moves the cap
                cap = table._chunk_bytes + _pending(
                    table.pending_bytes, serving.table_bytes, 2 * len(order))
                table.config = dataclasses.replace(table.config,
                                                   memtable_cap_bytes=cap)

        record, _ = _identical(monkeypatch, perturb)[target]
        assert record["flushes"] == probe[target]["flushes"] + 1
        assert record["rounds"] > 2

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_eden_bound(self, monkeypatch, probe, rounds):
        """Eden's room after a round's last row is too small for the next
        round: the run ends there."""
        target = _target(probe)

        def perturb(i, serving, order, due):
            if i == target:
                heap = serving.jvm.heap
                n, bump = len(order), serving._plan[3].n_bytes
                room = heap.eden.capacity - heap.tlabs.expected_waste
                heap.eden.used = room - n * bump - 1.0 - (rounds - 0.5) * n * bump

        assert _identical(monkeypatch, perturb)[target][0]["rounds"] == rounds

    @pytest.mark.parametrize("rounds", [1, 2, 5])
    def test_horizon_between_rounds(self, monkeypatch, probe, rounds):
        """The horizon falls between two rounds; one round makes a run of
        one round."""
        target = _target(probe, rounds + 1)

        def perturb(i, serving, order, due):
            if i == target:
                horizon = min(due)[0] + rounds * serving.quantum - 0.1
                serving._admits = serving._admission(len(order), horizon)

        assert _identical(monkeypatch, perturb)[target][0]["rounds"] == rounds
