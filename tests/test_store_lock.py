"""Multi-process contention tests for the ResultStore advisory lock.

The store is shared mutable state between a long-lived ``repro-serve``
service and concurrent ``repro-campaign`` invocations; these tests hammer
one store directory from several real processes and assert nothing is
lost, interleaved or resurrected.
"""

import json
import multiprocessing

from repro.campaign import CellSpec, ResultStore
from repro.campaign.store import store_status

APPENDS_PER_PROC = 20


def _cell(proc: int, i: int) -> CellSpec:
    return CellSpec.from_axes("lusearch", "Serial", "1g", "256m",
                              proc * 1000 + i, iterations=2)


def _hammer(root: str, proc: int) -> None:
    """Worker: append failure records as fast as possible."""
    store = ResultStore(root)
    for i in range(APPENDS_PER_PROC):
        store.record_failure(_cell(proc, i), "timeout",
                             f"proc {proc} record {i}", attempts=1)


def _hammer_with_compact(root: str, proc: int) -> None:
    """Worker: interleave appends with full compactions."""
    store = ResultStore(root)
    for i in range(APPENDS_PER_PROC):
        store.record_failure(_cell(proc, i), "timeout",
                             f"proc {proc} record {i}", attempts=1)
        if i % 5 == 4:
            store.compact()


class TestConcurrentAppends:
    def _run(self, tmp_path, target, procs=4):
        root = str(tmp_path / "store")
        ResultStore(root)       # create the directory up front
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=target, args=(root, p))
                   for p in range(procs)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert w.exitcode == 0
        return ResultStore(root)

    def test_no_records_lost_or_corrupted(self, tmp_path):
        store = self._run(tmp_path, _hammer)
        assert len(store) == 4 * APPENDS_PER_PROC
        assert store.quarantined_lines == 0
        # Every line on disk parses and carries a coherent record.
        digests = set()
        for line in store.records_path.read_text().splitlines():
            rec = json.loads(line)
            assert rec["status"] == "failed" and rec["kind"] == "timeout"
            digests.add(rec["digest"])
        assert len(digests) == 4 * APPENDS_PER_PROC

    def test_concurrent_compaction_keeps_all_records(self, tmp_path):
        # Compactions racing appends from sibling processes must merge
        # the on-disk state, not rewrite from local memory alone.
        store = self._run(tmp_path, _hammer_with_compact)
        assert len(store) == 4 * APPENDS_PER_PROC
        assert store.quarantined_lines == 0
        store.compact()
        assert len(ResultStore(store.root)) == 4 * APPENDS_PER_PROC

    def test_status_after_contention(self, tmp_path):
        store = self._run(tmp_path, _hammer, procs=2)
        status = store_status(store)
        assert status["records"] == 2 * APPENDS_PER_PROC
        assert status["failed"] == 2 * APPENDS_PER_PROC
        assert status["ok"] == 0 and status["quarantined_lines"] == 0


class TestCompactMerge:
    def test_compact_does_not_drop_foreign_records(self, tmp_path):
        # Open two handles on one store (stand-ins for two processes).
        ours = ResultStore(tmp_path / "store")
        theirs = ResultStore(tmp_path / "store")
        ours.record_failure(_cell(0, 0), "timeout", "ours", attempts=1)
        theirs.record_failure(_cell(1, 0), "timeout", "theirs", attempts=1)
        # `ours` never saw `theirs`' record; its compact must keep it.
        ours.compact()
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 2

    def test_compact_does_not_resurrect_dropped_failures(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record_failure(_cell(0, 0), "timeout", "x", attempts=1)
        assert store.drop_failures() == 1
        store.compact()
        assert len(ResultStore(store.root)) == 0

    def test_lock_file_is_sidecar(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with store.locked():
            pass
        assert store.lock_path.exists()
        # The lock file never pollutes the record scan.
        store.record_failure(_cell(0, 0), "timeout", "x", attempts=1)
        assert len(ResultStore(store.root)) == 1


def _entry(name: str) -> dict:
    return {"name": name, "digest": f"digest-{name}", "spec": {}, "cells": 1}


def _names(store: ResultStore) -> list:
    return [c["name"] for c in store.read_manifest()["campaigns"]]


class TestKeptManifest:
    """A store keeps the manifest it last read or wrote; another handle's
    registration (a stand-in for another process) must still be seen."""

    def test_other_handles_registration_is_read(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        b = ResultStore(tmp_path / "store")
        a.register_campaign(_entry("X"))
        a.register_campaign(_entry("X"))      # served from a's kept manifest
        b.register_campaign(_entry("Y"))
        a.register_campaign(_entry("X"))      # must move X after Y
        assert _names(a) == ["Y", "X"]

    def test_manifest_rewritten_in_place_is_read(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        a.register_campaign(_entry("X"))
        path = a.manifest_path
        ino = path.stat().st_ino
        text = json.dumps({"version": 1,
                           "campaigns": [_entry("X"), _entry("Y")]},
                          indent=2, sort_keys=True) + "\n"
        path.write_text(text)                 # same inode, another size
        assert path.stat().st_ino == ino
        a.register_campaign(_entry("X"))
        assert _names(a) == ["Y", "X"]
