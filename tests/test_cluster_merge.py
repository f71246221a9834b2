"""Tests for sharded result-store merging (``merge_stores``).

The fabric's correctness claim is that a store merged from N shards is
*byte-identical* to the compacted store of a serial run over the same
cells — the property CI's ``service-smoke`` job pins with ``cmp``. These
tests pin it in-process, plus the conflict policy (ok supersedes
failed), duplicate handling, and manifest merging.
"""

import json

from repro.campaign import (CellSpec, MergeStats, ResultStore, merge_stores,
                            run_campaign, run_cell)
from repro.campaign.spec import CampaignSpec
from repro.studies import GridSpec

GRID = GridSpec(benchmarks=["lusearch"], gcs=["Serial", "ParallelOld"],
                heaps=["1g"], youngs=["256m"], seeds=[0, 1], iterations=2)


def cells():
    return [CellSpec.from_axes(b, gc, h, y, s, iterations=GRID.iterations)
            for b, gc, h, y, s in GRID.cells()]


class TestMergeStores:
    def test_sharded_merge_byte_identical_to_serial_store(self, tmp_path):
        all_cells = cells()
        # Shard the grid across three stores round-robin, in a scrambled
        # order (merge output must not depend on either).
        shards = [ResultStore(str(tmp_path / f"shard{i}")) for i in range(3)]
        for i, cell in enumerate(reversed(all_cells)):
            shards[i % 3].record_ok(cell, run_cell(cell))

        stats = merge_stores([str(tmp_path / f"shard{i}") for i in range(3)],
                             str(tmp_path / "merged"))
        assert stats.sources == 3
        assert stats.records == stats.ok == len(all_cells)
        assert (stats.failed, stats.duplicates, stats.superseded) == (0, 0, 0)

        serial = ResultStore(str(tmp_path / "serial"))
        run_campaign(CampaignSpec(name="ref", grids=[GRID]), store=serial,
                     executor="serial")
        serial.compact()
        assert (tmp_path / "merged" / "records.jsonl").read_bytes() == \
               (tmp_path / "serial" / "records.jsonl").read_bytes()

    def test_ok_supersedes_failed_either_direction(self, tmp_path):
        cell = cells()[0]
        result = run_cell(cell)
        ok_first = ResultStore(str(tmp_path / "a"))
        ok_first.record_ok(cell, result)
        failed = ResultStore(str(tmp_path / "b"))
        failed.record_failure(cell, "timeout", "synthetic straggler",
                              attempts=2)

        # failed-source-first: the later ok record replaces it.
        stats = merge_stores([str(tmp_path / "b"), str(tmp_path / "a")],
                             str(tmp_path / "m1"))
        assert stats.superseded == 1 and stats.failed == 0 and stats.ok == 1
        # ok-source-first: the failed twin is dropped, same outcome.
        stats2 = merge_stores([str(tmp_path / "a"), str(tmp_path / "b")],
                              str(tmp_path / "m2"))
        assert stats2.superseded == 1 and stats2.failed == 0
        assert (tmp_path / "m1" / "records.jsonl").read_bytes() == \
               (tmp_path / "m2" / "records.jsonl").read_bytes()

    def test_identical_records_count_as_duplicates(self, tmp_path):
        cell = cells()[0]
        result = run_cell(cell)
        for name in ("a", "b"):
            store = ResultStore(str(tmp_path / name))
            store.record_ok(cell, result)
        stats = merge_stores([str(tmp_path / "a"), str(tmp_path / "b")],
                             str(tmp_path / "m"))
        assert stats.duplicates == 1 and stats.records == 1

    def test_manifests_merge_idempotently(self, tmp_path):
        spec = CampaignSpec(name="camp", grids=[GRID])
        shards = []
        for i in range(2):
            store = ResultStore(str(tmp_path / f"shard{i}"))
            store.register_campaign({"name": spec.name,
                                     "digest": spec.digest(),
                                     "spec": spec.to_dict()})
            shards.append(str(store.root))
        merge_stores(shards, str(tmp_path / "m"))
        campaigns = ResultStore(
            str(tmp_path / "m")).read_manifest().get("campaigns", [])
        assert len(campaigns) == 1 and campaigns[0]["name"] == "camp"

    def test_merge_into_existing_store_is_incremental(self, tmp_path):
        first, second = cells()[:2]
        dest = ResultStore(str(tmp_path / "dest"))
        dest.record_ok(first, run_cell(first))
        src = ResultStore(str(tmp_path / "src"))
        src.record_ok(second, run_cell(second))
        stats = merge_stores([str(tmp_path / "src")], dest)
        assert stats.records == 2 and stats.ok == 2

    def test_summary_line_is_grep_stable(self):
        stats = MergeStats(sources=3, records=8, ok=7, failed=1,
                           superseded=2, duplicates=4, quarantined_lines=1)
        assert stats.summary() == (
            "merged 3 stores: 8 records (7 ok, 1 failed), 4 duplicates, "
            "2 failures superseded, 1 corrupt lines dropped")

    def test_merged_records_are_canonical_json(self, tmp_path):
        cell = cells()[0]
        store = ResultStore(str(tmp_path / "s"))
        store.record_ok(cell, run_cell(cell))
        merge_stores([str(tmp_path / "s")], str(tmp_path / "m"))
        lines = (tmp_path / "m" / "records.jsonl").read_bytes().splitlines()
        for line in lines:
            rec = json.loads(line)
            canonical = json.dumps(rec, sort_keys=True,
                                   separators=(",", ":")).encode()
            assert line == canonical
