"""Tests for the campaign subsystem: cells, store, runner, progress."""

import dataclasses
import hashlib
import json
import os
import pickle

import pytest

from repro.errors import ConfigError
from repro.campaign import (
    CampaignSpec,
    CellSpec,
    ProcessExecutor,
    ProgressReporter,
    ResultStore,
    SerialExecutor,
    decode_run,
    default_workers,
    encode_run,
    get_executor,
    merge_stores,
    run_campaign,
    run_cell,
)
from repro.campaign import runner
from repro.campaign.cells import CELL_SCHEMA_VERSION
from repro.studies import GridSpec, run_grid
from repro.units import GB, MB
from tests.oracles import cell_specs_by_axes

#: One tiny, fast grid reused across the suite (2 cells).
TINY = GridSpec(benchmarks=["lusearch", "batik"], gcs=["Serial"], heaps=["1g"],
                youngs=["256m"], seeds=[0], iterations=2)


def tiny_campaign(name="tiny"):
    return CampaignSpec(name, [TINY])


@pytest.fixture(scope="module")
def tiny_runs():
    """TINY's two cells and their runs, simulated once per module."""
    cells = [CellSpec.from_axes(b, g, h, y, s, iterations=TINY.iterations)
             for b, g, h, y, s in TINY.cells()]
    return [(cell, run_cell(cell)) for cell in cells]


# ----------------------------------------------------------------------
# CellSpec
# ----------------------------------------------------------------------


class TestCellSpec:
    def test_axes_normalized(self):
        cell = CellSpec.from_axes("xalan", "g1", "16g", "256m", 3)
        assert cell.gc == "G1GC"
        assert cell.heap == 16 * GB
        assert cell.young == 256 * MB
        assert cell.seed == 3

    def test_digest_ignores_axis_spelling(self):
        a = CellSpec.from_axes("xalan", "g1", "16g", None, 0)
        b = CellSpec.from_axes("xalan", "G1GC", 16 * GB, None, 0)
        assert a == b and a.digest() == b.digest()

    def test_digest_sensitive_to_config(self):
        base = CellSpec.from_axes("xalan", "g1", "16g", None, 0)
        for other in (
            CellSpec.from_axes("xalan", "g1", "16g", None, 1),
            CellSpec.from_axes("xalan", "g1", "16g", None, 0, iterations=5),
            CellSpec.from_axes("xalan", "g1", "16g", None, 0, system_gc=False),
            CellSpec.from_axes("xalan", "g1", "16g", None, 0, tlab_enabled=False),
            CellSpec.from_axes("xalan", "g1", "16g", None, 0,
                               overrides={"gc_threads": 4}),
        ):
            assert other.digest() != base.digest()

    def test_dict_round_trip(self):
        cell = CellSpec.from_axes("h2", "cms", "4g", "1g", 7, iterations=3,
                                  overrides={"gc_threads": 2})
        assert CellSpec.from_dict(cell.to_dict()) == cell

    def test_digest_is_sha256_of_canonical_json(self):
        cell = CellSpec.from_axes("h2", "cms", "4g", "1g", 7, iterations=3,
                                  overrides={"gc_threads": 2})
        blob = json.dumps({"v": CELL_SCHEMA_VERSION, "cell": cell.to_dict()},
                          sort_keys=True, separators=(",", ":"))
        expected = hashlib.sha256(blob.encode()).hexdigest()
        assert cell.digest() == expected
        assert cell.digest() == expected      # served from the instance

    def test_cached_digest_is_not_part_of_the_value(self):
        cell = CellSpec.from_axes("xalan", "g1", "16g", None, 0)
        fresh = CellSpec.from_axes("xalan", "g1", "16g", None, 0)
        before = (repr(cell), hash(cell), cell.to_dict())
        cell.digest()
        assert (repr(cell), hash(cell), cell.to_dict()) == before
        assert cell == fresh
        assert "_digest" not in {f.name for f in dataclasses.fields(CellSpec)}

    def test_digest_survives_pickle_round_trip(self):
        for warm in (False, True):
            cell = CellSpec.from_axes("h2", "cms", "4g", "1g", 7,
                                      overrides={"gc_threads": 2})
            if warm:
                cell.digest()
            back = pickle.loads(pickle.dumps(cell))
            assert back == cell and hash(back) == hash(cell)
            assert repr(back) == repr(cell)
            assert back.digest() == cell.digest()

    def test_replace_recomputes_the_digest(self):
        cell = CellSpec.from_axes("xalan", "g1", "16g", None, 0)
        cell.digest()
        moved = dataclasses.replace(cell, seed=1)
        assert moved.digest() != cell.digest()
        assert moved.digest() == CellSpec.from_axes(
            "xalan", "g1", "16g", None, 1).digest()

    def test_key_matches_run_grid_keys(self):
        grid = run_grid(TINY)
        cells = [CellSpec.from_axes(b, g, h, y, s, iterations=TINY.iterations)
                 for b, g, h, y, s in TINY.cells()]
        assert [c.key() for c in cells] == list(grid.runs)


class TestRunCell:
    def test_matches_run_grid_cell(self):
        grid = run_grid(TINY)
        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        assert run_cell(cell) == grid.runs[cell.key()]

    def test_simulated_crash_is_a_result_not_an_error(self):
        cell = CellSpec.from_axes("eclipse", "Serial", "1g", None, 0,
                                  iterations=1)
        result = run_cell(cell)
        assert result.crashed and "eclipse" in result.crash_reason

    def test_unknown_benchmark_raises(self):
        with pytest.raises(ConfigError):
            run_cell(CellSpec.from_axes("nope", "Serial", "1g", None, 0))


class TestRunCodec:
    def test_round_trip_is_exact(self):
        cell = CellSpec.from_axes("lusearch", "ParallelOld", "1g", "256m", 0,
                                  iterations=2)
        result = run_cell(cell)
        encoded = encode_run(result)
        json.dumps(encoded)  # must be JSON-serializable
        assert decode_run(encoded) == result

    def test_round_trip_preserves_pause_log(self):
        result = run_cell(CellSpec.from_axes("batik", "G1", "1g", "256m", 1,
                                             iterations=2))
        back = decode_run(encode_run(result))
        assert back.gc_log.pauses == result.gc_log.pauses
        assert back.gc_log.concurrent == result.gc_log.concurrent


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class TestExecutors:
    def test_get_executor(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        proc = get_executor("process", workers=3)
        assert isinstance(proc, ProcessExecutor) and proc.workers == 3
        with pytest.raises(ConfigError):
            get_executor("threads")
        with pytest.raises(ConfigError):
            ProcessExecutor(workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_serial_captures_exceptions_as_failures(self):
        cells = [CellSpec.from_axes("nope", "Serial", "1g", None, 0)]
        [(cell, outcome)] = list(SerialExecutor().run_cells(cells, run_cell))
        assert outcome.kind == "exception"
        assert "nope" in outcome.error and isinstance(outcome.exc, ConfigError)
        assert "nope" in outcome.format()

    def test_process_matches_serial(self):
        cells = [CellSpec.from_axes(b, g, h, y, s, iterations=2)
                 for b, g, h, y, s in TINY.cells()]
        serial = [r for _c, r in SerialExecutor().run_cells(cells, run_cell)]
        procs = [r for _c, r in
                 ProcessExecutor(workers=2).run_cells(cells, run_cell)]
        assert serial == procs

    def test_process_timeout_reported_as_failure(self):
        cells = [CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                    iterations=2)]
        [(cell, outcome)] = list(
            ProcessExecutor(workers=1).run_cells(cells, run_cell, timeout=1e-9)
        )
        assert outcome.kind == "timeout"

    def test_on_submit_called_per_cell(self):
        seen = []
        cells = [CellSpec.from_axes(b, g, h, y, s, iterations=2)
                 for b, g, h, y, s in TINY.cells()]
        list(SerialExecutor().run_cells(cells, run_cell, on_submit=seen.append))
        assert seen == cells


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------


class TestResultStore:
    def test_round_trip(self, tmp_path):
        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        result = run_cell(cell)
        store = ResultStore(tmp_path / "s")
        store.record_ok(cell, result)

        reloaded = ResultStore(tmp_path / "s")
        assert len(reloaded) == 1
        assert reloaded.get_run(cell.digest()) == result
        [(back_cell, back_run)] = list(reloaded.iter_ok())
        assert back_cell == cell and back_run == result

    def test_hit_is_decoded_once_and_shared(self, tmp_path, tiny_runs):
        [(cell, run), _] = tiny_runs
        store = ResultStore(tmp_path / "s")
        store.record_ok(cell, run)
        d = cell.digest()
        hit = store.get_run(d)
        assert hit == decode_run(store.get(d)["run"]) == run
        assert store.get_run(d) is hit
        assert ResultStore(tmp_path / "s").get_run(d) == hit

    @pytest.mark.parametrize("replace", ["failure-then-ok", "new-result",
                                         "merge", "clear"])
    def test_hit_follows_the_current_record(self, tmp_path, tiny_runs,
                                            replace):
        [(cell, run), (_, other)] = tiny_runs
        d = cell.digest()
        store = ResultStore(tmp_path / "s")
        store.record_ok(cell, run)
        assert store.get_run(d) == run
        if replace == "failure-then-ok":
            store.record_failure(cell, "timeout", "budget", attempts=1)
            assert store.get_run(d) is None
            store.record_ok(cell, other)
        elif replace == "new-result":
            store.record_ok(cell, other)
        elif replace == "merge":
            store.record_failure(cell, "timeout", "budget", attempts=1)
            src = ResultStore(tmp_path / "src")
            src.record_ok(cell, other)
            assert merge_stores([src], store).superseded == 1
        else:
            assert store.clear() == 1
            assert store.get_run(d) is None and list(store.iter_ok()) == []
            store.record_ok(cell, other)
        assert store.get_run(d) == other == decode_run(store.get(d)["run"])

    def test_failure_records(self, tmp_path):
        cell = CellSpec.from_axes("nope", "Serial", "1g", None, 0)
        store = ResultStore(tmp_path / "s")
        store.record_failure(cell, "exception", "boom", attempts=3)
        reloaded = ResultStore(tmp_path / "s")
        assert reloaded.failed_digests() == [cell.digest()]
        assert reloaded.get_run(cell.digest()) is None
        assert reloaded.drop_failures() == 1
        assert len(ResultStore(tmp_path / "s")) == 0

    def test_truncated_record_quarantined_not_fatal(self, tmp_path):
        cells = [CellSpec.from_axes(b, g, h, y, s, iterations=2)
                 for b, g, h, y, s in TINY.cells()]
        store = ResultStore(tmp_path / "s")
        for cell in cells:
            store.record_ok(cell, run_cell(cell))
        # Simulate a kill mid-write: chop the last record line in half.
        lines = store.records_path.read_text().splitlines(keepends=True)
        store.records_path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        reloaded = ResultStore(tmp_path / "s")
        assert reloaded.quarantined_lines == 1
        assert len(reloaded) == len(cells) - 1
        # The corrupt line is compacted away: a further reopen is clean.
        again = ResultStore(tmp_path / "s")
        assert again.quarantined_lines == 0 and len(again) == len(cells) - 1

    def test_garbage_lines_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        store.record_ok(cell, run_cell(cell))
        with open(store.records_path, "a") as fh:
            fh.write("not json at all\n{\"digest\": 1}\n")
        reloaded = ResultStore(tmp_path / "s")
        assert reloaded.quarantined_lines == 2
        assert reloaded.ok_digests() == [cell.digest()]

    def test_csv_matches_grid_result(self, tmp_path):
        grid = run_grid(TINY)
        store = ResultStore(tmp_path / "s")
        for b, g, h, y, s in TINY.cells():
            cell = CellSpec.from_axes(b, g, h, y, s, iterations=TINY.iterations)
            store.record_ok(cell, grid.runs[cell.key()])
        grid.to_csv(tmp_path / "grid.csv")
        store.to_csv(tmp_path / "store.csv")
        assert (tmp_path / "grid.csv").read_text() == (tmp_path / "store.csv").read_text()

    def test_manifest_registry(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = tiny_campaign()
        entry = {"name": spec.name, "digest": spec.digest(),
                 "spec": spec.to_dict(), "cells": spec.size}
        store.register_campaign(entry)
        store.register_campaign(entry)  # idempotent by digest
        manifest = ResultStore(tmp_path / "s").read_manifest()
        assert len(manifest["campaigns"]) == 1
        assert CampaignSpec.from_dict(manifest["campaigns"][0]["spec"]).size == 2

        # Registering the last entry as it stands leaves the file alone.
        path = store.manifest_path

        def snapshot():
            st = path.stat()
            return path.read_bytes(), st.st_ino, st.st_mtime_ns

        before = snapshot()
        store.register_campaign(dict(entry))
        assert snapshot() == before

        # An earlier entry registered again still moves last, where
        # `repro-campaign resume` looks for the most recent campaign.
        other = tiny_campaign("other")
        store.register_campaign({"name": other.name, "digest": other.digest(),
                                 "spec": other.to_dict(), "cells": other.size})
        store.register_campaign(entry)
        names = [c["name"] for c in store.read_manifest()["campaigns"]]
        assert names == ["other", "tiny"]

        # A changed field is written out.
        ino = path.stat().st_ino
        store.register_campaign(dict(entry, cells=3))
        assert store.read_manifest()["campaigns"][-1]["cells"] == 3
        assert path.stat().st_ino != ino

    def test_cached_reruns_expand_once_and_read_manifest_once(
            self, tmp_path, tiny_runs, monkeypatch):
        root = tmp_path / "s"
        store = ResultStore(root)
        for cell, run in tiny_runs:
            store.record_ok(cell, run)
        first = run_campaign(tiny_campaign(), store=store, executor="serial")
        path = store.manifest_path
        st = path.stat()
        before = (path.read_bytes(), st.st_ino, st.st_mtime_ns)

        expanded, reads = [], []
        from_axes, read_manifest = CellSpec.from_axes, ResultStore.read_manifest
        monkeypatch.setattr(CellSpec, "from_axes", classmethod(
            lambda cls, *a, **kw: expanded.append(a) or from_axes(*a, **kw)))
        monkeypatch.setattr(ResultStore, "read_manifest", lambda self: (
            reads.append(self) or read_manifest(self)))
        spec, store = tiny_campaign(), ResultStore(root)
        for _ in range(50):
            result = run_campaign(spec, store=store, executor="serial")
            assert result.stats.cached == 2 and result.stats.simulated == 0
            assert result.grid(0).runs == first.grid(0).runs
        assert len(expanded) <= spec.size
        assert len(reads) <= 2
        st = path.stat()
        assert (path.read_bytes(), st.st_ino, st.st_mtime_ns) == before


# ----------------------------------------------------------------------
# CampaignSpec
# ----------------------------------------------------------------------


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CampaignSpec("", [TINY])
        with pytest.raises(ConfigError):
            CampaignSpec("x", [])
        with pytest.raises(ConfigError):
            CampaignSpec("x", ["not a grid"])

    def test_size_and_cells(self):
        spec = CampaignSpec("x", [TINY, TINY])
        assert spec.size == 4
        per_grid = spec.cell_specs()
        assert [len(cells) for cells in per_grid] == [2, 2]
        assert per_grid[0] == per_grid[1]

    def test_dict_round_trip(self):
        spec = CampaignSpec("x", [TINY], overrides={"gc_threads": 2})
        back = CampaignSpec.from_dict(spec.to_dict())
        assert back.digest() == spec.digest()
        assert back.cell_specs() == spec.cell_specs()

    def test_cell_specs_match_fresh_expansion(self):
        spec = CampaignSpec("x", [
            GridSpec(benchmarks=["xalan", "h2"], gcs=["g1", "cms", "Serial"],
                     heaps=["1g", 2 * GB], youngs=[None, "256m"],
                     seeds=[0, 3], iterations=2, system_gc=False),
            # g1 spelled canonically: the third grid's cell repeats one of
            # the first grid's; the second's differs in its TLAB flag.
            GridSpec(benchmarks=["xalan"], gcs=["G1GC"], heaps=["1g"],
                     seeds=[0], iterations=2, tlab_enabled=False),
            GridSpec(benchmarks=["xalan"], gcs=["G1GC"], heaps=["1g"],
                     seeds=[0], iterations=2, system_gc=False),
        ], overrides={"gc_threads": 4, "misc_safepoints": False})
        oracle = cell_specs_by_axes(spec)
        first = spec.cell_specs()
        assert first == oracle
        assert [[c.digest() for c in cells] for cells in first] == \
            [[c.digest() for c in cells] for cells in oracle]
        assert [[c.key() for c in cells] for cells in first] == \
            [[c.key() for c in cells] for cells in oracle]
        assert first[2][0] in first[0] and first[1][0] not in first[0]
        # Callers own the lists they get; the next call is unchanged.
        first[0].clear()
        first[1].append(first[2][0])
        first.append([])
        assert spec.cell_specs() == oracle
        assert spec.digest() == CampaignSpec.from_dict(spec.to_dict()).digest()

    def test_unique_cells_and_grid_slots_match_per_call_derivation(self):
        spec = CampaignSpec("x", [
            TINY,
            GridSpec(benchmarks=["batik", "xalan", "batik"], gcs=["Serial"],
                     heaps=["1g"], youngs=["256m"], seeds=[0, 0],
                     iterations=2),
            TINY,
        ])
        per_grid = cell_specs_by_axes(spec)
        unique = {}
        for cells in per_grid:
            for cell in cells:
                unique.setdefault(cell.digest(), cell)
        assert spec.unique_cells() == tuple(unique.items())
        digests = list(unique)
        for cells, slots in zip(per_grid, spec.grid_slots()):
            keyed = {}
            for cell in cells:
                keyed[cell.key()] = digests.index(cell.digest())
            assert slots == tuple(keyed.items())
        assert [len(slots) for slots in spec.grid_slots()] == [2, 2, 2]
        assert spec.unique_cells() is spec.unique_cells()

    def test_registry_entry_is_kept(self):
        spec = CampaignSpec("x", [TINY, TINY], overrides={"gc_threads": 2})
        entry = spec.registry_entry()
        assert entry == {"name": "x", "digest": spec.digest(),
                         "spec": spec.to_dict(), "cells": 2}
        assert spec.registry_entry() is entry
        assert CampaignSpec.from_dict(entry["spec"]).digest() == spec.digest()

    def test_spec_from_list_axes_is_hashable(self):
        spec = tiny_campaign("x")          # TINY's axes are lists
        assert {spec: 1}[tiny_campaign("x")] == 1

    def test_caller_lists_changed_later_change_nothing(self):
        benchmarks = ["lusearch", "batik"]
        spec = CampaignSpec("x", [GridSpec(
            benchmarks=benchmarks, gcs=["Serial"], heaps=["1g"],
            youngs=["256m"], seeds=[0], iterations=2)])
        # Taken before and after: a spec whose cells are not expanded yet
        # must not see the append either.
        digest = spec.digest()
        benchmarks.append("xalan")
        assert spec.size == 2
        assert [c.benchmark for c in spec.cell_specs()[0]] == ["lusearch", "batik"]
        assert spec.digest() == digest == tiny_campaign("x").digest()


# ----------------------------------------------------------------------
# run_campaign
# ----------------------------------------------------------------------


class TestRunCampaign:
    def test_matches_run_grid(self):
        serial = run_grid(TINY)
        campaign = run_campaign(tiny_campaign(), executor="serial")
        assert campaign.grid(0).runs == serial.runs
        assert campaign.stats.simulated == 2

    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = tiny_campaign()
        first = run_campaign(spec, store=tmp_path / "s", executor="serial")
        second = run_campaign(spec, store=tmp_path / "s", executor="serial")
        assert first.stats.simulated == 2 and first.stats.cached == 0
        assert second.stats.simulated == 0 and second.stats.cached == 2
        assert second.grid(0).runs == first.grid(0).runs
        assert "cached 2/2" in second.stats.summary()

    def test_bytes_and_str_paths_address_one_store(self, tmp_path):
        spec = tiny_campaign()
        path = tmp_path / "s"
        first = run_campaign(spec, store=os.fsencode(path), executor="serial")
        second = run_campaign(spec, store=str(path), executor="serial")
        assert first.stats.simulated == 2
        assert second.stats.simulated == 0 and second.stats.cached == 2
        assert second.grid(0).runs == first.grid(0).runs

    def test_partial_store_resumes(self, tmp_path):
        spec = tiny_campaign()
        store = ResultStore(tmp_path / "s")
        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        store.record_ok(cell, run_cell(cell))
        result = run_campaign(spec, store=store, executor="serial")
        assert result.stats.cached == 1 and result.stats.simulated == 1
        assert result.grid(0).runs == run_grid(TINY).runs

    def test_duplicate_cells_simulated_once(self):
        result = run_campaign(CampaignSpec("x", [TINY, TINY]), executor="serial")
        assert result.stats.total == 2 and result.stats.simulated == 2
        assert result.grids[0].runs == result.grids[1].runs

    def test_worker_failures_quarantined_after_retries(self, tmp_path,
                                                        monkeypatch):
        def run_or_raise(cell, trace_dir=None):
            if cell.benchmark == "batik":
                raise RuntimeError("worker lost")
            return run_cell(cell)

        monkeypatch.setattr(runner, "run_cell", run_or_raise)
        result = run_campaign(tiny_campaign("bad"),
                              store=tmp_path / "s", executor="serial", retries=1)
        assert result.stats.quarantined == 1
        assert result.stats.retried == 1
        assert result.stats.simulated == 1
        [failure] = result.quarantined
        assert failure.kind == "exception"
        # Quarantine is persisted, and the good cell still resolved.
        store = ResultStore(tmp_path / "s")
        assert len(store.failed_digests()) == 1
        assert len(result.grid(0).runs) == 1

    def test_failed_records_retried_on_next_run(self, tmp_path):
        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        store = ResultStore(tmp_path / "s")
        store.record_failure(cell, "timeout", "budget", attempts=1)
        result = run_campaign(tiny_campaign(), store=store, executor="serial")
        # The previously failed cell is re-simulated, not served as a hit.
        assert result.stats.simulated == 2 and result.stats.cached == 0

    def test_reporter_counts(self, tmp_path):
        ticks = iter(range(100))
        reporter = ProgressReporter(0, stream=_Sink(),
                                    clock=lambda: float(next(ticks)))
        run_campaign(tiny_campaign(), store=tmp_path / "s", executor="serial",
                     reporter=reporter)
        assert (reporter.done, reporter.cached, reporter.failed) == (2, 0, 0)
        reporter2 = ProgressReporter(0, stream=_Sink(),
                                     clock=lambda: float(next(ticks)))
        run_campaign(tiny_campaign(), store=tmp_path / "s", executor="serial",
                     reporter=reporter2)
        assert (reporter2.done, reporter2.cached) == (2, 2)

    def test_invalid_retries_rejected(self):
        with pytest.raises(ConfigError):
            run_campaign(tiny_campaign(), retries=-1)

    def test_to_csv_concatenates_grids(self, tmp_path):
        result = run_campaign(tiny_campaign(), executor="serial")
        result.to_csv(tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 and lines[0].startswith("benchmark,")


class TestCachedRerun:
    """A fully cached `run_campaign` costs its lookups and one `stat`."""

    @pytest.fixture()
    def warm(self, tmp_path, tiny_runs):
        store = ResultStore(tmp_path / "s")
        for cell, run in tiny_runs:
            store.record_ok(cell, run)
        # Two grids over the same two cells: four cells, two digests.
        spec = CampaignSpec("warm", [TINY, TINY])
        first = run_campaign(spec, store=store, executor="serial")
        assert first.stats.cached == 2
        return spec, store, first

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_warm_call_costs_lookups_and_one_stat(self, warm, monkeypatch,
                                                  executor):
        fcntl = pytest.importorskip("fcntl")
        from repro.campaign import spec as spec_module

        spec, store, first = warm
        path = store.manifest_path
        st = path.stat()
        before = (path.read_bytes(), st.st_ino, st.st_mtime_ns)
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        from_axes = CellSpec.from_axes
        monkeypatch.setattr(CellSpec, "from_axes", classmethod(
            counted("from_axes", lambda cls, *a, **kw: from_axes(*a, **kw))))
        for owner, name in [(fcntl, "flock"),
                            (ResultStore, "read_manifest"),
                            (ResultStore, "get_run"),
                            (spec_module, "grid_to_dict"),
                            (runner, "get_executor"),
                            (CellSpec, "check")]:
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        stat, manifest = os.stat, os.fspath(path)

        def counted_stat(target, *args, **kwargs):
            if os.fspath(target) == manifest:
                calls["stat"] = calls.get("stat", 0) + 1
            return stat(target, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counted_stat)
        result = run_campaign(spec, store=store, executor=executor, workers=2)
        monkeypatch.undo()

        assert calls == {"get_run": 2, "stat": 1}
        assert result.stats.cached == 2 and result.stats.simulated == 0
        assert [g.runs for g in result.grids] == [g.runs for g in first.grids]
        st = path.stat()
        assert (path.read_bytes(), st.st_ino, st.st_mtime_ns) == before

    @pytest.mark.parametrize("change", ["replace-ok", "new-failure", "merge",
                                        "compact", "drop-failures", "clear"])
    def test_warm_call_sees_every_store_change(self, warm, tmp_path,
                                               tiny_runs, change):
        spec, store, _ = warm
        [(cell, _run), (_, other)] = tiny_runs
        assert run_campaign(spec, store=store).stats.cached == 2
        if change == "replace-ok":
            store.record_ok(cell, other)
        elif change == "new-failure":
            store.record_failure(cell, "timeout", "budget", attempts=1)
        elif change == "merge":
            store.record_failure(cell, "timeout", "budget", attempts=1)
            src = ResultStore(tmp_path / "src")
            src.record_ok(cell, other)
            assert merge_stores([src], store).superseded == 1
        elif change == "compact":
            store.compact()
        elif change == "drop-failures":
            store.record_failure(cell, "timeout", "budget", attempts=1)
            assert store.drop_failures() == 1
        else:
            assert store.clear() == 2
        second = run_campaign(spec, store=store)
        # The oracle: a cold decode of the same root by a fresh handle.
        cold = ResultStore(store.root)
        oracle = {c.key(): cold.get_run(c.digest()) for c in spec.cell_specs()[0]}
        assert None not in oracle.values()
        assert [g.runs for g in second.grids] == [oracle, oracle]
        if change in ("replace-ok", "merge"):
            assert second.grid(0).runs[cell.key()] == other

    @pytest.mark.parametrize("axes,overrides", [
        ({"benchmarks": ["lusearch", "definitely-not-a-benchmark"]}, None),
        ({"heaps": ["0g"]}, None),
        ({"heaps": ["1g"], "youngs": ["2g"]}, None),
        # A deleted setting is refused like any unknown one.
        ({}, {"remset_fidelity": True}),
    ], ids=["unknown-benchmark", "zero-heap", "young-above-heap",
            "deleted-setting"])
    @pytest.mark.parametrize("populated", [False, True],
                             ids=["fresh-store", "populated-store"])
    def test_refused_cell_runs_and_writes_nothing(self, tmp_path, tiny_runs,
                                                  monkeypatch, axes,
                                                  overrides, populated):
        root = tmp_path / "s"
        if populated:
            store = ResultStore(root)
            for cell, run in tiny_runs:
                store.record_ok(cell, run)
            run_campaign(tiny_campaign(), store=store)

        def snapshot():
            return {name: ((root / name).read_bytes(),
                           (root / name).stat().st_ino)
                    for name in ("records.jsonl", "manifest.json")
                    if (root / name).exists()}

        before = snapshot()
        ran = []
        monkeypatch.setattr(runner, "run_cell", lambda cell, trace_dir=None: (
            ran.append(cell) or run_cell(cell)))
        grid = dataclasses.replace(TINY, **axes)
        with pytest.raises(ConfigError):
            run_campaign(CampaignSpec("bad", [grid], overrides), store=root)
        assert ran == []
        assert snapshot() == before
        assert len(before) == (2 if populated else 0)
        assert root.exists() == populated


# ----------------------------------------------------------------------
# ProgressReporter
# ----------------------------------------------------------------------


class _Sink:
    def __init__(self):
        self.text = ""

    def write(self, s):
        self.text += s

    def flush(self):
        pass


class TestProgressReporter:
    def test_counts_and_line(self):
        sink = _Sink()
        clock = iter(float(i) for i in range(10))
        reporter = ProgressReporter(4, stream=sink, clock=lambda: next(clock))
        reporter.advance()
        reporter.advance(cached=True)
        reporter.advance(failed=True)
        line = reporter.line()
        assert "3/4" in line and "1 cached" in line and "1 failed" in line
        assert "ETA" in line
        reporter.finish()
        assert "3/4" in sink.text

    def test_eta_projection(self):
        clock = iter([0.0, 2.0, 2.0])  # start, advance, eta query
        reporter = ProgressReporter(4, stream=_Sink(), clock=lambda: next(clock))
        reporter.start()
        reporter.done = 1  # bypass rendering's clock reads
        assert reporter.eta_seconds() == pytest.approx(6.0)  # 3 left x 2s/cell

    def test_no_eta_before_progress(self):
        reporter = ProgressReporter(4, stream=_Sink(), clock=lambda: 0.0)
        assert reporter.eta_seconds() is None
        reporter.start()
        assert reporter.eta_seconds() is None


# ----------------------------------------------------------------------
# Campaign summary rendering
# ----------------------------------------------------------------------


class TestCampaignSummary:
    def test_render(self):
        from repro.analysis.report import render_campaign_summary

        result = run_campaign(tiny_campaign(), executor="serial")
        text = render_campaign_summary(result)
        assert "campaign 'tiny'" in text
        assert "cached 0/2" in text
        assert "grid 0: 2 cells" in text


# ----------------------------------------------------------------------
# CellFailure serialization (crosses process and protocol boundaries)
# ----------------------------------------------------------------------


class TestCellFailureSerialization:
    def _failure(self):
        from repro.campaign.executors import CellFailure

        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0,
                                  iterations=2)
        try:
            raise RuntimeError("worker exploded")
        except RuntimeError as exc:
            return CellFailure(cell=cell, kind="exception",
                               error="RuntimeError: worker exploded", exc=exc)

    def test_pickle_round_trip_drops_live_exception(self):
        import pickle

        failure = self._failure()
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.exc is None
        assert clone.cell == failure.cell
        assert clone.kind == "exception"
        assert "worker exploded" in clone.error

    def test_pickle_preserves_error_text_from_exc(self):
        import pickle

        from repro.campaign.executors import CellFailure

        cell = CellSpec.from_axes("lusearch", "Serial", "1g", "256m", 0)
        failure = CellFailure(cell=cell, kind="exception", error="",
                              exc=ValueError("boom"))
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.error == "ValueError: boom"

    def test_json_round_trip(self):
        from repro.campaign.executors import CellFailure

        failure = self._failure()
        d = failure.to_json()
        # Must be directly JSON-encodable — no exception object inside.
        wire = json.loads(json.dumps(d, sort_keys=True))
        clone = CellFailure.from_json(wire)
        assert clone.cell.digest() == failure.cell.digest()
        assert clone.kind == failure.kind
        assert clone.error == failure.error
        assert clone.exc is None

    def test_store_records_via_json_projection(self, tmp_path):
        failure = self._failure()
        store = ResultStore(tmp_path / "store")
        store.record_cell_failure(failure, attempts=3)
        rec = store.get(failure.cell.digest())
        assert rec["status"] == "failed"
        assert rec["kind"] == "exception" and rec["attempts"] == 3
        assert "worker exploded" in rec["error"]
        assert "exc" not in rec
