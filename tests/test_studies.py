"""Tests for the experiment-grid orchestration API."""

import pytest

from repro.errors import ConfigError
from repro.studies import CellKey, GridSpec, GridResult, run_grid
from repro.units import GB, MB


@pytest.fixture(scope="module")
def small_grid():
    spec = GridSpec(
        benchmarks=["lusearch", "batik"],
        gcs=["ParallelOld", "Serial"],
        heaps=["1g"],
        youngs=["256m"],
        seeds=[0, 1],
        iterations=3,
    )
    return run_grid(spec)


class TestGridSpec:
    def test_size(self):
        spec = GridSpec(benchmarks=["a", "b"], gcs=["x"], heaps=[1, 2],
                        youngs=[None], seeds=[0, 1, 2])
        assert spec.size == 12

    def test_cells_cover_product(self):
        spec = GridSpec(benchmarks=["a"], gcs=["x", "y"], heaps=[1], seeds=[0])
        assert len(list(spec.cells())) == 2

    def test_list_axes_equal_tuple_axes(self):
        lists = GridSpec(benchmarks=["a", "b"], gcs=["x"], heaps=[1],
                         youngs=[None], seeds=[0, 1])
        tuples = GridSpec(benchmarks=("a", "b"), gcs=("x",), heaps=(1,),
                          youngs=(None,), seeds=(0, 1))
        assert lists == tuples and hash(lists) == hash(tuples)
        assert lists.benchmarks == ("a", "b")

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(benchmarks=[], gcs=["x"])

    def test_all_empty_axes_rejected(self):
        # Empty youngs/seeds used to silently yield a zero-cell grid.
        base = dict(benchmarks=["a"], gcs=["x"], heaps=[1],
                    youngs=[None], seeds=[0])
        for axis in base:
            kw = dict(base)
            kw[axis] = []
            with pytest.raises(ConfigError, match=axis):
                GridSpec(**kw)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(benchmarks=["a"], iterations=0)


class TestRunGrid:
    def test_all_cells_present(self, small_grid):
        assert len(small_grid.runs) == small_grid.spec.size == 8

    def test_keys_normalized(self, small_grid):
        key = next(iter(small_grid.runs))
        assert key.gc in ("ParallelOldGC", "SerialGC")
        assert key.heap == 1 * GB
        assert key.young == 256 * MB

    def test_select_filters(self, small_grid):
        cells = small_grid.select(benchmark="batik", gc="SerialGC")
        assert len(cells) == 2  # two seeds
        assert all(k.benchmark == "batik" for k, _r in cells)

    def test_mean_exec(self, small_grid):
        m = small_grid.mean_exec("lusearch", gc="ParallelOldGC")
        assert m > 0

    def test_mean_exec_no_match_rejected(self, small_grid):
        with pytest.raises(ConfigError):
            small_grid.mean_exec("nonexistent")

    def test_winners_ranking(self, small_grid):
        ranking = small_grid.winners()
        assert ranking.total_experiments == 4  # 2 benchmarks x 2 seeds
        assert sum(ranking.wins.values()) == 4

    def test_pause_summary_per_gc(self, small_grid):
        summary = small_grid.pause_summary()
        assert set(summary) == {"ParallelOldGC", "SerialGC"}
        assert summary["SerialGC"]["runs"] == 4

    def test_crashing_benchmark_recorded_not_raised(self):
        spec = GridSpec(benchmarks=["eclipse"], gcs=["Serial"], heaps=["1g"],
                        iterations=2)
        grid = run_grid(spec)
        assert len(grid.crashed_cells()) == 1
        assert grid.winners().total_experiments == 0

    def test_progress_callback(self):
        seen = []
        spec = GridSpec(benchmarks=["batik"], gcs=["Serial"], heaps=["1g"],
                        iterations=2)
        run_grid(spec, progress=seen.append)
        assert len(seen) == 1 and isinstance(seen[0], CellKey)

    def test_values_metric(self, small_grid):
        pauses = small_grid.values(lambda r: r.gc_log.count, benchmark="lusearch")
        assert len(pauses) == 4

    def test_unknown_benchmark_still_raises(self):
        spec = GridSpec(benchmarks=["no-such-benchmark"], gcs=["Serial"],
                        heaps=["1g"], iterations=1)
        with pytest.raises(ConfigError):
            run_grid(spec)


class TestExecutorInjection:
    """run_grid delegates to run_cell + executor; results stay identical."""

    def test_process_executor_matches_serial(self, small_grid):
        from repro.campaign import ProcessExecutor

        parallel = run_grid(small_grid.spec, executor=ProcessExecutor(workers=2))
        assert parallel.runs == small_grid.runs
        assert parallel.to_rows() == small_grid.to_rows()

    def test_campaign_matches_serial_run_grid(self, small_grid):
        from repro.campaign import CampaignSpec, run_campaign

        campaign = run_campaign(CampaignSpec("det", [small_grid.spec]),
                                executor="process", workers=2)
        assert campaign.grid(0).runs == small_grid.runs
        assert campaign.grid(0).winners().ordered() == small_grid.winners().ordered()

    def test_progress_callback_with_executor(self):
        from repro.campaign import ProcessExecutor

        seen = []
        spec = GridSpec(benchmarks=["batik"], gcs=["Serial"], heaps=["1g"],
                        youngs=["256m"], iterations=2)
        run_grid(spec, progress=seen.append, executor=ProcessExecutor(workers=1))
        assert len(seen) == 1 and isinstance(seen[0], CellKey)


class TestSerialization:
    def test_run_result_to_dict(self, small_grid):
        run = next(iter(small_grid.runs.values()))
        d = run.to_dict()
        assert d["gc"] in ("ParallelOldGC", "SerialGC")
        assert d["gc_log"]["pauses"] == run.gc_log.count
        import json
        json.dumps(d)  # must be JSON-serializable

    def test_grid_to_rows_sorted_and_complete(self, small_grid):
        from repro.studies import GRID_CSV_COLUMNS

        rows = small_grid.to_rows()
        assert len(rows) == len(small_grid.runs)
        assert all(len(r) == len(GRID_CSV_COLUMNS) for r in rows)
        keys = [(r[0], r[1], r[4]) for r in rows]
        assert keys == sorted(keys)

    def test_grid_to_csv(self, small_grid, tmp_path):
        import csv

        path = tmp_path / "grid.csv"
        small_grid.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "benchmark"
        assert len(rows) == len(small_grid.runs) + 1
