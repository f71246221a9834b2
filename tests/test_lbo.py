"""LBO cost distillation: config validation, determinism, caching.

The micro-grid used here (2 collectors x 3 heaps x 2 seeds on xalan,
18 cells with the implicit EpsilonGC baseline) is the same recipe the
CI ``study-smoke`` job runs, so these tests and the workflow enforce the
same contract: 100% cache hits on a rerun and byte-identical JSON.
"""

import json

import pytest

from repro.analysis.lbo import (IDEAL_GC, LBOConfig, LBOStudyResult,
                                nearest_rank, run_lbo_study)
from repro.campaign.store import ResultStore
from repro.errors import ConfigError
from repro.units import GB, MB


MICRO = dict(benchmarks=("xalan",), gcs=("ParallelOld", "ZGC"),
             heaps=("4g", "8g", "16g"), seeds=(1, 2), iterations=4)


class TestNearestRank:
    def test_empty(self):
        assert nearest_rank([], 99.0) == 0.0

    def test_single(self):
        assert nearest_rank([7.0], 50.0) == 7.0
        assert nearest_rank([7.0], 99.9) == 7.0

    def test_textbook(self):
        # Nearest-rank on 10 sorted values: P50 -> 5th value (k=4).
        vals = [float(i) for i in range(1, 11)]
        assert nearest_rank(vals, 50.0) == 5.0
        assert nearest_rank(vals, 90.0) == 9.0
        assert nearest_rank(vals, 99.0) == 10.0
        assert nearest_rank(vals, 100.0) == 10.0

    def test_no_interpolation(self):
        # Byte-stability requirement: the result is always a member of
        # the input, never an interpolated float.
        vals = [0.1, 0.2, 0.7]
        for q in (1.0, 33.0, 50.0, 66.0, 90.0, 99.9):
            assert nearest_rank(vals, q) in vals


class TestLBOConfig:
    def test_empty_axes_rejected(self):
        for field in ("benchmarks", "gcs", "heaps", "seeds"):
            with pytest.raises(ConfigError):
                LBOConfig(**{**MICRO, field: ()})

    def test_ideal_gc_rejected_in_gcs(self):
        with pytest.raises(ConfigError):
            LBOConfig(**{**MICRO, "gcs": ("ZGC", "EpsilonGC")})

    def test_unknown_gc_rejected(self):
        with pytest.raises(ConfigError):
            LBOConfig(**{**MICRO, "gcs": ("TrainGC",)})

    def test_heaps_parsed_and_sorted(self):
        config = LBOConfig(**{**MICRO, "heaps": ("16g", "4g", "8g")})
        assert config.heaps == (4 * GB, 8 * GB, 16 * GB)

    def test_gc_aliases_resolve(self):
        config = LBOConfig(**{**MICRO, "gcs": ("zgc", "shenandoah")})
        assert config.gcs == ("ZGC", "ShenandoahGC")

    def test_cell_count(self):
        config = LBOConfig(**MICRO)
        # (2 collectors + ideal baseline) x 1 benchmark x 3 heaps x 2 seeds
        assert len(list(config.cells())) == 18


class TestStudy:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ResultStore(str(tmp_path_factory.mktemp("lbo-store")))

    @pytest.fixture(scope="class")
    def cold(self, store):
        return run_lbo_study(LBOConfig(**MICRO), store=store)

    def test_cold_run_has_no_hits(self, cold):
        assert cold.cells_total == 18
        assert cold.cache_hits == 0

    def test_warm_run_is_all_hits_and_byte_identical(self, store, cold):
        warm = run_lbo_study(LBOConfig(**MICRO), store=store)
        assert warm.cache_hits == warm.cells_total == 18
        assert warm.to_json() == cold.to_json()

    def test_cache_accounting_not_in_json(self, cold):
        payload = json.loads(cold.to_json())
        assert "cache_hits" not in payload
        assert "cells_total" not in payload

    def test_ranking_reproduces_distilling_result(self, cold):
        """ZGC's pause tail sits orders of magnitude below ParallelOld's
        (the ranking itself orders by LBO; pause percentiles carry the
        noise-immune qualitative result the CI smoke job asserts)."""
        zgc = cold.distillate("ZGC")
        po = cold.distillate("ParallelOld")
        assert zgc.pauses.percentiles["p99.9"] < po.pauses.percentiles["p99.9"]
        assert zgc.pauses.max < po.pauses.max / 10

    def test_lbo_floor_and_heap(self, cold):
        for d in cold.distillates:
            if d.lbo is not None:
                assert d.lbo >= 0.0
                assert d.lbo_heap in cold.config.heaps
                assert d.lbo == pytest.approx(
                    max(0.0, min(v for v in d.overheads.values()
                                 if v is not None)))

    def test_ranking_order(self, cold):
        lbos = [cold.distillate(gc).lbo for gc in cold.ranking()]
        valid = [v for v in lbos if v is not None]
        assert valid == sorted(valid)

    def test_json_round_trip(self, cold):
        clone = LBOStudyResult.from_dict(json.loads(cold.to_json()))
        assert clone.to_json() == cold.to_json()
        assert clone.render() == cold.render()

    def test_render_mentions_every_collector(self, cold):
        table = cold.render()
        for gc in ("ZGC", "ParallelOldGC", IDEAL_GC):
            assert (gc in table) == (gc != IDEAL_GC)


class TestCrashedCells:
    def test_crashes_cached_and_reported(self, tmp_path):
        """xalan's live set does not fit 64m, so ZGC dies of
        OutOfMemoryError; the crash is cached (a crash at these
        coordinates is deterministic) and the 64m rung is excluded from
        the min-over-heaps."""
        config = LBOConfig(benchmarks=("xalan",), gcs=("ZGC",),
                           heaps=("64m", "16g"), seeds=(1,), iterations=3)
        store = ResultStore(str(tmp_path))
        cold = run_lbo_study(config, store=store)
        d = cold.distillates[0]
        assert d.crashed_cells > 0
        assert d.overheads["%.0f" % (64 * MB)] is None
        assert d.lbo_heap == 16 * GB
        warm = run_lbo_study(config, store=store)
        assert warm.cache_hits == warm.cells_total
        assert warm.to_json() == cold.to_json()
