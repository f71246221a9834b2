"""X6 — LBO cost distillation over the modern Table-8 roster.

Extends the paper's closing qualitative comparison into the
fully-concurrent era using the Distilling-the-Real-Cost methodology
(see ``repro.analysis.lbo``): each collector's execution time over a
heap-size ladder is divided by an ideal no-GC baseline (EpsilonGC) and
the minimum overhead across heaps is its distilled cost.

Expected shape: ZGC and Shenandoah pay a bounded single-digit-to-low-
double-digit throughput tax for pause tails orders of magnitude below
ParallelOld's — P99.9 in the low milliseconds instead of hundreds.

The collector roster comes from the registry (``TABLE8_GC_NAMES``), so
a newly registered production collector joins this grid automatically;
the guard below fails the bench if one escapes every roster instead.
"""

from repro.analysis.lbo import LBOConfig, run_lbo_study
from repro.campaign import ResultStore
from repro.gc import ALL_GC_NAMES, GC_NAMES, TABLE8_GC_NAMES

from common import campaign_opts, emit, once, quick_or_full

HEAPS = quick_or_full(("8g", "16g"), ("4g", "8g", "16g", "32g"))
SEEDS = quick_or_full((1, 2), (1, 2, 3))
ITERATIONS = quick_or_full(4, 6)


def run_experiment():
    config = LBOConfig(benchmarks=("xalan",), gcs=tuple(TABLE8_GC_NAMES),
                       heaps=HEAPS, seeds=SEEDS, iterations=ITERATIONS)
    opts = campaign_opts()
    store = ResultStore(str(opts["store"])) if opts else None
    return run_lbo_study(config, store=store)


def test_x6_lbo_modern(benchmark):
    # Every production collector must sit in some bench roster: the
    # paper six run the figure grids, the Table-8 set runs here.
    assert set(ALL_GC_NAMES) <= set(GC_NAMES) | set(TABLE8_GC_NAMES)

    result = once(benchmark, run_experiment)
    emit("x6_lbo_modern", result.render())

    assert result.ranking() == sorted(
        result.ranking(), key=lambda g: (result.distillate(g).lbo is None,
                                         result.distillate(g).lbo or 0.0, g))
    po = result.distillate("ParallelOld")
    assert po.crashed_cells == 0
    for gc in ("ZGC", "ShenandoahGC"):
        d = result.distillate(gc)
        assert d.crashed_cells == 0
        # The headline Distilling result, asserted on pause statistics
        # because they are immune to the per-invocation run noise: the
        # concurrent collectors' tails sit orders of magnitude below
        # ParallelOld's.
        assert d.pauses.percentiles["p99.9"] < po.pauses.percentiles["p99.9"] / 10
        assert d.pauses.max < po.pauses.max / 10
        # ...and the distilled throughput cost stays bounded.
        assert d.lbo is not None and 0.0 <= d.lbo < 0.5
