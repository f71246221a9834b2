"""Analysis: the statistics behind every table and figure in the paper.

Each module maps to one artefact family:

* :mod:`~repro.analysis.stability` — Table 2 (benchmark-selection RSDs);
* :mod:`~repro.analysis.pauses`    — Table 3, Figures 1 & 4 (pause stats);
* :mod:`~repro.analysis.tlab`      — Table 4 (TLAB influence + / = / −);
* :mod:`~repro.analysis.ranking`   — Figure 3 (GC ranking by wins);
* :mod:`~repro.analysis.latency`   — Tables 5-7 (latency band statistics);
* :mod:`~repro.analysis.summary`   — Table 8 (qualitative GC summary);
* :mod:`~repro.analysis.lbo`       — LBO cost distillation (min-over-heaps
  overhead vs an ideal no-GC baseline, ``repro-lbo``);
* :mod:`~repro.analysis.report`    — plain-text table / series rendering.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".stability": ("rsd", "stability_table"),
    ".pauses": ("PauseStats", "pause_stats", "pause_scatter",
                "heap_occupancy_series", "inter_pause_intervals",
                "pause_percentiles"),
    ".tlab": ("TLABInfluence", "classify_tlab"),
    ".ranking": ("RankingResult", "rank_by_wins"),
    ".latency": ("LatencyBandStats", "LatencySummary", "latency_band_stats",
                 "gc_overlap_fraction"),
    ".summary": ("GCVerdict", "qualitative_summary"),
    ".lbo": ("IDEAL_GC", "LBOConfig", "LBOStudyResult", "run_lbo_study"),
    ".study": ("nearest_rank",),
    ".report": ("render_table", "render_series"),
    ".ascii_plot": ("scatter_plot",),
})
