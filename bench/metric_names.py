"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same names; the
tests check that the two agree.
"""

#: Collectors of the cassandra-stress and ycsb-client workloads.
STRESS_GCS = ("ParallelOld", "CMS", "G1", "ZGC", "Shenandoah")
YCSB_GCS = ("ParallelOld", "CMS", "G1")

#: Measured untraced on every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Reported by a traced run, on every workload (0 where a workload does
#: not exercise the layer).
PER_LAYER = {
    # Workload-specific views of the untraced run.
    "cold_cells_per_s": "1/s", "warm_cells_per_s": "1/s",
    "sim_s_per_host_s": "s/s", "client_ops_per_s": "1/s",
    "hit_p50_ms": "ms", "miss_p50_ms": "ms", "failed_frac": "frac",
    "serve.hit_p99_ms": "ms", "serve.miss_p95_ms": "ms",
    "serve.miss_queued_ms": "ms", "serve.miss_exec_ms": "ms",
    "serve.miss_overhead_ms": "ms", "serve.gen_late_p50_ms": "ms",
    "serve.gen_late_max_ms": "ms",
    # cProfile self time rolled up by package.
    **{f"{p}.self_s": "s" for p in (
        "sim", "heap", "gc", "jvm", "machine", "workloads", "cassandra",
        "ycsb", "analysis", "campaign", "serve", "telemetry", "builtin",
        "other")},
    "profile.total_s": "s",
    # Exact counts.
    "sim.engine_events": "count", "gc.pauses": "count",
    "heap.batch_live_bytes.calls": "count",
    "heap.integrated_survival.calls": "count",
    "heap.remset_record.calls": "count", "gc.g1_evacuate_old.calls": "count",
    "telemetry.events": "count", "sim.events_per_host_s": "1/s",
    # Spans around public calls.
    "jvm.construct_s": "s", "jvm.run_s": "s",
    **{f"jvm.run_s.{gc}": "s" for gc in STRESS_GCS},
    **{f"ycsb.client_run_s.{gc}": "s" for gc in YCSB_GCS},
    "analysis.band_stats_s": "s",
    "campaign.run_cell_s": "s", "campaign.encode_s": "s",
    "campaign.store_append_s": "s", "campaign.store_get_s": "s",
    # Observability overheads.
    "overhead.tracer_frac": "frac", "overhead.auditor_frac": "frac",
    "overhead.fastpath_off_frac": "frac", "overhead.profile_frac": "frac",
}

#: Every metric a workload's untraced run prints, end-to-end ones first.
UNITS = {**END_TO_END, **PER_LAYER}
