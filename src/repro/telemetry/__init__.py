"""JFR-style telemetry: event tracing, HDR histograms, exporters.

The observability subsystem of the simulated JVM (DESIGN.md §11):

* :mod:`~repro.telemetry.tracer` — typed emission hooks; instrumented
  code holds a ``tracer`` attribute that defaults to the zero-cost
  :data:`~repro.telemetry.tracer.NULL_TRACER`;
* :mod:`~repro.telemetry.hist` — the fixed-precision
  :class:`LogHistogram` behind every pause/latency percentile;
* :mod:`~repro.telemetry.ring` — the bounded event buffer (tracing never
  grows without bound, drops are counted);
* :mod:`~repro.telemetry.export` — JSONL traces, Chrome ``trace_event``
  JSON (Perfetto-openable) and text reports, used by ``repro-trace``;
* :mod:`~repro.telemetry.metrics` — counters/gauges/histogram registry
  behind the ``repro-serve`` status endpoint (DESIGN.md §13).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": ("TraceEvent",),
    ".hist": ("LogHistogram", "percentile_rows"),
    ".ring": ("EventRing",),
    ".tracer": ("NULL_TRACER", "NullTracer", "Tracer"),
    ".export": ("Trace", "read_trace", "render_diff", "render_report",
                "to_chrome", "validate_chrome", "write_chrome",
                "write_trace"),
    ".metrics": ("Counter", "Gauge", "MetricsRegistry"),
})
