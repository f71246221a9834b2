"""``repro.serve`` — the async GC-experiment service (DESIGN.md §13).

Turns the campaign machinery into a long-running service: simulation
jobs arrive as newline-delimited JSON over a Unix socket or TCP, are
validated into canonical :class:`~repro.campaign.cells.CellSpec` cells,
deduplicated by content digest, served from the shared
:class:`~repro.campaign.store.ResultStore` cache when possible, and
otherwise executed on a supervised worker pool with retry-then-
quarantine :class:`~repro.campaign.executors.CellFailure` semantics.

* :mod:`~repro.serve.protocol` — the wire protocol (one JSON object per
  line) and its validation;
* :mod:`~repro.serve.service` — :class:`ExperimentService`: admission
  control, coalescing, caching, supervision, drain;
* :mod:`~repro.serve.client` — async pipelining client;
* :mod:`~repro.serve.loadgen` — open-loop YCSB-style load generator
  with Fig. 5-style client-latency band reporting;
* :mod:`~repro.serve.cli` — the ``repro-serve`` command.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".service": ("ExperimentService", "ServiceConfig"),
    ".client": ("ServiceClient",),
    ".loadgen": ("LoadConfig", "LoadReport", "run_load"),
    ".protocol": ("MAX_LINE_BYTES", "PROTOCOL_VERSION"),
})
