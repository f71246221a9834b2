"""Profiling and optimization layer for the simulator core.

Two halves:

* :mod:`repro.perf.fastpath` — the ``REPRO_FASTPATH`` kill switch for the
  lockstep group spans of the DaCapo harness and the Cassandra server.
  Import-light on purpose: the hot path reads one module global.
* :mod:`repro.perf.profile` / :mod:`repro.perf.report` — the ``repro-perf``
  CLI: cProfile a simulated run, fold in tracer-derived event-rate stats,
  and print a hot-spot report.

The fast path is an *optimization*, never a model change: with
``REPRO_FASTPATH=0`` and ``=1`` the same seed must produce byte-identical
GC logs, traces and campaign digests (pinned by ``tests/test_perf.py``;
invariants catalogued in DESIGN.md §12).
"""

from .fastpath import enabled, set_enabled

__all__ = ["enabled", "set_enabled"]
