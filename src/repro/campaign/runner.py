"""Campaign orchestration: cache, execute, retry, quarantine, assemble.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into per-
grid :class:`~repro.studies.GridResult`s:

1. **Cache pass** — every cell's content digest is looked up in the
   :class:`~repro.campaign.store.ResultStore`; hits are decoded and never
   re-simulated.
2. **Execute** — misses fan out through the chosen executor. Completed
   cells are flushed to the store *as they arrive* (fsync per record), so
   interruption loses at most in-flight cells.
3. **Retry & quarantine** — cells whose *worker* failed (raised, timed
   out, or died — distinct from simulated-JVM crashes, which are ordinary
   ``crashed`` results) are retried up to ``retries`` times, then
   quarantined: recorded as failures in the store, excluded from the
   ``GridResult``, reported in :class:`CampaignStats`.

Determinism: cells are keyed and seeded by their own coordinates, and
results are assembled in spec order, so serial and N-worker campaigns
produce identical ``GridResult``s (asserted in ``tests/test_campaign.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..errors import ConfigError
from ..jvm import RunResult
from ..studies import GridResult
from ..units import check_budget
from .cells import CellSpec, run_cell
from .executors import CellFailure, get_executor
from .progress import ProgressReporter
from .spec import CampaignSpec
from .store import ResultStore


@dataclass
class CampaignStats:
    """Bookkeeping for one campaign run."""

    total: int = 0          #: cells in the spec (duplicates counted once)
    simulated: int = 0      #: cells actually executed this run
    cached: int = 0         #: cells served from the store
    retried: int = 0        #: retry attempts spent on failing cells
    quarantined: int = 0    #: cells given up on after retries

    @property
    def completed(self) -> int:
        """Cells with a usable result."""
        return self.simulated + self.cached

    def summary(self) -> str:
        """One-line, grep-stable summary (CI asserts on this format)."""
        return (
            f"cells: simulated {self.simulated}, cached {self.cached}/{self.total}, "
            f"retried {self.retried}, quarantined {self.quarantined}"
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    grids: List[GridResult]
    stats: CampaignStats
    quarantined: List[CellFailure] = field(default_factory=list)

    def grid(self, index: int = 0) -> GridResult:
        """The *index*-th grid's result."""
        return self.grids[index]

    def to_rows(self) -> List[List]:
        """All grids' rows, concatenated in grid order."""
        rows: List[List] = []
        for grid in self.grids:
            rows.extend(grid.to_rows())
        return rows

    def to_csv(self, path) -> None:
        """Write every grid's rows as one CSV."""
        import csv

        from ..studies import GRID_CSV_COLUMNS

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(GRID_CSV_COLUMNS)
            writer.writerows(self.to_rows())


def run_campaign(spec: CampaignSpec, *,
                 store: Optional[Union[ResultStore, str]] = None,
                 executor: Union[str, object] = "serial",
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 reporter: Optional[ProgressReporter] = None,
                 trace_dir: Optional[str] = None) -> CampaignResult:
    """Run (or resume) *spec* and return its :class:`CampaignResult`.

    *store* may be a :class:`ResultStore`, a directory path, or None for
    a purely in-memory run (no caching, no resumability). *executor* is
    an executor name (``serial``/``process``) or a ready instance;
    *workers* sizes the process pool (default: one per core). With
    *trace_dir*, every simulated cell also writes a telemetry trace to
    ``<trace_dir>/<digest>.trace.jsonl`` (cache hits don't re-trace —
    re-run after ``clean`` to trace everything).
    """
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    check_budget("timeout", timeout)
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store)
    if isinstance(executor, str):
        executor = get_executor(executor, workers=workers)

    per_grid_cells = spec.cell_specs()
    # Unique cells in first-appearance order: duplicated coordinates
    # (across grids, or within one) simulate once and fan back out.
    unique: Dict[str, CellSpec] = {}
    for cells in per_grid_cells:
        for cell in cells:
            unique.setdefault(cell.digest(), cell)

    stats = CampaignStats(total=len(unique))
    if reporter is not None:
        reporter.total = stats.total
        reporter.start()
    if store is not None:
        store.register_campaign({
            "name": spec.name,
            "digest": spec.digest(),
            "spec": spec.to_dict(),
            "cells": stats.total,
        })

    # -- cache pass -----------------------------------------------------
    results: Dict[str, RunResult] = {}
    pending: List[CellSpec] = []
    for digest, cell in unique.items():
        hit = store.get_run(digest) if store is not None else None
        if hit is not None:
            results[digest] = hit
            stats.cached += 1
            if reporter is not None:
                reporter.advance(cached=True)
        else:
            pending.append(cell)

    # -- execute with bounded retries ----------------------------------
    if trace_dir is not None:
        # functools.partial keeps the cell function picklable for the
        # process executor (a lambda would not ship to workers).
        cell_fn = functools.partial(run_cell, trace_dir=trace_dir)
    else:
        cell_fn = run_cell
    quarantined: List[CellFailure] = []
    attempt = 0
    while pending:
        failures: List[CellFailure] = []
        for cell, outcome in executor.run_cells(pending, cell_fn, timeout=timeout):
            if isinstance(outcome, CellFailure):
                failures.append(outcome)
                continue
            digest = cell.digest()
            results[digest] = outcome
            stats.simulated += 1
            if store is not None:
                store.record_ok(cell, outcome)
            if reporter is not None:
                reporter.advance()
        if not failures:
            break
        if attempt >= retries:
            for failure in failures:
                quarantined.append(failure)
                stats.quarantined += 1
                if store is not None:
                    store.record_cell_failure(failure, attempts=attempt + 1)
                if reporter is not None:
                    reporter.advance(failed=True)
            break
        stats.retried += len(failures)
        pending = [f.cell for f in failures]
        attempt += 1
    if reporter is not None:
        reporter.finish()

    # -- assemble per-grid results in spec order ------------------------
    grids: List[GridResult] = []
    for grid_spec, cells in zip(spec.grids, per_grid_cells):
        grid = GridResult(spec=grid_spec)
        for cell in cells:
            run = results.get(cell.digest())
            if run is not None:
                grid.runs[cell.key()] = run
        grids.append(grid)
    return CampaignResult(spec=spec, grids=grids, stats=stats,
                          quarantined=quarantined)
