"""Experiment-grid orchestration: the paper's methodology as an API.

The paper's §3 experiments are all grids: {benchmark} × {heap size} ×
{young size} × {collector} (× {TLAB} × {system GC}), each cell a full JVM
run. :func:`run_grid` executes such a grid and returns a
:class:`GridResult` with filtering and aggregation helpers, so downstream
users can script their own studies (the ranking of Figure 3, for
instance, is ``grid.winners()``).

Example::

    from repro.studies import GridSpec, run_grid
    grid = run_grid(GridSpec(
        benchmarks=["xalan", "h2"],
        gcs=["ParallelOld", "G1"],
        heaps=["16g", "64g"],
        seeds=[0, 1],
    ))
    print(grid.mean_exec("xalan", gc="G1GC"))
    print(grid.winners().ordered())
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis.ranking import RankingResult, rank_by_wins
from .errors import ConfigError
from .jvm import RunResult


@dataclass(frozen=True)
class GridSpec:
    """Specification of an experiment grid (paper §3.1 methodology).

    Each axis is stored as a tuple, whatever sequence it was given as, so
    a spec is a hashable value and a list the caller changes later does
    not change its cells.
    """

    benchmarks: Sequence[str]
    gcs: Sequence[str] = ("ParallelOld",)
    heaps: Sequence = ("16g",)
    #: Young sizes; ``None`` entries mean the default fraction of the heap.
    youngs: Sequence = (None,)
    seeds: Sequence[int] = (0,)
    iterations: int = 10
    system_gc: bool = True
    tlab_enabled: bool = True

    def __post_init__(self) -> None:
        # Every axis must be non-empty: an empty `youngs` or `seeds` would
        # silently make the product zero cells, not fail loudly.
        for axis in ("benchmarks", "gcs", "heaps", "youngs", "seeds"):
            values = tuple(getattr(self, axis))
            if not values:
                raise ConfigError(f"grid axis {axis!r} must be non-empty")
            object.__setattr__(self, axis, values)
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")

    def cells(self):
        """Iterate (benchmark, gc, heap, young, seed) tuples."""
        return itertools.product(
            self.benchmarks, self.gcs, self.heaps, self.youngs, self.seeds
        )

    @property
    def size(self) -> int:
        """Number of runs the grid requires."""
        return (len(self.benchmarks) * len(self.gcs) * len(self.heaps)
                * len(self.youngs) * len(self.seeds))


@dataclass(frozen=True)
class CellKey:
    """Identity of one grid cell."""

    benchmark: str
    gc: str
    heap: float
    young: Optional[float]
    seed: int


@dataclass
class GridResult:
    """All runs of a grid, with filtering and aggregation helpers."""

    spec: GridSpec
    runs: Dict[CellKey, RunResult] = field(default_factory=dict)

    # -- filtering ------------------------------------------------------

    def select(self, **criteria) -> List[Tuple[CellKey, RunResult]]:
        """Cells matching all keyword criteria (benchmark/gc/heap/young/seed)."""
        out = []
        for key, run in self.runs.items():
            if all(getattr(key, k) == v for k, v in criteria.items()):
                out.append((key, run))
        return out

    def values(self, metric: Callable[[RunResult], float], **criteria) -> np.ndarray:
        """Metric values over the matching cells."""
        return np.array([metric(run) for _k, run in self.select(**criteria)])

    # -- aggregates -------------------------------------------------------

    def mean_exec(self, benchmark: str, **criteria) -> float:
        """Mean execution time for a benchmark (over seeds and sizes)."""
        vals = self.values(lambda r: r.execution_time,
                           benchmark=benchmark, **criteria)
        if vals.size == 0:
            raise ConfigError(f"no cells match {benchmark!r} / {criteria!r}")
        return float(vals.mean())

    def crashed_cells(self) -> List[CellKey]:
        """Cells whose run crashed."""
        return [k for k, r in self.runs.items() if r.crashed]

    def winners(self) -> RankingResult:
        """Figure 3-style ranking: per (benchmark, heap, young, seed)
        experiment, which collector had the shortest execution time."""
        experiments: Dict[Tuple, Dict[str, float]] = {}
        for key, run in self.runs.items():
            if run.crashed:
                continue
            exp = (key.benchmark, key.heap, key.young, key.seed)
            experiments.setdefault(exp, {})[key.gc] = run.execution_time
        experiments = {k: v for k, v in experiments.items() if v}
        return rank_by_wins(experiments)

    def to_rows(self) -> List[List]:
        """Flat result rows (column order: :data:`GRID_CSV_COLUMNS`)."""
        rows = []
        for key in sorted(self.runs, key=lambda k: (k.benchmark, k.gc, k.heap,
                                                    k.young or 0.0, k.seed)):
            run = self.runs[key]
            rows.append([
                key.benchmark, key.gc, key.heap, key.young, key.seed,
                run.execution_time, run.final_iteration_time, run.crashed,
                run.gc_log.count, run.gc_log.full_count,
                run.gc_log.total_pause, run.gc_log.max_pause,
            ])
        return rows

    def to_csv(self, path) -> None:
        """Write the grid as a CSV file (stdlib csv; no pandas needed)."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(GRID_CSV_COLUMNS)
            writer.writerows(self.to_rows())

    def pause_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-collector pause aggregates across the whole grid."""
        out: Dict[str, Dict[str, float]] = {}
        for key, run in self.runs.items():
            if run.crashed:
                continue
            agg = out.setdefault(key.gc, {"max_pause": 0.0, "total_pause": 0.0,
                                          "pauses": 0.0, "runs": 0.0})
            agg["max_pause"] = max(agg["max_pause"], run.gc_log.max_pause)
            agg["total_pause"] += run.gc_log.total_pause
            agg["pauses"] += run.gc_log.count
            agg["runs"] += 1
        return out


GRID_CSV_COLUMNS = [
    "benchmark", "gc", "heap", "young", "seed",
    "execution_time", "final_iteration_time", "crashed",
    "pauses", "full_pauses", "total_pause", "max_pause",
]


def run_grid(spec: GridSpec, progress: Optional[Callable[[CellKey], None]] = None,
             executor=None, **config_overrides) -> GridResult:
    """Execute every cell of *spec* and collect the results.

    Crashing benchmarks (e.g. *eclipse*) are recorded as crashed runs, not
    raised. ``config_overrides`` are forwarded into every
    :class:`~repro.jvm.flags.JVMConfig`.

    Each cell runs through :func:`repro.campaign.cells.run_cell`;
    *executor* (any :mod:`repro.campaign.executors` instance) chooses
    where. The default serial executor preserves the historical strictly-
    sequential behaviour and results exactly; a
    :class:`~repro.campaign.executors.ProcessExecutor` fans cells out
    across cores and — because every cell seeds its RNG streams from its
    own coordinates — yields a bit-identical :class:`GridResult`. For
    caching and resumability on top, see :func:`repro.campaign.run_campaign`.
    """
    from .campaign.cells import CellSpec, run_cell
    from .campaign.executors import CellFailure, SerialExecutor

    if executor is None:
        executor = SerialExecutor()
    cells = [
        CellSpec.from_axes(
            benchmark, gc, heap, young, seed,
            iterations=spec.iterations, system_gc=spec.system_gc,
            tlab_enabled=spec.tlab_enabled, overrides=config_overrides,
        )
        for benchmark, gc, heap, young, seed in spec.cells()
    ]
    on_submit = (lambda cell: progress(cell.key())) if progress is not None else None
    result = GridResult(spec=spec)
    for cell, outcome in executor.run_cells(cells, run_cell, on_submit=on_submit):
        if isinstance(outcome, CellFailure):
            # Preserve the historical contract: infrastructure errors
            # (unknown benchmark, bad override, dead worker) raise.
            if outcome.exc is not None:
                raise outcome.exc
            raise ConfigError(outcome.format())
        result.runs[cell.key()] = outcome
    return result
