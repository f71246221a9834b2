"""Studies over cached campaign cells: the scaffold the LBO, energy and
fleet studies share (DESIGN.md §15.3).

The LBO and energy configs list their campaign cells once, in order
(``config.cells()``); :func:`serve_cells` serves each from a shared
:class:`~repro.campaign.store.ResultStore` or runs and records it, and
the study folds the runs in that order, so a cached rerun writes the
same JSON bytes. The fleet serves its calibration cells through
:func:`serve_cell`. The studies do not use ``run_campaign``: it registers
a manifest entry, retries and quarantines a raised error, and holds one
set of overrides per campaign, where the energy study varies topology
and placement per cell.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted *sorted_values*.

    ``k = ceil(q/100 * n) - 1`` (0-indexed, clamped) — always an actual
    sample, never an interpolation, so the study JSON stays byte-stable
    across platforms. Returns 0.0 for an empty list.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    k = max(0, math.ceil(q / 100.0 * n) - 1)
    return sorted_values[min(k, n - 1)]


@dataclass
class PauseTail:
    """Pooled pause durations (seconds): count, percentiles, max."""

    count: int = 0
    #: ``"p99.9"`` -> nearest-rank percentile.
    percentiles: Dict[str, float] = field(default_factory=dict)
    max: float = 0.0

    @classmethod
    def of(cls, durations: Sequence[float], qs) -> "PauseTail":
        """The tail of *durations* at the percentiles *qs*."""
        durations = sorted(durations)
        return cls(count=len(durations),
                   percentiles={f"p{q:g}": nearest_rank(durations, q)
                                for q in qs},
                   max=durations[-1] if durations else 0.0)

    def to_dict(self) -> Dict[str, object]:
        """The study JSON's ``pauses`` block; ``PauseTail(**block)`` is
        its inverse."""
        return {"count": self.count,
                "percentiles": {k: round(v, 9)
                                for k, v in self.percentiles.items()},
                "max": round(self.max, 9)}


@dataclass(frozen=True)
class Axis:
    """One grid axis: its config field, the noun an error names it by,
    how one value normalises, and whether the axis is sorted."""

    name: str
    noun: str
    normalise: Callable[[object], object] = str
    sort: bool = False


def normalise_axes(config, study: str, axes: Sequence[Axis]) -> None:
    """Set each axis of the frozen *config* to its normalised tuple.
    Refuses an empty axis, and a value that repeats after normalisation:
    the grid would run its cells again and the fold count them twice."""
    for axis in axes:
        raw = tuple(getattr(config, axis.name))
        if not raw:
            raise ConfigError(f"{study} needs at least one {axis.noun}")
        values = [axis.normalise(v) for v in raw]
        if len(set(values)) < len(values):
            raise ConfigError(
                f"{study} lists a {axis.noun} twice: {list(raw)}")
        object.__setattr__(config, axis.name,
                           tuple(sorted(values) if axis.sort else values))


class GridConfig:
    """Mixin for a flat study config (LBO, energy): every field is a
    plain value or a tuple of them, ``AXES`` names the grid's axes and
    ``STUDY`` the study in error messages."""

    STUDY: str
    AXES: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        normalise_axes(self, self.STUDY, self.AXES)

    def cell(self, gc: str, benchmark: str, heap: float, seed: int,
             **overrides) -> "CellSpec":
        """The content-addressed identity of one study run. *overrides*
        (registered names, as the energy study's topology and placement)
        ride in the cell, so the digest stays a function of JSON scalars."""
        # Deferred: campaign.cells imports repro.analysis.
        from ..campaign.cells import CellSpec

        return CellSpec.from_axes(
            benchmark, gc, heap, None, seed, iterations=self.iterations,
            system_gc=self.system_gc, overrides=overrides)

    def echo(self) -> Dict[str, object]:
        """The config as the study JSON records it (tuples as lists)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in values.items()}

    @classmethod
    def from_echo(cls, d) -> "GridConfig":
        """The config from its :meth:`echo`, or from any mapping with a
        key per field (the ``run`` flags' namespace)."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


class StudyResult:
    """Mixin for a study result: its canonical JSON."""

    def to_json(self) -> str:
        """Byte-stable serialization (same config ⇒ identical bytes)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"


def serve_cell(cell, store=None, run=None) -> Tuple[object, bool]:
    """One cell's run, served from *store* when it holds the cell.

    Otherwise *run* (default: the campaign's ``run_cell``) runs it and
    the run, crashed or not, is recorded, so the next study is a pure
    cache run. Returns ``(run, was_cache_hit)``.
    """
    if store is not None:
        cached = store.get_run(cell.digest())
        if cached is not None:
            return cached, True
    if run is None:
        # Deferred: campaign.cells imports repro.analysis.
        from ..campaign.cells import run_cell
        run = run_cell
    result = run(cell)
    if store is not None:
        store.record_ok(cell, result)
    return result, False


def serve_cells(result, cells,
                store=None) -> Iterator[Tuple[object, object]]:
    """Each of *cells* with its run (:func:`serve_cell`), in order,
    counted into ``result.cache_hits`` and ``result.cells_total``."""
    for cell in cells:
        cell_run, hit = serve_cell(cell, store)
        result.cells_total += 1
        result.cache_hits += int(hit)
        yield cell, cell_run


def add_grid_flags(parser: argparse.ArgumentParser, config: type,
                   *axes: Tuple[str, dict]) -> None:
    """The ``run`` flags of a :class:`GridConfig` study, defaulting to
    its field defaults; each ``(flag, kwargs)`` of *axes* goes after
    ``--gcs``."""
    default = {f.name: f.default for f in fields(config)}
    parser.add_argument("--benchmarks", nargs="+",
                        default=list(default["benchmarks"]),
                        help="DaCapo benchmarks to study")
    parser.add_argument("--gcs", nargs="+", default=list(default["gcs"]),
                        help="collectors to study")
    for flag, kwargs in axes:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(default["seeds"]),
                        help="JVM invocations averaged per grid point")
    parser.add_argument("--iterations", type=int,
                        default=default["iterations"],
                        help="harness iterations per invocation")
    parser.add_argument("--system-gc", action="store_true",
                        help="force a full collection between iterations")


@dataclass(frozen=True)
class StudyCLI:
    """One study's command line: ``run`` (cache line, table, ``--out``),
    ``report``, and exit 2 with ``error: ...`` on stdout for a refused
    config.

    *add_flags* adds the study's flags to ``run``; *config* builds the
    study config from the parsed flags (a dict); *run* is
    ``run(config, store=...)``; *result* is the result class; *cached*
    names what the cache line counts; *extra* adds further subcommands
    as ``extra(subparsers, cli)``.
    """

    prog: str
    description: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    config: Callable[[Dict[str, object]], object]
    run: Callable
    result: type
    cached: str = "cells"
    extra: Optional[Callable] = None

    def parser(self) -> argparse.ArgumentParser:
        """The study's argument parser."""
        parser = argparse.ArgumentParser(prog=self.prog,
                                         description=self.description)
        sub = parser.add_subparsers(dest="command", required=True)
        run = sub.add_parser("run", help="run the study")
        self.add_flags(run)
        run.add_argument("--store", default=None, metavar="DIR",
                         help="campaign ResultStore for the study's cells")
        run.add_argument("--out", default=None, metavar="FILE",
                         help="write canonical study JSON here")
        run.set_defaults(func=self.cmd_run)
        report = sub.add_parser("report",
                                help="render the tables from a study JSON")
        report.add_argument("study", help="study JSON written by `run --out`")
        report.set_defaults(func=lambda args: print(
            self.load(args.study).render()))
        if self.extra is not None:
            self.extra(sub, self)
        return parser

    def cmd_run(self, args: argparse.Namespace) -> None:
        from ..campaign.store import ResultStore

        config = self.config(vars(args))
        store = ResultStore(args.store) if args.store else None
        result = self.run(config, store=store)
        print(f"{self.cached}: {result.cache_hits}/{result.cells_total} "
              "cache hits")
        print(result.render())
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(result.to_json())
            print(f"study written to {args.out}")

    def load(self, path: str):
        """The study result a ``run --out`` JSON holds. A file that cannot
        be read, is no JSON or holds another shape is a refused config."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        try:
            return self.result.from_dict(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path} is not a {self.prog} study "
                              f"({type(exc).__name__}: {exc})") from exc

    def main(self, argv: Optional[List[str]] = None) -> int:
        """Run one subcommand: exit 0, or 2 for a refused config."""
        args = self.parser().parse_args(argv)
        try:
            args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}")
            return 2
        return 0
