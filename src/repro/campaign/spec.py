"""Campaign specifications: a named set of grids plus config overrides.

A :class:`CampaignSpec` is the durable description of a sweep — what the
manifest records and what ``repro-campaign resume`` reloads. It is
deliberately value-like (frozen, hashable, JSON round-trippable): the
campaign *digest* identifies "the same sweep" across processes and
machines, while individual cell caching is finer-grained (per-cell
content digests), so two campaigns sharing cells share their cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..gc.registry import resolve_gc
from ..studies import CellKey, GridSpec
from .cells import CellSpec, _jsonable


@dataclass(frozen=True)
class CampaignSpec:
    """One named sweep: one or more grids, plus shared config overrides."""

    name: str
    grids: Tuple[GridSpec, ...]
    #: Extra ``JVMConfig`` kwargs applied to every cell (sorted items).
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __init__(self, name: str, grids: Sequence[GridSpec],
                 overrides: Optional[Mapping[str, object]] = None):
        if not name or not str(name).strip():
            raise ConfigError("campaign name must be non-empty")
        grids = tuple(grids)
        if not grids:
            raise ConfigError("a campaign needs at least one grid")
        for g in grids:
            if not isinstance(g, GridSpec):
                raise ConfigError(f"grids must be GridSpec instances, got {type(g).__name__}")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "overrides",
                           tuple(sorted((overrides or {}).items())))

    # -- cells ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of cells across all grids."""
        return sum(g.size for g in self.grids)

    def cell_specs(self) -> List[List[CellSpec]]:
        """Per-grid lists of canonical :class:`CellSpec`s, in grid order:
        expanded once per (immutable) instance and kept beside the fields
        like :meth:`CellSpec.digest`; every call returns fresh lists."""
        return [list(cells) for cells in self._expanded()]

    def _expanded(self) -> Tuple[Tuple[CellSpec, ...], ...]:
        expanded = self.__dict__.get("_cells")
        if expanded is None:
            overrides = dict(self.overrides)
            expanded = tuple(
                tuple(
                    CellSpec.from_axes(
                        benchmark, gc, heap, young, seed,
                        iterations=grid.iterations, system_gc=grid.system_gc,
                        tlab_enabled=grid.tlab_enabled, overrides=overrides,
                    )
                    for benchmark, gc, heap, young, seed in grid.cells()
                )
                for grid in self.grids
            )
            object.__setattr__(self, "_cells", expanded)
        return expanded

    def unique_cells(self) -> Tuple[Tuple[str, CellSpec], ...]:
        """The distinct cells as ``(digest, cell)`` pairs in first-appearance
        order: duplicated coordinates, across grids or within one, run
        once and fan back out. Kept like :meth:`cell_specs`."""
        return self._layout()[0]

    def grid_slots(self) -> Tuple[Tuple[Tuple[CellKey, int], ...], ...]:
        """Per grid, its distinct :class:`~repro.studies.CellKey`s in
        first-appearance order, each with its cell's index in
        :meth:`unique_cells`. Kept like :meth:`cell_specs`."""
        return self._layout()[1]

    def _layout(self) -> Tuple[tuple, tuple]:
        layout = self.__dict__.get("_unique_and_slots")
        if layout is None:
            index: Dict[str, int] = {}
            unique: List[Tuple[str, CellSpec]] = []
            slots = []
            for cells in self._expanded():
                grid: Dict[CellKey, int] = {}
                for cell in cells:
                    digest = cell.digest()
                    if digest not in index:
                        index[digest] = len(unique)
                        unique.append((digest, cell))
                    grid.setdefault(cell.key(), index[digest])
                slots.append(tuple(grid.items()))
            layout = (tuple(unique), tuple(slots))
            object.__setattr__(self, "_unique_and_slots", layout)
        return layout

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (stored in the manifest)."""
        return {
            "name": self.name,
            "grids": [grid_to_dict(g) for g in self.grids],
            "overrides": [[k, _jsonable(v)] for k, v in self.overrides],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict` (used by ``resume``/``status``)."""
        return cls(
            name=d["name"],
            grids=[grid_from_dict(g) for g in d["grids"]],
            overrides={k: v for k, v in d.get("overrides", [])},
        )

    def digest(self) -> str:
        """Identity of the sweep: sha256 over the canonical spec JSON,
        computed once per instance and kept beside the fields."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def registry_entry(self) -> Dict[str, object]:
        """This campaign's entry in a store's manifest, built once per
        instance and kept: one shared dict, which callers treat as a
        read-only value (as they do a store's runs)."""
        entry = self.__dict__.get("_entry")
        if entry is None:
            entry = {
                "name": self.name,
                "digest": self.digest(),
                "spec": self.to_dict(),
                "cells": len(self.unique_cells()),
            }
            object.__setattr__(self, "_entry", entry)
        return entry


def grid_to_dict(grid: GridSpec) -> Dict[str, object]:
    """JSON-safe form of a :class:`~repro.studies.GridSpec`.

    GC axis values are canonicalized (``"g1"`` → ``"G1GC"``); size axes
    keep their original spelling ("16g" stays "16g") so the round trip
    preserves what the user wrote.
    """
    return {
        "benchmarks": [str(b) for b in grid.benchmarks],
        "gcs": [resolve_gc(g).value for g in grid.gcs],
        "heaps": list(grid.heaps),
        "youngs": list(grid.youngs),
        "seeds": [int(s) for s in grid.seeds],
        "iterations": grid.iterations,
        "system_gc": grid.system_gc,
        "tlab_enabled": grid.tlab_enabled,
    }


def grid_from_dict(d: Dict[str, object]) -> GridSpec:
    """Inverse of :func:`grid_to_dict`."""
    return GridSpec(
        benchmarks=list(d["benchmarks"]),
        gcs=list(d["gcs"]),
        heaps=list(d["heaps"]),
        youngs=list(d["youngs"]),
        seeds=list(d["seeds"]),
        iterations=d["iterations"],
        system_gc=d["system_gc"],
        tlab_enabled=d["tlab_enabled"],
    )
