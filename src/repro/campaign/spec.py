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
from ..studies import GridSpec
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
        return [list(cells) for cells in expanded]

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
