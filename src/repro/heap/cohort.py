"""Analytic allocation cohorts, stored as columns.

A *cohort* is a batch of bytes allocated over a short time window by one
thread, sharing a lifetime distribution. Collections compute every
cohort's expected live bytes in closed form, so a collection costs
O(#cohorts) regardless of how many *objects* the cohorts stand for.

Each heap space keeps its cohorts in a :class:`CohortColumns`: one NumPy
array per field, one row per cohort, so the collection kernels in
:mod:`repro.heap.heap` read and write whole columns instead of walking
Python objects. A :class:`Cohort` is only a *handle* to one row. An
allocation returns it so that the caller (a memtable chunk, a commit-log
segment, a live-set chunk) can read the row's ``resident`` bytes and
``release()`` it later; the bump-allocation fast path creates none.

Accounting invariants (checked by tests):

* ``0 <= live <= resident <= allocated`` for every unreleased row;
* live bytes are non-increasing in ``now`` (survival is monotone);
* a *pinned* cohort is fully live until :meth:`Cohort.release`, after
  which it is fully dead (its space is reclaimed at the next collection
  that visits it).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from .lifetime import Immortal, LifetimeDistribution

_ids = itertools.count(1)

#: Live fractions below this are rounded to zero at collection time: the
#: residual tail of a heavy-tailed cohort is treated as dead once 99 % of
#: it is. Keeps cohort counts bounded on long runs.
TAIL_CUTOFF = 0.01

#: Every column of a :class:`CohortColumns`, with its dtype.
COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("t0", np.float64),         #: allocation window start (simulated s)
    ("t1", np.float64),         #: allocation window end
    ("allocated", np.float64),  #: bytes allocated in the window
    ("resident", np.float64),   #: bytes occupying heap space now
    ("n_objects", np.float64),  #: objects the cohort stands for
    ("age", np.int64),          #: collections survived (drives tenuring)
    ("cid", np.int64),          #: the handle's id, 0 for handle-less rows
    ("group", np.int32),        #: index into CohortStore.dists, -1: no kernel
    ("pinned", np.bool_),       #: fully live until released
    ("released", np.bool_),     #: a pinned cohort its owner let go of
)


def _checked_dist(t0: float, t1: float, allocated: float,
                  dist: Optional[LifetimeDistribution],
                  pinned: bool) -> LifetimeDistribution:
    """Validate a cohort; returns its distribution (Immortal for a pinned
    cohort given none)."""
    if t1 < t0:
        raise ConfigError(f"bad cohort window [{t0}, {t1}]")
    if allocated < 0:
        raise ConfigError("allocated must be >= 0")
    if dist is None:
        if not pinned:
            raise ConfigError("non-pinned cohorts need a lifetime distribution")
        dist = Immortal()
    return dist


class CohortStore:
    """What the cohort spaces of one heap share.

    ``dists`` is the table the rows' ``group`` column indexes: each
    distinct lifetime distribution is registered once, at the first
    allocation that uses it, so the kernels can evaluate survival once
    per distribution. ``spaces`` lists the spaces a handle searches when
    a collection has moved its row.
    """

    __slots__ = ("dists", "spaces", "groups")

    def __init__(self) -> None:
        self.dists: List[LifetimeDistribution] = []
        self.spaces: List["CohortColumns"] = []
        #: dist -> its index in ``dists``.
        self.groups: Dict[LifetimeDistribution, int] = {}

    def group_of(self, dist: LifetimeDistribution) -> int:
        """The ``group`` index of *dist*, registering it on first use."""
        group = self.groups.get(dist)
        if group is None:
            group = self.groups[dist] = len(self.dists)
            self.dists.append(dist)
        return group


def _column(name: str) -> property:
    def get(self: "CohortColumns") -> np.ndarray:
        return self._arrays[name][:self.n]
    return property(get, doc=f"The ``{name}`` of every row (a view).")


class CohortColumns:
    """The cohorts of one heap space as a struct of arrays.

    Rows ``0 .. n-1`` of each column are live; the arrays carry spare
    capacity that doubles when full, so appending is amortised O(1).
    Row order is allocation (or promotion) order, and every operation
    keeps it: the kernels sum bytes in row order, and float addition is
    not associative. Single rows are written through memoryviews of the
    arrays, which is several times cheaper than NumPy scalar assignment.
    """

    __slots__ = ("store", "n", "_arrays", "_views")

    t0 = _column("t0")
    t1 = _column("t1")
    allocated = _column("allocated")
    resident = _column("resident")
    n_objects = _column("n_objects")
    age = _column("age")
    cid = _column("cid")
    group = _column("group")
    pinned = _column("pinned")
    released = _column("released")

    def __init__(self, store: Optional[CohortStore] = None) -> None:
        self.store = CohortStore() if store is None else store
        self.store.spaces.append(self)
        self.n = 0
        self._install({name: np.zeros(16, dtype=dtype) for name, dtype in COLUMNS})

    def _install(self, arrays: Dict[str, np.ndarray]) -> None:
        self._arrays = arrays
        self._views = tuple(memoryview(arrays[name]) for name, _ in COLUMNS)

    def _reserve(self, rows: int) -> None:
        """Grow every column to hold at least *rows* rows."""
        capacity = len(self._views[0])
        if rows <= capacity:
            return
        capacity = max(rows, 2 * capacity)
        arrays = {}
        for name, dtype in COLUMNS:
            arrays[name] = np.zeros(capacity, dtype=dtype)
            arrays[name][:self.n] = self._arrays[name][:self.n]
        self._install(arrays)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, cohort: "Cohort") -> bool:
        place = cohort._locate()
        return place is not None and place[0] is self

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append_row(self, t0: float, t1: float, allocated: float,
                   dist: LifetimeDistribution, n_objects: float,
                   pinned: bool = False, cid: int = 0, age: int = 0,
                   released: bool = False) -> int:
        """Append one cohort row (resident = allocated); returns its index.

        The caller has validated the cohort (see :func:`_checked_dist`).
        """
        i = self.n
        if i == len(self._views[0]):
            self._reserve(i + 1)
        (v_t0, v_t1, v_allocated, v_resident, v_n_objects, v_age, v_cid,
         v_group, v_pinned, v_released) = self._views
        v_t0[i] = t0
        v_t1[i] = t1
        v_allocated[i] = allocated
        v_resident[i] = allocated
        v_n_objects[i] = n_objects
        # Pinned rows ignore their distribution, and empty rows hold no
        # live bytes: neither needs a survival kernel.
        if pinned or not allocated > 0.0:
            v_group[i] = -1
        else:
            group = self.store.groups.get(dist)
            v_group[i] = self.store.group_of(dist) if group is None else group
        # The rows past n are zero in these columns (see _truncate).
        if age:
            v_age[i] = age
        if cid:
            v_cid[i] = cid
        if pinned:
            v_pinned[i] = True
        if released:
            v_released[i] = True
        self.n = i + 1
        return i

    def append_rows(self, count: int, t0, t1, allocated: float,
                    dist: LifetimeDistribution, n_objects: float) -> None:
        """Append the rows of *count* :meth:`append_row` calls, unpinned
        and without a handle; *t0* and *t1* are times or arrays of them."""
        n = self.n
        end = n + count
        self._reserve(end)
        arrays = self._arrays
        arrays["t0"][n:end] = t0
        arrays["t1"][n:end] = t1
        arrays["allocated"][n:end] = arrays["resident"][n:end] = allocated
        arrays["n_objects"][n:end] = n_objects
        # No row, no registered distribution: append_row() would not run.
        arrays["group"][n:end] = (self.store.group_of(dist)
                                  if allocated > 0.0 and count else -1)
        self.n = end

    def add(self, t0: float, t1: float, allocated: float,
            dist: Optional[LifetimeDistribution], n_objects: float,
            pinned: bool, label: str, age: int = 0) -> "Cohort":
        """Validate and append a cohort; returns the handle to its row.

        The same as ``append(Cohort(...))``, built in one pass: this is
        the allocation path of every handle the heap returns.
        """
        dist = _checked_dist(t0, t1, allocated, dist, pinned)
        cohort = Cohort.__new__(Cohort)
        cohort.cid = cid = next(_ids)
        cohort.t0 = t0 = float(t0)
        cohort.t1 = t1 = float(t1)
        cohort.allocated = allocated = float(allocated)
        cohort.dist = dist
        cohort.n_objects = n_objects = float(n_objects)
        cohort.pinned = pinned = bool(pinned)
        cohort.released = False
        cohort.label = label
        cohort._cols = self
        cohort._row = self.append_row(t0, t1, allocated, dist, n_objects,
                                      pinned, cid, age)
        return cohort

    def append(self, cohort: "Cohort", *, age: int = 0) -> None:
        """Append the row of a handle built on its own (``Cohort(...)``)
        and point the handle at it."""
        if cohort._row != -1:
            raise ConfigError(f"{cohort!r} already has a row")
        cohort._row = self.append_row(
            cohort.t0, cohort.t1, cohort.allocated, cohort.dist,
            cohort.n_objects, cohort.pinned, cohort.cid, age, cohort.released)
        cohort._cols = self

    def extend(self, other: "CohortColumns",
               rows: Optional[np.ndarray] = None) -> None:
        """Append *other*'s rows: those indexed by *rows*, in that order,
        or all of them. Both spaces must share one store."""
        if other.store is not self.store:
            raise ConfigError("cohort rows can only move within one heap")
        k = other.n if rows is None else len(rows)
        if not k:
            return
        n = self.n
        self._reserve(n + k)
        for name, array in self._arrays.items():
            source = other._arrays[name][:other.n]
            array[n:n + k] = source if rows is None else source[rows]
        self.n = n + k

    # ------------------------------------------------------------------
    # Removing
    # ------------------------------------------------------------------

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where *mask* is False; the rest keep their order."""
        n = self.n
        k = int(np.count_nonzero(mask))
        if k == n:
            return
        for array in self._arrays.values():
            array[:k] = array[:n][mask]
        self._truncate(k)

    def clear(self) -> None:
        """Drop every row."""
        self._truncate(0)

    def _truncate(self, k: int) -> None:
        """Keep the first *k* rows. The dropped rows' age, cid, pinned and
        released go back to zero, so :meth:`append_row` writes those
        columns only where a row differs from zero."""
        for name in ("age", "cid", "pinned", "released"):
            self._arrays[name][k:self.n] = 0
        self.n = k

    # ------------------------------------------------------------------

    def find(self, cid: int) -> int:
        """Index of the row carrying handle id *cid*, or -1."""
        hits = np.flatnonzero(self.cid == cid)
        return int(hits[0]) if len(hits) else -1

    def mean_object_size(self) -> np.ndarray:
        """Average object size of every row (:meth:`Cohort.mean_object_size`)."""
        allocated, n_objects = self.allocated, self.n_objects
        return np.divide(allocated, n_objects, out=allocated.copy(),
                         where=n_objects != 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CohortColumns {self.n} rows>"


class Cohort:
    """Handle to a batch of bytes allocated on ``[t0, t1]`` with a shared
    lifetime law.

    The heap builds handles with :meth:`CohortColumns.add`. Constructing
    one directly validates the cohort, whose bytes a space then holds
    once it appends it (:meth:`CohortColumns.append`). From then on
    :attr:`resident` reads the row, wherever collections have moved it,
    and 0.0 once a collection has reclaimed it.

    Parameters
    ----------
    t0, t1:
        Allocation window (simulated seconds); ``t0 <= t1``.
    allocated:
        Total bytes allocated in the window.
    dist:
        Lifetime distribution of the bytes.
    n_objects:
        How many objects the cohort stands for (used for allocation-path
        cost accounting only).
    pinned:
        Pinned cohorts ignore *dist* and stay fully live until
        :meth:`release` — used for explicitly-managed live sets such as a
        memtable chunk or a benchmark's heap-resident database.
    label:
        Free-form tag for logs and debugging.
    """

    __slots__ = (
        "cid",
        "t0",
        "t1",
        "allocated",
        "dist",
        "n_objects",
        "pinned",
        "released",
        "label",
        "_cols",
        "_row",
    )

    def __init__(
        self,
        t0: float,
        t1: float,
        allocated: float,
        dist: Optional[LifetimeDistribution] = None,
        *,
        n_objects: float = 1.0,
        pinned: bool = False,
        label: str = "",
    ):
        self.dist = _checked_dist(t0, t1, allocated, dist, pinned)
        self.cid = next(_ids)
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.allocated = float(allocated)
        self.n_objects = float(n_objects)
        self.pinned = bool(pinned)
        self.released = False
        self.label = label
        #: The space holding the row and the row's index there when last
        #: seen. No row yet: (None, -1); reclaimed: (None, its last index).
        self._cols: Optional[CohortColumns] = None
        self._row = -1

    def _locate(self) -> Optional[Tuple[CohortColumns, int]]:
        """The space and row holding this cohort; None when it has none."""
        cols = self._cols
        if cols is None:
            return None
        row = self._row
        if row < cols.n and cols._arrays["cid"][row] == self.cid:
            return cols, row
        # A collection moved the row: find it by id.
        for space in cols.store.spaces:
            row = space.find(self.cid)
            if row >= 0:
                self._cols, self._row = space, row
                return space, row
        self._cols = None  # reclaimed: nothing of it is left
        return None

    @property
    def resident(self) -> float:
        """Bytes currently occupying heap space. Allocation occupies space
        at the full allocated volume; collections shrink it to the live
        part."""
        if self.pinned and not self.released:
            return self.allocated  # pinned live data never shrinks
        place = self._locate()
        if place is None:
            return self.allocated if self._row == -1 else 0.0
        cols, row = place
        return float(cols._arrays["resident"][row])

    def release(self) -> float:
        """Mark a pinned cohort dead; returns the bytes that became garbage.

        The space itself is reclaimed only when a collection next visits the
        cohort (garbage occupies heap until collected, as in a real JVM).
        """
        if not self.pinned:
            raise ConfigError("release() is only valid for pinned cohorts")
        if self.released:
            return 0.0
        garbage = self.resident
        self.released = True
        place = self._locate()
        if place is not None:
            cols, row = place
            cols._arrays["released"][row] = True
        return garbage

    @property
    def is_dead(self) -> bool:
        """True when the cohort holds no bytes worth keeping."""
        return self.resident <= 0.5 or (self.pinned and self.released)

    def mean_object_size(self) -> float:
        """Average object size the cohort stands for."""
        return self.allocated / self.n_objects if self.n_objects else self.allocated

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "pinned" if self.pinned else repr(self.dist)
        return (
            f"<Cohort #{self.cid} {self.label or ''} {self.resident:.0f}B/"
            f"{self.allocated:.0f}B {kind}>"
        )
