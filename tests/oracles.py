"""Scalar reference implementations of the columnar heap kernels.

These are the straightforward per-object paths the simulator used before
its cohort state became columns. They are kept only as test oracles: the
hypothesis properties in ``test_kernel_oracles.py`` require the fast
kernels to agree with them exactly, float for float.

* :class:`ScalarCohort` — one cohort as a Python object, with the scalar
  ``live_bytes``/``collect`` that ``batch_live_bytes``/``collect_rows``
  vectorize;
* :class:`LoopRememberedSet` — the per-card round-robin ``record`` loop
  that ``RememberedSet.record``'s closed form replaces;
* :func:`evacuate_old_by_tuples` — G1's garbage-first selection as a sort
  over ``(score, cohort, live)`` tuples.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigError
from repro.heap.cohort import TAIL_CUTOFF
from repro.heap.lifetime import Immortal


class ScalarCohort:
    """A cohort as one object, collected one at a time."""

    def __init__(self, t0, t1, allocated, dist=None, *, n_objects=1.0,
                 pinned=False):
        if dist is None:
            if not pinned:
                raise ConfigError("non-pinned cohorts need a lifetime distribution")
            dist = Immortal()
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.allocated = float(allocated)
        self.dist = dist
        self.n_objects = float(n_objects)
        self.pinned = bool(pinned)
        self.released = False
        self.resident = float(allocated)
        self.age = 0

    def live_bytes(self, now: float) -> float:
        """Expected live bytes at *now* (capped by current residency)."""
        if self.pinned:
            return 0.0 if self.released else self.resident
        if self.allocated == 0.0:
            return 0.0
        frac = self.dist.window_live_fraction(self.t0, self.t1, max(now, self.t1))
        return min(self.resident, self.allocated * frac)

    def collect(self, now: float) -> float:
        """Drop the dead part at *now* and age; returns bytes freed."""
        live = self.live_bytes(now)
        if not self.pinned and live <= max(TAIL_CUTOFF * self.allocated, 0.5):
            live = 0.0
        freed = self.resident - live
        self.resident = live
        self.age += 1
        return freed

    def release(self) -> None:
        self.released = True

    @property
    def is_dead(self) -> bool:
        return self.resident <= 0.5 or (self.pinned and self.released)


def collect_all(cohorts: List[ScalarCohort],
                now: float) -> Tuple[float, List[ScalarCohort]]:
    """Collect every cohort in order; returns (freed, survivors)."""
    freed = 0.0
    for c in cohorts:
        freed += c.collect(now)
    return freed, [c for c in cohorts if not c.is_dead]


class LoopRememberedSet:
    """Per-region remembered cards, dealt one card at a time."""

    def __init__(self, total_regions: int) -> None:
        self.per_region = [0] * total_regions
        self.cursor = 0

    def record(self, n_cards: int, occupied_regions: int) -> None:
        if n_cards <= 0:
            return
        span = max(1, min(occupied_regions, len(self.per_region)))
        for _ in range(n_cards):
            self.per_region[self.cursor % span] += 1
            self.cursor += 1

    def evacuate_region(self, src: int, dst: int) -> int:
        moved = self.per_region[src]
        if src != dst:
            self.per_region[src] = 0
            self.per_region[dst] += moved
        return moved

    def clear(self) -> None:
        self.per_region = [0] * len(self.per_region)
        self.cursor = 0


def evacuate_old_by_tuples(cohorts: List[ScalarCohort], now: float,
                           budget: float) -> Tuple[float, float]:
    """G1's mixed-pause selection: score every cohort holding garbage,
    sort by score, collect the prefix whose live bytes fit *budget*.
    Returns (copied, freed)."""
    scored = []
    for c in cohorts:
        live = c.live_bytes(now)
        garbage = c.resident - live
        if garbage > 0:
            scored.append((garbage / max(c.resident, 1.0), c, live))
    scored.sort(key=lambda item: -item[0])
    copied = 0.0
    freed = 0.0
    for _score, c, live in scored:
        if copied + live > budget:
            break
        freed += c.collect(now)
        copied += live
    return copied, freed
