"""Card tables and per-region remembered sets.

PR 1 introduced ``World.dirty_cards`` but the heap tracked dirtiness as
a single scalar (``dirty_card_bytes``) — a volume approximation good
enough for the paper's six collectors, where the card-scan term is a
linear function of dirty volume anyway.  This module upgrades the model
to explicit structures:

* :class:`CardTable` — a saturating count of *distinct* dirty cards over
  the old generation, quantised to :data:`CARD_SIZE`-byte cards exactly
  like HotSpot's byte-map (one byte per 512-byte card).  Two writes into
  the same logical card region no longer double-count, and the table can
  never report more dirty cards than the covered space holds.
* :class:`RememberedSet` — per-region card counts for region-based
  collectors (G1, ZGC, Shenandoah).  Into-region references are what a
  region collector actually scans when it evacuates a region, so remset
  cardinality — not raw dirty volume — prices the remark/evacuation scan
  when ``remset_fidelity`` is enabled.

Both structures are pure integer arithmetic: enabling them for the new
collectors adds **zero** floating-point operations on the legacy
collectors' paths, which is what keeps the paper's six collectors
byte-identical to the committed baselines (gated in CI by ``cmp``).

The scalar ``dirty_card_bytes`` remains the source of truth for legacy
pricing; the card table runs in parallel and becomes authoritative only
when a collector opts in via ``remset_fidelity`` (see
:meth:`repro.gc.base.Collector.__init__`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .regions import RegionTable

# HotSpot's card size: 512 bytes per card, one byte-map entry each.
CARD_SIZE = 512.0


def cards_for(n_bytes: float) -> int:
    """Number of cards covering *n_bytes* (ceiling; >=0)."""
    if n_bytes <= 0.0:
        return 0
    return int(-(-n_bytes // CARD_SIZE))


class CardTable:
    """Saturating dirty-card counter over a covered byte range.

    Models HotSpot's card-table byte map at the granularity the
    simulation needs: how *many* distinct cards are dirty, never which
    ones.  ``dirty()`` returns the number of newly dirtied cards so a
    remembered set can be kept in sync incrementally.
    """

    __slots__ = ("covered_bytes", "total_cards", "dirty_cards_count")

    def __init__(self, covered_bytes: float) -> None:
        if covered_bytes <= 0.0:
            raise ConfigError(f"card table must cover >0 bytes: {covered_bytes}")
        self.covered_bytes = float(covered_bytes)
        self.total_cards = cards_for(covered_bytes)
        self.dirty_cards_count = 0

    def dirty(self, n_bytes: float, used_bytes: float, repeat: int = 1) -> int:
        """Dirty the cards covering *n_bytes* of writes into a space
        currently holding *used_bytes*, *repeat* times over; returns the
        newly-dirtied count.

        Saturates at the number of cards the *used* portion of the
        covered space occupies — mirroring the scalar model's
        ``min(dirty + n, old.used)`` clamp, card-quantised. Saturation
        is monotone, so *repeat* writes add ``repeat`` times the cards
        of one before the same clamp.
        """
        if n_bytes < 0.0:
            raise ConfigError(f"cannot dirty a negative span: {n_bytes}")
        cap = min(cards_for(used_bytes), self.total_cards)
        new_count = min(self.dirty_cards_count + repeat * cards_for(n_bytes), cap)
        added = new_count - self.dirty_cards_count
        if added > 0:
            self.dirty_cards_count = new_count
        return max(added, 0)

    @property
    def dirty_bytes(self) -> float:
        """Dirty volume implied by the card count (count x CARD_SIZE)."""
        return self.dirty_cards_count * CARD_SIZE

    def clear(self) -> None:
        """Clean every card (post-scan reset)."""
        self.dirty_cards_count = 0


class RememberedSet:
    """Per-region counts of into-region reference cards.

    Each old region remembers how many dirty cards point into it.  New
    cards are spread round-robin over the currently occupied region
    prefix — a deterministic stand-in for HotSpot's per-region
    "Other regions -> this region" card sets that preserves the global
    invariant ``sum(per_region) == card_table.dirty_cards_count``.
    """

    __slots__ = ("regions", "per_region", "_cursor")

    def __init__(self, regions: RegionTable) -> None:
        self.regions = regions
        self.per_region = np.zeros(regions.total_regions, dtype=np.int64)
        self._cursor = 0

    def record(self, n_cards: int, occupied_regions: int) -> None:
        """Distribute *n_cards* new remembered cards over the occupied
        region prefix (round-robin from a persistent cursor).

        Dealing ``n`` cards round-robin over ``span`` regions gives every
        region ``n // span`` of them, plus one more to each of the
        ``n % span`` regions that follow the cursor (wrapping), so a call
        costs a few slice adds however many cards it deals.
        """
        if n_cards <= 0:
            return
        per_region = self.per_region
        span = max(1, min(occupied_regions, len(per_region)))
        rounds, extra = divmod(n_cards, span)
        if rounds:
            per_region[:span] += rounds
        if extra:
            start = self._cursor % span
            end = start + extra
            per_region[start:min(end, span)] += 1
            if end > span:
                per_region[:end - span] += 1
        self._cursor += n_cards

    def evacuate_region(self, src: int, dst: int) -> int:
        """Move every remembered card from region *src* to *dst*
        (references into an evacuated region now point at its copy);
        returns the number of cards moved.  Conserves total cardinality.
        """
        moved = int(self.per_region[src])
        if src == dst:
            return moved
        self.per_region[src] = 0
        self.per_region[dst] += moved
        return moved

    @property
    def total_cards(self) -> int:
        return int(self.per_region.sum())

    @property
    def total_bytes(self) -> float:
        """Remembered volume (cards x CARD_SIZE) — the remset-fidelity
        replacement for the scalar ``dirty_card_bytes`` in remark
        pricing."""
        return self.total_cards * CARD_SIZE

    def occupied(self) -> int:
        """Number of regions with at least one remembered card."""
        return int(np.count_nonzero(self.per_region))

    def clear(self) -> None:
        self.per_region.fill(0)
        self._cursor = 0
