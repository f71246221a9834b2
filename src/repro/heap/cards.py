"""The card table: how many old-generation cards mutators have dirtied.

The heap tracks dirtiness twice. The scalar ``dirty_card_bytes`` is a
volume approximation, good enough for the paper's six collectors, whose
card-scan term is a linear function of dirty volume anyway.
:class:`CardTable` counts *distinct* dirty cards over the old
generation, quantised to :data:`CARD_SIZE`-byte cards like HotSpot's
byte map (one byte per 512-byte card): two writes into the same card
are not counted twice, and the table never reports more dirty cards
than the covered space holds.

The table is pure integer arithmetic, so keeping it adds **zero**
floating-point operations to the legacy collectors' paths, which keeps
the paper's six collectors byte-identical to the committed baselines
(gated in CI by ``cmp``). The scalar prices their scans; the table
prices young scans only for collectors whose ``card_fidelity`` is set,
ZGC and Shenandoah (see :class:`repro.gc.base.Collector`).
"""

from __future__ import annotations

from ..errors import ConfigError

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
    ones.  ``dirty()`` returns the number of newly dirtied cards.
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
