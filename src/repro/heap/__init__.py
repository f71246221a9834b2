"""Simulated JVM heap: generations, TLABs and cohorts.

Every allocated byte belongs to an **analytic cohort** with closed-form
expected survival (O(#cohorts) per collection; see DESIGN.md §2).
"""

from .lifetime import (
    Exponential,
    Fixed,
    Immortal,
    LifetimeDistribution,
    LogNormal,
    Mixture,
    Weibull,
)
from .cards import CARD_SIZE, CardTable, cards_for
from .cohort import Cohort
from .spaces import Space, SpaceKind
from .tlab import TLABConfig, TLABManager
from .heap import GenerationalHeap, HeapConfig

__all__ = [
    "LifetimeDistribution",
    "Exponential",
    "Weibull",
    "LogNormal",
    "Fixed",
    "Immortal",
    "Mixture",
    "CARD_SIZE",
    "CardTable",
    "cards_for",
    "Cohort",
    "Space",
    "SpaceKind",
    "TLABConfig",
    "TLABManager",
    "GenerationalHeap",
    "HeapConfig",
]
