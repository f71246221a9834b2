"""Kill switch for the lockstep group spans (DESIGN.md §12.1).

``REPRO_FASTPATH=0`` in the environment disables batching at import time;
:func:`set_enabled` toggles it at runtime (used by the determinism pins in
``tests/test_perf.py`` to run the same cell both ways in one process).

This module must stay import-light — the span-opening workloads import
it, and anything heavier would slow every simulator import.
"""

from __future__ import annotations

import os

#: Truthy spellings accepted for REPRO_FASTPATH (anything else disables).
_FALSEY = frozenset({"0", "false", "no", "off"})

#: Module-global read by the span-opening workloads. Mutate only through
#: :func:`set_enabled` so the single source of truth stays obvious.
ENABLED: bool = os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in _FALSEY


def enabled() -> bool:
    """Whether the lockstep group spans are active."""
    return ENABLED


def set_enabled(value: bool) -> bool:
    """Set the fast-path gate; returns the previous value (for restore)."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(value)
    return previous
