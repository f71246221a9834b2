"""Byte and time units, plus HotSpot-style size-flag parsing.

All heap quantities in the simulator are plain floats in **bytes** and all
times are floats in **seconds** of simulated time. These helpers keep the
configuration code readable (``64 * GB``, ``parse_size("5600m")``) and the
reports compact (``fmt_bytes``, ``fmt_time``). ``check_budget`` holds the one
rule for wall-clock budgets (per-cell, per-job and per-forward timeouts).
"""

from __future__ import annotations

import math
import re
from typing import Optional

from .errors import ConfigError

#: One kibibyte in bytes. HotSpot size flags are binary units.
KB = 1024
#: One mebibyte in bytes.
MB = 1024 * KB
#: One gibibyte in bytes.
GB = 1024 * MB

#: Time units in seconds, for readability of configs.
US = 1e-6
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([kmgt]?)b?\s*$", re.IGNORECASE)

_SUFFIX = {"": 1, "k": KB, "m": MB, "g": GB, "t": 1024 * GB}


def parse_size(value) -> float:
    """Parse a HotSpot-style size value into bytes.

    Accepts numbers (returned as-is) and strings such as ``"64g"``,
    ``"5600m"``, ``"512K"``, ``"1.5G"`` or ``"4096"``.

    >>> parse_size("16g") == 16 * GB
    True
    >>> parse_size(1024) == 1024
    True

    Raises :class:`~repro.errors.ConfigError` for malformed values or
    negative sizes.
    """
    if isinstance(value, (int, float)):
        if value < 0:
            raise ConfigError(f"negative size: {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse size from {value!r}")
    m = _SIZE_RE.match(value)
    if not m:
        raise ConfigError(f"malformed size flag: {value!r}")
    number, suffix = m.groups()
    return float(number) * _SUFFIX[suffix.lower()]


def check_budget(name: str, seconds: Optional[float]) -> None:
    """Refuse a wall-clock budget that is neither None (no budget) nor a
    positive finite number of seconds: zero, negatives, NaN and infinity
    raise :class:`~repro.errors.ConfigError`."""
    if seconds is not None and not 0 < seconds < math.inf:
        raise ConfigError(f"{name} must be a positive finite number of "
                          f"seconds (or None for no budget), got {seconds!r}")


def fmt_bytes(n: float) -> str:
    """Render a byte count compactly (``"5.6GB"``, ``"200MB"``, ``"17B"``)."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, name in ((GB, "GB"), (MB, "MB"), (KB, "KB")):
        if n >= unit:
            v = n / unit
            return f"{sign}{v:.0f}{name}" if v >= 100 else f"{sign}{v:.3g}{name}"
    return f"{sign}{n:.0f}B"


def fmt_time(t: float) -> str:
    """Render a duration compactly (``"4.0min"``, ``"3.50s"``, ``"17ms"``)."""
    t = float(t)
    sign = "-" if t < 0 else ""
    t = abs(t)
    if t >= MINUTE:
        return f"{sign}{t / MINUTE:.1f}min"
    if t >= 1.0:
        return f"{sign}{t:.2f}s"
    if t >= MS:
        return f"{sign}{t / MS:.3g}ms"
    return f"{sign}{t / US:.3g}us"
