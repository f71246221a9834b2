"""Plain-text rendering of tables and series for the benchmark harness.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent and dependency-free
(no plotting libraries are assumed to exist offline).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import ConfigError


def render_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Render an aligned ASCII table."""
    rows = [[_fmt(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigError(f"row width {len(row)} != header width {len(headers)}")
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def render_series(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    label: str = "",
    max_points: int = 24,
) -> str:
    """Render an (x, y) series as a compact text sparkline table.

    Used by benches for figure-shaped artefacts (pause scatters, latency
    traces): prints up to *max_points* representative points.
    """
    # Imported here: render_table prints every client's status.
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ConfigError("xs and ys must align")
    if xs.size == 0:
        return f"{label}: (empty series)"
    if xs.size > max_points:
        idx = np.linspace(0, xs.size - 1, max_points).astype(int)
        xs, ys = xs[idx], ys[idx]
    pts = " ".join(f"({x:.4g},{y:.4g})" for x, y in zip(xs, ys))
    return f"{label}: {pts}" if label else pts


def render_campaign_summary(campaign) -> str:
    """Render a :class:`~repro.campaign.runner.CampaignResult` as text.

    Duck-typed (``spec``/``stats``/``grids`` attributes) so this module
    stays import-light; the campaign layer depends on analysis, not the
    reverse. The first stats line is grep-stable — CI smoke jobs assert
    on its ``cached N/M`` token.
    """
    lines: List[str] = [
        f"campaign {campaign.spec.name!r}: "
        f"{len(campaign.grids)} grid(s), {campaign.stats.total} unique cells",
        campaign.stats.summary(),
    ]
    for i, grid in enumerate(campaign.grids):
        if not grid.runs:
            lines.append(f"grid {i}: no completed cells")
            continue
        crashed = len(grid.crashed_cells())
        lines.append(f"grid {i}: {len(grid.runs)} cells, {crashed} crashed")
        ranking = grid.winners()
        if ranking.total_experiments:
            lines.append(render_table(
                ["GC", "% of experiments won"],
                [(gc, round(pct, 1)) for gc, pct in ranking.ordered()],
            ))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}".rstrip("0").rstrip(".") if abs(cell) < 1e6 else f"{cell:.3g}"
    return str(cell)
