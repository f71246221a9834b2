"""Client latency band statistics (paper §4.2, Tables 5-7).

For each operation type the paper reports AVG/MAX/MIN latency, then for
each band — 0.5×-1.5× the average, and >2ⁿ× the average for growing n —
two percentages:

* ``%reqs``: the share of *requests* whose latency falls in the band;
* ``%GCs``: the share of *GC pauses* associated with the band — a pause
  is associated with a band when at least one request that overlapped the
  pause has its latency in that band. The paper's headline observation is
  that every ``> 2x AVG`` band has ``%GCs`` at (or near) 100: all high
  latencies are GC-caused.

Everything is vectorized (the traces hold >1 M points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..telemetry.hist import LogHistogram

#: Percentile rows added to each latency table (paper-style tail view).
_LATENCY_QS = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class BandStat:
    """One band row of Tables 5-7."""

    label: str
    pct_requests: float
    pct_gcs: float


@dataclass
class LatencyBandStats:
    """Tables 5-7 statistics for one operation type."""

    avg_ms: float
    max_ms: float
    min_ms: float
    bands: List[BandStat] = field(default_factory=list)
    #: Fixed-precision latency histogram (1 µs resolution over ms
    #: values) — same audited implementation as the pause percentiles;
    #: mergeable across campaign cells.
    hist: Optional[LogHistogram] = None

    def rows(self) -> List[Tuple[str, float]]:
        """Flat (label, value) rows in the paper's order, extended with
        histogram-derived tail percentiles."""
        out = [
            ("AVG(ms)", round(self.avg_ms, 3)),
            ("MAX(ms)", round(self.max_ms, 3)),
            ("MIN(ms)", round(self.min_ms, 3)),
        ]
        if self.hist is not None and self.hist.total_count:
            for q in _LATENCY_QS:
                out.append((f"P{q:g}(ms)", round(self.hist.percentile(q), 3)))
        for b in self.bands:
            out.append((f"{b.label} (%reqs)", round(b.pct_requests, 3)))
            out.append((f"{b.label} (%GCs)", round(b.pct_gcs, 3)))
        return out


def _pause_peak_latencies(
    op_times: np.ndarray,
    latencies: np.ndarray,
    intervals: np.ndarray,
) -> np.ndarray:
    """Peak operation latency observed during each pause (0 if no op).

    The peak op of a pause waited for (nearly) the whole pause — it is the
    pause's latency signature in the client trace.
    """
    if intervals.size == 0:
        return np.zeros(0)
    starts, ends = intervals[:, 0], intervals[:, 1]
    lo = np.searchsorted(op_times, starts, side="left")
    hi = np.searchsorted(op_times, ends, side="left")
    peaks = np.zeros(len(starts))
    for i in range(len(starts)):
        if hi[i] > lo[i]:
            peaks[i] = latencies[lo[i]:hi[i]].max()
    return peaks


def _pause_band_pct(peaks: np.ndarray, lo_ms: float, hi_ms: float) -> float:
    """Share of pauses whose latency signature falls in [lo, hi)."""
    covered = peaks[peaks > 0]
    if covered.size == 0:
        return 0.0
    return _pct((covered >= lo_ms) & (covered < hi_ms))


def _pct(mask: np.ndarray) -> float:
    """``100.0 * mask.mean()`` of a non-empty *mask*, by counting."""
    return 100.0 * (int(np.count_nonzero(mask)) / mask.size)


def latency_band_stats(
    op_times: np.ndarray,
    latencies_ms: np.ndarray,
    pause_intervals: np.ndarray,
    *,
    min_band_pct: float = 0.001,
    max_exponent: int = 10,
) -> LatencyBandStats:
    """Compute one Table 5/6/7 column.

    Bands follow the paper: 0.5×-1.5× AVG, then >2×, >4×, >8×... AVG,
    doubling n "until the percentage of points became too close to 0"
    (below *min_band_pct*).
    """
    op_times = np.asarray(op_times, dtype=float)
    lat = np.asarray(latencies_ms, dtype=float)
    if op_times.shape != lat.shape:
        raise ConfigError("op_times and latencies must align")
    if lat.size == 0:
        raise ConfigError("no operations recorded")
    avg = float(lat.mean())
    # Latencies are in ms; a 1e-3 unit keeps microsecond resolution. The
    # vectorized record path makes this linear even for >1 M points.
    hist = LogHistogram(unit=1e-3)
    hist.record_array(lat)
    stats = LatencyBandStats(avg_ms=avg, max_ms=hist.max_raw,
                             min_ms=hist.min_raw, hist=hist)
    peaks = _pause_peak_latencies(op_times, lat, pause_intervals)

    in_mid = (lat > 0.5 * avg) & (lat < 1.5 * avg)
    stats.bands.append(
        BandStat(
            "0.5x-1.5x AVG",
            _pct(in_mid),
            _pause_band_pct(peaks, 0.5 * avg, 1.5 * avg),
        )
    )
    factor = 2.0
    for _n in range(max_exponent):
        pct = _pct(lat > factor * avg)
        if pct < min_band_pct:
            break
        stats.bands.append(
            BandStat(
                f">{factor:g}x AVG",
                pct,
                _pause_band_pct(peaks, factor * avg, float("inf")),
            )
        )
        factor *= 2.0
    return stats


@dataclass
class LatencySummary:
    """Exactly-mergeable latency aggregate (per-node → fleet rollup).

    A fleet study records latencies on many nodes and needs fleet-level
    percentiles per policy. Re-collecting raw samples would re-bucket
    them (and cost memory proportional to the trace); this summary
    instead carries the same audited :class:`LogHistogram` that
    :func:`latency_band_stats` builds, whose merge is **exactly
    associative and commutative** (integer bucket counts, integer
    ``sum_units``, exact min/max) — so any aggregation tree over the
    nodes produces bit-identical fleet statistics. AVG comes from the
    histogram's integer unit sum (unit-resolution exact), MIN/MAX are
    the raw observed extremes, and percentiles are the histogram's
    rank-based never-under-estimating ones.
    """

    hist: LogHistogram = field(default_factory=lambda: LogHistogram(unit=1e-3))

    @classmethod
    def of_values(cls, latencies_ms) -> "LatencySummary":
        """Summary of a raw latency array (ms)."""
        s = cls()
        s.hist.record_array(np.asarray(latencies_ms, dtype=float))
        return s

    @classmethod
    def of_band_stats(cls, stats: LatencyBandStats) -> "LatencySummary":
        """Adopt the histogram a :func:`latency_band_stats` call built."""
        if stats.hist is None:
            raise ConfigError("band stats carry no histogram to merge")
        return cls(hist=stats.hist)

    # -- the merge path --------------------------------------------------

    def merge(self, other: "LatencySummary") -> "LatencySummary":
        """Fold *other* in (exact; returns self)."""
        self.hist.merge(other.hist)
        return self

    @classmethod
    def merged(cls, summaries) -> "LatencySummary":
        """Merge an iterable of summaries into a fresh one."""
        out = cls()
        for s in summaries:
            out.hist.merge(s.hist)
        return out

    @classmethod
    def merged_from_dicts(cls, hist_dicts) -> "LatencySummary":
        """Exact-merge serialized histograms (``LogHistogram.to_dict``
        payloads, e.g. the per-node ``pauses.hist`` sections a cluster
        status scatter-gather collects). Geometry is adopted from the
        first histogram, so second-scale pause histograms merge as
        faithfully as millisecond latencies; an empty input yields an
        empty summary."""
        out: Optional[LatencySummary] = None
        for d in hist_dicts:
            h = LogHistogram.from_dict(d)
            if out is None:
                out = cls(hist=LogHistogram(
                    unit=h.unit, significant_digits=h.significant_digits))
            out.hist.merge(h)
        return out if out is not None else cls()

    # -- queries ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Total recorded operations."""
        return self.hist.total_count

    @property
    def avg_ms(self) -> float:
        """Mean latency at histogram-unit (1 µs) resolution."""
        return self.hist.mean

    @property
    def min_ms(self) -> float:
        """Exact observed minimum (0 when empty)."""
        return self.hist.min_raw if self.hist.min_raw is not None else 0.0

    @property
    def max_ms(self) -> float:
        """Exact observed maximum (0 when empty)."""
        return self.hist.max_raw if self.hist.max_raw is not None else 0.0

    def percentile(self, q: float) -> float:
        """Histogram percentile (never under-estimates)."""
        return self.hist.percentile(q)

    def rows(self) -> List[Tuple[str, float]]:
        """Report rows in the paper's AVG/MAX/MIN + percentile order."""
        out = [
            ("AVG(ms)", round(self.avg_ms, 3)),
            ("MAX(ms)", round(self.max_ms, 3)),
            ("MIN(ms)", round(self.min_ms, 3)),
        ]
        for q in _LATENCY_QS:
            out.append((f"P{q:g}(ms)", round(self.percentile(q), 3)))
        return out

    def summary_dict(self) -> Dict[str, object]:
        """The service-status summary shape — ``{"count"}`` plus
        ``p50/p99/p99.9`` and ``max`` when non-empty — so an aggregated
        (merged) summary renders exactly like a single node's
        ``pauses`` section. Values are in the histogram's own value
        units (seconds for pause histograms, ms for latency ones)."""
        out: Dict[str, object] = {"count": self.count}
        if self.count:
            out.update(self.hist.percentiles(_LATENCY_QS))
            out["max"] = self.hist.max_raw or 0.0
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (delegates to the histogram's codec)."""
        return {"hist": self.hist.to_dict()}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "LatencySummary":
        """Inverse of :meth:`to_dict`."""
        return cls(hist=LogHistogram.from_dict(d["hist"]))


def gc_overlap_fraction(
    op_times: np.ndarray,
    latencies_ms: np.ndarray,
    pause_intervals: np.ndarray,
    threshold_factor: float = 2.0,
) -> float:
    """Fraction of high-latency ops (> factor x AVG) that overlap a pause.

    The paper's Figure 5 observation 2: "the highest latencies correspond
    to the moments when a collection took place".
    """
    op_times = np.asarray(op_times, dtype=float)
    lat = np.asarray(latencies_ms, dtype=float)
    if lat.size == 0:
        return 0.0
    high = lat > threshold_factor * lat.mean()
    if not high.any():
        return 0.0
    if pause_intervals.size == 0:
        return 0.0
    starts = pause_intervals[:, 0]
    ends = pause_intervals[:, 1]
    t = op_times[high]
    idx = np.searchsorted(starts, t, side="right") - 1
    valid = idx >= 0
    overlapped = np.zeros(t.shape, dtype=bool)
    overlapped[valid] = t[valid] < ends[idx[valid]]
    return float(overlapped.mean())
