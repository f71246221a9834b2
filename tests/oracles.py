"""Reference implementations of the simulator's fast kernels.

These are the straightforward paths the simulator used before its cohort
state became columns and before the YCSB client dropped its redundant
array passes. They are kept only as test oracles: the hypothesis
properties in ``test_kernel_oracles.py`` require the fast kernels to
agree with them exactly, float for float and byte for byte.

* :class:`ScalarCohort` — one cohort as a Python object, with the scalar
  ``live_bytes``/``collect`` that ``batch_live_bytes``/``collect_rows``
  vectorize;
* :func:`batch_collect` and :func:`collect_young_per_space` — a
  collection's survival step one space at a time (eden, survivor space,
  old generation, then the survivor rows gathered after eden's), which
  the heap's one pass over all of a collection's rows replaces;
* :func:`weibull_integrated_survival` and :func:`mixture_by_zeros` —
  survival with the Weibull's constant factor worked out per call, and
  a mixture's terms added to a zeroed array;
* :class:`LoopRememberedSet` — the per-card round-robin ``record`` loop
  that ``RememberedSet.record``'s closed form replaces;
* :func:`evacuate_old_by_tuples` — G1's garbage-first selection as a sort
  over ``(score, cohort, live)`` tuples;
* :func:`synthesize_by_masks`, :func:`add_pause_overlap_per_op` and
  :func:`of_kind_by_mask` — the YCSB client's latency synthesis with
  mask-built kinds, every operation placed among the pauses with
  ``searchsorted``, and sub-traces gathered by boolean mask;
* :func:`record_by_unique` and :func:`latency_band_stats_by_mean` —
  histogram recording that counts buckets with ``np.unique``, and the
  band statistics with ``.mean()`` shares.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import special

from repro.analysis.latency import (BandStat, LatencyBandStats,
                                    _pause_peak_latencies)
from repro.errors import ConfigError
from repro.heap.cohort import TAIL_CUTOFF
from repro.heap.heap import batch_live_bytes
from repro.heap.lifetime import Immortal
from repro.seeding import rng_for
from repro.telemetry.hist import LogHistogram
from repro.ycsb.client import (KIND_INSERT, KIND_READ, KIND_UPDATE,
                               ClientResult)


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


def batch_collect(cohorts, now: float) -> float:
    """Collect every row of one space on its own: age it, drop its dead
    bytes (tail cutoff included) and remove the rows left holding
    nothing, keeping the others in order. Returns the bytes freed,
    added in row order."""
    lives = batch_live_bytes(cohorts, now)
    resident, allocated, pinned = (cohorts.resident, cohorts.allocated,
                                   cohorts.pinned)
    live = np.where(~pinned & (lives <= np.maximum(TAIL_CUTOFF * allocated, 0.5)),
                    0.0, lives)
    freed = 0.0
    for value in (resident - live).tolist():
        freed += value
    resident[:] = live
    cohorts.age[:] += 1
    cohorts.keep(~((cohorts.resident <= 0.5)
                   | (cohorts.pinned & cohorts.released)))
    return freed


def collect_young_per_space(heap, now: float,
                            old: bool = False) -> Tuple[float, float, float]:
    """``GenerationalHeap._collect_young`` one space at a time: eden, the
    survivor space and (when *old*) the old generation each evaluated
    and collected on their own, then the survivor rows moved after
    eden's. Returns the bytes freed in each of the three."""
    eden_freed = batch_collect(heap.eden_cohorts, now)
    survivor_freed = batch_collect(heap.survivor_cohorts, now)
    old_freed = batch_collect(heap.old_cohorts, now) if old else 0.0
    heap.eden_cohorts.extend(heap.survivor_cohorts)
    heap.survivor_cohorts.clear()
    return eden_freed, survivor_freed, old_freed


def weibull_integrated_survival(dist, age):
    """``Weibull._integrated_survival`` with ``(s/k) * Gamma(1/k)`` and
    ``1/k`` worked out on every call."""
    k, s = dist.shape, dist.scale
    z = np.power(np.maximum(age, 0.0) / s, k)
    return (s / k) * special.gamma(1.0 / k) * special.gammainc(1.0 / k, z)


def mixture_by_zeros(dist, age, method: str):
    """A ``Mixture``'s *method* (``"_survival"`` or
    ``"_integrated_survival"``) summed into a zeroed array, each weighted
    term a temporary of its own."""
    out = np.zeros_like(age)
    for w, component in dist.components:
        out += w * getattr(component, method)(age)
    return out


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


# ----------------------------------------------------------------------
# The YCSB client and its band statistics
# ----------------------------------------------------------------------

def add_pause_overlap_per_op(lat, times, intervals) -> None:
    """Place every operation among the pause starts with ``searchsorted``;
    one that arrives before its pause's end waits for it."""
    starts = intervals[:, 0]
    ends = intervals[:, 1]
    idx = np.searchsorted(starts, times, side="right") - 1
    valid = idx >= 0
    inside = np.zeros(len(times), dtype=bool)
    inside[valid] = times[valid] < ends[idx[valid]]
    lat[inside] += (ends[idx[inside]] - times[inside]) * 1000.0


def synthesize_by_masks(client, jvm_config, server_result, server, *,
                        samples_per_second: float = 140.0) -> ClientResult:
    """``YCSBClient.synthesize`` built from boolean masks."""
    w = client.workload
    rng = rng_for(client.seed, "ycsb-client", jvm_config.gc.value)
    t0 = float(server_result.extras.get("serve_start", 0.0))
    t1 = float(server_result.execution_time)
    if t1 <= t0:
        raise ConfigError("server run has an empty serving window")
    n = max(1, int((t1 - t0) * samples_per_second))
    times = np.sort(rng.uniform(t0, t1, size=n))

    u = rng.random(n)
    kinds = np.full(n, KIND_INSERT, dtype=np.int8)
    kinds[u < w.read_proportion] = KIND_READ
    kinds[(u >= w.read_proportion)
          & (u < w.read_proportion + w.update_proportion)] = KIND_UPDATE

    lat = np.empty(n, dtype=float)
    writes = kinds != KIND_READ
    lat[writes] = 0.55 + rng.gamma(2.0, 0.11, size=int(writes.sum()))
    reads = ~writes
    n_reads = int(reads.sum())
    if n_reads:
        chooser = w.key_chooser()
        hot = chooser.hot_fraction(0.05)
        flush_times = np.sort(np.array(
            [t.created_at for t in server.sstables.tables], dtype=float
        ))
        tables_at = (
            np.searchsorted(flush_times, times[reads])
            if flush_times.size
            else np.zeros(n_reads)
        )
        written = server.commitlog.appended_bytes - server.stats.replayed_bytes
        write_rate = max(written, 0.0) / (t1 - t0)
        level_quantum = 2.0 * 1024 ** 3
        levels_at = np.floor((times[reads] - t0) * write_rate / level_quantum)
        miss = rng.random(n_reads) > hot
        base = 0.85 + rng.gamma(2.0, 0.28, size=n_reads)
        sstable_cost = miss * 0.30 * np.log2(2.0 + tables_at + levels_at)
        lat[reads] = base + sstable_cost

    intervals = server_result.gc_log.intervals()
    if intervals.size:
        add_pause_overlap_per_op(lat, times, intervals)
    else:
        intervals = np.zeros((0, 2))
    return ClientResult(jvm_config.gc.value, times, lat, kinds, intervals,
                        server_result)


def of_kind_by_mask(trace: ClientResult, kind: int) -> ClientResult:
    """``ClientResult.of_kind`` gathering every array by boolean mask."""
    mask = trace.kinds == kind
    return ClientResult(trace.gc, trace.op_times[mask],
                        trace.latencies_ms[mask], trace.kinds[mask],
                        trace.pause_intervals, trace.server_result)


def record_by_unique(hist: LogHistogram, values) -> None:
    """``LogHistogram.record_array`` counting buckets with ``np.unique``."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return
    if float(v.min()) < 0:
        raise ConfigError("histogram values must be >= 0")
    n = (v / hist.unit).astype(np.int64)
    _, e = np.frexp((n | (hist._sub_buckets - 1)).astype(np.float64))
    bucket = e.astype(np.int64) - hist._m
    sbi = n >> bucket
    idx = ((bucket + 1) << hist._half_mag) + (sbi - hist._half)
    uniq, cnt = np.unique(idx, return_counts=True)
    for i, c in zip(uniq.tolist(), cnt.tolist()):
        hist._counts[i] = hist._counts.get(i, 0) + c
    hist.total_count += int(v.size)
    hist.sum_units += int(n.sum())
    lo, hi = float(v.min()), float(v.max())
    if hist.min_raw is None or lo < hist.min_raw:
        hist.min_raw = lo
    if hist.max_raw is None or hi > hist.max_raw:
        hist.max_raw = hi


def _pause_band_pct_by_mean(peaks, lo_ms: float, hi_ms: float) -> float:
    covered = peaks[peaks > 0]
    if covered.size == 0:
        return 0.0
    in_band = (covered >= lo_ms) & (covered < hi_ms)
    return float(100.0 * in_band.mean())


def latency_band_stats_by_mean(op_times, latencies_ms, pause_intervals, *,
                               min_band_pct: float = 0.001,
                               max_exponent: int = 10) -> LatencyBandStats:
    """``latency_band_stats`` with ``.mean()`` band shares, extremes from
    their own passes and :func:`record_by_unique`."""
    op_times = np.asarray(op_times, dtype=float)
    lat = np.asarray(latencies_ms, dtype=float)
    if op_times.shape != lat.shape:
        raise ConfigError("op_times and latencies must align")
    if lat.size == 0:
        raise ConfigError("no operations recorded")
    avg = float(lat.mean())
    hist = LogHistogram(unit=1e-3)
    record_by_unique(hist, lat)
    stats = LatencyBandStats(avg_ms=avg, max_ms=float(lat.max()),
                             min_ms=float(lat.min()), hist=hist)
    peaks = _pause_peak_latencies(op_times, lat, pause_intervals)
    in_mid = (lat > 0.5 * avg) & (lat < 1.5 * avg)
    stats.bands.append(BandStat(
        "0.5x-1.5x AVG", float(100.0 * in_mid.mean()),
        _pause_band_pct_by_mean(peaks, 0.5 * avg, 1.5 * avg)))
    factor = 2.0
    for _n in range(max_exponent):
        above = lat > factor * avg
        pct = float(100.0 * above.mean())
        if pct < min_band_pct:
            break
        stats.bands.append(BandStat(
            f">{factor:g}x AVG", pct,
            _pause_band_pct_by_mean(peaks, factor * avg, float("inf"))))
        factor *= 2.0
    return stats
