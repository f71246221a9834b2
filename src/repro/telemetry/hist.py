"""HDR-style fixed-precision histogram (log-bucketed, mergeable).

The simulator's pause and latency percentiles all flow through this one
audited implementation (the paper's Tables 5-7 and the pause reports),
replacing ad-hoc ``np.percentile`` calls over raw float lists. The design
follows HdrHistogram's integer bucketing:

* values are quantized to an integer number of ``unit``s (default one
  microsecond), then indexed into logarithmic buckets of
  ``sub_bucket_count = 2**m`` linear sub-buckets per octave, where ``m``
  is the smallest power of two covering ``10**significant_digits`` — so
  every recorded value is representable within one part in
  ``10**significant_digits`` of its true magnitude;
* bucket bounds decode **exactly** through integer shifts
  (:meth:`bucket_bounds`): no ``log``/``pow`` float round-tripping, so a
  value always falls inside the bounds its bucket reports;
* merging adds integer counts — it is exactly associative and
  commutative, which is what lets campaign workers aggregate partial
  histograms in any order and still produce bit-identical percentiles
  (``sum_units`` is kept in integer units for the same reason).

Nothing here reads wall-clock time or allocates per recorded value
beyond the sparse count dict; the scalar and vectorized
(:meth:`record_array`) paths are bit-identical (property-tested).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Serialization schema version (bump on incompatible layout changes).
HIST_SCHEMA_VERSION = 1

#: Values a blocked array pass handles at a time, here and in the YCSB
#: client's synthesis: 512 KB of float64, within a core's L2 cache.
BLOCK = 1 << 16

#: Widest range of counts indices :meth:`LogHistogram.record_array`
#: counts in one dense array (8 MB); every 3-digit histogram fits.
_DENSE_SPAN = 1 << 20


class LogHistogram:
    """Fixed-precision log-bucketed histogram over non-negative floats."""

    __slots__ = ("unit", "significant_digits", "_m", "_sub_buckets", "_half",
                 "_half_mag", "_counts", "total_count", "sum_units",
                 "min_raw", "max_raw")

    def __init__(self, unit: float = 1e-6, significant_digits: int = 3):
        if unit <= 0:
            raise ConfigError("histogram unit must be positive")
        if not 1 <= significant_digits <= 5:
            raise ConfigError("significant_digits must be in [1, 5]")
        self.unit = float(unit)
        self.significant_digits = int(significant_digits)
        self._m = (10 ** significant_digits - 1).bit_length()
        self._sub_buckets = 1 << self._m
        self._half = self._sub_buckets >> 1
        self._half_mag = self._m - 1
        self._counts: Dict[int, int] = {}
        self.total_count = 0
        self.sum_units = 0
        self.min_raw: Optional[float] = None
        self.max_raw: Optional[float] = None

    # -- bucketing (exact integer arithmetic) ---------------------------

    def _quantize(self, value: float) -> int:
        if not 0 <= value < math.inf:
            raise ConfigError(f"histogram values must be finite and >= 0, got {value}")
        return int(value / self.unit)

    def _index(self, n: int) -> int:
        """Counts-array index of the quantized value *n*."""
        bucket = (n | (self._sub_buckets - 1)).bit_length() - self._m
        sbi = n >> bucket
        return ((bucket + 1) << self._half_mag) + (sbi - self._half)

    def _decode(self, index: int) -> Tuple[int, int]:
        """Exact (low, high) quantized bounds of bucket *index*; a value
        quantized to ``n`` with ``low <= n < high`` maps to this bucket."""
        bucket = (index >> self._half_mag) - 1
        sbi = (index & (self._half - 1)) + self._half
        if bucket < 0:
            bucket = 0
            sbi -= self._half
        return sbi << bucket, (sbi + 1) << bucket

    def bucket_bounds(self, value: float) -> Tuple[float, float]:
        """Exact-decode ``[low, high)`` value bounds of *value*'s bucket."""
        lo, hi = self._decode(self._index(self._quantize(value)))
        return lo * self.unit, hi * self.unit

    @property
    def relative_error(self) -> float:
        """Worst-case relative bucket width (values above one octave)."""
        return 1.0 / self._half

    # -- recording ------------------------------------------------------

    def record(self, value: float, count: int = 1) -> None:
        """Record *value* with multiplicity *count*."""
        if count <= 0:
            raise ConfigError("count must be positive")
        n = self._quantize(float(value))
        idx = self._index(n)
        self._counts[idx] = self._counts.get(idx, 0) + count
        self.total_count += count
        self.sum_units += n * count
        v = float(value)
        if self.min_raw is None or v < self.min_raw:
            self.min_raw = v
        if self.max_raw is None or v > self.max_raw:
            self.max_raw = v

    def record_array(self, values) -> None:
        """:meth:`record` over every value of an array of any shape: the
        same ``to_dict()`` as recording them one by one. The hot path for
        >1 M-point latency traces, bucketed ``BLOCK`` values at a time."""
        import numpy as np

        v = np.asarray(values, dtype=float).reshape(-1)
        if v.size == 0:
            return
        lo, hi = float(v.min()), float(v.max())   # NaN if any is NaN
        if not 0 <= lo <= hi < math.inf:
            raise ConfigError(f"histogram values must be finite and >= 0: {lo}..{hi}")
        # int() raises on an infinite quotient, as record() does.
        top = int(hi / self.unit)
        fits_int64 = top * v.size < 1 << 63   # then no int64 sum overflows
        first = self._index(int(lo / self.unit))
        span = self._index(top) - first + 1
        dense = span <= _DENSE_SPAN
        counts = np.zeros(span if dense else 0, np.int64)
        total = 0
        size = min(BLOCK, v.size)
        bufs = (np.empty(size), np.empty(size), np.empty(size, np.int32),
                np.empty(size, np.int64))
        for a in range(0, v.size, size):
            n, f, e, idx = (b[:v.size - a] for b in bufs)
            # Exact float steps: int(value / unit) truncated, frexp's
            # exponent its bit length, ldexp a right shift.
            np.trunc(np.divide(v[a:a + size], self.unit, out=n), out=n)
            if fits_int64:
                np.copyto(idx, n, casting="unsafe")
                total += int(idx.sum())
            else:
                total += sum(map(int, n.tolist()))
            np.frexp(n, out=(f, e))
            np.subtract(self._m, np.maximum(e, self._m, out=e), out=e)   # -bucket
            np.floor(np.ldexp(n, e, out=n), out=n)                       # sbi
            # The counts index, bucket * half + sbi, less the first value's.
            np.subtract(n, np.multiply(e, self._half, out=f), out=f)
            f -= first
            np.copyto(idx, f, casting="unsafe")
            if dense:
                counts += np.bincount(idx, minlength=span)
            else:   # values many octaves apart at 4 or 5 digits
                self._add_counts(first, *np.unique(idx, return_counts=True))
        hit = np.flatnonzero(counts)
        self._add_counts(first, hit, counts[hit])
        self.total_count += int(v.size)
        self.sum_units += total
        if self.min_raw is None or lo < self.min_raw:
            self.min_raw = lo
        if self.max_raw is None or hi > self.max_raw:
            self.max_raw = hi

    def _add_counts(self, first: int, index, counts) -> None:
        for i, c in zip((index + first).tolist(), counts.tolist()):
            self._counts[i] = self._counts.get(i, 0) + c

    # -- queries --------------------------------------------------------

    @property
    def mean(self) -> float:
        """Mean of the recorded values at ``unit`` resolution."""
        if self.total_count == 0:
            return 0.0
        return self.sum_units * self.unit / self.total_count

    def percentile(self, q: float) -> float:
        """Value at percentile *q* in [0, 100].

        Returns the upper decode bound of the bucket containing the
        rank-``ceil(q/100 * count)`` value (clamped to the exact observed
        maximum), so the result over-estimates by at most one relative
        bucket width — never under-estimates. Empty histograms yield 0.
        """
        if not 0 <= q <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        if self.total_count == 0:
            return 0.0
        target = max(1, -(-int(q * self.total_count) // 100))  # ceil
        cum = 0
        for idx in sorted(self._counts):
            cum += self._counts[idx]
            if cum >= target:
                _lo, hi = self._decode(idx)
                return min(hi * self.unit, self.max_raw)
        return self.max_raw  # pragma: no cover - cum always reaches total

    def percentiles(self, qs: Sequence[float] = (50, 90, 99, 100)) -> Dict[str, float]:
        """``{"p50": ..., "p99.9": ...}`` for each quantile in *qs*."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    # -- merging (exactly associative) ----------------------------------

    def compatible_with(self, other: "LogHistogram") -> bool:
        """True when *other* shares this histogram's bucket geometry."""
        return (self.unit == other.unit
                and self.significant_digits == other.significant_digits)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Add *other*'s counts into this histogram (returns self)."""
        if not self.compatible_with(other):
            raise ConfigError(
                "cannot merge histograms with different geometry: "
                f"unit {self.unit}/{other.unit}, digits "
                f"{self.significant_digits}/{other.significant_digits}"
            )
        for idx, c in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + c
        self.total_count += other.total_count
        self.sum_units += other.sum_units
        if other.min_raw is not None and (self.min_raw is None
                                          or other.min_raw < self.min_raw):
            self.min_raw = other.min_raw
        if other.max_raw is not None and (self.max_raw is None
                                          or other.max_raw > self.max_raw):
            self.max_raw = other.max_raw
        return self

    @classmethod
    def merged(cls, hists: Iterable["LogHistogram"]) -> "LogHistogram":
        """Merge an iterable of compatible histograms into a fresh one."""
        out: Optional[LogHistogram] = None
        for h in hists:
            if out is None:
                out = cls(unit=h.unit, significant_digits=h.significant_digits)
            out.merge(h)
        return out if out is not None else cls()

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (counts sorted for determinism)."""
        return {
            "v": HIST_SCHEMA_VERSION,
            "unit": self.unit,
            "significant_digits": self.significant_digits,
            "counts": [[idx, self._counts[idx]] for idx in sorted(self._counts)],
            "total_count": self.total_count,
            "sum_units": self.sum_units,
            "min": self.min_raw,
            "max": self.max_raw,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "LogHistogram":
        """Inverse of :meth:`to_dict`."""
        h = cls(unit=d["unit"], significant_digits=d["significant_digits"])
        for idx, c in d.get("counts", []):
            h._counts[int(idx)] = int(c)
        h.total_count = int(d["total_count"])
        h.sum_units = int(d["sum_units"])
        h.min_raw = d.get("min")
        h.max_raw = d.get("max")
        return h

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LogHistogram n={self.total_count} "
                f"digits={self.significant_digits} unit={self.unit}>")


def percentile_rows(hist: LogHistogram,
                    qs: Sequence[float] = (50, 90, 99, 99.9, 100)) -> List[Tuple[str, float]]:
    """(label, value) rows for report tables, plus count and mean."""
    rows: List[Tuple[str, float]] = [("count", float(hist.total_count)),
                                     ("mean", hist.mean)]
    for label, value in hist.percentiles(qs).items():
        rows.append((label, value))
    return rows
