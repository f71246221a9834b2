"""The commit log: Cassandra's durability mechanism (paper §2.2).

Every modification is appended to the commit log before being applied to
the memtable. The log is divided into fixed-size segments; in the default
configuration old segments are recycled once the log exceeds its cap, in
the stress configuration the cap equals the heap so segments accumulate
in memory for the whole run.

After a crash (or in the paper's stress setup, at startup of a pre-loaded
node) the commit log is *replayed* to rebuild the memtable — the "loading
step" visible at the start of the paper's Figure 4.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from ..heap.heap import running_sum
from .config import CassandraConfig


class CommitLog:
    """Append-only segmented log, heap-resident.

    In the stress configuration the log grows to thousands of segments,
    so :attr:`heap_bytes` keeps a running total instead of summing the
    segment list on every query. Segments are unreleased pinned cohorts
    whose ``resident`` never changes while in the deque (released ones
    are popped immediately), and segment sizes are whole bytes, so the
    incremental total is exact.
    """

    def __init__(self, config: CassandraConfig):
        self.config = config
        self.segments: deque = deque()   # pinned cohorts, oldest first
        self.pending_bytes = 0.0
        self.appended_bytes = 0.0
        self.recycled_segments = 0
        self._segment_bytes = 0.0        # running sum of segment residents

    @property
    def heap_bytes(self) -> float:
        """Heap bytes currently held by live segments."""
        return self._segment_bytes + self.pending_bytes

    def append(self, n_bytes: float) -> None:
        """Record *n_bytes* of mutations (materialized lazily)."""
        self.pending_bytes += n_bytes
        self.appended_bytes += n_bytes

    def pending_after(self, n_bytes: float, every: int = 1):
        """:attr:`pending_bytes` after every *every* further :meth:`append`
        calls of *n_bytes*, lazily."""
        return running_sum(self.pending_bytes, n_bytes, every)

    def append_rounds(self, n_bytes: float, times: int) -> None:
        """*times* rounds of :meth:`append` and a :meth:`materialize` that
        finds no segment due (the caller's guarantee); :meth:`recycle`
        runs after each append where it would act. Pending bytes only
        grow, so none does unless the last append leaves the log over
        its cap."""
        cap = self.config.commitlog_cap_bytes
        last = next(self.pending_after(n_bytes, times))
        if len(self.segments) > 1 and self._segment_bytes + last > cap:
            for pending in islice(self.pending_after(n_bytes), times):
                if self._segment_bytes + pending > cap and len(self.segments) > 1:
                    self.pending_bytes = pending
                    self.recycle()
        self.pending_bytes = last
        self.appended_bytes = next(running_sum(self.appended_bytes, n_bytes, times))

    def materialize(self, allocate_segment):
        """Turn pending bytes into pinned segment cohorts (generator).

        ``allocate_segment(n_bytes) -> Cohort`` comes from the server's
        mutator context. Recycles old segments past the configured cap.
        """
        seg = self.config.commitlog_segment_bytes
        while self.pending_bytes >= seg:
            cohort = yield from allocate_segment(seg)
            self.segments.append(cohort)
            self._segment_bytes += cohort.resident
            self.pending_bytes -= seg
        self.recycle()

    def recycle(self) -> None:
        """Release the oldest segments while the log is over its cap (the
        newest one always stays)."""
        while self.heap_bytes > self.config.commitlog_cap_bytes and len(self.segments) > 1:
            oldest = self.segments.popleft()
            self._segment_bytes -= oldest.resident
            oldest.release()
            self.recycled_segments += 1
