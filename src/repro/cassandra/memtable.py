"""The memtable: Cassandra's in-memory write-back cache.

Writes land in the memtable; when it exceeds its configured cap it is
flushed to an SSTable on disk, releasing its heap space (in the paper's
stress configuration the cap equals the heap and a flush never happens).

Heap representation: the memtable owns *pinned cohorts* of
``memtable_chunk_bytes`` each. Updates supersede previously-written data;
once a chunk's worth of data is obsolete, the oldest chunk is released
(compaction of the skip-list in real Cassandra) — this is what generates
old-generation garbage under an update-heavy YCSB workload.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError
from ..heap.heap import running_sum
from .config import CassandraConfig


class Memtable:
    """Heap-resident table of recent writes.

    Like the commit log, the chunk list can grow very large under the
    stress configuration, so :attr:`heap_bytes` is a running total
    (chunks are unreleased pinned cohorts of whole-byte sizes — their
    ``resident`` is constant while in the deque, so the total is exact).
    """

    def __init__(self, config: CassandraConfig):
        self.config = config
        self.chunks: deque = deque()    # pinned cohorts (oldest first)
        self.pending_bytes = 0.0        # bytes not yet materialized as a cohort
        self.obsolete_bytes = 0.0       # superseded data awaiting chunk release
        self.record_count = 0
        self.flush_count = 0
        self._chunk_bytes = 0.0         # running sum of chunk residents

    # ------------------------------------------------------------------

    @property
    def heap_bytes(self) -> float:
        """Heap bytes currently held (materialized chunks + pending)."""
        return self._chunk_bytes + self.pending_bytes

    @property
    def needs_flush(self) -> bool:
        """True when the memtable exceeded its cap."""
        return self.flush_due(self.pending_bytes)

    def flush_due(self, pending: float) -> bool:
        """Whether the memtable is over its cap with *pending* bytes beside
        its chunks. Releases only shrink the chunks, so before writes that
        may release one, True means *may*."""
        return self._chunk_bytes + pending >= self.config.memtable_cap_bytes

    def write(self, n_records: float, *, update_fraction: float = 0.0) -> float:
        """Record *n_records* writes; returns heap bytes to be allocated.

        ``update_fraction`` of the writes supersede existing records
        (they add new bytes but mark equal old bytes obsolete).
        """
        new_bytes, records, obsolete = self._deltas(n_records, update_fraction)
        self.pending_bytes += new_bytes
        self.record_count += records
        self.obsolete_bytes += obsolete
        return new_bytes

    def pending_after(self, new_bytes: float, every: int = 1):
        """:attr:`pending_bytes` after every *every* further :meth:`write`
        calls that add *new_bytes* each, lazily."""
        return running_sum(self.pending_bytes, new_bytes, every)

    def write_rounds(self, n_records: float, *, update_fraction: float,
                     times: int) -> None:
        """*times* rounds of :meth:`write` and a :meth:`materialize` that
        finds no chunk due (the caller's guarantee);
        :meth:`release_obsolete` runs after each write where it would act."""
        new_bytes, records, obsolete = self._deltas(n_records, update_fraction)
        chunk = self.config.memtable_chunk_bytes
        self.pending_bytes = next(self.pending_after(new_bytes, times))
        self.record_count += records * times
        stale = self.obsolete_bytes
        for _ in range(times):
            stale += obsolete
            if stale >= chunk and self.chunks:
                self.obsolete_bytes = stale
                self.release_obsolete()
                stale = self.obsolete_bytes
        self.obsolete_bytes = stale

    def _deltas(self, n_records: float, update_fraction: float):
        """One :meth:`write`'s pending bytes, records and obsolete bytes."""
        if n_records < 0 or not (0.0 <= update_fraction <= 1.0):
            raise ConfigError("bad write() arguments")
        new_bytes = n_records * self.config.record_heap_bytes
        return (new_bytes, int(n_records * (1.0 - update_fraction)),
                new_bytes * update_fraction)

    def materialize(self, allocate_chunk) -> None:
        """Turn pending bytes into pinned chunk cohorts.

        ``allocate_chunk(n_bytes) -> Cohort`` is supplied by the server's
        mutator context (it may trigger GCs). Called from a generator via
        ``yield from``.
        """
        chunk = self.config.memtable_chunk_bytes
        while self.pending_bytes >= chunk:
            cohort = yield from allocate_chunk(chunk)
            self.chunks.append(cohort)
            self._chunk_bytes += cohort.resident
            self.pending_bytes -= chunk
        self.release_obsolete()

    def release_obsolete(self) -> None:
        """Release whole chunks once enough data has been superseded."""
        chunk = self.config.memtable_chunk_bytes
        while self.obsolete_bytes >= chunk and self.chunks:
            oldest = self.chunks.popleft()
            self._chunk_bytes -= oldest.resident
            oldest.release()
            self.obsolete_bytes -= chunk

    def flush(self) -> float:
        """Flush to an SSTable: release every chunk; returns bytes freed.

        (The freed heap becomes old-generation garbage collected at the
        next collection, exactly as in the real JVM.)
        """
        freed = 0.0
        for cohort in self.chunks:
            freed += cohort.release()
        self.chunks.clear()
        self._chunk_bytes = 0.0
        freed += self.pending_bytes
        self.pending_bytes = 0.0
        self.obsolete_bytes = 0.0
        self.flush_count += 1
        return freed
