"""SSTables: flushed, immutable on-disk tables.

Off-heap from the GC's point of view — flushing a memtable moves its data
here and releases the heap. SSTables still matter to the *client*: reads
that miss the memtable touch more and more SSTables as the run
progresses, which is what produces the increasing "steps" in the paper's
read-latency line (Figure 5, observation 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class SSTable:
    """One immutable flushed table."""

    created_at: float
    data_bytes: float
    record_count: int


@dataclass
class SSTableSet:
    """The on-disk table set of one Cassandra node."""

    tables: List[SSTable] = field(default_factory=list)

    def add(self, created_at: float, data_bytes: float, record_count: int) -> SSTable:
        """Register a freshly-flushed SSTable."""
        table = SSTable(created_at, data_bytes, record_count)
        self.tables.append(table)
        return table

    @property
    def count(self) -> int:
        """Number of live SSTables."""
        return len(self.tables)

    @property
    def total_bytes(self) -> float:
        """Total on-disk bytes."""
        return sum(t.data_bytes for t in self.tables)
