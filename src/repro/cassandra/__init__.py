"""Simulated Apache Cassandra 2.0 server (paper §2.2, §4).

A single-node, in-memory NoSQL store whose data structures live on the
simulated JVM heap: a commit log (append-only segments), a memtable (the
in-memory cache of the database state) and SSTables (flushed, off-heap).
The *stress test* configuration from the paper — memtable and commit log
sized like the heap so nothing is ever flushed — is
:func:`stress_config`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ("CassandraConfig", "default_config", "stress_config"),
    ".commitlog": ("CommitLog",),
    ".memtable": ("Memtable",),
    ".sstable": ("SSTableSet",),
    ".server": ("CassandraServer", "ServerStats"),
    ".cluster": ("ClusterConfig", "ClusterResult", "DownEvent",
                 "detect_down_events", "run_cluster_study"),
})
