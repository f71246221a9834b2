"""Multi-node experiment fabric: shard ``repro-serve`` across workers.

One coordinator process consistent-hashes job content digests across N
worker nodes, each running today's :class:`~repro.serve.service
.ExperimentService` over its own socket and result-store shard. The
fabric adds exactly three mechanisms on top of the single-node service
(DESIGN.md §16):

* **placement** — a :class:`~repro.cluster.ring.HashRing` over
  :meth:`CellSpec.digest` content digests (registration-order
  independent; a leave moves only the leaver's digests);
* **work stealing** — queued-but-unstarted digests move from the
  slowest node to the least loaded one, with at-most-once execution
  guaranteed by the worker's ``cancel`` verdict;
* **exact aggregation** — scatter-gather status sums counters and
  merges :class:`~repro.telemetry.hist.LogHistogram` pause histograms
  exactly, and :func:`~repro.campaign.store.merge_stores` folds shard
  stores into one byte-identical to a serial run's.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".coordinator": ("ClusterConfig", "ClusterCoordinator"),
    ".membership": ("Membership", "NodeSpec"),
    ".ring": ("DEFAULT_REPLICAS", "HashRing", "digest_point"),
})
