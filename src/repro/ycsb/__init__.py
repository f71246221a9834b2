"""Simulated Yahoo Cloud Serving Benchmark client (paper §2.2, §4.2).

The client drives the simulated Cassandra server (load phase or
transaction phase) and records per-operation latencies. Latencies are
synthesized vectorially from the server's pause log: an operation that
arrives while the server is stopped waits for the safepoint to end —
which is exactly the mechanism behind the paper's observation that
"almost every peak in the client response time was associated to a
collection on the server" (Figure 5, Tables 5-7).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".keys": ("UniformKeyChooser", "ZipfianKeyChooser"),
    ".workload": ("CoreWorkload", "WORKLOAD_A_LIKE", "LOAD_PHASE"),
    ".client": ("YCSBClient", "ClientResult", "OperationSample"),
})
