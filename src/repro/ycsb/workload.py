"""YCSB core workload definitions.

A :class:`CoreWorkload` is the client-side contract: operation mix, record
count, key distribution, client thread count and offered rate. The two
workloads the paper uses are provided:

* :data:`LOAD_PHASE` — pure inserts ("continuously populates the database
  with records, for a specified amount of time", §4.1);
* :data:`WORKLOAD_A_LIKE` — the custom 50 % read / 50 % update mix of the
  client-side experiments (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError


@dataclass(frozen=True)
class CoreWorkload:
    """A YCSB workload specification."""

    name: str
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 1.0
    record_count: int = 10_000_000
    operations_per_second: float = 1400.0   #: aggregate offered rate
    client_threads: int = 100
    key_distribution: str = "zipfian"       #: "zipfian" | "uniform"
    zipfian_theta: float = 0.99

    def __post_init__(self) -> None:
        proportions = (self.read_proportion, self.update_proportion,
                       self.insert_proportion)
        if not all(p >= 0 for p in proportions):   # NaN fails too
            raise ConfigError(f"operation proportions must be >= 0 (got {proportions})")
        total = sum(proportions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"operation proportions must sum to 1 (got {total})")
        if self.key_distribution not in ("zipfian", "uniform"):
            raise ConfigError(f"unknown key distribution {self.key_distribution!r}")
        if not 0.0 < self.operations_per_second < float("inf"):
            raise ConfigError("operations_per_second must be finite and > 0, "
                              f"got {self.operations_per_second}")
        if self.client_threads < 1:
            raise ConfigError("client_threads must be positive")

    def with_(self, **changes) -> "CoreWorkload":
        """Return a modified copy."""
        return replace(self, **changes)

    def key_chooser(self):
        """Instantiate the configured key chooser."""
        from .keys import UniformKeyChooser, ZipfianKeyChooser

        if self.key_distribution == "uniform":
            return UniformKeyChooser(self.record_count)
        return ZipfianKeyChooser(self.record_count, self.zipfian_theta)


#: The paper's loading phase: 100 threads inserting for a fixed time.
LOAD_PHASE = CoreWorkload(
    name="load",
    read_proportion=0.0,
    update_proportion=0.0,
    insert_proportion=1.0,
)

#: The paper's custom client-side workload: 50 % read, 50 % update (§4.2).
WORKLOAD_A_LIKE = CoreWorkload(
    name="read-update-50-50",
    read_proportion=0.5,
    update_proportion=0.5,
    insert_proportion=0.0,
)
