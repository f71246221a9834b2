"""Per-benchmark allocation profiles for the synthetic DaCapo suite.

Each profile encodes what the paper (and the DaCapo documentation)
reports about the benchmark: threading mode (§2.1), allocation volume,
live-set size and run-to-run variance. Variance parameters are calibrated
so the stability-selection experiment reproduces Table 2's relative
standard deviations when measured over seeds 0-9 (calibrated against the
simulator's own GC-time dampening; see EXPERIMENTS.md, E1).

The three lifetime-mixture knobs deserve a note: ``short_tau`` governs
transient garbage, the heavy-tailed *medium* component governs nursery
survival as a function of young-generation size (larger young => more
time to die => fewer survivors), and the pinned live set plus churn
governs old-generation pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...errors import ConfigError
from ...units import GB, KB, MB
from ..base import AllocationProfile


@dataclass(frozen=True)
class DaCapoProfile:
    """Static description of one DaCapo benchmark."""

    name: str
    description: str           #: threading mode, quoting paper §2.1
    threads: Optional[int]     #: None = one client thread per hardware thread
    iteration_wall_seconds: float  #: GC-free iteration time on the 48-core box
    alloc: AllocationProfile
    sigma_iteration: float     #: per-iteration compute noise (lognormal sd)
    sigma_run: float           #: per-run multiplier noise
    sigma_warmup: float = 0.0  #: extra noise applied to warm-up rounds only
    crashes: bool = False      #: crashes on OpenJDK 8 (paper §3.2)

    def threads_for(self, cores: int) -> int:
        """Mutator thread count on a machine with *cores* hardware threads."""
        if self.threads is not None:
            return self.threads
        if cores < 1:
            raise ConfigError("cores must be >= 1")
        return cores


def _p(**kw) -> AllocationProfile:
    return AllocationProfile(**kw)


#: All 14 DaCapo 9.12 benchmarks.
PROFILES: Dict[str, DaCapoProfile] = {}


def _register(profile: DaCapoProfile) -> None:
    if profile.name in PROFILES:
        raise ConfigError(f"duplicate profile {profile.name}")
    PROFILES[profile.name] = profile


_register(DaCapoProfile(
    name="avrora",
    description="single external thread, but internally multi-threaded",
    threads=None,
    iteration_wall_seconds=1.2,
    alloc=_p(
        alloc_bytes_per_iteration=0.30 * GB,
        mean_object_size=1 * KB,
        short_fraction=0.90, short_tau=0.15,
        medium_fraction=0.08, medium_scale=1.5,
        immortal_fraction=0.01,
        live_set_bytes=40 * MB,
    ),
    sigma_iteration=0.156, sigma_run=0.1192,
))

_register(DaCapoProfile(
    name="batik",
    description="mostly single-threaded both externally and internally",
    threads=1,
    iteration_wall_seconds=0.8,
    alloc=_p(
        alloc_bytes_per_iteration=0.15 * GB,
        mean_object_size=8 * KB,
        short_fraction=0.88, short_tau=0.25,
        medium_fraction=0.10, medium_scale=2.0,
        immortal_fraction=0.01,
        live_set_bytes=30 * MB,
    ),
    sigma_iteration=0.1328, sigma_run=0.0157,
))

_register(DaCapoProfile(
    name="eclipse",
    description="single external thread, internally multi-threaded",
    threads=None,
    iteration_wall_seconds=4.0,
    alloc=_p(
        alloc_bytes_per_iteration=2.5 * GB,
        live_set_bytes=400 * MB,
    ),
    sigma_iteration=0.05, sigma_run=0.04,
    crashes=True,
))

_register(DaCapoProfile(
    name="fop",
    description="single-threaded",
    threads=1,
    iteration_wall_seconds=0.4,
    alloc=_p(
        alloc_bytes_per_iteration=0.20 * GB,
        mean_object_size=2 * KB,
        short_fraction=0.92, short_tau=0.10,
        medium_fraction=0.06, medium_scale=1.0,
        immortal_fraction=0.01,
        live_set_bytes=20 * MB,
    ),
    sigma_iteration=0.1198, sigma_run=0.1636,
))

_register(DaCapoProfile(
    name="h2",
    description="multi-threaded (one client thread per hardware thread)",
    threads=None,
    iteration_wall_seconds=1.8,
    alloc=_p(
        alloc_bytes_per_iteration=2.4 * GB,
        mean_object_size=2 * KB,
        short_fraction=0.84, short_tau=0.4,
        medium_fraction=0.12, medium_shape=0.42, medium_scale=2.5,
        immortal_fraction=0.004,
        live_set_bytes=150 * MB,
        live_churn_fraction=0.10,
        old_mutation_fraction=0.25,
    ),
    sigma_iteration=0.003, sigma_run=0.1437,
))

_register(DaCapoProfile(
    name="jython",
    description="single external thread, internally one thread per hardware thread",
    threads=None,
    iteration_wall_seconds=1.1,
    alloc=_p(
        alloc_bytes_per_iteration=0.90 * GB,
        mean_object_size=1 * KB,
        short_fraction=0.90, short_tau=0.12,
        medium_fraction=0.08, medium_scale=1.5,
        immortal_fraction=0.01,
        live_set_bytes=60 * MB,
    ),
    sigma_iteration=0.0356, sigma_run=0.0708,
))

_register(DaCapoProfile(
    name="luindex",
    description="single external thread with a few helper threads",
    threads=2,
    iteration_wall_seconds=0.9,
    alloc=_p(
        alloc_bytes_per_iteration=0.25 * GB,
        mean_object_size=4 * KB,
        short_fraction=0.85, short_tau=0.3,
        medium_fraction=0.12, medium_scale=2.5,
        immortal_fraction=0.02,
        live_set_bytes=40 * MB,
    ),
    sigma_iteration=0.0143, sigma_run=0.02, sigma_warmup=0.1143,
))

_register(DaCapoProfile(
    name="lusearch",
    description="multi-threaded, one client thread per hardware thread",
    threads=None,
    iteration_wall_seconds=0.7,
    alloc=_p(
        alloc_bytes_per_iteration=1.5 * GB,
        mean_object_size=2 * KB,
        short_fraction=0.94, short_tau=0.05,
        medium_fraction=0.04, medium_scale=0.8,
        immortal_fraction=0.005,
        live_set_bytes=25 * MB,
    ),
    sigma_iteration=0.1293, sigma_run=0.3324,
))

_register(DaCapoProfile(
    name="pmd",
    description="single client thread, internally one worker per hardware thread",
    threads=None,
    iteration_wall_seconds=1.0,
    alloc=_p(
        alloc_bytes_per_iteration=0.50 * GB,
        mean_object_size=1 * KB,
        short_fraction=0.86, short_tau=0.25,
        medium_fraction=0.11, medium_scale=2.0,
        immortal_fraction=0.02,
        live_set_bytes=70 * MB,
    ),
    sigma_iteration=0.0013, sigma_run=0.0158,
))

_register(DaCapoProfile(
    name="sunflow",
    description="multi-threaded, driven by a client thread per hardware thread",
    threads=None,
    iteration_wall_seconds=1.0,
    alloc=_p(
        alloc_bytes_per_iteration=1.8 * GB,
        mean_object_size=512,
        short_fraction=0.96, short_tau=0.04,
        medium_fraction=0.03, medium_scale=0.5,
        immortal_fraction=0.003,
        live_set_bytes=15 * MB,
    ),
    sigma_iteration=0.0596, sigma_run=0.146,
))

_register(DaCapoProfile(
    name="tomcat",
    description="multi-threaded, driven by a client thread per hardware thread",
    threads=None,
    iteration_wall_seconds=1.3,
    alloc=_p(
        alloc_bytes_per_iteration=0.80 * GB,
        mean_object_size=4 * KB,
        short_fraction=0.85, short_tau=0.3,
        medium_fraction=0.12, medium_scale=2.0,
        immortal_fraction=0.01,
        live_set_bytes=120 * MB,
        live_churn_fraction=0.05,
        old_mutation_fraction=0.15,
    ),
    sigma_iteration=0.012, sigma_run=0.0302,
))

_register(DaCapoProfile(
    name="tradebeans",
    description="multi-threaded, driven by a client thread per hardware thread",
    threads=None,
    iteration_wall_seconds=3.0,
    alloc=_p(
        alloc_bytes_per_iteration=2.0 * GB,
        live_set_bytes=300 * MB,
    ),
    sigma_iteration=0.05, sigma_run=0.04,
    crashes=True,
))

_register(DaCapoProfile(
    name="tradesoap",
    description="same as tradebeans",
    threads=None,
    iteration_wall_seconds=3.5,
    alloc=_p(
        alloc_bytes_per_iteration=2.5 * GB,
        live_set_bytes=300 * MB,
    ),
    sigma_iteration=0.05, sigma_run=0.04,
    crashes=True,
))

_register(DaCapoProfile(
    name="xalan",
    description="multi-threaded, driven by a client thread per hardware thread",
    threads=None,
    iteration_wall_seconds=1.5,
    alloc=_p(
        alloc_bytes_per_iteration=6.0 * GB,
        mean_object_size=2 * KB,
        short_fraction=0.93, short_tau=0.02,
        medium_fraction=0.055, medium_shape=0.55, medium_scale=0.5,
        immortal_fraction=0.0008,
        live_set_bytes=80 * MB,
        live_churn_fraction=0.02,
        old_mutation_fraction=0.10,
    ),
    sigma_iteration=0.0594, sigma_run=0.0964,
))
