"""The paper's published numbers, as structured reference data.

Machine-readable copies of the values printed in the paper's tables, so
experiments can be compared against the original programmatically (see
``examples/paper_comparison.py`` and EXPERIMENTS.md). Sources: the
PMAM'15 paper text; table and section numbers follow the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .units import GB, MB

#: Full citation of the reproduced paper.
CITATION = (
    "Maria Carpen-Amarie, Patrick Marlier, Pascal Felber, Gaël Thomas. "
    "A Performance Study of Java Garbage Collectors on Multicore "
    "Architectures. PMAM '15, February 7-8, 2015, San Francisco Bay Area, "
    "USA. DOI 10.1145/2712386.2712404."
)

#: §3.1: the experimental machine.
MACHINE = {
    "cores": 48,
    "sockets": 4,
    "numa_nodes_per_socket": 2,
    "cores_per_numa_node": 6,
    "ram_bytes": 64 * GB,
}

#: §3.1: baseline JVM configuration.
BASELINE = {
    "gc": "ParallelOldGC",
    "heap_bytes": 16 * GB,
    "young_bytes": 5.6 * GB,
    "tlab": True,
    "iterations": 10,
}

#: Table 2 — relative standard deviation (%), (final iteration, total time).
TABLE2_RSD: Dict[str, Tuple[float, float]] = {
    "h2": (1.8, 1.2),
    "tomcat": (1.8, 1.2),
    "xalan": (6.4, 4.2),
    "jython": (5.0, 3.0),
    "pmd": (1.1, 0.8),
    "luindex": (2.8, 4.0),
    "batik": (11.2, 3.6),
}

#: §3.2: benchmarks that crashed on every test.
CRASHING_BENCHMARKS = ("eclipse", "tradebeans", "tradesoap")

#: §3.2: the selection criterion — at least one RSD under this (%).
STABILITY_THRESHOLD_PCT = 5.0


@dataclass(frozen=True)
class Table3Row:
    """One row of Table 3 (H2 under CMS)."""

    heap_bytes: float
    young_bytes: float
    pauses: int
    full_pauses: int
    avg_pause_s: float
    total_pause_s: float
    total_exec_s: float


#: Table 3 — statistics for H2 with CMS.
TABLE3_H2_CMS: List[Table3Row] = [
    Table3Row(64 * GB, 6 * GB, 4, 0, 1.33, 5.34, 196.23),
    Table3Row(64 * GB, 12 * GB, 2, 0, 0.46, 0.92, 193.45),
    Table3Row(64 * GB, 24 * GB, 2, 0, 0.55, 1.11, 193.31),
    Table3Row(64 * GB, 48 * GB, 2, 0, 0.36, 0.72, 193.51),
    Table3Row(1 * GB, 200 * MB, 68, 1, 0.07, 4.53, 192.39),
    Table3Row(1 * GB, 100 * MB, 136, 1, 0.05, 7.18, 192.98),
    Table3Row(500 * MB, 200 * MB, 74, 7, 0.13, 9.78, 193.19),
    Table3Row(500 * MB, 100 * MB, 135, 3, 0.05, 6.86, 193.53),
    Table3Row(250 * MB, 200 * MB, 655, 356, 1.05, 689.72, 1112.51),
    Table3Row(250 * MB, 100 * MB, 380, 324, 1.33, 503.89, 788.43),
]

#: Table 4 — TLAB influence (+ / = / −), benchmark -> GC -> cell.
TABLE4_TLAB: Dict[str, Dict[str, str]] = {
    "batik": {"ConcMarkSweepGC": "+", "G1GC": "=", "ParNewGC": "+",
              "ParallelGC": "=", "ParallelOldGC": "-", "SerialGC": "="},
    "h2": {"ConcMarkSweepGC": "=", "G1GC": "=", "ParNewGC": "=",
           "ParallelGC": "=", "ParallelOldGC": "=", "SerialGC": "="},
    "jython": {"ConcMarkSweepGC": "=", "G1GC": "-", "ParNewGC": "-",
               "ParallelGC": "+", "ParallelOldGC": "=", "SerialGC": "="},
    "luindex": {"ConcMarkSweepGC": "=", "G1GC": "+", "ParNewGC": "-",
                "ParallelGC": "=", "ParallelOldGC": "=", "SerialGC": "-"},
    "pmd": {"ConcMarkSweepGC": "=", "G1GC": "=", "ParNewGC": "=",
            "ParallelGC": "=", "ParallelOldGC": "=", "SerialGC": "="},
    "tomcat": {"ConcMarkSweepGC": "=", "G1GC": "=", "ParNewGC": "=",
               "ParallelGC": "=", "ParallelOldGC": "=", "SerialGC": "="},
    "xalan": {"ConcMarkSweepGC": "=", "G1GC": "-", "ParNewGC": "=",
              "ParallelGC": "-", "ParallelOldGC": "=", "SerialGC": "-"},
}

#: Figure 3 — approximate win percentages read off the bar charts.
FIG3_RANKING = {
    "system_gc": {
        "ParNewGC": 35.0, "ParallelOldGC": 22.0, "SerialGC": 16.0,
        "ConcMarkSweepGC": 14.0, "ParallelGC": 8.0, "G1GC": 0.0,
    },
    "no_system_gc": {
        "ParallelOldGC": 29.0, "ParallelGC": 20.0, "ParNewGC": 17.0,
        "SerialGC": 14.0, "ConcMarkSweepGC": 12.0, "G1GC": 6.0,
    },
}

#: §4.1 — ParallelOld on Cassandra (server side).
CASSANDRA_PARALLELOLD = {
    "default_1h": {"full_gcs": 0, "young_peak_s": 17.0},
    "default_2h": {"full_gcs": 1, "full_gc_s": 160.0, "young_peak_s": 25.0},
    "stress_2h": {"full_gcs": 1, "full_gc_s": 240.0},
}

#: Figure 4 — CMS/G1 pause ceilings on the stress test.
CASSANDRA_CONCURRENT = {"CMS_max_pause_s": 2.5, "G1_max_pause_s": 3.5}


@dataclass(frozen=True)
class LatencyTable:
    """One of Tables 5-7 (READ, UPDATE) pairs in ms / %."""

    gc: str
    read_avg_ms: float
    read_max_ms: float
    read_min_ms: float
    update_avg_ms: float
    update_max_ms: float
    update_min_ms: float
    read_mid_band_pct: float     #: 0.5x-1.5x AVG %reqs
    update_mid_band_pct: float


#: Tables 5, 6, 7 — client latency statistics.
TABLES567: Dict[str, LatencyTable] = {
    "ParallelOldGC": LatencyTable(
        "ParallelOldGC", 4.875, 372.361, 0.644, 0.993, 229.155, 0.545,
        40.412, 98.639,
    ),
    "G1GC": LatencyTable(
        "G1GC", 2.369, 644.19, 0.548, 1.106, 469.133, 0.424,
        95.325, 99.029,
    ),
    "ConcMarkSweepGC": LatencyTable(
        "ConcMarkSweepGC", 3.494, 865.518, 0.596, 1.08, 669.843, 0.496,
        53.382, 98.811,
    ),
}

#: Table 8 — qualitative summary, (throughput, pause time) per setting.
TABLE8: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("ParallelOldGC", "DaCapo"): ("good", "short"),
    ("ParallelOldGC", "Cassandra"): ("good", "unacceptable"),
    ("ConcMarkSweepGC", "DaCapo"): ("fairly good", "acceptable"),
    ("ConcMarkSweepGC", "Cassandra"): ("fairly good", "significant"),
    ("G1GC", "DaCapo"): ("bad", "unacceptable"),
    ("G1GC", "Cassandra"): ("fairly good", "significant"),
}


def compare_value(paper: float, measured: float) -> Dict[str, float]:
    """Side-by-side comparison record: ratio and signed relative error."""
    ratio = measured / paper if paper else float("inf")
    return {
        "paper": paper,
        "measured": measured,
        "ratio": ratio,
        "rel_error": ratio - 1.0,
    }


def same_direction(paper_pairs, measured_pairs) -> bool:
    """Do two paired series move in the same direction pairwise?

    Used to check *shape* claims (e.g. Table 3's anomaly: avg pause at
    6 GB young > avg pause at 24 GB young) without comparing magnitudes.
    """
    for (pa, pb), (ma, mb) in zip(paper_pairs, measured_pairs):
        paper_dir = (pa > pb) - (pa < pb)
        measured_dir = (ma > mb) - (ma < mb)
        if paper_dir != 0 and measured_dir != paper_dir:
            return False
    return True
