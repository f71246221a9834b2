"""Golden pins for a short Cassandra stress run and five DaCapo runs.

A scaled-down §4.1 stress server (8g heap, 1.5g young, one million
preloaded records, 1800 simulated seconds) covers the cohort kernels
end to end: ParallelOld and CMS full GCs, G1 mixed evacuations with
remark, cleanup and to-space-exhausted full pauses, ZGC and
Shenandoah cycles over an explicit remembered set, and HTM's
concurrent evacuations and old compactions. The DaCapo pins cover the
concurrent collectors' failure modes: ZGC's allocation stalls and
Shenandoah's degenerated pauses (h2 at 1g), and HTM with System.gc()
at 16g. Two more cover stop-the-world System.gc() full collections
whose young rows do not fit the old generation and stay in the
survivor space: ParallelOld on h2 and CMS on tomcat at 250m. Each
run's GC log and execution time are pinned to committed values, so a
change to the heap or collector mechanics that moves any simulated
byte fails here, not only in a run-against-run comparison.

The pins were recorded with CPython 3.11. CPython 3.12 made builtin
``sum()`` over floats compensated, and the heap's byte accounting sums
cohort residents with it, so on later interpreters the same run may
round differently; the pins are checked only where they were recorded.
"""

import hashlib
import json
import sys

import pytest

from repro import GB, JVM, MB, JVMConfig
from repro.campaign import encode_run
from repro.cassandra import CassandraServer, stress_config
from repro.gc import GCType
from repro.workloads.dacapo import get_benchmark

#: collector -> (sha256 of the canonical JSON gc_log, execution_time)
GOLDEN = {
    "ParallelOld": (
        "010cba075cdf4fd92f26f355d8c8ac3b72f1a5fe742ef92e113b3b135883e00b",
        1818.5918492314138),
    "CMS": (
        "a73066d32ba76fb4f82fcba6bafdd0c701402c59ab7c21afc2cf68233b834337",
        1813.293302943284),
    "G1": (
        "b681c2db4bab873ebac0f160123053475f996d8cc5beca89501b536b14f1f66d",
        1822.6655204911383),
    "ZGC": (
        "4f2c234ac47416acfba3e5fab7a4377cd21de0259232ebe063cb97e190c9cda2",
        1807.860799919632),
    "Shenandoah": (
        "869593a3d24ce179fda6fd66c0952e5f77159fc95d1f0f9d595e7c8991c3308d",
        1811.9187734979457),
    "HTM": (
        "6a5670c2af74692d6c99e17259f117aa5ea5395d938fbb11f3259a570435dd96",
        1817.3431248629533),
}

#: (collector, benchmark, heap GB) -> (gc_log sha256, execution_time) for
#: five iterations, seed 1, System.gc() on.
GOLDEN_DACAPO = {
    ("ZGC", "h2", 1): (
        "fbf98038bc51c11e7b96d9365b18bf1b151c09b88550e965ce3095086126c449",
        48.35412490065353),
    ("Shenandoah", "h2", 1): (
        "957b77cf38b21a091d93a61253b75ac784f02121192837e6dcd4a956dc7aa0c4",
        54.35790208550976),
    ("HTM", "xalan", 16): (
        "199258fb8727f678c895381a1126b57c60e99246e3a7494f5ad249f722c7c9b6",
        10.390460049169633),
}

#: (collector, benchmark) -> (gc_log sha256, execution_time) at a 250m
#: heap, five iterations, seed 1, System.gc() on. ParallelOld's 356 full
#: collections all strand young rows, as do 104 of CMS's 107.
GOLDEN_DACAPO_250M = {
    ("CMS", "tomcat"): (
        "d0dcb1504d0d5d6388e9cf2feda207a7c3936ab8e3a76443bc3e4fb35e380bad",
        72.52378654077978),
    ("ParallelOld", "h2"): (
        "0ed45af2a3f8aeb6816c94295b015d6160cf8c05a855c721c91c18ab8b59f2b9",
        334.2216359715361),
}

pinned_interpreter = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="pins recorded with CPython 3.11 float sum()")


def gc_log_digest(result) -> str:
    text = json.dumps(encode_run(result)["gc_log"], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pinned_interpreter
@pytest.mark.parametrize("gc", sorted(GOLDEN))
def test_stress_run_matches_golden(gc):
    jvm = JVM(JVMConfig(gc=gc, heap=8 * GB, young=1.5 * GB, seed=3))
    server = CassandraServer(stress_config(8 * GB, preload_records=1_000_000))
    result = jvm.run(server, duration=1800.0, ops_per_second=1350.0)
    digest, execution_time = GOLDEN[gc]
    assert not result.crashed
    assert gc_log_digest(result) == digest
    assert result.execution_time == execution_time


def check_dacapo_run(gc, bench, heap, pin):
    jvm = JVM(JVMConfig(gc=gc, heap=heap, seed=1))
    result = jvm.run(get_benchmark(bench), iterations=5, system_gc=True)
    digest, execution_time = pin
    assert not result.crashed
    assert gc_log_digest(result) == digest
    assert result.execution_time == execution_time


@pinned_interpreter
@pytest.mark.parametrize("gc,bench,heap_gb", sorted(GOLDEN_DACAPO))
def test_dacapo_run_matches_golden(gc, bench, heap_gb):
    check_dacapo_run(gc, bench, heap_gb * GB,
                     GOLDEN_DACAPO[(gc, bench, heap_gb)])


@pinned_interpreter
@pytest.mark.parametrize("gc,bench", sorted(GOLDEN_DACAPO_250M))
def test_stranding_full_gc_run_matches_golden(gc, bench):
    check_dacapo_run(gc, bench, 250 * MB, GOLDEN_DACAPO_250M[(gc, bench)])


@pytest.mark.parametrize("bench,heap", [("xalan", 16 * GB), ("h2", 250 * MB),
                                        ("tomcat", 250 * MB)],
                         ids=["xalan-16g", "h2-250m", "tomcat-250m"])
@pytest.mark.parametrize("gc", [t.value for t in GCType])
def test_gc_log_numbers_are_floats(gc, bench, heap):
    """Every number in the encoded GC log is a float, on any interpreter.

    A byte total summed over no rows is the int 0, which encodes as
    ``0`` where the pinned logs hold ``0.0``; at 250m many full
    collections promote nothing. The pins above skip on CPython 3.12+,
    so this is the check that runs there.
    """
    jvm = JVM(JVMConfig(gc=gc, heap=heap, seed=1))
    result = jvm.run(get_benchmark(bench), iterations=3, system_gc=True)
    log = encode_run(result)["gc_log"]
    numbers = [x for rows in log.values() for row in rows for x in row
               if not isinstance(x, str)]
    assert all(type(x) is float for x in numbers)
