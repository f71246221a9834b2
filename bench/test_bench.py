"""Tests of the benchmark harness (run with ``pytest bench/``).

Every test shrinks a workload through its class attributes, so the suite
runs in seconds and the benchmark needs no size option.
"""

import json
import os
import re

import pytest

import run
import worker
from metric_names import END_TO_END, PER_LAYER, UNITS
from tracing import Spans
from workloads import CassandraStress, DacapoGrid, ServeMixed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class WallClock:
    """Reference seconds equal to measured seconds (no speed probe)."""

    @staticmethod
    def factor(start, end):
        return 1.0

    @staticmethod
    def ref(start, end):
        return end[1] - start[1]

    @staticmethod
    def ref_wall(start, end):
        return end - start


class SmallGrid(DacapoGrid):
    BENCHMARKS = ("xalan", "luindex")
    GCS = ("ParallelOld", "G1")
    HEAPS = ("16g",)
    WARM_RUNS = 2


class SmallStress(CassandraStress):
    GCS = ("ParallelOld", "CMS")
    DURATION = 300.0


class SmallServe(ServeMixed):
    REQUESTS = 30
    RPS = 200.0
    HOT_BENCHMARKS = ("xalan",)
    HOT_GCS = ("ParallelOld", "G1")


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    # The service's socket path is relative to the working directory and
    # must stay short, as it does when the worker runs from the checkout.
    monkeypatch.chdir(tmp_path)


def one_pass(cls, seed, tmp_path, **kwargs):
    workload = cls(seed, str(tmp_path / f"{cls.__name__}-{seed}"), WallClock(),
                   **kwargs)
    os.makedirs(workload.scratch)
    workload.prepare()
    return worker.measure(workload, 0, 0, WallClock(), str(tmp_path))


@pytest.mark.parametrize("cls", [SmallGrid, SmallServe])
def test_digest_repeats_per_seed_and_differs_across_seeds(cls, tmp_path):
    first = one_pass(cls, 0, tmp_path)
    again = one_pass(cls, 0, tmp_path / "again")
    other = one_pass(cls, 1, tmp_path / "other")
    assert first["failed"] == 0 and other["failed"] == 0
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    names += [w["name"] for w in declared["workloads"]]
    for name in list(UNITS) + names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_benchmark_json_declares_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)


def test_reports_carry_every_declared_metric(tmp_path):
    workload = SmallGrid(0, str(tmp_path / "grid"), WallClock())
    os.makedirs(workload.scratch)
    workload.prepare()
    result = worker.measure(workload, 0, 1, WallClock(), str(tmp_path))
    result["peak_rss_mb"] = 80.0
    entry = run.check("dacapo-grid", result, seed=0, expected={}, setups=[0.5])
    assert entry["correct"]
    assert set(END_TO_END) <= set(entry["metrics"])
    assert set(entry["layers"]) == set(PER_LAYER)
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        line = run.result_line({"dacapo-grid": entry}, trace)
        assert set(line["metrics"]) == set(names)
    spans = (tmp_path / "dacapo-grid.spans.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"] for s in spans} >= {
        "campaign.run_cell", "jvm.construct", "jvm.run", "campaign.encode",
        "campaign.store_append", "campaign.store_get"}


def test_partial_traced_pass_is_checked_against_the_untraced_one(tmp_path):
    workload = SmallStress(0, str(tmp_path / "stress"), WallClock())
    os.makedirs(workload.scratch)
    workload.prepare()
    result = worker.measure(workload, 0, 1, WallClock(), str(tmp_path))
    result["peak_rss_mb"] = 80.0
    entry = run.check("cassandra-stress", result, seed=0, expected={}, setups=[0.5])
    assert entry["correct"], entry["problems"]
    assert entry["layers"]["jvm.run_s.CMS"] > 0
    assert entry["layers"]["jvm.run_s.G1"] == 0


def test_raising_cell_function_counts_as_failed(tmp_path):
    def boom(cell):
        raise RuntimeError("simulated infrastructure failure")

    result = one_pass(SmallServe, 0, tmp_path, cell_fn=boom)
    entry = run.check("serve-mixed", dict(result, peak_rss_mb=80.0), seed=0,
                      expected={}, setups=[0.5])
    assert entry["failed"] / entry["attempted"] > 0
    assert not entry["correct"]


def test_self_time_subtracts_the_union_of_children():
    spans = Spans(lambda a, b: b - a)
    spans.records = [
        {"id": 1, "name": "p", "start": 0.0, "end": 10.0, "parent": None, "rid": None, "gc": None},
        {"id": 2, "name": "c", "start": 1.0, "end": 4.0, "parent": 1, "rid": None, "gc": None},
        {"id": 3, "name": "c", "start": 3.0, "end": 5.0, "parent": 1, "rid": None, "gc": None},
    ]
    self_s = {r["id"]: r["self_s"] for r in spans.with_self_times()}
    assert self_s == {1: 6.0, 2: 3.0, 3: 2.0}
    assert spans.total("c") == 5.0
