"""Tests for the YCSB client: key choosers, workloads, latency synthesis."""

import numpy as np
import pytest

from repro import JVMConfig
from repro.cassandra import CassandraConfig
from repro.errors import ConfigError
from repro.units import GB, KB, MB
from repro.ycsb import (
    CoreWorkload,
    LOAD_PHASE,
    UniformKeyChooser,
    WORKLOAD_A_LIKE,
    YCSBClient,
    ZipfianKeyChooser,
)
from repro.ycsb.client import KIND_INSERT, KIND_READ, KIND_UPDATE


class TestKeyChoosers:
    def test_uniform_range(self):
        rng = np.random.default_rng(0)
        keys = UniformKeyChooser(100).choose(rng, 10_000)
        assert keys.min() >= 0 and keys.max() < 100

    def test_uniform_roughly_flat(self):
        rng = np.random.default_rng(0)
        keys = UniformKeyChooser(10).choose(rng, 100_000)
        counts = np.bincount(keys, minlength=10)
        assert counts.std() / counts.mean() < 0.05

    def test_zipfian_range(self):
        rng = np.random.default_rng(0)
        keys = ZipfianKeyChooser(1000).choose(rng, 10_000)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_zipfian_skewed_to_low_keys(self):
        rng = np.random.default_rng(0)
        keys = ZipfianKeyChooser(10_000).choose(rng, 100_000)
        hot = np.mean(keys < 100)  # hottest 1 %
        assert hot > 0.3  # far above the uniform 1 %

    def test_zipfian_hot_fraction_exceeds_uniform(self):
        z = ZipfianKeyChooser(10_000)
        u = UniformKeyChooser(10_000)
        assert z.hot_fraction(0.01) > 5 * u.hot_fraction(0.01)

    def test_zipfian_theta_validated(self):
        with pytest.raises(ConfigError):
            ZipfianKeyChooser(100, theta=1.5)

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError):
            UniformKeyChooser(0)


class TestCoreWorkload:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            CoreWorkload(name="bad", read_proportion=0.5,
                         update_proportion=0.0, insert_proportion=0.0)

    @pytest.mark.parametrize("read,update,insert", [
        (0.6, -0.1, 0.5), (-0.5, 1.0, 0.5), (0.5, 0.5, -1e-17),
        (float("nan"), 0.5, 0.5)])
    def test_proportions_must_not_be_negative(self, read, update, insert):
        """The kinds are drawn by counting the mix thresholds a uniform
        draw clears, which holds only for a non-negative mix."""
        with pytest.raises(ConfigError, match=">= 0"):
            CoreWorkload(name="bad", read_proportion=read,
                         update_proportion=update, insert_proportion=insert)

    def test_load_phase_pure_inserts(self):
        assert LOAD_PHASE.insert_proportion == 1.0

    def test_workload_a_like_50_50(self):
        assert WORKLOAD_A_LIKE.read_proportion == 0.5
        assert WORKLOAD_A_LIKE.update_proportion == 0.5

    def test_with_copies(self):
        w = LOAD_PHASE.with_(operations_per_second=99.0)
        assert w.operations_per_second == 99.0
        assert LOAD_PHASE.operations_per_second != 99.0

    def test_key_chooser_kind(self):
        assert isinstance(LOAD_PHASE.key_chooser(), ZipfianKeyChooser)
        uni = LOAD_PHASE.with_(key_distribution="uniform")
        assert isinstance(uni.key_chooser(), UniformKeyChooser)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigError):
            CoreWorkload(name="x", key_distribution="gaussian")

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ConfigError, match="operations_per_second"):
            WORKLOAD_A_LIKE.with_(operations_per_second=rate)


@pytest.fixture
def small_client_run(tiny_topology):
    """A short 50/50 client run on the tiny machine (shared across tests)."""
    cfg = JVMConfig(gc="ParallelOld", heap=2 * GB, young=512 * MB,
                    topology=tiny_topology, seed=13)
    cass = CassandraConfig(
        memtable_cap_bytes=1.5 * GB, commitlog_cap_bytes=256 * MB,
        commitlog_segment_bytes=4 * MB, memtable_chunk_bytes=4 * MB,
        transient_bytes_per_op=64 * KB,
    )
    workload = WORKLOAD_A_LIKE.with_(operations_per_second=3000.0)
    client = YCSBClient(workload, seed=13)
    return client.run(cfg, cass, duration=180.0, samples_per_second=400.0)


class TestClientSynthesis:
    def test_kinds_follow_mix(self, small_client_run):
        kinds = small_client_run.kinds
        assert abs(np.mean(kinds == KIND_READ) - 0.5) < 0.05
        assert abs(np.mean(kinds == KIND_UPDATE) - 0.5) < 0.05
        assert np.mean(kinds == KIND_INSERT) == 0.0

    def test_times_sorted_within_window(self, small_client_run):
        t = small_client_run.op_times
        assert np.all(np.diff(t) >= 0)
        assert t[-1] <= small_client_run.server_result.execution_time

    def test_latencies_positive(self, small_client_run):
        assert np.all(small_client_run.latencies_ms > 0)

    def test_ops_during_pauses_inflated(self, small_client_run):
        cr = small_client_run
        if cr.pause_intervals.size == 0:
            pytest.skip("no pauses in this short run")
        starts, ends = cr.pause_intervals[:, 0], cr.pause_intervals[:, 1]
        idx = np.searchsorted(starts, cr.op_times, side="right") - 1
        inside = (idx >= 0) & (cr.op_times < ends[np.clip(idx, 0, None)])
        if not inside.any():
            pytest.skip("no sampled op landed inside a pause")
        # ops inside a pause wait for the remaining pause: much slower on
        # average (an op arriving just before the safepoint ends waits ~0)
        assert cr.latencies_ms[inside].mean() > 5 * cr.latencies_ms[~inside].mean()

    def test_reads_and_updates_split(self, small_client_run):
        r, u = small_client_run.reads, small_client_run.updates
        assert len(r.latencies_ms) + len(u.latencies_ms) == len(
            small_client_run.latencies_ms
        )
        assert np.all(r.kinds == KIND_READ)

    def test_trace_arrays_take_whole_mib_blocks(self, small_client_run):
        # The blocks a freed trace leaves then fit the next trace's arrays.
        sub = small_client_run.reads
        for a in (small_client_run.op_times, small_client_run.latencies_ms,
                  small_client_run.kinds, sub.op_times, sub.latencies_ms,
                  sub.kinds):
            assert a.base is not None
            assert a.base.nbytes % (1 << 20) == 0
            assert a.base.nbytes - a.nbytes < 1 << 20

    def test_update_baseline_tighter_than_read(self, small_client_run):
        r = small_client_run.reads.latencies_ms
        u = small_client_run.updates.latencies_ms
        # compare the non-GC bulk via medians
        assert np.median(u) < np.median(r)

    def test_top_points_sorted_by_time(self, small_client_run):
        xs, ys = small_client_run.top_points(100)
        assert np.all(np.diff(xs) >= 0)
        assert len(xs) == min(100, len(small_client_run.latencies_ms))

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_sample_rate_rejected(self, rate, monkeypatch):
        """Before the server run is built, and before its result is read."""
        import repro.ycsb.client as client_module

        def no_jvm(*args, **kwargs):
            raise AssertionError("a bad rate must be rejected before the run")

        monkeypatch.setattr(client_module, "JVM", no_jvm)
        client = YCSBClient(WORKLOAD_A_LIKE, seed=1)
        config = JVMConfig(gc="CMS")
        with pytest.raises(ConfigError):
            client.run(config, CassandraConfig(), duration=60.0,
                       samples_per_second=rate)
        with pytest.raises(ConfigError):
            client.synthesize(config, None, None, samples_per_second=rate)

    @pytest.mark.parametrize("duration", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, duration, monkeypatch):
        """Before the server run is built: an infinite one never ends."""
        import repro.ycsb.client as client_module

        def no_jvm(*args, **kwargs):
            raise AssertionError("a bad duration must be rejected before the run")

        monkeypatch.setattr(client_module, "JVM", no_jvm)
        with pytest.raises(ConfigError, match="duration"):
            YCSBClient(WORKLOAD_A_LIKE, seed=1).run(
                JVMConfig(gc="CMS"), CassandraConfig(), duration=duration)

    def test_deterministic(self, tiny_topology):
        def one():
            cfg = JVMConfig(gc="G1", heap=2 * GB, young=256 * MB,
                            topology=tiny_topology, seed=3)
            cass = CassandraConfig(transient_bytes_per_op=64 * KB)
            client = YCSBClient(WORKLOAD_A_LIKE.with_(operations_per_second=2000.0), seed=3)
            return client.run(cfg, cass, duration=60.0, samples_per_second=100.0)

        a, b = one(), one()
        np.testing.assert_array_equal(a.latencies_ms, b.latencies_ms)
