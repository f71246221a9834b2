"""Fleet subsystem: nodes, routing, scaling, and the study deliverable."""

import json

import numpy as np
import pytest

from repro.campaign.store import ResultStore
from repro.errors import ConfigError
from repro.fleet import (AutoscalerConfig, DiurnalTraffic, FleetBalancer,
                         FleetNode, FleetStudyConfig, GCCalibration,
                         MonkPolicy, NodeModelConfig, PausePredictivePolicy,
                         ReactiveAutoscaler, RoundRobinPolicy, TrafficConfig,
                         calibrate_collector, make_policy, run_fleet_study,
                         split_ops)
from repro.fleet import study as fleet_study
from repro.fleet.study import PolicyOutcome
from repro.jvm import JVM, JVMConfig
from repro.workloads.dacapo import get_benchmark


def synthetic_cal(**kw):
    """A hand-built calibration for node-mechanics unit tests."""
    defaults = dict(
        gc="ParallelOldGC", young_capacity=1000.0, alloc_per_op=1.0,
        background_alloc=10.0, young_pauses=(0.05,), promoted=(100.0,),
        old_capacity=2000.0, full_seconds_per_byte=0.001, full_residual=0.5)
    defaults.update(kw)
    return GCCalibration(**defaults)


def study_config(**kw):
    """Compressed study: one diurnal period squeezed into two hours."""
    defaults = dict(
        gcs=("ParallelOld",),
        policies=("round-robin", "least-outstanding",
                  "pause-predictive", "monk"),
        n_nodes=8, duration=7200.0, tick=1.0,
        traffic=TrafficConfig(users=300_000, period=7200.0),
        calibration_duration=900.0, seed=42)
    defaults.update(kw)
    return FleetStudyConfig(**defaults)


@pytest.fixture(scope="module")
def study_store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("fleet-store"))


@pytest.fixture(scope="module")
def study(study_store):
    return run_fleet_study(study_config(), store=study_store)


class TestCalibration:
    def test_cached_calibration_identical(self, study_store, study):
        # The study fixture populated the store; calibrating again must
        # be a cache hit that reproduces the exact same parameters.
        config = study_config()
        cal, hit = calibrate_collector(config, "ParallelOld",
                                       store=study_store)
        assert hit
        assert cal.gc == "ParallelOldGC"
        cal2, hit2 = calibrate_collector(config, "ParallelOld",
                                         store=study_store)
        assert hit2 and cal == cal2

    def test_calibration_fields_sane(self, study_store):
        cal, _ = calibrate_collector(study_config(), "ParallelOld",
                                     store=study_store)
        assert cal.young_capacity > 0
        assert cal.alloc_per_op > 0
        assert cal.background_alloc > 0
        assert cal.old_capacity > 0
        assert cal.full_seconds_per_byte > 0
        assert 0 < cal.full_residual < 1
        assert len(cal.young_pauses) == len(cal.promoted) > 0

    def test_crashed_calibration_is_a_config_error(self, tmp_path,
                                                   monkeypatch):
        """The crashed run is stored, as the other studies store theirs
        (a crash at a cell's coordinates is deterministic), and the
        cached crash raises the same error as the fresh one."""
        crashed = JVM(JVMConfig(gc="ParallelOld", heap="64m", seed=1)).run(
            get_benchmark("xalan"), iterations=2)
        assert crashed.crashed
        monkeypatch.setattr(fleet_study, "run_calibration_cell",
                            lambda cell: crashed)
        store = ResultStore(tmp_path)
        config = study_config()
        for _ in range(2):
            with pytest.raises(ConfigError, match="calibration run for "
                               "ParallelOld crashed: OutOfMemoryError"):
                calibrate_collector(config, "ParallelOld", store=store)
            cell = config.calibration_cell("ParallelOld")
            assert store.get_run(cell.digest()).crashed

    def test_validation(self):
        with pytest.raises(ConfigError):
            synthetic_cal(young_capacity=0.0)
        with pytest.raises(ConfigError):
            synthetic_cal(young_pauses=())


class TestFleetNode:
    def make_node(self, **model_kw):
        model = NodeModelConfig(**model_kw)
        return FleetNode(0, synthetic_cal(), model, seed=1)

    def test_offer_records_latency_classes(self):
        node = self.make_node()
        lat, n = node.offer(0.0, 1.0, 50)
        assert n == 50
        assert lat > 0
        assert node.hist.total_count == 50
        assert node.ops_served == 50

    def test_young_gc_fires_when_eden_fills(self):
        node = self.make_node()
        node.offer(0.0, 1.0, 1000)      # 1000 ops x 1 B/op >= capacity
        assert node.young_gcs == 1
        assert node.eden_used == 0.0
        assert node.backlog(1.0) > 0    # the pause queued work

    def test_promotion_chains_into_full_gc(self):
        # old starts at 0.6 x 2000 = 1200; threshold 0.9 x 2000 = 1800;
        # each young GC promotes 100 bytes -> full on the 6th young GC.
        node = self.make_node()
        for i in range(6):
            node.offer(float(i * 10), 1.0, 1000)
        assert node.young_gcs == 6
        assert node.full_gcs == 1
        assert node.old_used == pytest.approx(1800 * 0.5)

    def test_force_gc_collects_old_generation(self):
        node = self.make_node()
        before = node.old_used
        pause = node.force_gc(0.0)
        assert pause > 0
        assert node.forced_gcs == 1
        assert node.old_used == pytest.approx(before * 0.5)
        assert node.backlog(0.0) == pytest.approx(pause)

    def test_predicted_time_to_pause_shrinks_with_rate(self):
        node = self.make_node()
        slow = node.predicted_time_to_pause(0.0, 10.0)
        fast = node.predicted_time_to_pause(0.0, 1000.0)
        assert fast < slow
        assert node.predicted_time_to_pause(0.0, 0.0) < float("inf")  # bg alloc

    def test_node_stream_is_deterministic(self):
        a = FleetNode(3, synthetic_cal(), NodeModelConfig(), seed=9)
        b = FleetNode(3, synthetic_cal(), NodeModelConfig(), seed=9)
        la, _ = a.offer(0.0, 1.0, 10)
        lb, _ = b.offer(0.0, 1.0, 10)
        assert la == lb
        c = FleetNode(4, synthetic_cal(), NodeModelConfig(), seed=9)
        lc, _ = c.offer(0.0, 1.0, 10)
        assert lc != la

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            NodeModelConfig(old_start_fraction=0.95, full_threshold=0.9)
        with pytest.raises(ConfigError):
            NodeModelConfig(full_threshold=0.0)
        with pytest.raises(ConfigError):
            NodeModelConfig(old_capacity=-1.0)


class TestSplitOps:
    def test_conserves_ops(self):
        counts = split_ops(1001, np.array([1.0, 2.0, 3.0]))
        assert counts.sum() == 1001

    def test_proportional(self):
        counts = split_ops(600, np.array([1.0, 2.0, 3.0]))
        assert list(counts) == [100, 200, 300]

    def test_zero_weights_fall_back_to_uniform(self):
        counts = split_ops(9, np.zeros(3))
        assert counts.sum() == 9
        assert counts.max() - counts.min() <= 1

    def test_rotation_moves_the_remainder(self):
        first = split_ops(10, np.ones(4), rotation=0)
        second = split_ops(10, np.ones(4), rotation=1)
        assert first.sum() == second.sum() == 10
        assert list(first) != list(second)

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigError):
            split_ops(10, np.array([]))
        with pytest.raises(ConfigError):
            split_ops(10, np.array([1.0, -1.0]))


class TestPolicies:
    def test_registry_round_trip(self):
        for name in ("round-robin", "least-outstanding",
                     "pause-predictive", "monk"):
            assert make_policy(name).name == name
        with pytest.raises(ConfigError):
            make_policy("random")

    def test_least_outstanding_sheds_paused_node(self):
        nodes = [FleetNode(i, synthetic_cal(), NodeModelConfig(), seed=1)
                 for i in range(2)]
        nodes[0].offer(0.0, 1.0, 1000)   # triggers a pause on node 0
        w = make_policy("least-outstanding").weights(1.0, nodes, 100.0)
        assert w[0] < w[1]

    def test_pause_predictive_starves_imminent_node(self):
        policy = PausePredictivePolicy(horizon=5.0, trickle=0.05)
        nodes = [FleetNode(i, synthetic_cal(), NodeModelConfig(), seed=1)
                 for i in range(2)]
        nodes[0].eden_used = 990.0       # ~imminent at any real rate
        w = policy.weights(0.0, nodes, per_node_rate=100.0)
        assert w[0] == pytest.approx(0.05)
        assert w[1] == 1.0

    def test_pause_predictive_zeroes_mid_pause_node(self):
        policy = PausePredictivePolicy()
        nodes = [FleetNode(i, synthetic_cal(), NodeModelConfig(), seed=1)
                 for i in range(2)]
        nodes[0].offer(0.0, 1.0, 1000)
        w = policy.weights(1.0, nodes, per_node_rate=10.0)
        assert w[0] == 0.0 and w[1] > 0

    def test_monk_forces_only_in_valley(self):
        policy = MonkPolicy(old_trigger=0.45, cooldown=10.0)
        traffic = DiurnalTraffic(TrafficConfig(users=1000, period=7200.0),
                                 seed=1)
        nodes = [FleetNode(i, synthetic_cal(), NodeModelConfig(), seed=1)
                 for i in range(3)]
        assert policy.maintain(1800.0, nodes, traffic) == []  # mid-slope
        forced = policy.maintain(0.0, nodes, traffic)         # valley
        assert len(forced) == 1
        assert forced[0].forced_gcs == 1
        # Cooldown: an immediate second call forces nothing.
        assert policy.maintain(1.0, nodes, traffic) == []

    def test_monk_respects_old_trigger(self):
        policy = MonkPolicy(old_trigger=0.99, cooldown=10.0)
        traffic = DiurnalTraffic(TrafficConfig(users=1000, period=7200.0),
                                 seed=1)
        nodes = [FleetNode(0, synthetic_cal(), NodeModelConfig(), seed=1)]
        assert policy.maintain(0.0, nodes, traffic) == []


class TestBalancer:
    def make_fleet(self, n=3):
        traffic = DiurnalTraffic(TrafficConfig(users=1000, period=7200.0),
                                 seed=2)
        nodes = [FleetNode(i, synthetic_cal(), NodeModelConfig(), seed=2)
                 for i in range(n)]
        return FleetBalancer(nodes, RoundRobinPolicy(), traffic)

    def test_tick_conserves_ops(self):
        balancer = self.make_fleet()
        _, counts = balancer.tick(0.0, 1.0, 100)
        assert counts.sum() == 100
        assert sum(n.ops_served for n in balancer.nodes) == 100

    def test_warming_node_takes_no_traffic(self):
        balancer = self.make_fleet()
        late = FleetNode(9, synthetic_cal(), NodeModelConfig(), seed=2,
                         joined_at=100.0)
        balancer.nodes.append(late)
        balancer.tick(0.0, 1.0, 90)
        assert late.ops_served == 0
        balancer.tick(100.0, 1.0, 80)
        assert late.ops_served > 0

    def test_empty_fleet_rejected(self):
        traffic = DiurnalTraffic(TrafficConfig(users=1000), seed=2)
        with pytest.raises(ConfigError):
            FleetBalancer([], RoundRobinPolicy(), traffic)


class TestAutoscaler:
    def make_scaler(self, **kw):
        defaults = dict(min_nodes=1, max_nodes=8, slo_ms=50.0, window=60.0,
                        breach_fraction=0.02, warmup=30.0, cooldown=60.0)
        defaults.update(kw)
        config = AutoscalerConfig(**defaults)
        traffic = DiurnalTraffic(TrafficConfig(users=1000, period=7200.0),
                                 seed=3)
        nodes = [FleetNode(i, synthetic_cal(), NodeModelConfig(), seed=3)
                 for i in range(2)]
        balancer = FleetBalancer(nodes, RoundRobinPolicy(), traffic)
        scaler = ReactiveAutoscaler(config, synthetic_cal(),
                                    NodeModelConfig(), seed=3)
        scaler.attach(balancer)
        return scaler, balancer, traffic

    def test_breaches_trigger_scale_out(self):
        scaler, balancer, traffic = self.make_scaler()
        lat = np.array([100.0, 1.0])
        counts = np.array([50, 50])
        for t in range(61):
            scaler.observe(float(t), 1.0, balancer, traffic, lat, counts)
        assert scaler.scale_out_count == 1
        assert len(balancer.nodes) == 3
        assert balancer.nodes[-1].joined_at > 60.0   # warmup applies
        assert scaler.first_scale_out() is not None

    def test_quiet_window_no_action(self):
        # min_nodes == fleet size: the valley scale-in path is closed,
        # and without breaches nothing else may act.
        scaler, balancer, traffic = self.make_scaler(min_nodes=2)
        lat = np.array([1.0, 1.0])
        counts = np.array([50, 50])
        for t in range(61):
            scaler.observe(float(t), 1.0, balancer, traffic, lat, counts)
        assert scaler.events == []

    def test_valley_scale_in_retires_newest(self):
        # Tiny population => negligible utilization; t=0 is a valley.
        scaler, balancer, traffic = self.make_scaler()
        lat = np.array([1.0, 1.0])
        counts = np.array([1, 1])
        for t in range(61):
            scaler.observe(float(t), 1.0, balancer, traffic, lat, counts)
        assert [e.action for e in scaler.events] == ["in"]
        assert len(balancer.nodes) == 1
        assert len(scaler.retired) == 1
        assert scaler.retired[0].node_id == 1      # newest left first

    def test_respects_max_nodes(self):
        scaler, balancer, traffic = self.make_scaler(max_nodes=2)
        lat = np.array([100.0, 100.0])
        counts = np.array([50, 50])
        for t in range(61):
            scaler.observe(float(t), 1.0, balancer, traffic, lat, counts)
        assert scaler.events == []

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_nodes=5, max_nodes=2)
        with pytest.raises(ConfigError):
            AutoscalerConfig(breach_fraction=1.5)


class TestFleetStudy:
    def test_ops_conserved_across_policies(self, study):
        config = study_config()
        traffic = DiurnalTraffic(config.traffic, seed=config.seed)
        total = int(traffic.arrivals(0.0, config.duration,
                                     config.tick).sum())
        for outcome in study.outcomes:
            assert outcome.ops == total

    def test_pause_predictive_beats_round_robin_p999(self, study):
        # The acceptance ordering: routing away from predicted pauses
        # must strictly improve the extreme tail over the GC-blind split.
        rr = study.outcome("ParallelOld", "round-robin")
        pp = study.outcome("ParallelOld", "pause-predictive")
        assert pp.percentile(99.9) < rr.percentile(99.9)

    def test_monk_reduces_scale_outs(self, study):
        # Valley collections keep peak full pauses (and hence the
        # GC-blind autoscaler's breach windows) from ever firing.
        rr = study.outcome("ParallelOld", "round-robin")
        monk = study.outcome("ParallelOld", "monk")
        assert monk.forced_gcs > 0
        assert monk.scale_outs < rr.scale_outs

    def test_study_is_deterministic(self, study, study_store):
        # Second run hits the calibration cache and must reproduce the
        # study JSON byte for byte.
        again = run_fleet_study(study_config(), store=study_store)
        assert again.cache_hits == again.cells_total == 1
        assert again.to_json() == study.to_json()

    def test_json_round_trip_preserves_rendering(self, study):
        from repro.fleet import FleetStudyResult

        back = FleetStudyResult.from_dict(json.loads(study.to_json()))
        assert back.render() == study.render()
        assert back.to_json() == study.to_json()

    def test_outcome_lookup(self, study):
        outcome = study.outcome("ParallelOld", "monk")
        assert outcome.policy == "monk"
        with pytest.raises(ConfigError):
            study.outcome("ParallelOld", "nope")

    def test_render_and_plots(self, study):
        text = study.render()
        for name in study.config.policies:
            assert name in text
        assert "P99.9" in text
        nodes_plot = study.plot_nodes("ParallelOld")
        assert "fleet size" in nodes_plot
        tail_plot = study.plot_tail("ParallelOld")
        assert "latency tail" in tail_plot
        with pytest.raises(ConfigError):
            study.plot_nodes("CMS")    # not part of this study

    def test_outcome_dict_round_trip(self, study):
        outcome = study.outcomes[0]
        back = PolicyOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict())))
        assert back.to_dict() == outcome.to_dict()

    def test_node_timeline_sampled(self, study):
        outcome = study.outcomes[0]
        assert len(outcome.node_timeline) >= 2
        t0, n0 = outcome.node_timeline[0]
        assert t0 == 0.0 and n0 == study.config.n_nodes

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            study_config(gcs=())
        with pytest.raises(ConfigError):
            study_config(policies=("bogus",))
        with pytest.raises(ConfigError):
            study_config(n_nodes=0)
        with pytest.raises(ConfigError):
            study_config(duration=0.5)   # below one tick
