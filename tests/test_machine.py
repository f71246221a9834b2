"""Tests for the machine model: topology and cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.machine import (AsymmetricTopology, CoreClass, CostModel,
                           MachineTopology, PAPER_CLIENT, PAPER_SERVER)
from repro.units import GB, MB


class TestTopology:
    def test_paper_server_has_48_cores(self):
        assert PAPER_SERVER.cores == 48

    def test_paper_server_numa_layout(self):
        assert PAPER_SERVER.sockets == 4
        assert PAPER_SERVER.numa_nodes == 8
        assert PAPER_SERVER.cores_per_numa_node == 6

    def test_paper_server_ram(self):
        assert PAPER_SERVER.ram_bytes == 64 * GB

    def test_paper_client(self):
        assert PAPER_CLIENT.cores == 16
        assert PAPER_CLIENT.ram_bytes == 8 * GB

    def test_nodes_spanned_packed(self):
        assert PAPER_SERVER.nodes_spanned(1) == 1
        assert PAPER_SERVER.nodes_spanned(6) == 1
        assert PAPER_SERVER.nodes_spanned(7) == 2
        assert PAPER_SERVER.nodes_spanned(48) == 8

    def test_nodes_spanned_clamps_to_machine(self):
        assert PAPER_SERVER.nodes_spanned(1000) == 8

    def test_nodes_spanned_rejects_zero(self):
        with pytest.raises(ConfigError):
            PAPER_SERVER.nodes_spanned(0)

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigError):
            MachineTopology(sockets=0)

    def test_describe_mentions_cores(self):
        assert "48 cores" in PAPER_SERVER.describe()


class TestCountValidation:
    """Count fields must be true integers: a fractional
    ``cores_per_numa_node`` would silently corrupt every packed-placement
    ceiling division downstream, and ``sockets=True`` is a typo, not a
    1-socket box."""

    @pytest.mark.parametrize("field", ["sockets", "numa_nodes_per_socket",
                                       "cores_per_numa_node"])
    def test_float_rejected(self, field):
        with pytest.raises(ConfigError):
            MachineTopology(**{field: 2.5})

    @pytest.mark.parametrize("field", ["sockets", "numa_nodes_per_socket",
                                       "cores_per_numa_node"])
    def test_integral_float_rejected_too(self, field):
        # 6.0 == 6 but accepting it would make digests type-dependent.
        with pytest.raises(ConfigError):
            MachineTopology(**{field: 6.0})

    def test_bool_rejected(self):
        with pytest.raises(ConfigError):
            MachineTopology(sockets=True)

    def test_string_rejected(self):
        with pytest.raises(ConfigError):
            MachineTopology(cores_per_numa_node="6")

    def test_index_types_normalised(self):
        import numpy as np

        topo = MachineTopology(sockets=np.int64(2))
        assert topo.sockets == 2 and type(topo.sockets) is int

    def test_core_class_count_validated_the_same_way(self):
        with pytest.raises(ConfigError):
            CoreClass(name="P", count=2.5)
        with pytest.raises(ConfigError):
            CoreClass(name="P", count=True)


topologies = st.builds(
    MachineTopology,
    sockets=st.integers(1, 4),
    numa_nodes_per_socket=st.integers(1, 4),
    cores_per_numa_node=st.integers(1, 16),
)


class TestNodesSpannedProperties:
    """S1: packed placement is monotone and clamped — more threads never
    occupy fewer NUMA nodes, and no thread count spans more nodes than
    the machine has."""

    @given(topo=topologies, n=st.integers(1, 256))
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_clamped(self, topo, n):
        assert 1 <= topo.nodes_spanned(n) <= topo.numa_nodes
        assert topo.nodes_spanned(n) <= topo.nodes_spanned(n + 1)
        # Clamp: beyond the core count the answer stops growing.
        assert topo.nodes_spanned(topo.cores) == \
            topo.nodes_spanned(topo.cores + 1000)

    @given(topo=topologies, n=st.integers(1, 256))
    @settings(max_examples=100, deadline=None)
    def test_matches_ceiling_division(self, topo, n):
        clamped = min(n, topo.cores)
        assert topo.nodes_spanned(n) == -(-clamped // topo.cores_per_numa_node)


class TestAsymmetricTopology:
    def test_needs_at_least_one_class(self):
        with pytest.raises(ConfigError):
            AsymmetricTopology(cores_per_numa_node=4, core_classes=())

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ConfigError):
            AsymmetricTopology(
                cores_per_numa_node=4,
                core_classes=(CoreClass(name="P", count=2),
                              CoreClass(name="P", count=2)))

    def test_counts_must_sum_to_cores(self):
        with pytest.raises(ConfigError):
            AsymmetricTopology(
                cores_per_numa_node=4,
                core_classes=(CoreClass(name="P", count=3),))

    def test_describe_mentions_classes(self):
        topo = AsymmetricTopology(
            cores_per_numa_node=4,
            core_classes=(CoreClass(name="P", count=4, freq_ghz=3.8),))
        assert "4xP@3.8GHz" in topo.describe()

    def test_core_class_power_validation(self):
        with pytest.raises(ConfigError):
            CoreClass(name="P", count=1, idle_w=5.0, active_w=4.0)
        with pytest.raises(ConfigError):
            CoreClass(name="P", count=1, gc_bw_scale=0.0)


class TestParallelEfficiency:
    def test_single_thread_gets_serial_bonus(self):
        costs = CostModel()
        assert costs.effective_threads(1) == costs.serial_bonus > 1.0

    def test_parallel_efficiency_sublinear(self):
        costs = CostModel()
        eff = costs.effective_threads(33)
        assert 1.0 <= eff < 33

    def test_efficiency_saturates(self):
        costs = CostModel()
        # Gidra et al.: little benefit beyond a handful of threads.
        assert costs.effective_threads(48) < costs.effective_threads(12) * 2

    def test_never_below_one(self):
        costs = CostModel()
        for n in (2, 8, 48):
            assert costs.effective_threads(n) >= 1.0

    def test_rejects_zero_threads(self):
        with pytest.raises(ConfigError):
            CostModel().effective_threads(0)

    def test_default_gc_threads_hotspot_ergonomics(self):
        costs = CostModel(topology=PAPER_SERVER)
        assert costs.default_gc_threads() == 8 + (48 - 8) * 5 // 8

    def test_default_gc_threads_small_machine(self, tiny_topology):
        costs = CostModel(topology=tiny_topology)
        assert costs.default_gc_threads() == 8

    def test_default_concurrent_threads(self):
        costs = CostModel(topology=PAPER_SERVER)
        expected = (costs.default_gc_threads() + 3) // 4
        assert costs.default_concurrent_gc_threads() == expected


class TestLocality:
    def test_locality_shrinks_with_heap(self):
        costs = CostModel(topology=PAPER_SERVER)
        assert costs.locality(64 * GB) < costs.locality(16 * GB) < costs.locality(1 * GB)

    def test_locality_at_zero_heap_is_one(self):
        assert CostModel().locality(0.0) == 1.0

    def test_locality_rejects_negative(self):
        with pytest.raises(ConfigError):
            CostModel().locality(-1.0)


class TestSTWDuration:
    def test_more_work_takes_longer(self):
        costs = CostModel()
        a = costs.stw_duration(n_threads=4, copied=100 * MB)
        b = costs.stw_duration(n_threads=4, copied=200 * MB)
        assert b > a

    def test_more_threads_is_faster(self):
        costs = CostModel()
        serial = costs.stw_duration(n_threads=2, compacted=1 * GB)
        parallel = costs.stw_duration(n_threads=16, compacted=1 * GB)
        assert parallel < serial

    def test_overhead_factor_scales(self):
        costs = CostModel()
        base = costs.stw_duration(n_threads=1, marked=1 * GB)
        assert costs.stw_duration(n_threads=1, marked=1 * GB, overhead_factor=1.5) == pytest.approx(1.5 * base)

    def test_rate_factor_slows(self):
        costs = CostModel()
        base = costs.stw_duration(n_threads=1, marked=1 * GB)
        slowed = costs.stw_duration(n_threads=1, marked=1 * GB, rate_factor=0.5)
        assert slowed == pytest.approx(2.0 * base)

    def test_fixed_cost_included(self):
        costs = CostModel()
        assert costs.stw_duration(fixed=0.010) == pytest.approx(0.010)

    def test_compaction_slower_than_marking(self):
        costs = CostModel()
        mark = costs.stw_duration(n_threads=1, marked=1 * GB)
        compact = costs.stw_duration(n_threads=1, compacted=1 * GB)
        assert compact > mark

    def test_sweep_is_cheapest(self):
        costs = CostModel()
        sweep = costs.stw_duration(n_threads=1, swept=1 * GB)
        mark = costs.stw_duration(n_threads=1, marked=1 * GB)
        assert sweep < mark


class TestPromotionDegradation:
    def test_empty_old_gen_full_bandwidth(self):
        assert CostModel().promotion_bw_factor(0.0) == 1.0

    def test_full_old_gen_hits_floor(self):
        costs = CostModel()
        assert costs.promotion_bw_factor(1.0) == pytest.approx(costs.promotion_floor)

    def test_monotone_decreasing(self):
        costs = CostModel()
        values = [costs.promotion_bw_factor(x / 10) for x in range(11)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_clamps_out_of_range(self):
        costs = CostModel()
        assert costs.promotion_bw_factor(-0.5) == 1.0
        assert costs.promotion_bw_factor(2.0) == costs.promotion_bw_factor(1.0)


class TestSafepointAndAllocation:
    def test_time_to_safepoint_grows_with_threads(self):
        costs = CostModel()
        assert costs.time_to_safepoint(48) > costs.time_to_safepoint(1)

    def test_tlab_alloc_cheaper_than_shared_lock(self):
        costs = CostModel()
        tlab = costs.alloc_overhead(
            n_bytes=100 * MB, n_objects=100_000, tlab_enabled=True,
            tlab_size=512 * 1024, n_threads=48,
        )
        shared = costs.alloc_overhead(
            n_bytes=100 * MB, n_objects=100_000, tlab_enabled=False,
            tlab_size=0, n_threads=48,
        )
        assert tlab < shared

    def test_shared_alloc_contention_grows_with_threads(self):
        costs = CostModel()
        one = costs.alloc_overhead(n_bytes=1 * MB, n_objects=1000,
                                   tlab_enabled=False, tlab_size=0, n_threads=1)
        many = costs.alloc_overhead(n_bytes=1 * MB, n_objects=1000,
                                    tlab_enabled=False, tlab_size=0, n_threads=48)
        assert many > one

    def test_tlab_needs_positive_size(self):
        with pytest.raises(ConfigError):
            CostModel().alloc_overhead(
                n_bytes=1, n_objects=1, tlab_enabled=True, tlab_size=0, n_threads=1
            )

    def test_negative_volume_rejected(self):
        with pytest.raises(ConfigError):
            CostModel().alloc_overhead(
                n_bytes=-1, n_objects=1, tlab_enabled=False, tlab_size=0, n_threads=1
            )

    def test_heap_touch_time_proportional(self):
        costs = CostModel()
        assert costs.heap_touch_time(2 * GB) == pytest.approx(2 * costs.heap_touch_time(1 * GB))
