"""Tests for JVM configuration and HotSpot flag parsing."""

import pytest

from repro.errors import ConfigError
from repro.gc import GCType
from repro.jvm import JVM
from repro.jvm.flags import DEFAULT_YOUNG_FRACTION, JVMConfig, baseline_config
from repro.machine.topology import PAPER_SERVER
from repro.units import GB, MB


class TestJVMConfig:
    def test_defaults_are_paper_defaults(self):
        cfg = JVMConfig()
        assert cfg.gc is GCType.PARALLEL_OLD
        assert cfg.tlab.enabled

    def test_heap_accepts_strings(self):
        assert JVMConfig(heap="32g").heap_bytes == 32 * GB

    def test_young_defaults_to_fraction(self):
        cfg = JVMConfig(heap=16 * GB)
        assert cfg.young_bytes == pytest.approx(16 * GB * DEFAULT_YOUNG_FRACTION)

    def test_explicit_young(self):
        cfg = JVMConfig(heap=16 * GB, young="4g")
        assert cfg.young_bytes == 4 * GB

    def test_heap_larger_than_ram_rejected(self):
        with pytest.raises(ConfigError):
            JVMConfig(heap=128 * GB)  # paper server has 64 GB

    def test_young_larger_than_heap_rejected(self):
        with pytest.raises(ConfigError):
            JVMConfig(heap=8 * GB, young=16 * GB)

    @pytest.mark.parametrize("bad", [
        {"heap": float("nan")},
        {"heap": float("inf")},
        {"young": float("nan")},
        {"young": float("inf")},
        {"pause_target": float("nan")},
        {"pause_target": float("inf")},
        {"pause_target": 0.0},
        {"misc_safepoint_interval": float("nan")},
        {"misc_safepoint_interval": float("inf")},
        {"misc_safepoint_interval": 0.0},
        {"misc_safepoint_interval": -1.0},
        {"misc_safepoints": True, "misc_safepoint_interval": 0.0},
    ])
    def test_non_finite_or_non_positive_settings_rejected(self, bad):
        """Checked at construction: NaN fails every comparison, so a
        range check alone let it through to fail mid-run, or to run with
        an infinite budget."""
        with pytest.raises(ConfigError):
            JVMConfig(**{"gc": "G1", "heap": "1g", **bad})

    @pytest.mark.parametrize("placement", ["", "adaptive"])
    @pytest.mark.parametrize("name,value", [
        (name, value)
        for name in ("n_threads", "gc_threads", "survivor_ratio")
        for value in (None, 0, 0.0, False, True, 1, 2.0, 2.5, 8.0, 0.5, -1, "x",
                      "3", "", float("nan"), float("inf"), -float("inf"), [1], {})
    ])
    def test_refuses_exactly_what_jvm_construction_refuses(self, placement,
                                                           name, value):
        """A config holding *value* is built past the check and handed to
        ``JVM``: the check must refuse exactly the values that fail there,
        so a job the JVM refuses is refused at submit, and every value
        that runs (``n_threads: 0`` for one thread per core, a placement
        sizing an unset or zero GC pool, ``gc_threads: 2.0``) still does,
        except a thread count that is not a number
        (``test_thread_counts_must_be_numbers``)."""
        base = JVMConfig(gc="G1", heap="1g", gc_placement=placement)
        unchecked = base.with_()
        object.__setattr__(unchecked, name, value)
        try:
            JVM(unchecked)
            constructs = True
        except (ConfigError, TypeError, ValueError, OverflowError):
            constructs = False
        try:
            base.with_(**{name: value})
            accepted = True
        except ConfigError:
            accepted = False
        number = value is None or type(value) in (int, float)
        assert accepted == (constructs and (name == "survivor_ratio" or number))

    @pytest.mark.parametrize("name,value,placement", [
        ("n_threads", "", ""), ("n_threads", {}, ""), ("n_threads", [], ""),
        ("n_threads", False, ""), ("n_threads", True, ""),
        ("gc_threads", "2", ""), ("gc_threads", True, ""),
        ("gc_threads", "", "adaptive"),
    ])
    def test_thread_counts_must_be_numbers(self, name, value, placement):
        """Each of these ran as a number does (``n_threads`` "" as 0 and
        True as 1, ``gc_threads`` "2" as 2, True as 1 and "" under a
        placement as unset), but under a digest of its own."""
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            JVMConfig(gc="G1", heap="1g", gc_placement=placement,
                      **{name: value})

    def test_mutator_threads_default_one_per_core(self):
        assert JVMConfig().mutator_threads == PAPER_SERVER.cores

    def test_mutator_threads_override(self):
        assert JVMConfig(n_threads=4).mutator_threads == 4

    def test_with_returns_modified_copy(self):
        cfg = JVMConfig(heap=16 * GB)
        other = cfg.with_(gc="G1")
        assert other.gc is GCType.G1
        assert cfg.gc is GCType.PARALLEL_OLD

    def test_gc_accepts_aliases(self):
        assert JVMConfig(gc="cms").gc is GCType.CMS

    def test_baseline_config_matches_paper(self):
        cfg = baseline_config()
        assert cfg.heap_bytes == 16 * GB
        assert cfg.young_bytes == pytest.approx(5.6 * GB)
        assert cfg.gc is GCType.PARALLEL_OLD


class TestFlagParsing:
    def test_basic_flags(self):
        cfg = JVMConfig.from_flags(["-Xmx64g", "-Xmn12g", "-XX:+UseG1GC"])
        assert cfg.heap_bytes == 64 * GB
        assert cfg.young_bytes == 12 * GB
        assert cfg.gc is GCType.G1

    def test_every_gc_flag(self):
        flags = {
            "-XX:+UseSerialGC": GCType.SERIAL,
            "-XX:+UseParNewGC": GCType.PARNEW,
            "-XX:+UseParallelGC": GCType.PARALLEL,
            "-XX:+UseParallelOldGC": GCType.PARALLEL_OLD,
            "-XX:+UseConcMarkSweepGC": GCType.CMS,
            "-XX:+UseG1GC": GCType.G1,
        }
        for flag, expected in flags.items():
            assert JVMConfig.from_flags([flag]).gc is expected

    def test_tlab_flags(self):
        assert not JVMConfig.from_flags(["-XX:-UseTLAB"]).tlab.enabled
        cfg = JVMConfig.from_flags(["-XX:+UseTLAB", "-XX:TLABSize=256k"])
        assert cfg.tlab.enabled and cfg.tlab.size == 256 * 1024

    def test_gc_threads_flag(self):
        assert JVMConfig.from_flags(["-XX:ParallelGCThreads=8"]).gc_threads == 8

    def test_pause_target_flag(self):
        cfg = JVMConfig.from_flags(["-XX:MaxGCPauseMillis=50"])
        assert cfg.pause_target == 0.05

    def test_survivor_ratio_flag(self):
        assert JVMConfig.from_flags(["-XX:SurvivorRatio=6"]).survivor_ratio == 6

    def test_xms_xmx_must_agree(self):
        with pytest.raises(ConfigError):
            JVMConfig.from_flags(["-Xms8g", "-Xmx16g"])

    def test_xms_alone_sets_heap(self):
        assert JVMConfig.from_flags(["-Xms8g"]).heap_bytes == 8 * GB

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError):
            JVMConfig.from_flags(["-XX:+UseTrainGC"])

    def test_overrides_win(self):
        cfg = JVMConfig.from_flags(["-Xmx8g"], seed=7)
        assert cfg.seed == 7
