"""Tests for the configuration package (Table 1, technology, disk)."""

import pytest

import dataclasses

from repro.config import (
    CacheConfig,
    ConfigError,
    CoreConfig,
    DiskGeometry,
    DiskMode,
    DiskPowerPolicy,
    MemoryConfig,
    SystemConfig,
    TLBConfig,
    Technology,
    disk_configuration,
    switching_energy,
)
from repro.config.diskcfg import (
    ALL_DISK_CONFIGURATIONS,
    MK3003MAN_POWER_W,
    SPINDOWN_TIME_S,
    SPINUP_TIME_S,
)
from repro.config.system import MIN_CLOCK_HZ

KB = 1024
MB = 1024 * KB


class TestTable1:
    def test_baseline_matches_paper(self):
        config = SystemConfig.table1()
        assert config.core.window_size == 64
        assert config.core.lsq_size == 32
        assert config.core.fetch_width == 4
        assert config.core.decode_width == 4
        assert config.core.issue_width == 4
        assert config.core.commit_width == 4
        assert config.core.int_alus == 2
        assert config.core.fp_alus == 2
        assert config.core.bht_entries == 1024
        assert config.core.btb_entries == 1024
        assert config.core.ras_entries == 32
        assert config.core.int_registers == 34
        assert config.core.fp_registers == 32

    def test_cache_hierarchy_matches_paper(self):
        config = SystemConfig.table1()
        assert config.l1i.size_bytes == 32 * KB
        assert config.l1i.line_bytes == 64
        assert config.l1i.associativity == 2
        assert config.l1d.size_bytes == 32 * KB
        assert config.l2.size_bytes == 1 * MB
        assert config.l2.line_bytes == 128
        assert config.l2.associativity == 2
        assert config.tlb.entries == 64
        assert config.memory.size_bytes == 128 * MB

    def test_technology_matches_paper(self):
        config = SystemConfig.table1()
        assert config.technology.feature_size_um == pytest.approx(0.35)
        assert config.technology.vdd == pytest.approx(3.3)
        assert config.technology.clock_hz == pytest.approx(200e6)

    def test_single_issue_variant(self):
        config = SystemConfig.table1().single_issue()
        assert config.core.fetch_width == 1
        assert config.core.issue_width == 1
        assert config.core.commit_width == 1
        # Structural resources are unchanged.
        assert config.core.window_size == 64

    def test_hardware_tlb_variant(self):
        config = SystemConfig.table1().with_hardware_tlb()
        assert not config.tlb.software_managed
        assert SystemConfig.table1().tlb.software_managed


class TestCacheConfig:
    def test_derived_geometry(self):
        cache = CacheConfig(name="x", size_bytes=32 * KB, line_bytes=64,
                            associativity=2, latency_cycles=1)
        assert cache.num_sets == 256
        assert cache.num_lines == 512
        assert cache.tag_bits == 32 - 6 - 8

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheConfig(name="x", size_bytes=24 * KB, line_bytes=48,
                        associativity=2, latency_cycles=1)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(name="x", size_bytes=1000, line_bytes=64,
                        associativity=2, latency_cycles=1)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            CacheConfig(name="x", size_bytes=0, line_bytes=64,
                        associativity=2, latency_cycles=1)

    def test_direct_mapped_is_legal(self):
        cache = CacheConfig(name="dm", size_bytes=16 * KB, line_bytes=32,
                            associativity=1, latency_cycles=1)
        assert cache.num_sets == 512


class TestTLBConfig:
    def test_defaults(self):
        tlb = TLBConfig()
        assert tlb.entries == 64
        assert tlb.page_bytes == 4096
        assert tlb.software_managed

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            TLBConfig(page_bytes=3000)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0)


class TestCoreConfig:
    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(ValueError):
            CoreConfig(fetch_width=0)

    def test_as_single_issue_preserves_other_fields(self):
        core = CoreConfig().as_single_issue()
        assert core.lsq_size == CoreConfig().lsq_size


class TestMemoryConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MemoryConfig(size_bytes=0)


class TestTechnology:
    def test_switching_energy_scales_with_capacitance(self):
        assert switching_energy(2e-12) == pytest.approx(2 * switching_energy(1e-12))

    def test_switching_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            switching_energy(-1e-15)

    def test_cycle_time(self):
        tech = Technology(clock_hz=200e6)
        assert tech.cycle_time_s == pytest.approx(5e-9)

    def test_energy_to_average_power(self):
        tech = Technology(clock_hz=200e6)
        # 1 J over 200M cycles (1 second) is 1 W.
        assert tech.energy_to_average_power(1.0, 200_000_000) == pytest.approx(1.0)

    def test_energy_to_average_power_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            Technology().energy_to_average_power(1.0, 0)

    def test_lower_vdd_lowers_energy(self):
        low = Technology(vdd=1.8)
        high = Technology(vdd=3.3)
        assert low.switching_energy(1e-12) < high.switching_energy(1e-12)


class TestDiskConfig:
    def test_figure2_power_values(self):
        assert MK3003MAN_POWER_W[DiskMode.SLEEP] == pytest.approx(0.15)
        assert MK3003MAN_POWER_W[DiskMode.IDLE] == pytest.approx(1.6)
        assert MK3003MAN_POWER_W[DiskMode.STANDBY] == pytest.approx(0.35)
        assert MK3003MAN_POWER_W[DiskMode.ACTIVE] == pytest.approx(3.2)
        assert MK3003MAN_POWER_W[DiskMode.SEEK] == pytest.approx(4.1)
        assert MK3003MAN_POWER_W[DiskMode.SPINUP] == pytest.approx(4.2)
        assert MK3003MAN_POWER_W[DiskMode.SPINDOWN] == pytest.approx(0.0)

    def test_spin_transition_times(self):
        assert SPINUP_TIME_S == pytest.approx(5.0)
        assert SPINDOWN_TIME_S == pytest.approx(5.0)

    def test_four_configurations(self):
        assert ALL_DISK_CONFIGURATIONS == (1, 2, 3, 4)
        assert disk_configuration(1).conventional
        assert disk_configuration(2).spindown_threshold_s is None
        assert not disk_configuration(2).conventional
        assert disk_configuration(3).spindown_threshold_s == pytest.approx(2.0)
        assert disk_configuration(4).spindown_threshold_s == pytest.approx(4.0)

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            disk_configuration(5)

    def test_conventional_cannot_have_threshold(self):
        with pytest.raises(ValueError):
            DiskPowerPolicy(name="bad", conventional=True, spindown_threshold_s=2.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            DiskPowerPolicy(name="bad", spindown_threshold_s=0.0)

    def test_nan_threshold_rejected_inf_kept(self):
        with pytest.raises(ValueError, match="nan"):
            DiskPowerPolicy(name="bad", spindown_threshold_s=float("nan"))
        # inf is legal: the disk never spins down.
        DiskPowerPolicy(name="never", spindown_threshold_s=float("inf"))

    def test_geometry_derived_values(self):
        geometry = DiskGeometry()
        assert geometry.rotation_time_s == pytest.approx(60.0 / 5400.0)
        assert geometry.track_bytes == 72 * 512
        assert geometry.transfer_rate_bytes_per_s > 1e6

    def test_geometry_rejects_inverted_seek_curve(self):
        with pytest.raises(ValueError):
            DiskGeometry(min_seek_ms=20.0, avg_seek_ms=10.0, max_seek_ms=30.0)


class TestValidate:
    """Cross-field validation (`SystemConfig.validate`)."""

    def test_table1_validates_and_chains(self):
        config = SystemConfig.table1()
        assert config.validate() is config

    def test_non_power_of_two_associativity_names_the_field(self):
        base = SystemConfig.table1()
        # 768 KB / (128 B x 3 ways) = 2048 sets: constructible (every
        # per-dataclass check passes) yet not meaningfully indexable.
        bad = dataclasses.replace(
            base,
            l2=dataclasses.replace(
                base.l2, size_bytes=768 * KB, associativity=3
            ),
        )
        with pytest.raises(ConfigError) as info:
            bad.validate()
        assert info.value.field == "l2.associativity"
        assert "power of two" in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_inverted_hierarchy_latency_rejected(self):
        base = SystemConfig.table1()
        bad = dataclasses.replace(
            base, l1d=dataclasses.replace(base.l1d, latency_cycles=8)
        )
        with pytest.raises(ConfigError) as info:
            bad.validate()
        assert info.value.field == "l1d.latency_cycles"

    def test_l2_slower_than_memory_rejected(self):
        base = SystemConfig.table1()
        bad = dataclasses.replace(
            base, l2=dataclasses.replace(base.l2, latency_cycles=60)
        )
        with pytest.raises(ConfigError) as info:
            bad.validate()
        assert info.value.field == "l2.latency_cycles"

    def test_l1_line_wider_than_l2_line_rejected(self):
        base = SystemConfig.table1()
        bad = dataclasses.replace(
            base, l1i=dataclasses.replace(base.l1i, line_bytes=256)
        )
        with pytest.raises(ConfigError) as info:
            bad.validate()
        assert info.value.field == "l1i.line_bytes"

    def test_hardware_refill_latency_must_be_positive(self):
        base = SystemConfig.table1()
        bad = dataclasses.replace(
            base, tlb=dataclasses.replace(base.tlb, hardware_refill_cycles=0)
        )
        with pytest.raises(ConfigError) as info:
            bad.validate()
        assert info.value.field == "tlb.hardware_refill_cycles"

    def test_technology_sanity(self):
        base = SystemConfig.table1()
        for field, value in (
            ("vdd", 0.0),
            ("clock_hz", -1.0),
            ("clock_hz", MIN_CLOCK_HZ / 2),
            ("calibration", -0.5),
            ("feature_size_um", 0.0),
        ):
            bad = dataclasses.replace(
                base,
                technology=dataclasses.replace(base.technology, **{field: value}),
            )
            with pytest.raises(ConfigError) as info:
                bad.validate()
            assert info.value.field == f"technology.{field}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["vdd", "clock_hz", "calibration", "feature_size_um"]
    )
    def test_technology_rejects_non_finite(self, field, value):
        from repro.core.campaign import sweep_source
        from repro.stats import AccessCounters, CounterBundle

        def transform(config, swept):
            return dataclasses.replace(
                config,
                technology=dataclasses.replace(
                    config.technology, **{field: swept}
                ),
            )

        with pytest.raises(ConfigError) as info:
            transform(SystemConfig.table1(), value).validate()
        assert info.value.field == f"technology.{field}"
        with pytest.raises(ConfigError):
            sweep_source(
                CounterBundle(AccessCounters(), cycles=1.0), field, [value],
                transform=transform,
            )

    def test_softwatt_constructor_validates(self):
        from repro.core.softwatt import SoftWatt

        base = SystemConfig.table1()
        bad = dataclasses.replace(
            base,
            l2=dataclasses.replace(base.l2, size_bytes=768 * KB, associativity=3),
        )
        with pytest.raises(ConfigError):
            SoftWatt(bad, use_cache=False)
