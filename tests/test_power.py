"""Tests for the analytical power models."""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, SystemConfig, Technology
from repro.power import (
    ArrayEnergyModel,
    CacheEnergyModel,
    CAMEnergyModel,
    CATEGORIES,
    REGISTRY,
    ClockNetworkModel,
    ClockedUnit,
    FunctionalUnitEnergyModel,
    MemoryEnergyModel,
    ProcessorPowerModel,
    gating_factor,
    r10000_max_power,
    unit_activity,
)
from repro.stats.counters import AccessCounters

KB = 1024


def _cache_config(size=32 * KB, line=64, assoc=2):
    return CacheConfig(name="c", size_bytes=size, line_bytes=line,
                       associativity=assoc, latency_cycles=1)


class TestCacheEnergyModel:
    def test_breakdown_components_positive(self):
        model = CacheEnergyModel(_cache_config(), output_bits=128)
        breakdown = model.breakdown()
        assert breakdown.decode_j > 0
        assert breakdown.wordline_j > 0
        assert breakdown.bitline_j > 0
        assert breakdown.sense_j > 0
        assert breakdown.tag_j > 0
        assert breakdown.output_j > 0
        assert breakdown.total_j == pytest.approx(
            breakdown.decode_j + breakdown.wordline_j + breakdown.bitline_j
            + breakdown.sense_j + breakdown.tag_j + breakdown.output_j)

    def test_write_skips_sense_amps(self):
        model = CacheEnergyModel(_cache_config(), output_bits=64)
        assert model.breakdown(write=True).sense_j == 0.0

    def test_larger_cache_costs_more_per_access(self):
        small = CacheEnergyModel(_cache_config(size=8 * KB), output_bits=64)
        large = CacheEnergyModel(_cache_config(size=64 * KB), output_bits=64)
        assert large.read_energy_j() > small.read_energy_j()

    def test_l2_serial_tag_data_reads_one_way(self):
        config = SystemConfig.table1()
        l2 = CacheEnergyModel(config.l2, output_bits=1024)
        assert l2.serial_tag_data
        assert l2.data_columns == config.l2.line_bytes * 8
        l1 = CacheEnergyModel(config.l1i, output_bits=128)
        assert not l1.serial_tag_data
        assert l1.data_columns == config.l1i.line_bytes * 8 * 2

    def test_subarray_bounds_bitline_length(self):
        model = CacheEnergyModel(_cache_config(size=1 << 20, line=128),
                                 output_bits=1024)
        assert model.subarray_rows <= 256
        assert model.rows > model.subarray_rows

    def test_l2_per_access_exceeds_l1(self):
        """Section 3.2: L2 has a high per-access cost."""
        config = SystemConfig.table1()
        l1 = CacheEnergyModel(config.l1d, output_bits=64)
        l2 = CacheEnergyModel(config.l2, output_bits=1024)
        assert l2.read_energy_j() > l1.read_energy_j()

    def test_blended_access_energy(self):
        model = CacheEnergyModel(_cache_config(), output_bits=64)
        read = model.read_energy_j()
        write = model.write_energy_j()
        blended = model.access_energy_j(write_fraction=0.5)
        assert min(read, write) <= blended <= max(read, write)

    def test_blend_fraction_validated(self):
        model = CacheEnergyModel(_cache_config(), output_bits=64)
        with pytest.raises(ValueError):
            model.access_energy_j(write_fraction=1.5)

    def test_rejects_zero_output_bits(self):
        with pytest.raises(ValueError):
            CacheEnergyModel(_cache_config(), output_bits=0)


class TestArrayAndCAM:
    def test_array_read_energy_positive_and_monotone(self):
        small = ArrayEnergyModel("a", rows=16, bits_per_row=32)
        large = ArrayEnergyModel("b", rows=256, bits_per_row=32)
        assert 0 < small.access_energy_j() < large.access_energy_j()

    def test_array_latch_bits(self):
        assert ArrayEnergyModel("a", rows=64, bits_per_row=96).latch_bits == 6144

    def test_cam_search_scales_with_entries(self):
        small = CAMEnergyModel("s", entries=16, tag_bits=20)
        large = CAMEnergyModel("l", entries=128, tag_bits=20)
        assert small.search_energy_j() < large.search_energy_j()

    def test_cam_data_read_adds_energy(self):
        bare = CAMEnergyModel("s", entries=64, tag_bits=20)
        payload = CAMEnergyModel("s", entries=64, tag_bits=20, data_bits=64)
        assert payload.search_energy_j() > bare.search_energy_j()

    def test_cam_write_energy_positive(self):
        assert CAMEnergyModel("s", entries=64, tag_bits=20).write_energy_j() > 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayEnergyModel("bad", rows=0, bits_per_row=8)
        with pytest.raises(ValueError):
            CAMEnergyModel("bad", entries=4, tag_bits=0)


class TestClockNetwork:
    def test_capacitance_components(self):
        clock = ClockNetworkModel(clocked_bits=30_000)
        assert clock.wire_capacitance_f > 0
        assert clock.buffer_capacitance_f > 0
        assert clock.load_capacitance_f > 0
        assert clock.total_capacitance_f == pytest.approx(
            clock.wire_capacitance_f + clock.buffer_capacitance_f
            + clock.load_capacitance_f)

    def test_gating_reduces_energy(self):
        clock = ClockNetworkModel(clocked_bits=30_000)
        full = clock.energy_per_cycle_j(gating_factor=1.0)
        gated = clock.energy_per_cycle_j(gating_factor=0.3)
        spine = clock.energy_per_cycle_j(gating_factor=0.0)
        assert spine < gated < full

    def test_spine_always_burns(self):
        clock = ClockNetworkModel(clocked_bits=1000)
        assert clock.energy_per_cycle_j(gating_factor=0.0) > 0

    def test_gating_factor_validated(self):
        clock = ClockNetworkModel(clocked_bits=1000)
        with pytest.raises(ValueError):
            clock.energy_per_cycle_j(gating_factor=1.5)

    def test_max_power_matches_ungated_energy(self):
        tech = Technology()
        clock = ClockNetworkModel(clocked_bits=10_000, technology=tech)
        assert clock.max_power_w() == pytest.approx(
            clock.energy_per_cycle_j() * tech.clock_hz)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ClockNetworkModel(clocked_bits=0)
        with pytest.raises(ValueError):
            ClockNetworkModel(clocked_bits=100, load_derating=0.0)


class TestConditionalClocking:
    def test_activity_saturates_at_one(self):
        counters = AccessCounters(l1i_access=10_000)
        unit = ClockedUnit("l1i", 1024, "l1i_access", ports=1)
        assert unit_activity(counters, 100, unit) == 1.0

    def test_activity_proportional_below_saturation(self):
        counters = AccessCounters(l1d_access=50)
        unit = ClockedUnit("l1d", 1024, "l1d_access", ports=1)
        assert unit_activity(counters, 100, unit) == pytest.approx(0.5)

    def test_ports_scale_activity(self):
        counters = AccessCounters(l1i_access=200)
        wide = ClockedUnit("l1i", 1024, "l1i_access", ports=4)
        assert unit_activity(counters, 100, wide) == pytest.approx(0.5)

    def test_gating_factor_weighted_by_latch_bits(self):
        counters = AccessCounters(l1i_access=100, l1d_access=0)
        busy = ClockedUnit("busy", 3000, "l1i_access", ports=1)
        idle = ClockedUnit("idle", 1000, "l1d_access", ports=1)
        factor = gating_factor(counters, 100, (busy, idle))
        assert factor == pytest.approx(0.75)

    def test_gating_requires_units(self):
        with pytest.raises(ValueError):
            gating_factor(AccessCounters(), 100, ())

    @given(st.integers(1, 10_000), st.integers(1, 1_000_000))
    @settings(max_examples=50, deadline=None)
    def test_gating_factor_bounded(self, cycles, accesses):
        counters = AccessCounters(l1i_access=accesses)
        unit = ClockedUnit("u", 100, "l1i_access", ports=2)
        factor = gating_factor(counters, cycles, (unit,))
        assert 0.0 <= factor <= 1.0


class TestFunctionalUnits:
    def test_relative_ordering(self):
        fus = FunctionalUnitEnergyModel()
        assert fus.ialu_energy_j() < fus.imul_energy_j()
        assert fus.falu_energy_j() < fus.fmul_energy_j()
        assert fus.ialu_energy_j() < fus.falu_energy_j()

    def test_result_bus_positive(self):
        assert FunctionalUnitEnergyModel().result_bus_energy_j() > 0


class TestMemoryEnergy:
    def test_access_energy_dominates_at_high_rate(self):
        model = MemoryEnergyModel()
        active = model.energy_j(accesses=10_000, cycles=100_000)
        idle = model.energy_j(accesses=0, cycles=100_000)
        assert active > idle * 5

    def test_refresh_accrues_with_time(self):
        model = MemoryEnergyModel()
        assert model.energy_j(0, 2_000_000) == pytest.approx(
            2 * model.energy_j(0, 1_000_000))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MemoryEnergyModel().energy_j(-1, 100)


class TestProcessorPowerModel:
    def setup_method(self):
        self.config = SystemConfig.table1()
        self.model = ProcessorPowerModel(self.config)

    def test_r10000_validation_number(self):
        """Section 2: SoftWatt reports 25.3 W vs the 30 W datasheet."""
        power = r10000_max_power()
        assert power == pytest.approx(25.3, abs=0.5)
        assert power < 30.0

    def test_all_categories_reported(self):
        counters = self.model.max_power_counters(1000)
        energies = self.model.energy_by_category(counters, 1000)
        assert set(energies) == set(REGISTRY.counter_categories)
        # The full report order additionally carries the disk, last.
        assert tuple(energies) + ("disk",) == CATEGORIES
        assert all(value >= 0 for value in energies.values())

    def test_energy_scales_with_activity(self):
        low = AccessCounters(l1i_access=100, window_dispatch=100)
        high = AccessCounters(l1i_access=10_000, window_dispatch=10_000)
        e_low = self.model.energy_by_category(low, 10_000)["l1i"]
        e_high = self.model.energy_by_category(high, 10_000)["l1i"]
        assert e_high == pytest.approx(100 * e_low)

    def test_idle_machine_burns_clock_and_refresh_only(self):
        energies = self.model.energy_by_category(AccessCounters(), 10_000)
        assert energies["clock"] > 0          # the spine always switches
        assert energies["memory"] > 0         # refresh
        assert energies["l1i"] == 0.0
        assert energies["datapath"] == 0.0

    def test_average_power_consistent_with_energy(self):
        counters = self.model.max_power_counters(1000)
        power = self.model.average_power_w(counters, 1000)
        energy = self.model.energy_by_category(counters, 1000)
        seconds = 1000 * self.config.technology.cycle_time_s
        for name in REGISTRY.counter_categories:
            assert power[name] == pytest.approx(energy[name] / seconds)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            self.model.energy_by_category(AccessCounters(), 0)

    def test_stores_cost_more_than_loads_in_l1d(self):
        loads = AccessCounters(l1d_access=1000, loads=1000)
        stores = AccessCounters(l1d_access=1000, stores=1000)
        e_loads = self.model.energy_by_category(loads, 1000)["l1d"]
        e_stores = self.model.energy_by_category(stores, 1000)["l1d"]
        assert e_loads != e_stores

    def test_total_energy_additive_over_categories(self):
        counters = self.model.max_power_counters(500)
        total = self.model.total_energy_j(counters, 500)
        parts = self.model.energy_by_category(counters, 500)
        assert total == pytest.approx(sum(parts.values()))


class TestPerModelConstants:
    """Per-access energies are constants of one model, never shared."""

    @staticmethod
    def _config(vdd):
        config = SystemConfig.table1()
        return dataclasses.replace(
            config, technology=dataclasses.replace(config.technology, vdd=vdd)
        )

    def test_interleaved_supplies_price_like_fresh_models(self):
        counters = ProcessorPowerModel(SystemConfig.table1()).max_power_counters(800)
        models = {vdd: ProcessorPowerModel(self._config(vdd)) for vdd in (3.3, 2.0)}
        ledgers = []
        for vdd in (3.3, 2.0, 3.3):
            ledger = models[vdd].ledger(counters, 800)
            fresh = ProcessorPowerModel(self._config(vdd)).ledger(counters, 800)
            assert ledger == fresh, vdd
            ledgers.append(ledger)
        assert ledgers[0] == ledgers[2]
        assert ledgers[0] != ledgers[1]

    def test_priced_model_is_collected(self):
        model = ProcessorPowerModel(self._config(2.5))
        model.ledger(model.max_power_counters(100), 100)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_energy_methods_return_the_kept_constants(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        assert model.l1d.read_energy_j() == model.l1d.breakdown().total_j
        assert model.l1d.write_energy_j() == model.l1d.breakdown(write=True).total_j
        assert model.l2.access_energy_j(write_fraction=0.0) == model.l2.read_j
        assert model.regfile.access_energy_j(write=True) == model.regfile.write_j
        assert model.tlb.search_energy_j() == model.tlb.search_j
        assert model.fus.result_bus_energy_j() == model.fus.result_bus_j
        clock = model.clock
        assert clock.spine_capacitance_f == (
            clock.wire_capacitance_f + clock.buffer_capacitance_f
        )
