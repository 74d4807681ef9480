"""Tests for the DVFS sweep axis and the thermal model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import SoftWatt
from repro.config import SystemConfig, Technology
from repro.core.campaign import SweepCampaign, point_from_result
from repro.power import ThermalModel, operating_point, scaled_frequency_hz
from repro.power.dvfs import THRESHOLD_V
from repro.stats.postprocess import PowerTrace

SETTINGS = dict(window_instructions=12_000, seed=1)
VDDS = [3.3, 2.0, 1.6]


@pytest.fixture(scope="module")
def result():
    return SoftWatt(**SETTINGS).run("jess", disk=2)


@pytest.fixture(scope="module")
def dvfs():
    """jess swept across supply voltages at their alpha-power clocks."""
    campaign = SweepCampaign(benchmark="jess", disk=2, **SETTINGS)
    return campaign.run("vdd", VDDS, transform=operating_point)


def _non_disk_j(point):
    return point.energy_j - point.component_energy_j["disk"]


class TestDVFSScaling:
    def test_base_point_is_identity(self):
        base = Technology()
        assert scaled_frequency_hz(base.vdd, base) == base.clock_hz
        config = SystemConfig.table1()
        assert operating_point(config, base.vdd) == config

    def test_frequency_monotone_in_voltage(self):
        base = Technology()
        frequencies = [scaled_frequency_hz(v, base) for v in (1.2, 1.8, 2.4, 3.3)]
        assert frequencies == sorted(frequencies)

    def test_below_threshold_rejected(self):
        base = Technology()
        with pytest.raises(ValueError):
            scaled_frequency_hz(THRESHOLD_V, base)
        with pytest.raises(ValueError):
            operating_point(SystemConfig.table1(), 0.4)

    def test_base_evaluation_matches_run(self, dvfs, result):
        """The base voltage is the base run, re-priced on the ledger
        tier."""
        assert dvfs.tiers == ("LEDGER", "TIMELINE", "TIMELINE")
        assert dataclasses.asdict(dvfs.points[0]) == dataclasses.asdict(
            point_from_result(VDDS[0], result))

    def test_lower_voltage_cuts_cpu_energy(self, dvfs):
        non_disk = [_non_disk_j(point) for point in dvfs.points]
        assert non_disk == sorted(non_disk, reverse=True)
        assert non_disk[1] < non_disk[0]
        assert non_disk[-1] < non_disk[0]

    def test_lower_voltage_stretches_runtime(self, dvfs):
        durations = [point.duration_s for point in dvfs.points]
        assert durations == sorted(durations)
        assert durations[0] < durations[-1]

    def test_disk_energy_grows_when_slower(self, dvfs):
        """The system-level DVFS tax: a slower CPU keeps the platter
        powered longer."""
        disk = [point.component_energy_j["disk"] for point in dvfs.points]
        assert disk == sorted(disk)
        assert disk[0] < disk[-1]

    def test_sweep_shape(self, dvfs):
        assert [point.value for point in dvfs.points] == VDDS
        assert all(point.energy_j > 0 for point in dvfs.points)

    @given(st.floats(0.9, 3.3))
    @settings(max_examples=30, deadline=None)
    def test_frequency_bounded_by_base(self, vdd):
        base = Technology()
        assert scaled_frequency_hz(vdd, base) <= base.clock_hz * 1.0000001


class TestThermalModel:
    def _flat_trace(self, watts, samples=50, step=0.1):
        times = [step * (i + 0.5) for i in range(samples)]
        return PowerTrace(
            times_s=times,
            category_w={"datapath": [watts] * samples},
            disk_w=[0.0] * samples,
        )

    def test_steady_state(self):
        model = ThermalModel()
        assert model.steady_state_c(0.0) == pytest.approx(model.ambient_c)
        assert model.steady_state_c(10.0) == pytest.approx(
            model.ambient_c + 10.0 * model.r_thermal)

    def test_temperature_approaches_steady_state(self):
        model = ThermalModel()
        trace = self._flat_trace(10.0, samples=4000)
        profile = model.profile(trace)
        assert profile.temperature_c[-1] == pytest.approx(
            model.steady_state_c(10.0), abs=0.5)

    def test_temperature_monotone_under_constant_power(self):
        model = ThermalModel()
        profile = model.profile(self._flat_trace(12.0, samples=100))
        temps = profile.temperature_c
        assert all(b >= a - 1e-9 for a, b in zip(temps, temps[1:]))

    def test_sustainable_power_threshold(self):
        model = ThermalModel()
        safe = model.sustainable_power_w() * 0.9
        hot = model.sustainable_power_w() * 1.3
        assert not model.profile(self._flat_trace(safe, samples=4000)).dtm_engaged
        assert model.profile(self._flat_trace(hot, samples=4000)).dtm_engaged

    def test_time_above(self):
        model = ThermalModel()
        profile = model.profile(self._flat_trace(30.0, samples=4000))
        assert profile.time_above(model.ambient_c + 1.0) > 0.0
        assert profile.time_above(1000.0) == 0.0

    def test_real_run_stays_cool(self, result):
        """The Table 1 machine averages ~5-7 W: far below the ~22 W the
        package can sustain — the average-power design argument."""
        model = ThermalModel()
        profile = model.profile(result.trace)
        assert not profile.dtm_engaged
        assert profile.peak_c < model.trip_c - 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalModel(r_thermal=0.0)
        with pytest.raises(ValueError):
            ThermalModel(trip_c=10.0)
        with pytest.raises(ValueError):
            ThermalModel().steady_state_c(-1.0)

    @given(st.floats(0.0, 40.0), st.floats(0.5, 4.0), st.floats(5.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_temperature_bounded_by_steady_state(self, watts, r, c):
        model = ThermalModel(r_thermal=r, c_thermal=c)
        profile = model.profile(self._flat_trace(watts, samples=200))
        ceiling = max(model.ambient_c, model.steady_state_c(watts)) + 1e-6
        assert all(t <= ceiling for t in profile.temperature_c)
        assert all(t >= model.ambient_c - 1e-6 for t in profile.temperature_c)
