"""Tests for the SoftWatt core: profiler, timeline, facade, reports."""

import pytest

from repro import SoftWatt
from repro.config import SystemConfig
from repro.core import Profiler, TimelineSimulator, disk_power_series
from repro.kernel import ExecutionMode
from repro.power import ProcessorPowerModel
from repro.workloads import benchmark

WINDOW = 25_000  # small windows keep the test suite fast


@pytest.fixture(scope="module")
def softwatt():
    return SoftWatt(window_instructions=WINDOW, seed=1)


@pytest.fixture(scope="module")
def jess_result(softwatt):
    return softwatt.run("jess", disk=1)


class TestProfiler:
    @pytest.fixture(scope="class")
    def profile(self):
        # A larger window than the rest of the suite: phase-level
        # contrasts need some statistics behind them.
        profiler = Profiler(window_instructions=40_000, seed=1)
        return profiler.profile_benchmark(benchmark("jess"))

    def test_all_phases_profiled(self, profile):
        assert set(profile.phases) == {"startup", "steady", "gc"}

    def test_cold_startup_has_more_dram_traffic_than_warm_steady(self, profile):
        """Cold caches during startup cause "several memory accesses"
        (Section 3.2) with a high per-access cost — more main-memory
        traffic per cycle than the warmed steady phase.  This is the
        source of the Figure 3 memory-power ramp."""
        startup = profile.phases["startup"].aggregate
        steady = profile.phases["steady"].chunks[-1]

        def dram_rate(stats):
            return stats.total_counters().mem_access / max(1, stats.cycles)

        assert dram_rate(startup) > dram_rate(steady)

    def test_startup_measured_in_more_chunks(self, profile):
        assert len(profile.phases["startup"].chunks) > len(
            profile.phases["steady"].chunks) - 1

    def test_utlb_traps_emerge(self, profile):
        assert profile.phases["steady"].invocations.get("utlb", 0) > 0

    def test_idle_profile_present(self, profile):
        assert profile.idle.stats.cycles > 0
        assert "idle" in profile.idle.stats.labels

    def test_mode_cycles_cover_run(self, profile):
        phase = profile.phases["steady"]
        by_mode = sum(phase.mode_cycles().values())
        assert by_mode == pytest.approx(phase.aggregate.cycles, rel=0.01)

    def test_profiler_validates_arguments(self):
        with pytest.raises(ValueError):
            Profiler(cpu_model="alpha")
        with pytest.raises(ValueError):
            Profiler(window_instructions=10)


class TestServiceProfiles:
    @pytest.fixture(scope="class")
    def profiles(self):
        profiler = Profiler(window_instructions=WINDOW, seed=1)
        model = ProcessorPowerModel(SystemConfig.table1())
        return {
            name: profiler.profile_service(name, invocations=25).priced(model)
            for name in ("utlb", "read", "demand_zero", "cacheflush", "open", "write")
        }

    def test_internal_services_are_steadier_than_io(self, profiles):
        """Table 5's central claim: internal kernel services have nearly
        constant per-invocation energy; I/O services vary with data."""
        internal = max(profiles[s].coefficient_of_deviation
                       for s in ("utlb", "demand_zero", "cacheflush"))
        external = min(profiles[s].coefficient_of_deviation
                       for s in ("read", "write", "open"))
        assert internal < external

    def test_utlb_deviation_is_tiny(self, profiles):
        assert profiles["utlb"].coefficient_of_deviation < 3.0

    def test_utlb_in_run_power_is_lowest(self):
        """Figure 8: in real runs (where utlb invocations include their
        trap-entry overhead) utlb's average power is well below the
        data-intensive services'."""
        sw = SoftWatt(window_instructions=WINDOW, seed=2)
        result = sw.run("jess", disk=1)
        timeline = result.timeline
        cycle_time = sw.model.technology.cycle_time_s

        def label_power(service):
            cycles = timeline.label_cycles[service]
            counters = timeline.label_counters[service]
            energy = sum(
                sw.model.energy_by_category(counters, int(cycles)).values())
            return energy / (cycles * cycle_time)

        utlb = label_power("utlb")
        assert label_power("read") > utlb
        assert label_power("demand_zero") > utlb

    def test_utlb_is_cheapest_per_invocation(self, profiles):
        utlb = profiles["utlb"].mean_energy_j
        for name in ("read", "demand_zero", "cacheflush", "open", "write"):
            assert profiles[name].mean_energy_j > utlb

    def test_category_breakdown_present(self, profiles):
        assert sum(profiles["read"].category_energy_j.values()) == pytest.approx(
            profiles["read"].mean_energy_j, rel=0.01)

    def test_mean_counters_populated(self, profiles):
        assert profiles["read"].mean_counters.l1d_access > 0
        assert profiles["read"].instructions_per_invocation > 100


class TestTimeline:
    @pytest.fixture(scope="class")
    def profile(self):
        return Profiler(window_instructions=WINDOW, seed=1).profile_benchmark(
            benchmark("jess"))

    def test_log_covers_duration(self, profile):
        result = TimelineSimulator(profile, disk_policy=1).run()
        assert result.log.duration_s == pytest.approx(result.duration_s, abs=0.2)

    def test_duration_is_compute_plus_io_wait(self, profile):
        result = TimelineSimulator(profile, disk_policy=1).run()
        assert result.duration_s == pytest.approx(
            result.compute_duration_s + result.idle_wait_s, rel=0.02)

    def test_mode_cycles_sum_to_total(self, profile):
        result = TimelineSimulator(profile, disk_policy=1).run()
        total = result.duration_s * 200e6
        assert result.total_cycles == pytest.approx(total, rel=0.05)

    def test_idle_cycles_come_from_disk_waits(self, profile):
        result = TimelineSimulator(profile, disk_policy=1).run()
        idle = result.mode_cycles[ExecutionMode.IDLE]
        assert idle == pytest.approx(result.idle_wait_s * 200e6, rel=0.05)

    def test_spindown_policy_stretches_the_run(self, profile):
        """compress-style pathology on jess would not fire (short gaps);
        use config 3 vs 2 and expect *no* stretch for jess."""
        fast = TimelineSimulator(profile, disk_policy=2).run()
        spin = TimelineSimulator(profile, disk_policy=3).run()
        assert spin.duration_s == pytest.approx(fast.duration_s, rel=0.01)
        assert spin.disk.state.spindowns == 0

    def test_disk_power_series_matches_energy(self, profile):
        result = TimelineSimulator(profile, disk_policy=1).run()
        series = disk_power_series(result.disk, result.log)
        integrated = sum(
            w * r.duration_s for w, r in zip(series, result.log))
        assert integrated == pytest.approx(result.disk.energy.energy_j, rel=0.02)

    def test_speed_factor_scales_duration(self, profile):
        base = TimelineSimulator(profile, disk_policy=2).run()
        slow = TimelineSimulator(profile, disk_policy=2, speed_factor=2.0).run()
        assert slow.compute_duration_s == pytest.approx(
            2.0 * base.compute_duration_s)

    def test_validation(self, profile):
        with pytest.raises(ValueError):
            TimelineSimulator(profile, sample_interval_s=0.0)
        with pytest.raises(ValueError):
            TimelineSimulator(profile, speed_factor=0.0)


class TestSoftWattFacade:
    def test_validation_number(self, softwatt):
        assert softwatt.validate_max_power() == pytest.approx(25.3, abs=0.5)

    def test_profile_cached(self, softwatt):
        first = softwatt.profile("jess")
        second = softwatt.profile("jess")
        assert first is second

    def test_mode_percentages_sum_to_100(self, jess_result):
        modes = jess_result.mode_breakdown()
        assert sum(r.cycles_pct for r in modes.values()) == pytest.approx(100.0)
        assert sum(r.energy_pct for r in modes.values()) == pytest.approx(100.0)

    def test_user_mode_dominates(self, jess_result):
        modes = jess_result.mode_breakdown()
        user = modes[ExecutionMode.USER]
        assert user.cycles_pct > 50.0
        for mode, row in modes.items():
            if mode is not ExecutionMode.USER:
                assert row.cycles_pct < user.cycles_pct

    def test_user_energy_share_exceeds_cycle_share(self, jess_result):
        """Table 2's pattern: user energy% > user cycles%."""
        user = jess_result.mode_breakdown()[ExecutionMode.USER]
        assert user.energy_pct > user.cycles_pct

    def test_kernel_energy_share_below_cycle_share(self, jess_result):
        kernel = jess_result.mode_breakdown()[ExecutionMode.KERNEL]
        assert kernel.energy_pct < kernel.cycles_pct

    def test_power_budget_shares_sum_to_100(self, jess_result):
        shares = jess_result.power_budget_shares()
        assert sum(shares.values()) == pytest.approx(100.0)
        assert shares["disk"] > 20.0  # conventional disk dominates

    def test_utlb_dominates_kernel_services(self, jess_result):
        rows = jess_result.service_breakdown()
        assert rows[0].service == "utlb"
        assert rows[0].kernel_cycles_pct > 40.0
        # utlb's energy share is proportionately smaller (Section 3.3).
        assert rows[0].kernel_energy_pct < rows[0].kernel_cycles_pct

    def test_cache_rates_ordering(self, jess_result):
        rates = jess_result.cache_rates()
        assert rates[ExecutionMode.USER].il1_per_cycle > (
            rates[ExecutionMode.IDLE].il1_per_cycle)
        assert rates[ExecutionMode.USER].dl1_per_cycle > (
            rates[ExecutionMode.KERNEL].dl1_per_cycle)

    def test_mode_average_power_user_highest(self, jess_result):
        """Figure 6: the user mode has the highest average power."""
        powers = {
            mode: sum(parts.values())
            for mode, parts in jess_result.mode_average_power().items()
        }
        assert powers[ExecutionMode.USER] >= max(
            powers[ExecutionMode.KERNEL], powers[ExecutionMode.IDLE])

    def test_trace_has_disk_series(self, jess_result):
        assert len(jess_result.trace.disk_w) == len(jess_result.trace.times_s)
        assert max(jess_result.trace.disk_w) > 3.0  # seeks near startup

    def test_summary_formatting(self, jess_result):
        text = jess_result.format_summary()
        assert "jess" in text
        assert "user" in text

    def test_mipsy_model_runs(self):
        sw = SoftWatt(cpu_model="mipsy", window_instructions=8000, seed=1)
        result = sw.run("db", disk=2)
        # Mipsy runs stretch the MXS-calibrated durations.
        assert result.timeline.compute_duration_s > (
            benchmark("db").compute_duration_s)
