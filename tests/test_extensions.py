"""Tests for the extension features: annotations, idle halting,
EDP/peak metrics, adaptive spin-down, and log export."""

import math

import pytest

from repro import SoftWatt
from repro.config import DiskMode, disk_configuration
from repro.core.annotations import AnnotationSet
from repro.disk import (
    BREAK_EVEN_IDLE_S,
    AdaptiveSpinDownDisk,
    PowerManagedDisk,
)
from repro.kernel import ExecutionMode
from repro.stats.export import (
    read_log_json,
    write_log_csv,
    write_log_json,
    write_trace_csv,
)

WINDOW = 12_000


@pytest.fixture(scope="module")
def softwatt():
    return SoftWatt(window_instructions=WINDOW, seed=1)


@pytest.fixture(scope="module")
def jess(softwatt):
    return softwatt.run("jess", disk=1)


class TestAnnotations:
    def test_hooks_fire(self, softwatt):
        annotations = AnnotationSet()
        seen = {"phases": [], "modes": [], "requests": [], "transitions": [],
                "samples": []}
        annotations.on_phase(lambda n, s, e: seen["phases"].append((n, s, e)))
        annotations.on_mode_switch(
            lambda m, s, e, c: seen["modes"].append((m, s, e, c)))
        annotations.on_disk_request(lambda r: seen["requests"].append(r))
        annotations.on_disk_transition(
            lambda a, b, t: seen["transitions"].append((a, b, t)))
        annotations.on_sample(lambda r: seen["samples"].append(r))
        result = softwatt.run("db", disk=3, annotations=annotations)

        phase_names = {name for name, _, _ in seen["phases"]}
        assert phase_names == {"startup", "steady", "gc"}
        assert len(seen["requests"]) == len(
            __import__("repro.workloads", fromlist=["benchmark"])
            .benchmark("db").disk_events)
        assert len(seen["samples"]) == len(result.timeline.log)
        assert any(mode is ExecutionMode.IDLE for mode, *_ in seen["modes"])
        # db on config 3 never spins down, but seeks/idles do transition.
        assert any(b is DiskMode.SEEK for _a, b, _t in seen["transitions"])

    def test_phase_intervals_ordered(self, softwatt):
        annotations = AnnotationSet()
        intervals = []
        annotations.on_phase(lambda n, s, e: intervals.append((s, e)))
        softwatt.run("db", disk=1, annotations=annotations)
        for start, end in intervals:
            assert end >= start
        starts = [start for start, _ in intervals]
        assert starts == sorted(starts)

    def test_empty_set_is_free(self, softwatt):
        annotations = AnnotationSet()
        assert annotations.empty
        softwatt.run("db", disk=1, annotations=annotations)

    def test_decorator_registration(self):
        annotations = AnnotationSet()

        @annotations.on_sample
        def hook(record):
            pass

        assert annotations.on_sample_hooks == [hook]
        assert not annotations.empty


class TestIdleHalting:
    def test_halt_saves_energy(self, softwatt, jess):
        halted = softwatt.run("jess", disk=1, idle_policy="halt")
        assert halted.total_energy_j < jess.total_energy_j
        # Idle cycles are unchanged — only their power drops.
        assert halted.idle_cycles == pytest.approx(jess.idle_cycles, rel=0.01)

    def test_halted_idle_mode_consumes_little(self, softwatt):
        halted = softwatt.run("jess", disk=1, idle_policy="halt")
        rows = halted.mode_breakdown()
        idle = rows[ExecutionMode.IDLE]
        # Energy share far below cycle share once the CPU halts.
        assert idle.energy_pct < idle.cycles_pct * 0.75

    def test_invalid_policy_rejected(self, softwatt):
        with pytest.raises(ValueError):
            softwatt.run("jess", disk=1, idle_policy="warp")


class TestMetrics:
    def test_edp_definition(self, jess):
        assert jess.energy_delay_product == pytest.approx(
            jess.total_energy_j * jess.timeline.duration_s)

    def test_peak_at_least_average(self, jess):
        assert jess.peak_power_w >= jess.average_power_w

    def test_average_power_consistent(self, jess):
        assert jess.average_power_w == pytest.approx(
            jess.total_energy_j / jess.timeline.duration_s)


class TestAdaptiveSpinDown:
    def _drive(self, disk, gap_s, requests=8):
        t = 0.0
        for _ in range(requests):
            result = disk.request(t, 64 * 1024)
            t = result.completion_s + gap_s
        disk.finish(t)
        return disk

    def test_learns_out_of_the_pathology(self):
        adaptive = self._drive(AdaptiveSpinDownDisk(2.0, seed=3), gap_s=2.4)
        fixed = self._drive(
            PowerManagedDisk(disk_configuration(3), seed=3), gap_s=2.4)
        assert adaptive.energy.energy_j < 0.5 * fixed.energy.energy_j
        assert adaptive.threshold_s > 2.0
        assert adaptive.state.spindowns < fixed.state.spindowns

    def test_short_gaps_never_spin_down(self):
        adaptive = self._drive(AdaptiveSpinDownDisk(2.0, seed=3), gap_s=0.5)
        assert adaptive.state.spindowns == 0
        assert adaptive.threshold_s == pytest.approx(2.0)

    def test_long_gaps_keep_spinning_down(self):
        gap = BREAK_EVEN_IDLE_S * 2 + 12.0
        adaptive = self._drive(AdaptiveSpinDownDisk(2.0, seed=3), gap_s=gap,
                               requests=5)
        assert adaptive.state.spindowns >= 4
        # Successful spin-downs decay the threshold back down.
        assert adaptive.threshold_s <= 2.0

    def test_threshold_bounded(self):
        adaptive = AdaptiveSpinDownDisk(2.0, seed=3, ceiling_s=6.0)
        self._drive(adaptive, gap_s=2.4, requests=12)
        assert adaptive.threshold_s <= 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSpinDownDisk(0.0)
        with pytest.raises(ValueError):
            AdaptiveSpinDownDisk(2.0, floor_s=5.0)
        with pytest.raises(ValueError):
            AdaptiveSpinDownDisk(2.0, decay=1.5)

    def test_break_even_value(self):
        # 21 J spin-up / (1.6 - 0.35) W saving = 16.8 s.
        assert BREAK_EVEN_IDLE_S == pytest.approx(21.0 / 1.25)


class TestExport:
    def test_log_csv(self, jess, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(jess.timeline.log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(jess.timeline.log) + 1
        header = lines[0].split(",")
        assert header[0] == "start_s"
        assert "l1i_access" in header

    def test_log_json_roundtrip(self, jess, tmp_path):
        path = tmp_path / "log.json"
        write_log_json(jess.timeline.log, path)
        restored = read_log_json(path)
        assert len(restored) == len(jess.timeline.log)
        assert restored.total_cycles() == pytest.approx(
            jess.timeline.log.total_cycles())
        original = jess.timeline.log.total_counters()
        loaded = restored.total_counters()
        assert math.isclose(loaded.l1i_access, original.l1i_access,
                            rel_tol=1e-12)
        assert restored.mode_cycle_totals()[ExecutionMode.USER] == (
            pytest.approx(
                jess.timeline.log.mode_cycle_totals()[ExecutionMode.USER]))

    def test_log_json_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 42}')
        with pytest.raises(ValueError):
            read_log_json(path)

    def test_trace_csv(self, jess, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(jess.trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(jess.trace.times_s) + 1
        assert lines[0].split(",")[-1] == "total"
