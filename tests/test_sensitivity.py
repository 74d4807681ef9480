"""Tests for the public sweep API (configuration sensitivity analysis)."""

import pytest

from repro.core.campaign import (
    PARAMETERS,
    sweep_parameter,
    sweep_spindown_threshold,
)

WINDOW = 8_000


class TestSweepParameter:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter("warp_factor", [1, 2])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter("l1_size", [])

    def test_l1_size_sweep_shapes(self):
        sizes = [8 * 1024, 32 * 1024]
        result = sweep_parameter("l1_size", sizes, benchmark="db",
                                 window_instructions=WINDOW)
        assert [point.value for point in result.points] == sizes
        # Larger L1s mean fewer misses: the run is never slower.
        small, large = result.points
        assert large.duration_s <= small.duration_s * 1.02
        assert result.format().count("\n") >= 3

    def test_issue_width_sweep(self):
        # Conventional disk: its power is fixed, so a slower CPU makes
        # the disk relatively worse.
        result = sweep_parameter("issue_width", [1, 4], benchmark="db",
                                 disk=1, window_instructions=WINDOW)
        narrow, wide = result.points
        # The 1-wide machine is modelled with its longer wall time.
        assert narrow.duration_s > wide.duration_s
        assert narrow.budget_shares["disk"] > wide.budget_shares["disk"]

    def test_tlb_sweep_changes_kernel_share(self):
        result = sweep_parameter("tlb_entries", [16, 256], benchmark="db",
                                 window_instructions=WINDOW)
        tiny, large = result.points
        # Less TLB reach -> more utlb traps -> a bigger kernel share.
        assert tiny.kernel_share_pct > large.kernel_share_pct

    def test_custom_transform(self):
        import dataclasses

        def faster_memory(config, value):
            return dataclasses.replace(
                config,
                memory=dataclasses.replace(
                    config.memory, access_latency_cycles=value))

        result = sweep_parameter("memory_latency", [20, 120], benchmark="db",
                                 window_instructions=WINDOW,
                                 transform=faster_memory)
        fast, slow = result.points
        assert fast.duration_s <= slow.duration_s

    def test_selectors(self):
        result = sweep_parameter("l1_size", [8 * 1024, 32 * 1024],
                                 benchmark="db", window_instructions=WINDOW)
        assert result.best_by_energy() in result.points
        assert result.best_by_edp() in result.points

    def test_builtin_parameter_registry(self):
        assert {"l1_size", "l2_size", "window_size", "issue_width",
                "tlb_entries"} <= set(PARAMETERS)


class TestSpindownSweep:
    def test_threshold_sweep_matches_section4(self):
        result = sweep_spindown_threshold([2.0, 6.0], benchmark="compress",
                                          window_instructions=WINDOW)
        pathological, safe = result.points
        assert pathological.energy_j > safe.energy_j
        assert pathological.duration_s > safe.duration_s

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep_spindown_threshold([])
