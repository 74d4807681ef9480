"""Tests for the tiered sweep campaign engine.

Three layers:

* classification — ``changed_leaves``/``classify`` and the planner,
  pure config arithmetic, no simulation;
* tier equivalence — a Tier-L (ledger) sweep must be *bit-identical*
  to forcing every point through the legacy full re-simulation, and
  the base point must reproduce ``tests/data/golden_energy.json``;
* resilience — a structural sweep with an injected worker crash must
  recover and match the clean sweep exactly.

The simulation-backed tests share the golden snapshot's settings
(jess, disk 1, seed 3, window 6000) so the base point doubles as a
golden regression check.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.config.diskcfg import DiskPowerPolicy
from repro.config.system import SystemConfig
from repro.config.technology import Technology
from repro.core.campaign import (
    LEDGER_LEAVES,
    PARAMETERS,
    SPINDOWN_PARAMETER,
    TIMELINE_LEAVES,
    SweepCampaign,
    Tier,
    changed_leaves,
    classify,
    point_from_result,
)
from repro.core.checkpoint import profile_cache_key, service_cache_key
from repro.core.softwatt import SoftWatt
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import TaskExecutionError
from repro.workloads.specjvm98 import benchmark

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_energy.json").read_text()
)

#: Golden-snapshot settings — every campaign below runs this machine.
SETTINGS = dict(
    benchmark="jess",
    cpu_model="mxs",
    disk=GOLDEN["disk"],
    window_instructions=GOLDEN["window_instructions"],
    seed=GOLDEN["seed"],
    use_cache=False,
)

BASE = SystemConfig.table1()
BASE_VDD = BASE.technology.vdd


def _vdd_values():
    """Two off-base points plus the base itself (the golden anchor)."""
    return [round(BASE_VDD * 0.8, 6), round(BASE_VDD * 1.1, 6), BASE_VDD]


def _point_fields(point):
    return {
        field.name: getattr(point, field.name)
        for field in dataclasses.fields(point)
    }


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_changed_leaves_reports_nested_paths(self):
        other = PARAMETERS["vdd"](BASE, BASE_VDD * 0.9)
        assert changed_leaves(BASE, other) == ["technology.vdd"]

    def test_changed_leaves_empty_for_identical_configs(self):
        assert changed_leaves(BASE, SystemConfig.table1()) == []

    def test_ledger_leaves_classify_ledger(self):
        for parameter in ("vdd", "calibration"):
            other = PARAMETERS[parameter](BASE, 0.5)
            assert classify(BASE, other) is Tier.LEDGER, parameter

    def test_clock_classifies_timeline(self):
        other = PARAMETERS["clock_hz"](BASE, 300e6)
        assert classify(BASE, other) is Tier.TIMELINE

    def test_structural_leaves_dominate(self):
        other = PARAMETERS["vdd"](PARAMETERS["l1_size"](BASE, 16384), 1.2)
        assert classify(BASE, other) is Tier.STRUCTURAL

    def test_policy_change_is_at_least_timeline(self):
        assert classify(BASE, BASE, policy_changed=True) is Tier.TIMELINE

    def test_plan_classifies_base_value_as_ledger(self):
        campaign = SweepCampaign(**SETTINGS)
        plan = campaign.plan("l1_size", [16384, BASE.l1d.size_bytes])
        assert [p.tier for p in plan] == [Tier.STRUCTURAL, Tier.LEDGER]

    def test_plan_grid_covers_cartesian_product(self):
        campaign = SweepCampaign(**SETTINGS)
        plan = campaign.plan_grid(
            {"vdd": [1.5, BASE_VDD], SPINDOWN_PARAMETER: [0.5, 2.0]}
        )
        assert len(plan) == 4
        assert plan[0].label == "vdd=1.5,spindown_threshold_s=0.5"
        assert plan[0].value == (1.5, 0.5)
        # the policy axis drags every combo up to at least TIMELINE
        assert all(p.tier is Tier.TIMELINE for p in plan)

    def test_forcing_below_required_tier_raises(self):
        campaign = SweepCampaign(tier="ledger", **SETTINGS)
        with pytest.raises(ValueError, match="stale"):
            campaign.plan("l1_size", [16384])

    def test_unknown_parameter_rejected(self):
        campaign = SweepCampaign(**SETTINGS)
        with pytest.raises(ValueError, match="unknown parameter"):
            campaign.plan("l9_size", [1])

    def test_unknown_tier_name_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            SweepCampaign(tier="turbo", **SETTINGS)

    def test_one_parameter_plan_is_a_one_axis_grid(self):
        campaign = SweepCampaign(**SETTINGS)
        values = [1.5, BASE_VDD]
        plan = campaign.plan("vdd", values)
        grid = campaign.plan_grid({"vdd": values})
        assert [p.value for p in plan] == values
        assert [p.value for p in grid] == [(value,) for value in values]
        for planned, cell in zip(plan, grid):
            assert (planned.label, planned.config, planned.policy, planned.tier) == (
                cell.label, cell.config, cell.policy, cell.tier)

    def test_cheap_points_report_the_base_fidelity(self):
        # A ledger point re-prices the base run's counters, so an atomic
        # base makes an atomic point.
        campaign = SweepCampaign(
            **{**SETTINGS, "base_config": BASE.with_fidelity("atomic")}
        )
        plan = campaign.plan("vdd", [1.5, BASE_VDD])
        assert [p.tier for p in plan] == [Tier.LEDGER, Tier.LEDGER]
        assert [p.fidelity for p in plan] == ["atomic", "atomic"]

    def test_forced_rung_downgrades_structural_points_only(self):
        campaign = SweepCampaign(tier="atomic", **SETTINGS)
        (planned,) = campaign.plan("l1_size", [16384])
        assert planned.tier is Tier.STRUCTURAL
        assert planned.fidelity == "atomic"
        assert SweepCampaign(**SETTINGS).plan("l1_size", [16384])[0].fidelity == (
            "detailed")


# ---------------------------------------------------------------------------
# The invalidation table agrees with the cache keys
# ---------------------------------------------------------------------------


def _keys(config):
    spec = benchmark("jess")
    profile = profile_cache_key(
        spec, config, cpu_model="mxs", window_instructions=6000,
        startup_chunks=4, steady_chunks=2, seed=3,
    )
    service = service_cache_key(
        "utlb", config, cpu_model="mxs", invocations=30, warmup=6, seed=3,
    )
    return profile, service


class TestInvalidationTableMatchesCacheKeys:
    """The cheap tiers reuse the base profile and service profiles, so
    every leaf they accept must be one the cache keys leave out."""

    def test_cheap_leaves_are_the_technology_fields(self):
        assert LEDGER_LEAVES | TIMELINE_LEAVES == {
            f"technology.{field.name}" for field in dataclasses.fields(Technology)
        }

    @pytest.mark.parametrize("leaf", sorted(LEDGER_LEAVES | TIMELINE_LEAVES))
    def test_cheap_leaf_keeps_both_keys(self, leaf):
        name = leaf.split(".", 1)[1]
        value = getattr(BASE.technology, name)
        other = dataclasses.replace(
            BASE,
            technology=dataclasses.replace(BASE.technology, **{name: value * 0.5}),
        ).validate()
        assert changed_leaves(BASE, other) == [leaf]
        assert _keys(other) == _keys(BASE)

    @pytest.mark.parametrize(
        "parameter, value",
        [("l1_size", 16384), ("l2_size", 262144), ("window_size", 16),
         ("issue_width", 2), ("tlb_entries", 16)],
    )
    def test_structural_parameter_changes_profile_key(self, parameter, value):
        other = PARAMETERS[parameter](BASE, value).validate()
        assert classify(BASE, other) is Tier.STRUCTURAL
        assert _keys(other)[0] != _keys(BASE)[0]


# ---------------------------------------------------------------------------
# Tier equivalence (simulation-backed; fixtures share the expensive runs)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ledger_sweep():
    campaign = SweepCampaign(**SETTINGS)
    return campaign.run("vdd", _vdd_values())


@pytest.fixture(scope="module")
def full_sweep():
    campaign = SweepCampaign(tier="full", **SETTINGS)
    return campaign.run("vdd", _vdd_values())


class TestTierEquivalence:
    def test_tiers_recorded(self, ledger_sweep, full_sweep):
        assert ledger_sweep.tiers == ("LEDGER",) * 3
        assert full_sweep.tiers == ("STRUCTURAL",) * 3

    def test_ledger_sweep_bit_identical_to_full(self, ledger_sweep, full_sweep):
        assert len(ledger_sweep.points) == len(full_sweep.points)
        for cheap, full in zip(ledger_sweep.points, full_sweep.points):
            assert _point_fields(cheap) == _point_fields(full), cheap.value

    def test_base_point_matches_golden_snapshot(self, ledger_sweep):
        expected = GOLDEN["benchmarks"]["mxs/jess"]
        base_point = ledger_sweep.points[-1]
        assert base_point.value == BASE_VDD
        assert base_point.energy_j == expected["total_energy_j"]

    def test_vdd_scales_energy_monotonically(self, ledger_sweep):
        low, high, base = ledger_sweep.points
        assert low.energy_j < base.energy_j < high.energy_j

    def test_clean_sweep_report_is_clean(self, ledger_sweep):
        assert ledger_sweep.report is not None
        assert not ledger_sweep.report.degraded


class TestTimelineTier:
    def test_spindown_sweep_matches_full(self):
        thresholds = [0.5, 2.0]
        cheap = SweepCampaign(**SETTINGS).run(SPINDOWN_PARAMETER, thresholds)
        full = SweepCampaign(tier="full", **SETTINGS).run(
            SPINDOWN_PARAMETER, thresholds
        )
        assert cheap.tiers == ("TIMELINE",) * 2
        for cheap_point, full_point in zip(cheap.points, full.points):
            assert _point_fields(cheap_point) == _point_fields(full_point)

    def test_clock_sweep_matches_full(self):
        cheap = SweepCampaign(**SETTINGS).run("clock_hz", [150e6])
        full = SweepCampaign(tier="full", **SETTINGS).run("clock_hz", [150e6])
        assert cheap.tiers == ("TIMELINE",)
        assert _point_fields(cheap.points[0]) == _point_fields(full.points[0])

    def test_custom_policy_object_accepted(self):
        policy = DiskPowerPolicy(name="always-on", spindown_threshold_s=1e9)
        campaign = SweepCampaign(**{**SETTINGS, "disk": policy})
        plan = campaign.plan("vdd", [BASE_VDD])
        assert plan[0].tier is Tier.LEDGER


class TestBaseRunSupervision:
    """The base run the cheap tiers share is supervised like the rest
    of the sweep, and its stages reach the sweep's report."""

    @pytest.mark.parametrize(
        "parameter, value",
        [("l1_size", 16384), ("vdd", 3.0), (SPINDOWN_PARAMETER, 2.0)],
    )
    def test_fault_plan_reaches_every_tier(self, parameter, value):
        campaign = SweepCampaign(
            window_instructions=2000,
            use_cache=False,
            retries=0,
            fault_plan=FaultPlan.parse("error@0x9"),
        )
        with pytest.raises(TaskExecutionError):
            campaign.run(parameter, [value])

    def test_base_stages_are_reported_once(self):
        campaign = SweepCampaign(window_instructions=2000, use_cache=False)
        first = campaign.run("vdd", [3.0])
        # The base run characterised every kernel service.
        assert first.report.tasks
        second = campaign.run("vdd", [2.5])
        assert second.report.tasks == []


class TestMipsyStructuralSweep:
    def test_in_process_points_match_offline_runs(self):
        """An in-process Mipsy structural grid simulates each point on
        the scalar core exactly as a standalone SoftWatt would."""
        settings = {**SETTINGS, "cpu_model": "mipsy"}
        sizes = [16384, 65536]
        sweep = SweepCampaign(workers=1, **settings).run_grid(
            {"l1_size": sizes}
        )
        assert sweep.tiers == ("STRUCTURAL",) * 2
        for size, point in zip(sizes, sweep.points):
            offline = SoftWatt(
                config=PARAMETERS["l1_size"](BASE, size),
                cpu_model="mipsy",
                window_instructions=settings["window_instructions"],
                seed=settings["seed"],
                use_cache=False,
            ).run(settings["benchmark"], disk=settings["disk"])
            expected = point_from_result(point.value, offline)
            assert _point_fields(point) == _point_fields(expected), size


# ---------------------------------------------------------------------------
# Resilience: a crashed worker must not change the numbers
# ---------------------------------------------------------------------------


@pytest.mark.fault_injection
class TestCrashRecovery:
    def test_crashed_sweep_matches_clean_sweep(self):
        sizes = [16384, 65536]
        clean = SweepCampaign(**SETTINGS).run("l1_size", sizes)

        faulted_campaign = SweepCampaign(
            workers=2,
            fault_plan=FaultPlan.parse("crash@1"),
            **SETTINGS,
        )
        faulted = faulted_campaign.run("l1_size", sizes)

        assert faulted.tiers == ("STRUCTURAL",) * 2
        for clean_point, faulted_point in zip(clean.points, faulted.points):
            assert _point_fields(clean_point) == _point_fields(faulted_point)
        assert faulted.report is not None
        assert faulted.report.degraded  # the crash was seen, not hidden
