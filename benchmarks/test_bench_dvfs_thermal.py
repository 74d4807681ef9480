"""Benches for the DVFS sweep and the thermal post-processing extension.

Both close loops the paper opens: supply-voltage scaling is the first
circuit technique Section 1 lists, and Section 3.1 justifies designing
for *average* power by appeal to dynamic thermal management.
"""

from conftest import SEED, WINDOW, print_header

from repro.core.campaign import SweepCampaign
from repro.power import ThermalModel, operating_point, scaled_frequency_hz


def test_bench_dvfs_sweep(sw, suite_idle_disk, profile_cache_dir, benchmark):
    """Voltage sweep on mtrt: CPU energy falls with voltage, but the
    same work runs longer at the lower clock and keeps the disk powered
    longer — system energy has a minimum, and EDP has its own
    (higher-voltage) optimum."""
    vdds = [3.3, 3.0, 2.7, 2.4, 2.1, 1.8, 1.5, 1.2]
    # The base point reuses suite_idle_disk's cached mtrt profile.
    campaign = SweepCampaign(
        benchmark="mtrt", disk=2, window_instructions=WINDOW, seed=SEED,
        cache_dir=profile_cache_dir,
    )

    sweep = benchmark(campaign.run, "vdd", vdds, transform=operating_point)
    print_header("Extension: DVFS sweep (mtrt, IDLE-capable disk)")
    print(f"  {'Vdd V':>6s} {'f MHz':>6s} {'CPU J':>7s} {'disk J':>7s} "
          f"{'total J':>8s} {'dur s':>6s} {'EDP Js':>8s}")
    cpu, disk = [], []
    for point in sweep.points:
        clock_hz = scaled_frequency_hz(point.value, sw.config.technology)
        disk.append(point.component_energy_j["disk"])
        cpu.append(point.energy_j - disk[-1])
        print(f"  {point.value:6.1f} {clock_hz / 1e6:6.0f} "
              f"{cpu[-1]:7.1f} {disk[-1]:7.1f} "
              f"{point.energy_j:8.1f} {point.duration_s:6.1f} "
              f"{point.energy_delay_product:8.0f}")

    # CPU energy monotonically falls with voltage.
    assert cpu == sorted(cpu, reverse=True)
    # Disk energy monotonically rises (the platter outlives the CPU win).
    assert disk == sorted(disk)
    # System energy has an interior minimum: some mid voltage beats both
    # the top and the bottom of the sweep.
    totals = [point.energy_j for point in sweep.points]
    best = min(range(len(totals)), key=totals.__getitem__)
    assert 0 < best < len(totals) - 1
    # EDP's optimum sits at a higher voltage than the energy optimum.
    edps = [point.energy_delay_product for point in sweep.points]
    best_edp = min(range(len(edps)), key=edps.__getitem__)
    assert best_edp <= best


def test_bench_thermal_headroom(sw, suite_conventional, benchmark):
    """The average-power design argument (Section 3.1): every benchmark
    runs the package far below the DTM trip point, even though the
    machine's *peak* (validation) power would cook it."""
    model = ThermalModel()

    def profiles():
        return {
            name: model.profile(result.trace)
            for name, result in suite_conventional.items()
        }

    thermal = benchmark(profiles)
    print_header("Extension: package thermals under the suite")
    print(f"  sustainable power: {model.sustainable_power_w():.1f} W; "
          f"validation max power: {sw.validate_max_power():.1f} W")
    print(f"  {'benchmark':10s} {'peak C':>7s} {'margin C':>9s} {'DTM':>5s}")
    for name, profile in thermal.items():
        print(f"  {name:10s} {profile.peak_c:7.1f} "
              f"{profile.steady_state_margin_c:9.1f} "
              f"{'yes' if profile.dtm_engaged else 'no':>5s}")
        # Average-power design holds: no benchmark trips the throttle.
        assert not profile.dtm_engaged, name
    # But the validation maximum exceeds what the package can sustain:
    # designing for peak would demand a very different cooling solution.
    assert sw.validate_max_power() > model.sustainable_power_w()
