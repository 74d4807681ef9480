#!/usr/bin/env python
"""Voltage scaling and thermal headroom: closing the paper's loops.

The paper's introduction names supply-voltage scaling as the first
circuit-level power technique, defines the energy-delay product to
judge energy-vs-performance tradeoffs (Section 3.1), and justifies
average-power design by appeal to dynamic thermal management.  This
study answers:

1. What does the whole *system* gain from lowering Vdd — and when does
   the disk's fixed power start eating the CPU's savings?  Each voltage
   is a sweep point at its alpha-power clock: the same work runs longer
   at the lower clock, with the disk simulated over the longer run.
2. How much thermal headroom does the package have, and would a DTM
   throttle ever engage?

    python examples/dvfs_thermal_study.py [benchmark]
"""

import sys
import tempfile

from repro import SoftWatt
from repro.core.campaign import SweepCampaign
from repro.power import ThermalModel, operating_point, scaled_frequency_hz

VDDS = [3.3, 3.0, 2.7, 2.4, 2.1, 1.8, 1.5, 1.2]


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "mtrt"
    # One profile cache for the thermal run and the sweep, so the
    # benchmark is simulated once.
    with tempfile.TemporaryDirectory(prefix="dvfs-study-") as cache_dir:
        softwatt = SoftWatt(
            window_instructions=30_000, seed=1, cache_dir=cache_dir
        )
        result = softwatt.run(name, disk=2)
        sweep = SweepCampaign(
            benchmark=name, disk=2, window_instructions=30_000, seed=1,
            cache_dir=cache_dir,
        ).run("vdd", VDDS, transform=operating_point)
    base = sweep.points[0]
    print(f"{name} on the IDLE-capable disk: {base.energy_j:.1f} J "
          f"over {base.duration_s:.1f} s "
          f"(avg {base.average_power_w:.2f} W, peak {base.peak_power_w:.2f} W)\n")

    print("DVFS sweep (alpha-power frequency scaling):")
    print(f"  {'Vdd V':>6s} {'f MHz':>6s} {'CPU J':>7s} {'disk J':>7s} "
          f"{'total J':>8s} {'dur s':>6s} {'EDP Js':>8s}")
    for point in sweep.points:
        clock_hz = scaled_frequency_hz(point.value, softwatt.config.technology)
        disk_j = point.component_energy_j["disk"]
        print(f"  {point.value:6.1f} {clock_hz / 1e6:6.0f} "
              f"{point.energy_j - disk_j:7.1f} {disk_j:7.1f} "
              f"{point.energy_j:8.1f} {point.duration_s:6.1f} "
              f"{point.energy_delay_product:8.0f}")
    best_energy = sweep.best_by_energy()
    best_edp = sweep.best_by_edp()
    print(f"\n  energy optimum: Vdd {best_energy.value:.1f} V "
          f"({best_energy.energy_j:.1f} J)")
    print(f"  EDP optimum   : Vdd {best_edp.value:.1f} V "
          f"({best_edp.energy_delay_product:.0f} Js)")
    print("  Below the energy optimum the platter's fixed watts outlive "
          "the CPU's savings — the complete-system effect the paper's "
          "tool exists to expose.\n")

    model = ThermalModel()
    profile = model.profile(result.trace)
    print("Thermal headroom (lumped RC package, DTM trip "
          f"{model.trip_c:.0f} C):")
    print(f"  sustainable steady power: {model.sustainable_power_w():.1f} W")
    print(f"  validation maximum power: {softwatt.validate_max_power():.1f} W")
    print(f"  peak junction temperature this run: {profile.peak_c:.1f} C")
    print(f"  margin to the throttle: {profile.steady_state_margin_c:.1f} C")
    print(f"  DTM engaged: {'yes' if profile.dtm_engaged else 'no'}")
    print("\n  Designing the package for this *average* behaviour is safe "
          "even though the machine's theoretical maximum exceeds what the "
          "package could sustain — Section 3.1's argument, quantified.")


if __name__ == "__main__":
    main()
