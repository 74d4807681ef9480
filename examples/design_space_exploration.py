#!/usr/bin/env python
"""Design-space exploration with complete-system power in the loop.

The paper's pitch (Section 1) is that power tools must see the whole
system, because an optimisation's effect on its target says little
about its effect on the machine.  This study makes that concrete: sweep
three classic design knobs and watch the *system* budget respond —
including the disk, which no CPU-only simulator would show moving.

    python examples/design_space_exploration.py
"""

from repro.core.campaign import sweep_parameter, sweep_spindown_threshold

KB = 1024


def main() -> None:
    print("L1 cache size (jess, IDLE-capable disk):")
    l1 = sweep_parameter("l1_size", [8 * KB, 16 * KB, 32 * KB, 64 * KB],
                         benchmark="jess")
    print(l1.format())
    for point in l1.points:
        print(f"    {point.value // KB:3d} KB: L1I share "
              f"{point.budget_shares['l1i']:4.1f}%, "
              f"disk share {point.budget_shares['disk']:4.1f}%")
    print()

    print("Issue width (db, conventional disk):")
    width = sweep_parameter("issue_width", [1, 2, 4], benchmark="db", disk=1)
    print(width.format())
    narrow, _, wide = width.points
    print(f"    narrowing 4 -> 1 moves the disk share from "
          f"{wide.budget_shares['disk']:.1f}% to "
          f"{narrow.budget_shares['disk']:.1f}% — a fixed-power platter "
          f"punishes slow CPUs.\n")

    print("TLB reach (javac):")
    tlb = sweep_parameter("tlb_entries", [16, 64, 256], benchmark="javac")
    print(tlb.format())
    for point in tlb.points:
        print(f"    {point.value:3d} entries: kernel share "
              f"{point.kernel_share_pct:5.1f}% of cycles")
    print("    The software-managed TLB is the OS power story: reach "
          "directly sets the utlb trap rate.\n")

    print("Disk spin-down threshold (compress):")
    spin = sweep_spindown_threshold([1.0, 2.0, 3.0, 4.0, 8.0])
    print(spin.format())
    best = spin.best_by_energy()
    print(f"    energy optimum at {best.value:.0f} s — anything below the "
          f"benchmark's ~2.5 s access gaps pays 21 J per spin-up.")


if __name__ == "__main__":
    main()
