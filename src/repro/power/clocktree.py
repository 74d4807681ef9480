"""Clock generation and distribution network model.

"The clock generation and distribution network is modeled using the
technique proposed in [Duarte et al. 2001], which has an error-margin
of 10%" (Section 2).  The model sums three capacitance contributions:

* the H-tree distribution wiring across the die,
* the clock buffers driving each tree level,
* the clocked load: every pipeline latch and array port the tree
  terminates in.

The clock dissipates every cycle (the tree toggles twice per period,
folded into the per-cycle energy), but under SoftWatt's conditional
clocking only the portion of the tree feeding *active* units burns the
full load — the gating model lives in :mod:`repro.power.conditional`.
"""

from __future__ import annotations

import math

from repro.config.technology import (
    C_LATCH_PER_BIT,
    C_METAL_PER_UM,
    DEFAULT_TECHNOLOGY,
    DIE_SIZE_MM,
    Technology,
)

HTREE_LEVELS = 5
"""Levels of the H-tree distribution network."""

BUFFER_CAP_PER_LEVEL_F = 22e-12
"""Clock-buffer gate+drain capacitance per tree level (farads)."""


class ClockNetworkModel:
    """Per-cycle clock energy for a given clocked-bit load."""

    def __init__(
        self,
        clocked_bits: int,
        *,
        die_size_mm: float = DIE_SIZE_MM,
        technology: Technology = DEFAULT_TECHNOLOGY,
        load_derating: float = 0.55,
    ) -> None:
        if clocked_bits <= 0:
            raise ValueError(f"clocked_bits must be positive, got {clocked_bits}")
        if die_size_mm <= 0:
            raise ValueError(f"die size must be positive, got {die_size_mm}")
        if not 0.0 < load_derating <= 1.0:
            raise ValueError(f"load derating must be in (0, 1]: {load_derating}")
        self.clocked_bits = clocked_bits
        self.die_size_mm = die_size_mm
        self.technology = technology
        self.load_derating = load_derating
        # Every input is frozen, so the tree's two capacitances are
        # constants of this model; only the gating factor varies.
        self.spine_capacitance_f = (
            self.wire_capacitance_f + self.buffer_capacitance_f
        )
        """Wire plus buffers: the part that switches every cycle."""
        self.load_capacitance_f = clocked_bits * C_LATCH_PER_BIT * load_derating
        """Capacitance of the clocked latches/ports the tree feeds.

        ``load_derating`` models banked clock distribution: only that
        fraction of a structure's storage bits sees the clock edge in a
        cycle (row-banked register arrays)."""

    @property
    def wire_capacitance_f(self) -> float:
        """H-tree wiring capacitance.

        Each level halves the segment length; total wire length for an
        H-tree over a die of edge D is ~3 * D * 2^(levels/2)."""
        die_um = self.die_size_mm * 1000.0
        total_length_um = 3.0 * die_um * math.sqrt(2.0**HTREE_LEVELS) / 2.0
        return total_length_um * C_METAL_PER_UM * 4.0

    @property
    def buffer_capacitance_f(self) -> float:
        """Clock-buffer capacitance over all tree levels."""
        return HTREE_LEVELS * BUFFER_CAP_PER_LEVEL_F

    @property
    def total_capacitance_f(self) -> float:
        """Total switched capacitance per clock transition."""
        return (
            self.wire_capacitance_f
            + self.buffer_capacitance_f
            + self.load_capacitance_f
        )

    def energy_per_cycle_j(self, *, gating_factor: float = 1.0) -> float:
        """Clock energy of one cycle.

        The tree toggles twice per period (factor 2).  The spine (wire
        + buffers) always switches; the latch load is scaled by the
        ``gating_factor`` in [0, 1] supplied by the conditional
        clocking model.
        """
        if not 0.0 <= gating_factor <= 1.0:
            raise ValueError(f"gating factor must be in [0, 1]: {gating_factor}")
        load = self.load_capacitance_f * gating_factor
        return 2.0 * self.technology.switching_energy(
            self.spine_capacitance_f + load
        )

    def max_power_w(self) -> float:
        """Ungated clock power at the design-point frequency."""
        return self.energy_per_cycle_j(gating_factor=1.0) * self.technology.clock_hz
