"""Functional-unit and result-bus energy models.

Lumped switched-capacitance models for the execution resources: the
integer ALUs, the multiplier, the FP units, and the result bus that
broadcasts completed values back to the window and register file.
"""

from __future__ import annotations

from repro.config.technology import (
    C_FU_FP,
    C_FU_INT,
    C_RESULT_BUS_PER_BIT_MM,
    DEFAULT_TECHNOLOGY,
    DIE_SIZE_MM,
    Technology,
)

IMUL_CAP_FACTOR = 2.6
"""Integer multiply/divide switches ~2.6x the ALU capacitance."""

FMUL_CAP_FACTOR = 1.8
"""FP multiply/divide/sqrt relative to the FP adder."""

RESULT_BUS_BITS = 64
RESULT_BUS_RUN_FRACTION = 0.5
"""The result bus spans roughly half the die edge."""


class FunctionalUnitEnergyModel:
    """Per-operation energies for the execution units."""

    def __init__(self, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self.technology = technology
        # Every evaluation reads all five, and the technology is frozen:
        # the per-operation energies are constants, computed once here.
        self.ialu_j = technology.switching_energy(C_FU_INT)
        self.imul_j = technology.switching_energy(C_FU_INT * IMUL_CAP_FACTOR)
        self.falu_j = technology.switching_energy(C_FU_FP)
        self.fmul_j = technology.switching_energy(C_FU_FP * FMUL_CAP_FACTOR)
        run_mm = DIE_SIZE_MM * RESULT_BUS_RUN_FRACTION
        cap = RESULT_BUS_BITS * C_RESULT_BUS_PER_BIT_MM * run_mm
        self.result_bus_j = technology.switching_energy(cap)

    def ialu_energy_j(self) -> float:
        """One integer ALU operation."""
        return self.ialu_j

    def imul_energy_j(self) -> float:
        """One integer multiply/divide."""
        return self.imul_j

    def falu_energy_j(self) -> float:
        """One FP add/sub/compare."""
        return self.falu_j

    def fmul_energy_j(self) -> float:
        """One FP multiply/divide/sqrt."""
        return self.fmul_j

    def result_bus_energy_j(self) -> float:
        """One result broadcast over the bypass/result bus."""
        return self.result_bus_j
