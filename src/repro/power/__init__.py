"""Analytical power models (the SoftWatt post-processing layer)."""

from repro.power.array import ArrayEnergyModel, CAMEnergyModel
from repro.power.bitlines import CacheEnergyBreakdown, CacheEnergyModel
from repro.power.clocktree import ClockNetworkModel
from repro.power.conditional import ClockedUnit, gating_factor, unit_activity
from repro.power.dvfs import operating_point, scaled_frequency_hz
from repro.power.thermal import ThermalModel, ThermalProfile
from repro.power.functional import FunctionalUnitEnergyModel
from repro.power.ledger import EnergyLedger
from repro.power.memory_power import MemoryEnergyModel
from repro.power.processor import (
    ProcessorPowerModel,
    r10000_max_power,
)
from repro.power.registry import (
    CATEGORIES,
    POWER_COMPONENTS,
    REGISTRY,
    PowerComponent,
    PowerRegistry,
)

__all__ = [
    "ArrayEnergyModel",
    "CAMEnergyModel",
    "CacheEnergyBreakdown",
    "CacheEnergyModel",
    "ClockNetworkModel",
    "ClockedUnit",
    "gating_factor",
    "unit_activity",
    "operating_point",
    "scaled_frequency_hz",
    "ThermalModel",
    "ThermalProfile",
    "FunctionalUnitEnergyModel",
    "MemoryEnergyModel",
    "CATEGORIES",
    "EnergyLedger",
    "POWER_COMPONENTS",
    "PowerComponent",
    "PowerRegistry",
    "REGISTRY",
    "ProcessorPowerModel",
    "r10000_max_power",
]
