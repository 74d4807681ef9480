"""The SoftWatt core: profiling, timeline simulation, the facade."""

from repro.core.campaign import (
    SweepCampaign,
    SweepPoint,
    SweepResult,
    Tier,
)
from repro.core.profiles import (
    BenchmarkProfile,
    IdleProfile,
    PhaseProfile,
    PricedServiceProfile,
    Profiler,
    ServiceInvocationProfile,
    ServiceTranslationError,
)
from repro.core.report import (
    MODE_ORDER,
    BenchmarkResult,
    CacheRates,
    ModeRow,
    ServiceRow,
)
from repro.core.softwatt import MIPSY_SPEED_FACTOR, SoftWatt, speed_factor
from repro.core.timeline import (
    TimelineResult,
    TimelineSimulator,
    disk_power_series,
)

__all__ = [
    "BenchmarkProfile",
    "IdleProfile",
    "PhaseProfile",
    "PricedServiceProfile",
    "Profiler",
    "ServiceInvocationProfile",
    "ServiceTranslationError",
    "MODE_ORDER",
    "BenchmarkResult",
    "CacheRates",
    "ModeRow",
    "ServiceRow",
    "MIPSY_SPEED_FACTOR",
    "SoftWatt",
    "speed_factor",
    "SweepCampaign",
    "SweepPoint",
    "SweepResult",
    "Tier",
    "TimelineResult",
    "TimelineSimulator",
    "disk_power_series",
]
