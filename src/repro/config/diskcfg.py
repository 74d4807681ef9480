"""Disk model configuration.

Two layers, as in the paper (Section 2):

* a timing model in the mould of the SimOS HP97560 disk (seek,
  rotation, transfer), and
* the Toshiba MK3003MAN operating-modes layer with the power values of
  Figure 2 and 5-second spin-up/spin-down transitions.

The four power-management configurations evaluated in Section 4 are
constructed by :func:`disk_configuration`.
"""

from __future__ import annotations

import dataclasses
import enum


class DiskMode(enum.Enum):
    """Operating modes of the MK3003MAN state machine (Figure 2)."""

    SLEEP = "sleep"
    STANDBY = "standby"
    IDLE = "idle"
    ACTIVE = "active"
    SEEK = "seek"
    SPINUP = "spinup"
    SPINDOWN = "spindown"


MK3003MAN_POWER_W: dict[DiskMode, float] = {
    DiskMode.SLEEP: 0.15,
    DiskMode.IDLE: 1.6,
    DiskMode.STANDBY: 0.35,
    DiskMode.ACTIVE: 3.2,
    DiskMode.SEEK: 4.1,
    DiskMode.SPINUP: 4.2,
    # The paper assumes the spin-down operation consumes no power.
    DiskMode.SPINDOWN: 0.0,
}
"""Per-mode power draw in watts, exactly the Figure 2 table."""

SPINUP_TIME_S: float = 5.0
"""Spin-up duration (Figure 2: '5 Sec.')."""

SPINDOWN_TIME_S: float = 5.0
"""Spin-down duration; the paper assumes spin up and spin down take the
same amount of time."""


@dataclasses.dataclass(frozen=True)
class DiskGeometry:
    """Timing parameters of the underlying HP97560-class mechanism.

    The HP97560 is a 5400 RPM, 1.3 GB SCSI disk whose measured seek
    curve was published with the original SimOS/DiskSim models; the
    values here follow that characterisation.
    """

    rpm: float = 5400.0
    cylinders: int = 1962
    sectors_per_track: int = 72
    sector_bytes: int = 512
    min_seek_ms: float = 3.24
    avg_seek_ms: float = 13.5
    max_seek_ms: float = 26.0
    controller_overhead_ms: float = 2.2

    def __post_init__(self) -> None:
        if self.rpm <= 0 or self.cylinders <= 0:
            raise ValueError("disk geometry values must be positive")
        if not self.min_seek_ms <= self.avg_seek_ms <= self.max_seek_ms:
            raise ValueError("seek times must satisfy min <= avg <= max")

    @property
    def rotation_time_s(self) -> float:
        """One full platter rotation, in seconds."""
        return 60.0 / self.rpm

    @property
    def track_bytes(self) -> int:
        """Bytes per track."""
        return self.sectors_per_track * self.sector_bytes

    @property
    def transfer_rate_bytes_per_s(self) -> float:
        """Media transfer rate in bytes per second."""
        return self.track_bytes / self.rotation_time_s


@dataclasses.dataclass(frozen=True)
class DiskPowerPolicy:
    """A disk power-management policy (Section 4 configurations).

    ``conventional`` models the baseline disk of Section 3: no mode
    transitions at all, the platter consumes ACTIVE power whenever it is
    not seeking or transferring.  When ``conventional`` is False the
    disk drops to IDLE immediately after each request completes, and if
    ``spindown_threshold_s`` is set it spins down to STANDBY after that
    much disk inactivity.
    """

    name: str
    conventional: bool = False
    spindown_threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.conventional and self.spindown_threshold_s is not None:
            raise ValueError("a conventional disk cannot have a spin-down threshold")
        # ``not > 0`` also rejects NaN; inf stays legal ("never spin down").
        if self.spindown_threshold_s is not None and not self.spindown_threshold_s > 0:
            raise ValueError(
                f"spin-down threshold must be positive, got "
                f"{self.spindown_threshold_s}"
            )


def disk_configuration(number: int) -> DiskPowerPolicy:
    """Return one of the paper's four disk configurations (Section 4).

    1. baseline / conventional: ACTIVE whenever not seeking,
    2. IDLE mode after each request, no STANDBY,
    3. IDLE plus STANDBY with a 2 s spin-down threshold,
    4. IDLE plus STANDBY with a 4 s spin-down threshold.
    """
    policies = {
        1: DiskPowerPolicy(name="baseline", conventional=True),
        2: DiskPowerPolicy(name="idle-only"),
        3: DiskPowerPolicy(name="spindown-2s", spindown_threshold_s=2.0),
        4: DiskPowerPolicy(name="spindown-4s", spindown_threshold_s=4.0),
    }
    if number not in policies:
        raise ValueError(f"disk configuration must be 1-4, got {number}")
    return policies[number]


ALL_DISK_CONFIGURATIONS: tuple[int, ...] = (1, 2, 3, 4)
"""Configuration numbers evaluated in Figure 9."""
