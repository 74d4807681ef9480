"""System model configuration (Table 1 of the paper).

Every structural parameter SoftWatt exposes is collected here as a
frozen dataclass tree.  ``SystemConfig.table1()`` reproduces the exact
baseline used for the characterisation study; ``single_issue()``
produces the 1-wide configuration used for the Figure 3 comparison.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from repro.config.technology import Technology, DEFAULT_TECHNOLOGY

KB = 1024
MB = 1024 * KB
PAGE_SIZE = 4 * KB
"""Virtual-memory page size in bytes (IRIX on MIPS uses 4 KB pages)."""

MIN_CLOCK_HZ = 1e6
"""Lowest clock :meth:`SystemConfig.validate` accepts (1 MHz).

The timeline stretches a run's compute time by the Table 1 clock over
``clock_hz`` and samples it at a fixed interval, so its host time grows
as ``1 / clock_hz``: a 1 MHz jess replay already takes about half a
second, and a 1 Hz one would take days."""


class ConfigError(ValueError):
    """A system configuration that cannot be simulated meaningfully.

    Raised by :meth:`SystemConfig.validate` *before* any simulation
    starts, naming the offending field so a sweep script or CLI user
    can fix exactly the right knob.
    """

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")


def _power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    latency_cycles: int
    write_back: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError(f"cache {self.name}: all geometry fields must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"cache {self.name}: size {self.size_bytes} is not divisible by "
                f"line size x associativity"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"cache {self.name}: line size must be a power of two")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"cache {self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def tag_bits(self) -> int:
        """Tag width assuming a 32-bit physical address space."""
        offset_bits = self.line_bytes.bit_length() - 1
        index_bits = self.num_sets.bit_length() - 1
        return 32 - offset_bits - index_bits


@dataclasses.dataclass(frozen=True)
class TLBConfig:
    """Unified, fully-associative, software-managed TLB (MIPS style)."""

    entries: int = 64
    page_bytes: int = PAGE_SIZE
    software_managed: bool = True
    """When True a miss raises a trap serviced by the kernel ``utlb``
    handler; when False the refill is performed invisibly in hardware
    (the ablation discussed in DESIGN.md)."""
    hardware_refill_cycles: int = 30
    """Refill latency charged when ``software_managed`` is False."""

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page size must be a power of two")


@dataclasses.dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core structural parameters (MXS / R10000-like)."""

    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    window_size: int = 64
    lsq_size: int = 32
    int_registers: int = 34
    fp_registers: int = 32
    int_alus: int = 2
    fp_alus: int = 2
    bht_entries: int = 1024
    btb_entries: int = 1024
    ras_entries: int = 32
    branch_mispredict_penalty: int = 4

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) <= 0:
                raise ValueError(f"core parameter {field.name} must be positive")

    def as_single_issue(self) -> "CoreConfig":
        """The single-issue variant used for the Figure 3 study."""
        return dataclasses.replace(
            self, fetch_width=1, decode_width=1, issue_width=1, commit_width=1
        )


class FidelityTier(str, enum.Enum):
    """Execution fidelity of the profiling stage.

    Mirrors gem5's AtomicSimpleCPU / TimingSimpleCPU / O3CPU ladder:
    every tier produces the same :class:`BenchmarkProfile` shape, so the
    timeline replay and power registry downstream are identical — only
    how the counters and cycle totals are *obtained* changes.  This enum
    is the one list of rung names; members are declared cheapest first.

    ``DETAILED``
        The cycle-level mipsy/mxs cores, bit-identical to the golden
        pins.  The only tier allowed to populate golden caches.
    ``SAMPLED``
        SMARTS-style periodic sampling: each period runs a detailed
        warmup (state only) plus a detailed measured window, then skips
        the rest of the period; counters are extrapolated from the
        measured windows.  Cache/TLB/branch-predictor state stays live
        across the whole run.
    ``ATOMIC``
        One pass over a slice of each profiling chunk, extrapolated to
        the full chunk: the mipsy flavour runs the Mipsy core itself on
        the slice; the mxs flavour runs an analytic cursor model (real
        memory hierarchy and branch predictor, no per-cycle pipeline).
    """

    ATOMIC = "atomic"
    SAMPLED = "sampled"
    DETAILED = "detailed"

    @classmethod
    def parse(cls, value: "FidelityTier | str") -> "FidelityTier":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            choices = ", ".join(tier.value for tier in cls)
            raise ConfigError(
                "fidelity.tier", f"unknown tier {value!r}; choose one of {choices}"
            ) from None


@dataclasses.dataclass(frozen=True)
class FidelityConfig:
    """Knobs for the sub-detailed execution tiers.

    The sampling parameters are expressed in instructions and follow the
    SMARTS vocabulary: out of every ``sample_period`` instructions the
    sampled tier simulates ``warmup`` (discarded, state-carrying) plus
    ``sample_window`` (measured) in detail and fast-forwards the rest.
    The defaults give a ~5.8x sampling ratio (7000 / (300 + 900)).
    """

    tier: FidelityTier = FidelityTier.DETAILED
    sample_period: int = 7000
    sample_window: int = 900
    warmup: int = 300


@dataclasses.dataclass(frozen=True)
class MemoryConfig:
    """Main-memory parameters."""

    size_bytes: int = 128 * MB
    access_latency_cycles: int = 60
    """L2-miss to data-return latency in core cycles."""

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.access_latency_cycles <= 0:
            raise ValueError("memory parameters must be positive")


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """The full Table 1 system model."""

    core: CoreConfig
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    tlb: TLBConfig
    memory: MemoryConfig
    technology: Technology = DEFAULT_TECHNOLOGY
    fidelity: FidelityConfig = FidelityConfig()

    @classmethod
    def table1(cls) -> "SystemConfig":
        """The paper's baseline configuration (Table 1)."""
        return cls(
            core=CoreConfig(),
            l1i=CacheConfig(
                name="L1I",
                size_bytes=32 * KB,
                line_bytes=64,
                associativity=2,
                latency_cycles=1,
                write_back=False,
            ),
            l1d=CacheConfig(
                name="L1D",
                size_bytes=32 * KB,
                line_bytes=64,
                associativity=2,
                latency_cycles=1,
            ),
            l2=CacheConfig(
                name="L2",
                size_bytes=1 * MB,
                line_bytes=128,
                associativity=2,
                latency_cycles=8,
            ),
            tlb=TLBConfig(),
            memory=MemoryConfig(),
        )

    def validate(self) -> "SystemConfig":
        """Cross-field validation; raises :class:`ConfigError`.

        The per-dataclass ``__post_init__`` checks catch locally absurd
        values at construction; this method checks the constraints that
        span fields (indexing geometry, hierarchy ordering, technology
        sanity) and is wired into :class:`~repro.core.softwatt.SoftWatt`
        and the CLI so a bad sweep value fails *before* any simulation
        starts, naming the offending field.  Returns ``self`` so it can
        be chained.
        """
        for attr in ("l1i", "l1d", "l2"):
            cache: CacheConfig = getattr(self, attr)
            if not _power_of_two(cache.line_bytes):
                raise ConfigError(
                    f"{attr}.line_bytes",
                    f"cache line size must be a power of two, got "
                    f"{cache.line_bytes}",
                )
            if not _power_of_two(cache.associativity):
                raise ConfigError(
                    f"{attr}.associativity",
                    f"associativity must be a power of two, got "
                    f"{cache.associativity}",
                )
            if cache.latency_cycles <= 0:
                raise ConfigError(
                    f"{attr}.latency_cycles",
                    f"latency must be positive, got {cache.latency_cycles}",
                )
            if cache.line_bytes > cache.size_bytes:
                raise ConfigError(
                    f"{attr}.line_bytes",
                    f"one line ({cache.line_bytes} B) larger than the cache "
                    f"({cache.size_bytes} B)",
                )
        for attr in ("l1i", "l1d"):
            l1: CacheConfig = getattr(self, attr)
            if l1.line_bytes > self.l2.line_bytes:
                raise ConfigError(
                    f"{attr}.line_bytes",
                    f"L1 line ({l1.line_bytes} B) wider than the L2 line "
                    f"({self.l2.line_bytes} B) breaks inclusion",
                )
            if l1.latency_cycles >= self.l2.latency_cycles:
                raise ConfigError(
                    f"{attr}.latency_cycles",
                    f"L1 latency ({l1.latency_cycles}) must be below the L2 "
                    f"latency ({self.l2.latency_cycles})",
                )
        if self.l2.latency_cycles >= self.memory.access_latency_cycles:
            raise ConfigError(
                "l2.latency_cycles",
                f"L2 latency ({self.l2.latency_cycles}) must be below the "
                f"memory latency ({self.memory.access_latency_cycles})",
            )
        if self.tlb.entries <= 0:
            raise ConfigError(
                "tlb.entries", f"TLB needs at least one entry, got "
                f"{self.tlb.entries}"
            )
        if not _power_of_two(self.tlb.page_bytes):
            raise ConfigError(
                "tlb.page_bytes",
                f"page size must be a power of two, got {self.tlb.page_bytes}",
            )
        if self.tlb.hardware_refill_cycles <= 0:
            raise ConfigError(
                "tlb.hardware_refill_cycles",
                f"refill latency must be positive, got "
                f"{self.tlb.hardware_refill_cycles}",
            )
        if self.tlb.page_bytes > self.memory.size_bytes:
            raise ConfigError(
                "tlb.page_bytes",
                f"one page ({self.tlb.page_bytes} B) larger than main memory "
                f"({self.memory.size_bytes} B)",
            )
        technology = self.technology
        # Written as "not (finite and in range)" so NaN, which fails
        # every comparison, is rejected along with infinities.
        if not (math.isfinite(technology.vdd) and technology.vdd > 0):
            raise ConfigError(
                "technology.vdd", f"supply voltage must be positive and "
                f"finite, got {technology.vdd}"
            )
        if not (
            math.isfinite(technology.clock_hz)
            and technology.clock_hz >= MIN_CLOCK_HZ
        ):
            raise ConfigError(
                "technology.clock_hz",
                f"clock frequency must be finite and at least "
                f"{MIN_CLOCK_HZ:g} Hz, got {technology.clock_hz}",
            )
        if not (
            math.isfinite(technology.calibration) and technology.calibration >= 0
        ):
            raise ConfigError(
                "technology.calibration",
                f"calibration scale must be finite and non-negative, got "
                f"{technology.calibration}",
            )
        if not (
            math.isfinite(technology.feature_size_um)
            and technology.feature_size_um > 0
        ):
            raise ConfigError(
                "technology.feature_size_um",
                f"feature size must be positive and finite, got "
                f"{technology.feature_size_um}",
            )
        fidelity = self.fidelity
        if not isinstance(fidelity, FidelityConfig):
            raise ConfigError(
                "fidelity", f"expected a FidelityConfig, got {type(fidelity).__name__}"
            )
        if not isinstance(fidelity.tier, FidelityTier):
            raise ConfigError(
                "fidelity.tier",
                f"expected a FidelityTier, got {fidelity.tier!r} "
                f"(use FidelityTier.parse)",
            )
        if fidelity.sample_window <= 0:
            raise ConfigError(
                "fidelity.sample_window",
                f"measured window must be positive, got {fidelity.sample_window}",
            )
        if fidelity.warmup < 0:
            raise ConfigError(
                "fidelity.warmup",
                f"warmup length cannot be negative, got {fidelity.warmup}",
            )
        if fidelity.sample_period < fidelity.warmup + fidelity.sample_window:
            raise ConfigError(
                "fidelity.sample_period",
                f"period ({fidelity.sample_period}) must cover warmup + window "
                f"({fidelity.warmup} + {fidelity.sample_window}); a period equal "
                f"to warmup + window degenerates to the detailed tier",
            )
        return self

    def single_issue(self) -> "SystemConfig":
        """The 1-wide MXS configuration used in Figure 3."""
        return dataclasses.replace(self, core=self.core.as_single_issue())

    def with_hardware_tlb(self) -> "SystemConfig":
        """Ablation variant: hardware TLB refill, no utlb service."""
        return dataclasses.replace(
            self, tlb=dataclasses.replace(self.tlb, software_managed=False)
        )

    def with_fidelity(
        self,
        fidelity: FidelityConfig | FidelityTier | str,
        *,
        sample_period: int | None = None,
        sample_window: int | None = None,
        warmup: int | None = None,
    ) -> "SystemConfig":
        """Return a copy running at the given fidelity tier.

        ``fidelity`` may be a full :class:`FidelityConfig`, a
        :class:`FidelityTier`, or a tier name; the keyword overrides
        adjust individual sampling parameters on top.
        """
        if isinstance(fidelity, FidelityConfig):
            resolved = fidelity
        else:
            resolved = dataclasses.replace(
                self.fidelity, tier=FidelityTier.parse(fidelity)
            )
        overrides = {
            name: value
            for name, value in (
                ("sample_period", sample_period),
                ("sample_window", sample_window),
                ("warmup", warmup),
            )
            if value is not None
        }
        if overrides:
            resolved = dataclasses.replace(resolved, **overrides)
        return dataclasses.replace(self, fidelity=resolved)
