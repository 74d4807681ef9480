"""Detailed-window profiling: cycle-level simulation -> per-cycle rates.

The first half of the SoftWatt two-level methodology (DESIGN.md §2):
for every benchmark phase, run the interleaved workload (user code +
scheduled kernel activity + emergent utlb traps) on a cycle-level CPU
model and record per-label cycles and unit-access counters.  Phases run
*sequentially on one machine state*, so the startup phase executes with
cold caches (the paper's cold-start memory-power ramp) and later phases
inherit warmed state.

Each phase is measured in several sequential *chunks*; the chunk
sequence preserves within-phase ramps (cold -> warm) that the timeline
stitches back into the sampled log.

Per-invocation kernel-service profiles (Table 5 / Figure 8) are
measured separately by running isolated invocations against a
persistent machine state.  They are price-free: energies are computed
when a profile is read under a power model.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics

from repro.config.system import FidelityTier, SystemConfig
from repro.cpu.atomic import AtomicProcessor
from repro.cpu.mipsy import MipsyProcessor
from repro.cpu.mxs import MXSProcessor
from repro.cpu.runstats import RunStats
from repro.cpu.sampled import SampledProcessor
from repro.isa.generators import SyntheticCodeGenerator
from repro.kernel.idle import IDLE_LOOP_LENGTH, idle_loop
from repro.kernel.kernel import Kernel
from repro.kernel.modes import ExecutionMode, mode_of_label
from repro.kernel.scheduler import InterleavedWorkload
from repro.mem.hierarchy import MemoryHierarchy
from repro.power.processor import ProcessorPowerModel
from repro.stats.counters import AccessCounters
from repro.workloads.jvm import PhaseSpec
from repro.workloads.specjvm98 import BenchmarkSpec

CPU_MODELS = ("mxs", "mipsy")


def make_cpu(model: str, config: SystemConfig, hierarchy, trap_client):
    """Instantiate a CPU model by name."""
    if model == "mxs":
        return MXSProcessor(config, hierarchy, trap_client=trap_client)
    if model == "mipsy":
        return MipsyProcessor(config, hierarchy, trap_client=trap_client)
    raise ValueError(f"unknown CPU model {model!r}; choose from {CPU_MODELS}")


def make_tier_cpu(model: str, config: SystemConfig, hierarchy, trap_client):
    """Instantiate a CPU at the fidelity tier requested by ``config``.

    ``detailed`` returns the plain cycle-level core (the path stays
    bit-identical to the golden pins); ``sampled`` wraps that core in a
    :class:`SampledProcessor`; ``atomic`` substitutes the functional
    :class:`AtomicProcessor` of the matching flavour.
    """
    tier = config.fidelity.tier
    if tier is FidelityTier.ATOMIC:
        if model not in CPU_MODELS:
            raise ValueError(f"unknown CPU model {model!r}; choose from {CPU_MODELS}")
        return AtomicProcessor(model, config, hierarchy, trap_client)
    cpu = make_cpu(model, config, hierarchy, trap_client)
    if tier is FidelityTier.SAMPLED:
        return SampledProcessor(cpu, config.fidelity)
    return cpu


@dataclasses.dataclass
class PhaseProfile:
    """Measured behaviour of one benchmark phase."""

    phase: PhaseSpec
    chunks: list[RunStats]
    invocations: dict[str, int]
    """Kernel-service invocations observed in the window (including the
    emergent utlb count)."""

    @property
    def aggregate(self) -> RunStats:
        """All chunks merged."""
        merged = self.chunks[0]
        for chunk in self.chunks[1:]:
            merged = merged.merged(chunk)
        return merged

    def mode_cycles(self) -> dict[ExecutionMode, float]:
        """Cycles per software mode in the measured window."""
        totals = {mode: 0.0 for mode in ExecutionMode}
        for label, stats in self.aggregate.labels.items():
            totals[mode_of_label(label)] += stats.cycles
        return totals


@dataclasses.dataclass
class IdleProfile:
    """Measured behaviour of the idle process."""

    stats: RunStats

    def rates(self) -> AccessCounters:
        """Counters of the window (normalise by ``stats.cycles``)."""
        return self.stats.total_counters()


class ServiceTranslationError(RuntimeError):
    """A kernel-service handler translated an address through the TLB.

    Service profiles are keyed without the TLB configuration because
    every handler body runs in KSEG, which bypasses translation.  A
    handler that touches mapped memory would make such a profile depend
    on the TLB, so characterisation refuses it instead of caching a
    TLB-blind result.
    """


@dataclasses.dataclass
class ServiceInvocationProfile:
    """Per-invocation measurements of one kernel service (Table 5).

    Price-free: it records what the simulation produced and nothing the
    power model decides, so one characterisation serves every
    technology point.  :meth:`priced` binds a power model for the
    Table 5 / Figure 8 energies.
    """

    service: str
    cycles: list[float]
    counters: list[AccessCounters]
    """Unit-access counts of each measured invocation."""
    instructions: list[int]
    """Instructions retired by each measured invocation."""

    @property
    def invocations(self) -> int:
        """Number of measured invocations."""
        return len(self.cycles)

    @property
    def mean_cycles(self) -> float:
        """Mean cycles per invocation."""
        return statistics.fmean(self.cycles)

    @functools.cached_property
    def mean_counters(self) -> AccessCounters:
        """Mean per-invocation unit-access counts (for timeline scheduling)."""
        totals = AccessCounters()
        for counters in self.counters:
            totals.add(counters)
        mean = AccessCounters()
        for name, value in totals.items():
            setattr(mean, name, value // self.invocations)
        return mean

    @property
    def instructions_per_invocation(self) -> float:
        """Mean instructions per invocation."""
        return sum(self.instructions) / self.invocations

    def priced(self, model: ProcessorPowerModel) -> "PricedServiceProfile":
        """This profile with energies read under ``model``."""
        return PricedServiceProfile(
            self.service, self.cycles, self.counters, self.instructions, model
        )


@dataclasses.dataclass
class PricedServiceProfile(ServiceInvocationProfile):
    """A service profile whose energies are priced on first read."""

    model: ProcessorPowerModel = dataclasses.field(compare=False, repr=False)

    @functools.cached_property
    def _ledgers(self) -> list:
        return [
            self.model.ledger(counters, max(1, cycles))
            for counters, cycles in zip(self.counters, self.cycles)
        ]

    @functools.cached_property
    def energies_j(self) -> list[float]:
        """Energy of each measured invocation."""
        return [ledger.total_j for ledger in self._ledgers]

    @functools.cached_property
    def category_energy_j(self) -> dict[str, float]:
        """Mean energy per invocation, split by power category (Figure 8)."""
        totals: dict[str, float] = {}
        for ledger in self._ledgers:
            for name, value in ledger.categories.items():
                totals[name] = totals.get(name, 0.0) + value
        return {name: value / self.invocations for name, value in totals.items()}

    @property
    def mean_energy_j(self) -> float:
        """Mean energy per invocation."""
        return statistics.fmean(self.energies_j)

    @property
    def coefficient_of_deviation(self) -> float:
        """Standard deviation over mean, as a percentage (Table 5)."""
        if len(self.energies_j) < 2:
            return 0.0
        mean = self.mean_energy_j
        if mean == 0.0:
            return 0.0
        return statistics.stdev(self.energies_j) / mean * 100.0

    def average_power_w(self, cycle_time_s: float) -> float:
        """Average power while the service runs (Figure 8)."""
        if self.mean_cycles == 0:
            return 0.0
        return self.mean_energy_j / (self.mean_cycles * cycle_time_s)


@dataclasses.dataclass
class BenchmarkProfile:
    """All measured windows for one benchmark on one CPU model."""

    spec: BenchmarkSpec
    cpu_model: str
    phases: dict[str, PhaseProfile]
    idle: IdleProfile
    config: SystemConfig

    def phase_profile(self, name: str) -> PhaseProfile:
        """The profile of the named phase."""
        return self.phases[name]


class Profiler:
    """Runs the detailed windows for benchmarks, idle, and services."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        cpu_model: str = "mxs",
        window_instructions: int = 60_000,
        startup_chunks: int = 4,
        steady_chunks: int = 2,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else SystemConfig.table1()
        if cpu_model not in CPU_MODELS:
            raise ValueError(f"unknown CPU model {cpu_model!r}")
        if window_instructions < 1000:
            raise ValueError("windows below 1000 instructions are meaningless")
        self.cpu_model = cpu_model
        self.window_instructions = window_instructions
        self.startup_chunks = startup_chunks
        self.steady_chunks = steady_chunks
        self.seed = seed
        self.detailed_runs = 0
        """Detailed cycle-level simulations performed by this profiler
        (benchmark windows + service characterisations).  Tests use this
        to assert that a warm profile cache skips simulation entirely."""
        self._idle_cache: IdleProfile | None = None

    # ------------------------------------------------------------------
    # Benchmark phases
    # ------------------------------------------------------------------

    def profile_benchmark(self, spec: BenchmarkSpec) -> BenchmarkProfile:
        """Measure every phase of ``spec`` sequentially (cold start)."""
        self.detailed_runs += 1
        config = self.config
        counters = AccessCounters()
        hierarchy = MemoryHierarchy(config, counters)
        kernel = Kernel(config, hierarchy, seed=spec.seed ^ self.seed)
        # The paper warms the file caches and checkpoints before
        # profiling; class files are NOT pre-cached (their loads are the
        # initial idle periods), but the benchmark's data files are.
        for file_id in range(8):
            kernel.file_cache.warm(file_id, 512 * 1024)
        cpu = make_tier_cpu(self.cpu_model, config, hierarchy, kernel)

        phases: dict[str, PhaseProfile] = {}
        seen_invocations: dict[str, int] = {}
        for phase in spec.phases.phases:
            chunk_count = (
                self.startup_chunks if phase.cold_caches else self.steady_chunks
            )
            instructions = max(
                2000, int(self.window_instructions * phase.compute_fraction)
            )
            generator = SyntheticCodeGenerator(
                phase.signature, seed=spec.seed ^ self.seed
            )
            workload = InterleavedWorkload(
                generator,
                kernel,
                service_rates=phase.service_rates,
                syscalls=phase.syscalls,
                sync_mean_gap=phase.sync_mean_gap,
                seed=spec.seed ^ self.seed ^ 0xF00D,
            )
            stream = iter(workload)
            chunks = []
            per_chunk = max(500, instructions // chunk_count)
            generated = 0
            for _ in range(chunk_count):
                chunks.append(cpu.run(stream, max_instructions=per_chunk))
                generated += getattr(cpu, "stream_consumed", per_chunk)
            delta = {
                name: count - seen_invocations.get(name, 0)
                for name, count in kernel.invocations.items()
            }
            represented = per_chunk * chunk_count
            if generated and generated != represented:
                # Sub-detailed tiers generate only a sample of the
                # window; scheduled-service invocation counts accrue per
                # generated instruction, so extrapolate them to the
                # represented budget just like the chunk counters.
                ratio = represented / generated
                delta = {name: round(count * ratio) for name, count in delta.items()}
            delta["utlb"] = sum(chunk.traps for chunk in chunks)
            seen_invocations = dict(kernel.invocations)
            phases[phase.name] = PhaseProfile(
                phase=phase,
                chunks=chunks,
                invocations={k: v for k, v in delta.items() if v > 0},
            )
        idle = self.profile_idle()
        return BenchmarkProfile(
            spec=spec,
            cpu_model=self.cpu_model,
            phases=phases,
            idle=idle,
            config=config,
        )

    # ------------------------------------------------------------------
    # Idle process
    # ------------------------------------------------------------------

    def profile_idle(self, iterations: int | None = None) -> IdleProfile:
        """Measure the idle process (workload-independent, Section 3.3).

        The idle loop runs on a fresh machine state and depends only on
        the profiler's configuration, so the default-length measurement
        is performed once and shared by every benchmark profile — the
        result is bit-identical to re-measuring it per benchmark.
        """
        default_window = iterations is None
        if default_window:
            if self._idle_cache is not None:
                return self._idle_cache
            iterations = max(2000, self.window_instructions // 12)
        hierarchy = MemoryHierarchy(self.config, AccessCounters())
        cpu = make_tier_cpu(self.cpu_model, self.config, hierarchy, None)
        # Warm pass: the idle loop's two cache lines and its code.
        cpu.run(idle_loop(64))
        if self.config.fidelity.tier is FidelityTier.DETAILED:
            stats = cpu.run(idle_loop(iterations))
        else:
            # The idle loop is a fixed six-instruction body, so the
            # sub-detailed tiers can sample it with near-zero error;
            # the loop length gives them an exact budget to scale to.
            stats = cpu.run(
                idle_loop(iterations),
                max_instructions=iterations * IDLE_LOOP_LENGTH,
            )
        profile = IdleProfile(stats=stats)
        if default_window:
            self._idle_cache = profile
        return profile

    # ------------------------------------------------------------------
    # Per-invocation service profiles
    # ------------------------------------------------------------------

    def profile_service(
        self,
        service: str,
        *,
        invocations: int = 60,
        warmup: int = 6,
        seed: int | None = None,
    ) -> ServiceInvocationProfile:
        """Measure per-invocation cycles and counters for one service.

        Runs on the detailed core whatever the fidelity rung, and prices
        nothing.  Raises :class:`ServiceTranslationError` if any
        invocation translates an address (see its docstring).
        """
        if invocations < 2:
            raise ValueError("need at least two invocations for a deviation")
        self.detailed_runs += 1
        config = self.config
        hierarchy = MemoryHierarchy(config, AccessCounters())
        kernel = Kernel(config, hierarchy, seed=self.seed if seed is None else seed)
        cpu = make_cpu(self.cpu_model, config, hierarchy, kernel)
        cycles: list[float] = []
        counters: list[AccessCounters] = []
        instructions: list[int] = []
        for index in range(warmup + invocations):
            body = kernel.invoke_service(service)
            stats = cpu.run(body)
            run_counters = stats.total_counters()
            if run_counters.tlb_access:
                raise ServiceTranslationError(
                    f"service {service!r} translated {run_counters.tlb_access} "
                    f"address(es) in invocation {index}; handlers must run "
                    f"in KSEG"
                )
            if index < warmup:
                continue
            cycles.append(float(max(1, stats.cycles)))
            counters.append(run_counters)
            instructions.append(stats.instructions)
        return ServiceInvocationProfile(
            service=service,
            cycles=cycles,
            counters=counters,
            instructions=instructions,
        )
