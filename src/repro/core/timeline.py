"""Full-run timeline simulation.

The second half of the SoftWatt two-level methodology (DESIGN.md §2):
lay the benchmark's complete profiled period out in wall-clock time —
phases, disk requests, and the idle periods they induce — and sample it
into a :class:`~repro.stats.simlog.SimulationLog` at the paper's coarse
log granularity.  Compute segments draw their per-cycle behaviour from
the detailed phase profiles (chunk by chunk, preserving the cold-start
ramp); idle segments draw from the idle-process profile (which the
paper shows is workload-independent, justifying exactly this
fast-forwarding).  The disk is simulated event-exactly alongside.

Disk events in the benchmark spec are given in *compute progress*
seconds: a request issued after P seconds of computation.  Both the
spec's compute time and its progress times are calibrated for the
Table 1 clock; a slower clock stretches them (the same work takes
longer), a faster one compresses them.  Blocking
I/O stretches wall time (the process waits; the idle process runs), so
wall = progress + accumulated I/O waiting, matching how spin-up
penalties serialise with execution in the paper's Section 4 study.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as _np

from repro.config.diskcfg import (
    MK3003MAN_POWER_W,
    DiskPowerPolicy,
    disk_configuration,
)
from repro.config.technology import CLOCK_HZ
from repro.core.profiles import (
    BenchmarkProfile,
    PhaseProfile,
    ServiceInvocationProfile,
)
from repro.cpu.runstats import RunStats
from repro.disk.manager import PowerManagedDisk
from repro.kernel.modes import ExecutionMode, mode_of_label
from repro.stats.counters import (
    COUNTER_FIELDS,
    AccessCounters,
    counters_from_vector,
    counters_to_vector,
)
from repro.stats.simlog import LogRecord, SimulationLog

if TYPE_CHECKING:
    from repro.power.ledger import EnergyLedger

_EPS = 1e-9

IDLE_POLICIES = ("busywait", "halt")
"""How the CPU spends idle periods.

``busywait`` is IRIX behaviour (the idle process spins, burning real
power — the paper's default).  ``halt`` implements the paper's closing
suggestion: "This energy consumption can be reduced by transitioning
the CPU and the memory-subsystem to a low-power mode or by even
halting the processor, instead of executing the idle-process"
(Section 5) — idle cycles then exercise no units, leaving only the
clock spine and DRAM refresh."""


@dataclasses.dataclass(frozen=True)
class _Segment:
    """One homogeneous stretch of the run."""

    start_s: float
    end_s: float
    source: RunStats
    """Detailed-window stats whose rates fill this segment."""
    is_idle: bool
    phase: str | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclasses.dataclass
class TimelineResult:
    """Everything the report layer needs about one full run."""

    log: SimulationLog
    disk: PowerManagedDisk
    duration_s: float
    compute_duration_s: float
    idle_wait_s: float
    """Wall time the CPU spent idling on blocking disk I/O."""
    mode_cycles: dict[ExecutionMode, float]
    mode_counters: dict[ExecutionMode, AccessCounters]
    label_cycles: dict[str | None, float]
    label_counters: dict[str | None, AccessCounters]
    label_instructions: dict[str | None, float]
    invocations: dict[str, float]
    """Scaled kernel-service invocation counts over the full run."""

    @property
    def total_cycles(self) -> float:
        """All cycles in the run."""
        return sum(self.mode_cycles.values())

    def energy_ledger(self, model) -> "EnergyLedger":
        """The full-run :class:`~repro.power.ledger.EnergyLedger`.

        Counter-driven components come from pricing the whole log
        through the :class:`~repro.stats.source.CounterSource` seam;
        the disk — the one simulation-time component — is attached with
        its event-exact integrated energy.
        """
        ledger = model.price(self.log)
        return ledger.with_component("disk", "disk", self.disk.energy.energy_j)


def _dominant_mode(source: RunStats) -> ExecutionMode:
    """The software mode holding the most cycles of a segment source."""
    best_mode = ExecutionMode.USER
    best_cycles = -1.0
    for label, stats in source.labels.items():
        if stats.cycles > best_cycles:
            best_cycles = stats.cycles
            best_mode = mode_of_label(label)
    return best_mode


def _scale_counters(counters: AccessCounters, factor: float) -> AccessCounters:
    """Scale every counter by ``factor`` (values become floats).

    The timeline works with fractional expected counts (rates times
    durations); the power models consume them unchanged.
    """
    scaled = AccessCounters()
    for name, value in counters.items():
        setattr(scaled, name, value * factor)
    return scaled


class TimelineSimulator:
    """Composes phase profiles + disk model into a sampled full run."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        *,
        disk_policy: DiskPowerPolicy | int = 1,
        sample_interval_s: float = 0.1,
        clock_hz: float | None = None,
        speed_factor: float = 1.0,
        service_profiles: dict[str, ServiceInvocationProfile] | None = None,
        annotations=None,
        idle_policy: str = "busywait",
    ) -> None:
        self.profile = profile
        self.service_profiles = service_profiles or {}
        self.annotations = annotations
        if idle_policy not in IDLE_POLICIES:
            raise ValueError(
                f"idle_policy must be one of {IDLE_POLICIES}, got {idle_policy!r}"
            )
        self.idle_policy = idle_policy
        if isinstance(disk_policy, int):
            disk_policy = disk_configuration(disk_policy)
        self.disk_policy = disk_policy
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.sample_interval_s = sample_interval_s
        self.clock_hz = (
            clock_hz if clock_hz is not None else profile.config.technology.clock_hz
        )
        if speed_factor <= 0:
            raise ValueError("speed factor must be positive")
        # Mipsy-style runs take longer wall time for the same work, and
        # so does a slower clock: the spec's durations are calibrated
        # for the 4-wide MXS machine at the Table 1 clock.  The clock
        # ratio is taken first so it is exactly 1.0 at Table 1.
        self.speed_factor = speed_factor * (CLOCK_HZ / self.clock_hz)

    # ------------------------------------------------------------------
    # Segment assembly
    # ------------------------------------------------------------------

    def _phase_subsegments(self) -> list[tuple[float, float, RunStats, str]]:
        """(progress_start, progress_end, chunk stats, phase) in compute time.

        Each phase occupies its compute fraction of the run; within a
        phase, chunks split the duration in proportion to their cycle
        counts, preserving measured ramps.
        """
        spec = self.profile.spec
        duration = spec.compute_duration_s * self.speed_factor
        result: list[tuple[float, float, RunStats, str]] = []
        cursor = 0.0
        for phase_spec in spec.phases.phases:
            phase: PhaseProfile = self.profile.phases[phase_spec.name]
            phase_duration = phase_spec.compute_fraction * duration
            total_chunk_cycles = sum(chunk.cycles for chunk in phase.chunks) or 1
            for chunk in phase.chunks:
                share = chunk.cycles / total_chunk_cycles
                end = cursor + share * phase_duration
                result.append((cursor, end, chunk, phase_spec.name))
                cursor = end
        return result

    def _build_segments(
        self, disk: PowerManagedDisk
    ) -> tuple[list[_Segment], float, float]:
        """Lay compute sub-segments and idle waits out in wall time."""
        spec = self.profile.spec
        idle_source = self.profile.idle.stats
        compute = self._phase_subsegments()
        compute_duration = compute[-1][1] if compute else 0.0
        events = [
            (event.progress_s * self.speed_factor, event.nbytes)
            for event in spec.disk_events
        ]
        segments: list[_Segment] = []
        wall = 0.0
        progress = 0.0
        chunk_index = 0
        idle_wait = 0.0

        def emit_compute(until_progress: float) -> None:
            nonlocal wall, progress, chunk_index
            while progress < until_progress - _EPS and chunk_index < len(compute):
                chunk_start, chunk_end, stats, phase_name = compute[chunk_index]
                end = min(chunk_end, until_progress)
                if end > progress + _EPS:
                    duration = end - progress
                    segments.append(
                        _Segment(
                            start_s=wall,
                            end_s=wall + duration,
                            source=stats,
                            is_idle=False,
                            phase=phase_name,
                        )
                    )
                    wall += duration
                    progress = end
                if progress >= chunk_end - _EPS:
                    chunk_index += 1

        for event_progress, nbytes in events:
            emit_compute(min(event_progress, compute_duration))
            request = disk.request(wall, nbytes)
            if self.annotations is not None:
                self.annotations.emit_disk_request(request)
            if request.completion_s > wall + _EPS:
                segments.append(
                    _Segment(
                        start_s=wall,
                        end_s=request.completion_s,
                        source=idle_source,
                        is_idle=True,
                    )
                )
                idle_wait += request.completion_s - wall
                wall = request.completion_s
        emit_compute(compute_duration)
        disk.finish(wall)
        return segments, wall, idle_wait

    # ------------------------------------------------------------------
    # Scheduled kernel services (Table 4 densities x measured profiles)
    # ------------------------------------------------------------------

    def _service_plan(
        self, total_cycles: float, compute_cycles: float
    ) -> tuple[dict[str, tuple[float, float]], AccessCounters, float]:
        """Plan the scheduled kernel-service activity for this run.

        Returns ``(per-service (count, cycles), total scheduled counters,
        phi)`` where ``phi`` is the fraction of compute cycles consumed
        by scheduled services (window-derived activity is scaled by
        ``1 - phi`` to make room).
        """
        densities = self.profile.spec.service_densities()
        plan: dict[str, tuple[float, float]] = {}
        totals = AccessCounters()
        scheduled_cycles = 0.0
        # Invocation counts are a property of the *work* the benchmark
        # does, not of the machine running it: derive them from the
        # reference run (4-wide MXS at the Table 1 clock), so slower
        # machines and clocks execute the same number of reads/faults
        # over a longer wall time.
        reference_cycles = self.profile.spec.compute_duration_s * CLOCK_HZ
        for service, density in densities.items():
            svc_profile = self.service_profiles.get(service)
            if svc_profile is None:
                continue
            count = density * reference_cycles
            cycles = count * svc_profile.mean_cycles
            plan[service] = (count, cycles)
            scheduled_cycles += cycles
            totals.add(_scale_counters(svc_profile.mean_counters, count))
        if compute_cycles <= 0:
            return plan, totals, 0.0
        phi = min(0.85, scheduled_cycles / compute_cycles)
        return plan, totals, phi

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _segment_rates(
        self, source: RunStats, *, halted: bool = False
    ) -> tuple[AccessCounters, dict[ExecutionMode, float]]:
        """Per-cycle counter rates and mode shares of a segment source.

        ``halted`` zeroes the unit activity (the Section 5 halt-on-idle
        extension): cycles still pass, but nothing switches beyond the
        clock spine and DRAM refresh."""
        cycles = max(1, source.cycles)
        counters = AccessCounters() if halted else source.total_counters()
        mode_share: dict[ExecutionMode, float] = {}
        for label, stats in source.labels.items():
            mode = mode_of_label(label)
            mode_share[mode] = mode_share.get(mode, 0.0) + stats.cycles / cycles
        return counters, mode_share

    def _sample(
        self,
        segments: list[_Segment],
        duration_s: float,
        *,
        phi: float = 0.0,
        scheduled_rate: AccessCounters | None = None,
    ) -> SimulationLog:
        """Chop segments into log records.

        ``phi`` is the compute-cycle fraction consumed by scheduled
        kernel services; ``scheduled_rate`` gives their per-compute-
        cycle counter rates, spread uniformly over compute segments
        (window-derived activity is diluted by ``1 - phi`` to make
        room).

        Counters are fixed-order float64 vectors (``COUNTER_FIELDS``
        order), so each segment overlap is one fused multiply-add
        (``acc += vec * factor``, per element ``acc[i] + vec[i] *
        factor``) instead of 33 attribute round-trips.
        """
        log = SimulationLog(self.sample_interval_s)
        if not segments:
            return log
        interval = self.sample_interval_s
        clock = self.clock_hz
        dilution = 1.0 - phi
        halt_idle = self.idle_policy == "halt"
        width = len(COUNTER_FIELDS)
        sched_vec = (
            counters_to_vector(scheduled_rate)
            if scheduled_rate is not None
            else None
        )
        # Segment sources repeat (idle stats, per-chunk profiles), so
        # their rate vectors are converted once and reused.
        rate_cache: dict[tuple[int, bool], tuple[object, dict]] = {}

        def segment_rates(seg: _Segment) -> tuple[object, dict]:
            key = (id(seg.source), halt_idle and seg.is_idle)
            cached = rate_cache.get(key)
            if cached is None:
                counters, mode_share = self._segment_rates(
                    seg.source, halted=key[1]
                )
                cached = (counters_to_vector(counters), mode_share)
                rate_cache[key] = cached
            return cached

        t = 0.0
        seg_iter = iter(segments)
        segment = next(seg_iter)
        seg_vec, seg_share = segment_rates(segment)
        while t < duration_s - _EPS:
            t_end = min(t + interval, duration_s)
            acc = _np.zeros(width, dtype=_np.float64)
            mode_cycles: dict[ExecutionMode, float] = {}
            cursor = t
            cycles_total = 0.0
            while cursor < t_end - _EPS:
                while segment.end_s <= cursor + _EPS:
                    try:
                        segment = next(seg_iter)
                    except StopIteration:
                        break
                    seg_vec, seg_share = segment_rates(segment)
                overlap = min(segment.end_s, t_end) - cursor
                if overlap <= 0:
                    break
                seg_cycles = overlap * clock
                cycles_total += seg_cycles
                source_cycles = max(1, segment.source.cycles)
                if segment.is_idle:
                    factor = seg_cycles / source_cycles
                    acc += seg_vec * factor
                    mode_cycles[ExecutionMode.IDLE] = (
                        mode_cycles.get(ExecutionMode.IDLE, 0.0) + seg_cycles
                    )
                else:
                    factor = seg_cycles * dilution / source_cycles
                    acc += seg_vec * factor
                    if sched_vec is not None:
                        acc += sched_vec * seg_cycles
                    for mode, share in seg_share.items():
                        mode_cycles[mode] = (
                            mode_cycles.get(mode, 0.0) + share * seg_cycles * dilution
                        )
                    if phi > 0.0:
                        mode_cycles[ExecutionMode.KERNEL] = (
                            mode_cycles.get(ExecutionMode.KERNEL, 0.0)
                            + phi * seg_cycles
                        )
                cursor += overlap
            log.append(
                LogRecord(
                    start_s=t,
                    end_s=t_end,
                    cycles=cycles_total,
                    counters=counters_from_vector(acc),
                    mode_cycles=mode_cycles,
                )
            )
            t = t_end
        return log

    # ------------------------------------------------------------------
    # Run-level aggregation
    # ------------------------------------------------------------------

    def _aggregate(
        self,
        segments: list[_Segment],
        plan: dict[str, tuple[float, float]],
        phi: float,
    ) -> tuple[
        dict[ExecutionMode, float],
        dict[ExecutionMode, AccessCounters],
        dict[str | None, float],
        dict[str | None, AccessCounters],
        dict[str | None, float],
        dict[str, float],
    ]:
        # Per-mode and per-label counter accumulators are float64
        # vectors, converted back once at the end.
        clock = self.clock_hz
        width = len(COUNTER_FIELDS)
        mode_cycles: dict[ExecutionMode, float] = {mode: 0.0 for mode in ExecutionMode}
        mode_vecs = {
            mode: _np.zeros(width, dtype=_np.float64) for mode in ExecutionMode
        }
        label_cycles: dict[str | None, float] = {}
        label_vecs: dict[str | None, object] = {}
        label_instructions: dict[str | None, float] = {}
        invocations: dict[str, float] = {}

        # Scale factors per distinct source: wall seconds using that
        # source -> cycles, vs the source's measured cycles.
        source_walls: dict[int, float] = {}
        sources: dict[int, tuple[RunStats, bool]] = {}
        for segment in segments:
            key = id(segment.source)
            source_walls[key] = source_walls.get(key, 0.0) + segment.duration_s
            sources[key] = (segment.source, segment.is_idle)

        halt_idle = self.idle_policy == "halt"
        for key, wall_s in source_walls.items():
            source, is_idle = sources[key]
            if is_idle and halt_idle:
                mode_cycles[ExecutionMode.IDLE] += wall_s * clock
                label_cycles["idle"] = label_cycles.get("idle", 0.0) + wall_s * clock
                if "idle" not in label_vecs:
                    label_vecs["idle"] = _np.zeros(width, dtype=_np.float64)
                continue
            target_cycles = wall_s * clock
            factor = target_cycles / max(1, source.cycles)
            if not is_idle:
                # Scheduled kernel services displace part of every
                # compute segment.
                factor *= 1.0 - phi
            for label, stats in source.labels.items():
                mode = ExecutionMode.IDLE if is_idle else mode_of_label(label)
                cycles = stats.cycles * factor
                mode_cycles[mode] += cycles
                scaled = counters_to_vector(stats.counters) * factor
                mode_vecs[mode] += scaled
                label_cycles[label] = label_cycles.get(label, 0.0) + cycles
                if label not in label_vecs:
                    label_vecs[label] = _np.zeros(width, dtype=_np.float64)
                label_vecs[label] += scaled
                label_instructions[label] = (
                    label_instructions.get(label, 0.0) + stats.instructions * factor
                )

        # Scaled invocation counts: phase windows -> full phases
        # (covers the emergent utlb traps and any window-scheduled
        # activity), diluted like their cycles.
        spec = self.profile.spec
        duration = spec.compute_duration_s * self.speed_factor
        for phase_spec in spec.phases.phases:
            phase = self.profile.phases[phase_spec.name]
            measured_cycles = max(1, phase.aggregate.cycles)
            full_cycles = phase_spec.compute_fraction * duration * clock
            factor = full_cycles * (1.0 - phi) / measured_cycles
            for service, count in phase.invocations.items():
                invocations[service] = invocations.get(service, 0.0) + count * factor

        # Scheduled services from the Table 4 densities.
        for service, (count, cycles) in plan.items():
            svc_profile = self.service_profiles[service]
            invocations[service] = invocations.get(service, 0.0) + count
            label_cycles[service] = label_cycles.get(service, 0.0) + cycles
            scaled = counters_to_vector(svc_profile.mean_counters) * count
            if service not in label_vecs:
                label_vecs[service] = _np.zeros(width, dtype=_np.float64)
            label_vecs[service] += scaled
            label_instructions[service] = (
                label_instructions.get(service, 0.0)
                + count * svc_profile.instructions_per_invocation
            )
            mode_cycles[ExecutionMode.KERNEL] += cycles
            mode_vecs[ExecutionMode.KERNEL] += scaled
        return (
            mode_cycles,
            {mode: counters_from_vector(vec) for mode, vec in mode_vecs.items()},
            label_cycles,
            {label: counters_from_vector(vec) for label, vec in label_vecs.items()},
            label_instructions,
            invocations,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def _fire_annotations(
        self, segments: list[_Segment], disk: PowerManagedDisk, log: SimulationLog
    ) -> None:
        annotations = self.annotations
        if annotations is None or annotations.empty:
            return
        current_phase: str | None = None
        phase_start = 0.0
        for segment in segments:
            if segment.phase != current_phase:
                if current_phase is not None:
                    annotations.emit_phase(current_phase, phase_start, segment.start_s)
                current_phase = segment.phase
                phase_start = segment.start_s
            mode = (
                ExecutionMode.IDLE
                if segment.is_idle
                else _dominant_mode(segment.source)
            )
            annotations.emit_mode_switch(
                mode, segment.start_s, segment.end_s,
                segment.duration_s * self.clock_hz,
            )
        if current_phase is not None and segments:
            annotations.emit_phase(current_phase, phase_start, segments[-1].end_s)
        annotations.emit_disk_transitions(disk.history, 0)
        for record in log:
            annotations.emit_sample(record)

    def run(self) -> TimelineResult:
        """Simulate the full profiled period."""
        disk = PowerManagedDisk(self.disk_policy, seed=self.profile.spec.seed)
        segments, duration, idle_wait = self._build_segments(disk)
        clock = self.clock_hz
        total_cycles = duration * clock
        compute_cycles = (duration - idle_wait) * clock
        plan, scheduled_counters, phi = self._service_plan(
            total_cycles, compute_cycles
        )
        scheduled_rate = (
            _scale_counters(scheduled_counters, 1.0 / compute_cycles)
            if compute_cycles > 0
            else None
        )
        log = self._sample(segments, duration, phi=phi, scheduled_rate=scheduled_rate)
        self._fire_annotations(segments, disk, log)
        (
            mode_cycles,
            mode_counters,
            label_cycles,
            label_counters,
            label_instructions,
            invocations,
        ) = self._aggregate(segments, plan, phi)
        compute_duration = self.profile.spec.compute_duration_s * self.speed_factor
        return TimelineResult(
            log=log,
            disk=disk,
            duration_s=duration,
            compute_duration_s=compute_duration,
            idle_wait_s=idle_wait,
            mode_cycles=mode_cycles,
            mode_counters=mode_counters,
            label_cycles=label_cycles,
            label_counters=label_counters,
            label_instructions=label_instructions,
            invocations=invocations,
        )


def disk_power_series(
    disk: PowerManagedDisk, log: SimulationLog
) -> list[float]:
    """Average disk power per log interval, from the disk history."""
    series: list[float] = []
    history = disk.history
    h_index = 0
    for record in log:
        energy = 0.0
        while h_index < len(history) and history[h_index][1] <= record.start_s + _EPS:
            h_index += 1
        scan = h_index
        while scan < len(history) and history[scan][0] < record.end_s - _EPS:
            start, end, mode = history[scan]
            overlap = min(end, record.end_s) - max(start, record.start_s)
            if overlap > 0:
                energy += MK3003MAN_POWER_W[mode] * overlap
            scan += 1
        duration = record.duration_s
        series.append(energy / duration if duration > 0 else 0.0)
    return series
