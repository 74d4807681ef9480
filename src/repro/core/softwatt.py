"""The SoftWatt facade.

The paper's tool in one object: configure a system (Table 1 defaults),
pick a CPU model (MXS or Mipsy) and a disk power-management
configuration (Section 4), run a SPEC JVM98 benchmark, and read back
performance and power statistics — mode breakdowns, kernel-service
profiles, power budgets, and sampled time traces.

    >>> sw = SoftWatt()
    >>> result = sw.run("jess")
    >>> result.power_budget_shares()["disk"]   # doctest: +SKIP
    33.8

Profiles are cached per (benchmark, CPU model), so sweeping the four
disk configurations re-uses the expensive detailed simulation.  Two
optional accelerators sit on top:

* a persistent content-addressed profile cache (enabled by pointing
  ``REPRO_CACHE_DIR`` at a directory, or passing ``cache_dir=``) that
  lets a second process skip detailed simulation entirely, and
* a supervised profiling fan-out (``workers=`` on the constructor or
  on :meth:`run_suite` / :meth:`service_profiles`) whose results are
  bit-identical at every worker count.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.config.diskcfg import DiskPowerPolicy, disk_configuration
from repro.config.system import FidelityConfig, SystemConfig
from repro.core.checkpoint import ProfileCache, profile_cache_key, service_cache_key
from repro.core.profiles import (
    BenchmarkProfile,
    PricedServiceProfile,
    Profiler,
    ServiceInvocationProfile,
)
from repro.core.report import BenchmarkResult
from repro.core.timeline import TimelineSimulator, disk_power_series
from repro.kernel.modes import KERNEL_SERVICES
from repro.parallel import parallel_map
from repro.power.processor import ProcessorPowerModel
from repro.resilience.faults import FaultPlan
from repro.resilience.runreport import ReportedMapping, RunReport
from repro.resilience.supervisor import TaskExecutionError
from repro.stats.postprocess import compute_power_trace
from repro.stats.simlog import log_degradation
from repro.workloads.specjvm98 import BENCHMARK_NAMES, BenchmarkSpec, benchmark

MIPSY_SPEED_FACTOR = 2.3
"""Wall-time stretch for Mipsy runs relative to the MXS-calibrated
benchmark durations (the paper's jess profile spans ~8 s on Mipsy
against ~3.5 s on MXS, Figures 3 and 4)."""

SINGLE_ISSUE_SPEED_FACTOR = 2.2
"""Wall-time stretch for the single-issue MXS configuration: the same
work takes proportionally longer on the 1-wide machine, which is how
the kernel's cycle share comes out *lower* there (Section 3.2's 14.3 %
single-issue vs 21.0 % superscalar comparison)."""


TIMELINE_SERVICE_INVOCATIONS = 30
"""Measured invocations per kernel service in the profiles a timeline
run schedules (their mean counters and cycles)."""

SERVICE_WARMUP = 6
"""Invocations run, and discarded, before a service is measured."""


def speed_factor(cpu_model: str, config: SystemConfig) -> float:
    """Wall-time stretch for a (CPU model, configuration) pair.

    The benchmark durations are calibrated for the 4-wide MXS machine;
    Mipsy and the single-issue configuration run the same work over a
    proportionally longer wall time.
    """
    if cpu_model == "mipsy":
        return MIPSY_SPEED_FACTOR
    if config.core.issue_width == 1:
        return SINGLE_ISSUE_SPEED_FACTOR
    return 1.0


class SoftWatt:
    """Complete-system power simulator (CPU + memory hierarchy + disk)."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        cpu_model: str = "mxs",
        window_instructions: int = 60_000,
        sample_interval_s: float = 0.1,
        seed: int = 0,
        workers: int = 1,
        cache_dir=None,
        use_cache: bool = True,
        task_timeout: float | None = None,
        retries: int = 2,
        best_effort: bool = False,
        fault_plan: FaultPlan | None = None,
        fidelity: FidelityConfig | str | None = None,
    ) -> None:
        base_config = config if config is not None else SystemConfig.table1()
        if fidelity is not None:
            base_config = base_config.with_fidelity(fidelity)
        self.config = base_config.validate()
        self.cpu_model = cpu_model
        self.sample_interval_s = sample_interval_s
        self.seed = seed
        self.workers = workers
        self.task_timeout = task_timeout
        self.retries = retries
        self.best_effort = best_effort
        self.fault_plan = fault_plan
        self.run_report = RunReport()
        """Accumulated across every supervised stage this instance ran;
        per-call reports are attached to :meth:`profile_many`,
        :meth:`run_suite`, and :meth:`service_profiles` results."""
        self.profiler = Profiler(
            self.config,
            cpu_model=cpu_model,
            window_instructions=window_instructions,
            seed=seed,
        )
        self.model = ProcessorPowerModel(self.config)
        if not use_cache:
            self.cache = None
        elif cache_dir is not None:
            self.cache = ProfileCache(cache_dir)
        else:
            self.cache = ProfileCache.from_env()
        self._profiles: dict[str, BenchmarkProfile] = {}
        self._service_profiles: dict[str, ServiceInvocationProfile] | None = None

    # ------------------------------------------------------------------
    # Profiling (cached)
    # ------------------------------------------------------------------

    def _profile_key(self, spec: BenchmarkSpec) -> str:
        profiler = self.profiler
        return profile_cache_key(
            spec,
            self.config,
            cpu_model=self.cpu_model,
            window_instructions=profiler.window_instructions,
            startup_chunks=profiler.startup_chunks,
            steady_chunks=profiler.steady_chunks,
            seed=self.seed,
        )

    def profile(self, spec: BenchmarkSpec | str) -> BenchmarkProfile:
        """Detailed-window profile of a benchmark.

        Cached in memory per benchmark name, and — when the persistent
        cache is enabled — on disk under a content-addressed key, so a
        later process with the same spec, configuration, and profiling
        parameters skips the detailed simulation entirely.  A miss is
        profiled by :meth:`profile_many`, so it is supervised like every
        other stage; a profile that failed under best effort raises
        :class:`~repro.resilience.supervisor.TaskExecutionError`.
        """
        if isinstance(spec, str):
            spec = benchmark(spec)
        held = self._held_profile(spec)
        if held is not None:
            return held
        profiles = self.profile_many((spec,))
        if spec.name not in profiles:
            raise TaskExecutionError(
                f"profiling {spec.name} failed", profiles.report, [None]
            )
        return profiles[spec.name]

    def _keep_profile(self, spec: BenchmarkSpec, profile: BenchmarkProfile) -> None:
        """Hold ``profile`` in memory and in the persistent cache."""
        self._profiles[spec.name] = profile
        if self.cache is not None:
            self.cache.store_profile(self._profile_key(spec), profile)

    def _held_profile(self, spec: BenchmarkSpec) -> BenchmarkProfile | None:
        """``spec``'s profile held in memory, else ``None``.  A same-named
        but different spec (a ``dataclasses.replace`` variant of a
        built-in benchmark) misses."""
        held = self._profiles.get(spec.name)
        return held if held is not None and held.spec == spec else None

    def _cached_profile(self, spec: BenchmarkSpec) -> BenchmarkProfile | None:
        """``spec``'s profile from memory, else from the persistent cache
        (kept in memory from then on), else ``None``."""
        held = self._held_profile(spec)
        if held is not None or self.cache is None:
            return held
        profile = self.cache.load_profile(
            self._profile_key(spec), spec=spec, config=self.config
        )
        if profile is not None:
            self._profiles[spec.name] = profile
        return profile

    def profile_many(
        self,
        names: tuple[str, ...] = BENCHMARK_NAMES,
        *,
        workers: int | None = None,
    ) -> dict[str, BenchmarkProfile]:
        """Profile several benchmarks under the supervised fan-out.

        Benchmarks that miss every cache are profiled by this instance's
        profiler: in-process at one worker, else by copies of it in
        child processes.  Each profile is built from fresh machine
        state seeded only by ``(spec.seed, profiler seed)``, so the
        results are bit-identical at every worker count.  Every profile
        that completed is kept in memory and in the persistent cache,
        also when another benchmark's failure raises
        :class:`~repro.resilience.supervisor.TaskExecutionError`.
        """
        specs = [benchmark(name) if isinstance(name, str) else name for name in names]
        pending = [spec for spec in specs if self._cached_profile(spec) is None]
        report = RunReport()
        results: list = []
        try:
            if pending:
                results = parallel_map(
                    self.profiler.profile_benchmark,
                    pending,
                    workers=self.workers if workers is None else workers,
                    labels=[spec.name for spec in pending],
                    report=report,
                    **self._supervision_kwargs(),
                )
        except TaskExecutionError as error:
            results = error.results
            raise
        finally:
            for spec, profile in zip(pending, results):
                if profile is not None:  # None: a failure, in the report
                    self._keep_profile(spec, profile)
        profiles = {
            spec.name: profile
            for spec in specs
            if (profile := self._held_profile(spec)) is not None
        }
        return self._attach_report(profiles, report)

    def _supervision_kwargs(self) -> dict:
        return {
            "task_timeout": self.task_timeout,
            "retries": self.retries,
            "best_effort": self.best_effort,
            "fault_plan": self.fault_plan,
        }

    def _attach_report(self, data: dict, report: RunReport) -> ReportedMapping:
        """Attach a per-call report and fold it into the session report."""
        self.run_report.merge(report)
        return ReportedMapping(data, report)

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------

    def run(
        self,
        spec: BenchmarkSpec | str,
        *,
        disk: DiskPowerPolicy | int = 1,
        annotations=None,
        idle_policy: str = "busywait",
    ) -> BenchmarkResult:
        """Simulate a benchmark's full profiled period.

        ``annotations`` optionally supplies an
        :class:`~repro.core.annotations.AnnotationSet` whose hooks fire
        on timeline events (phases, mode stretches, disk requests and
        transitions, log samples).
        """
        if isinstance(spec, str):
            spec = benchmark(spec)
        profile = self.profile(spec)
        policy = disk_configuration(disk) if isinstance(disk, int) else disk
        speed = speed_factor(self.cpu_model, self.config)
        simulator = TimelineSimulator(
            profile,
            disk_policy=policy,
            sample_interval_s=self.sample_interval_s,
            clock_hz=self.config.technology.clock_hz,
            speed_factor=speed,
            service_profiles=self._cached_service_profiles(),
            annotations=annotations,
            idle_policy=idle_policy,
        )
        timeline = simulator.run()
        disk_series = disk_power_series(timeline.disk, timeline.log)
        trace = compute_power_trace(
            timeline.log, self.model, disk_power_w=disk_series
        )
        return BenchmarkResult(
            name=spec.name,
            cpu_model=self.cpu_model,
            disk_policy_name=policy.name,
            timeline=timeline,
            trace=trace,
            model=self.model,
        )

    def run_suite(
        self,
        *,
        disk: DiskPowerPolicy | int = 1,
        names: tuple[str, ...] = BENCHMARK_NAMES,
        workers: int | None = None,
    ) -> dict[str, BenchmarkResult]:
        """Run every benchmark under one disk configuration.

        The expensive profiling stage fans out over ``workers``
        processes (default: the constructor's ``workers``); the cheap
        timeline/power stage then runs serially, so the results are
        identical to a fully serial suite.  The returned mapping carries
        the profiling stage's :class:`RunReport` as ``.report``; under
        ``best_effort`` a benchmark whose profiling failed is absent
        from the mapping (and recorded in the report) instead of
        aborting the suite.
        """
        profiles = self.profile_many(names, workers=workers)
        results = {
            name: self.run(name, disk=disk) for name in names if name in profiles
        }
        return ReportedMapping(results, profiles.report)

    # ------------------------------------------------------------------
    # External counter sources
    # ------------------------------------------------------------------

    def price_counters(self, source) -> "EnergyLedger":
        """Price any :class:`~repro.stats.source.CounterSource` under
        this instance's power model.

        The source can be a simulated log, a single
        :class:`~repro.stats.source.CounterBundle`, or an
        :class:`~repro.ingest.pricing.IngestedRun` built from external
        perf-style measurements — the same registry arithmetic applies
        regardless of provenance, which is the point of the seam.
        Counter-driven components only; simulation-time components (the
        disk) need a timeline and are not attached here.
        """
        return self.model.price(source)

    # ------------------------------------------------------------------
    # Kernel-service characterisation (Section 3.3)
    # ------------------------------------------------------------------

    def _service_key(self, service: str, invocations: int) -> str:
        return service_cache_key(
            service,
            self.config,
            cpu_model=self.cpu_model,
            invocations=invocations,
            warmup=SERVICE_WARMUP,
            seed=self.seed,
        )

    def service_profiles(
        self,
        services: tuple[str, ...] = KERNEL_SERVICES,
        *,
        invocations: int = 60,
        workers: int | None = None,
    ) -> dict[str, PricedServiceProfile]:
        """Per-invocation energy statistics for the kernel services.

        Consults the persistent cache per service, and fans the cache
        misses out over ``workers`` processes; each service is measured
        on fresh machine state, so the results are bit-identical at
        every worker count.  The measurements are price-free; the returned
        profiles price them under this instance's model when read.
        """
        report = RunReport()
        (measured,) = measure_services(
            [self],
            services,
            invocations=invocations,
            workers=self.workers if workers is None else workers,
            report=report,
            **self._supervision_kwargs(),
        )
        return self._attach_report(
            {
                service: profile.priced(self.model)
                for service, profile in measured.items()
            },
            report,
        )

    def _cached_service_profiles(self) -> dict[str, ServiceInvocationProfile]:
        """Service profiles used by every timeline run.

        A complete set is measured once.  Under best effort a set that
        lacks a failed service is not kept, so the next run retries it,
        and the run it serves records which services its timeline lacks.
        """
        if self._service_profiles is not None:
            return self._service_profiles
        report = RunReport()
        (measured,) = measure_services(
            [self], workers=self.workers, report=report,
            **self._supervision_kwargs(),
        )
        missing = [name for name in KERNEL_SERVICES if name not in measured]
        if missing:
            detail = (
                f"timeline runs without kernel service(s) "
                f"{', '.join(missing)}: their characterisation failed"
            )
            report.add_degradation("service-missing", detail)
            log_degradation(f"service-missing: {detail}")
        else:
            self._service_profiles = measured
        self.run_report.merge(report)
        return measured

    # ------------------------------------------------------------------
    # Validation (Section 2)
    # ------------------------------------------------------------------

    def validate_max_power(self) -> float:
        """The R10000 maximum-power validation (~25.3 W)."""
        return self.model.max_power_w()


# ---------------------------------------------------------------------------
# Kernel-service characterisation shared across machines
# ---------------------------------------------------------------------------


def measure_services(
    softwatts: Sequence[SoftWatt],
    services: tuple[str, ...] = KERNEL_SERVICES,
    *,
    invocations: int = TIMELINE_SERVICE_INVOCATIONS,
    workers: int = 1,
    report: RunReport,
    **supervision,
) -> list[dict[str, ServiceInvocationProfile]]:
    """Price-free ``services`` profiles for each instance in ``softwatts``.

    Each distinct service key is characterised once, however many
    instances share it (they differ only in what services never read:
    technology, TLB, fidelity rung).  A key is looked up in the
    persistent cache of the first instance that needs it; the misses
    run on that instance's profiler in one supervised fan-out, and every
    one that completed is stored back, also when another's failure
    raises :class:`~repro.resilience.supervisor.TaskExecutionError`.
    ``supervision`` forwards to the fan-out.  Under best effort a
    failed characterisation is absent from the returned mappings.
    """
    owners: dict[str, tuple[SoftWatt, str]] = {}
    keys_by_instance: list[dict[str, str]] = []
    for softwatt in softwatts:
        keys = {
            service: softwatt._service_key(service, invocations)
            for service in services
        }
        keys_by_instance.append(keys)
        for service, key in keys.items():
            owners.setdefault(key, (softwatt, service))
    measured: dict[str, ServiceInvocationProfile] = {}
    pending: list[str] = []
    for key, (softwatt, _) in owners.items():
        cached = None if softwatt.cache is None else softwatt.cache.load_service(key)
        if cached is not None:
            measured[key] = cached
        else:
            pending.append(key)
    results: list = []
    try:
        results = parallel_map(
            functools.partial(_profile_service, invocations=invocations),
            [(owners[key][0].profiler, owners[key][1]) for key in pending],
            workers=workers,
            labels=[owners[key][1] for key in pending],
            report=report,
            **supervision,
        )
    except TaskExecutionError as error:
        results = error.results
        raise
    finally:
        for key, profile in zip(pending, results):
            if profile is None:  # a failure, in the report
                continue
            measured[key] = profile
            cache = owners[key][0].cache
            if cache is not None:
                cache.store_service(key, profile)
    return [
        {service: measured[key] for service, key in keys.items() if key in measured}
        for keys in keys_by_instance
    ]


def _profile_service(item, *, invocations: int) -> ServiceInvocationProfile:
    """Characterise one ``(profiler, service)`` pair (a fan-out task)."""
    profiler, service = item
    return profiler.profile_service(
        service, invocations=invocations, warmup=SERVICE_WARMUP
    )


def share_timeline_services(
    softwatts: Sequence[SoftWatt], *, workers: int, report: RunReport, **supervision
) -> int:
    """Give every instance the service profiles its timeline runs need.

    That set is :func:`measure_services`' default (every kernel service,
    :data:`TIMELINE_SERVICE_INVOCATIONS` invocations after
    :data:`SERVICE_WARMUP` warm-up ones), so instances on the same
    simulated machine share one characterisation.  An instance whose
    set came back incomplete (a best-effort casualty) is left to
    characterise its own.  Returns the number of distinct simulated
    machines.
    """
    measured = measure_services(
        softwatts, workers=workers, report=report, **supervision
    )
    for softwatt, services in zip(softwatts, measured):
        if len(services) == len(KERNEL_SERVICES):
            softwatt._service_profiles = services
    return len({
        tuple(softwatt._service_key(service, TIMELINE_SERVICE_INVOCATIONS)
              for service in KERNEL_SERVICES)
        for softwatt in softwatts
    })
