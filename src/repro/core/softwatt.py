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
* a process-pool profiling fan-out (``workers=`` on the constructor or
  on :meth:`run_suite` / :meth:`service_profiles`) that produces
  bit-identical results to the serial path.
"""

from __future__ import annotations

from repro.config.diskcfg import DiskPowerPolicy, disk_configuration
from repro.config.system import FidelityConfig, FidelityTier, SystemConfig
from repro.core.checkpoint import (
    CheckpointError,
    ProfileCache,
    load_checkpoint,
    profile_cache_key,
    save_checkpoint,
    service_cache_key,
)
from repro.core.profiles import (
    BenchmarkProfile,
    Profiler,
    ServiceInvocationProfile,
)
from repro.core.report import BenchmarkResult
from repro.core.timeline import TimelineSimulator, disk_power_series
from repro.kernel.modes import KERNEL_SERVICES
from repro.power.processor import ProcessorPowerModel
from repro.resilience.faults import FaultPlan
from repro.resilience.runreport import ReportedMapping, RunReport
from repro.stats.postprocess import compute_power_trace
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


def speed_factor(cpu_model: str, config: SystemConfig) -> float:
    """Wall-time stretch for a (CPU model, configuration) pair.

    The benchmark durations are calibrated for the 4-wide MXS machine;
    Mipsy and the single-issue configuration run the same work over a
    proportionally longer wall time.  The campaign engine's timeline
    tier reuses this so replays match :meth:`SoftWatt.run` exactly.
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
        parameters skips the detailed simulation entirely.
        """
        if isinstance(spec, str):
            spec = benchmark(spec)
        cached = self._profiles.get(spec.name)
        if cached is not None and cached.spec == spec:
            return cached
        # Re-profile when a same-named spec differs (e.g. a
        # dataclasses.replace variant of a built-in benchmark).
        profile = None
        if self.cache is not None:
            key = self._profile_key(spec)
            profile = self.cache.load_profile(key, spec=spec, config=self.config)
        if profile is None:
            profile = self.profiler.profile_benchmark(spec)
            if self.cache is not None:
                self.cache.store_profile(key, profile)
        self._profiles[spec.name] = profile
        return profile

    def pending_lanes(
        self, names=BENCHMARK_NAMES
    ) -> "list[tuple[SoftWatt, BenchmarkSpec]]":
        """Uncached (instance, spec) pairs eligible for lockstep lanes.

        The prepared-lanes entry point below the campaign layer: callers
        (the campaign tier-S prebuild, the serve batch scheduler)
        assemble pairs from several instances, turn each into a
        :meth:`Profiler.lane_task`, and hand the set to
        :func:`~repro.cpu.batch.profile_benchmarks_batched`.  Pairs are
        eligible only on the detailed Mipsy tier (the SoA engine
        implements exactly that pipeline; sub-detailed tiers are already
        the fast path) and only when they miss both the in-memory and
        persistent caches — persistent-cache hits are loaded into memory
        as a side effect, so a later :meth:`profile` call is a hit.
        """
        if self.cpu_model != "mipsy":
            return []
        if self.config.fidelity.tier is not FidelityTier.DETAILED:
            return []
        pairs: list[tuple[SoftWatt, BenchmarkSpec]] = []
        for name in names:
            spec = benchmark(name) if isinstance(name, str) else name
            cached = self._profiles.get(spec.name)
            if cached is not None and cached.spec == spec:
                continue
            if self.cache is not None:
                profile = self.cache.load_profile(
                    self._profile_key(spec), spec=spec, config=self.config
                )
                if profile is not None:
                    self._profiles[spec.name] = profile
                    continue
            pairs.append((self, spec))
        return pairs

    def adopt_profile(self, spec: BenchmarkSpec, profile) -> None:
        """Store an externally computed lane profile into the caches.

        The profile must be bit-identical to what :meth:`profile` would
        compute (the batched SoA engine guarantees this); it is counted
        as a detailed run and persisted like a locally computed one.
        """
        self._profiles[spec.name] = profile
        self.profiler.detailed_runs += 1
        if self.cache is not None:
            self.cache.store_profile(self._profile_key(spec), profile)

    @staticmethod
    def prefetch_profiles(
        instances: "list[SoftWatt]",
        names=BENCHMARK_NAMES,
        *,
        min_runs: int | None = None,
    ) -> int:
        """Batch-profile uncached (instance, benchmark) pairs in lockstep.

        Every Mipsy run across ``instances`` × ``names`` that misses
        both the in-memory and persistent caches becomes one lane of the
        batched SoA engine (:mod:`repro.cpu.batch`); results — which
        are bit-identical to each instance profiling serially — are
        stored back into each instance's caches, so later
        :meth:`profile` calls are hits.  A structural sweep over many
        configurations therefore costs one lockstep simulation instead
        of one scalar simulation per point.

        No-op (returning 0) when fewer than ``min_runs`` runs are
        pending — the scalar path wins below the lockstep breakeven.
        ``min_runs`` defaults to the calibrated
        :func:`~repro.cpu.batch.batch_min_runs`.  Returns the number of
        profiles computed.
        """
        from repro.cpu.batch import (  # noqa: PLC0415 — keep numpy lazy
            batch_min_runs,
            profile_benchmarks_batched,
        )

        pairs: list[tuple[SoftWatt, BenchmarkSpec]] = []
        for sw in instances:
            pairs.extend(sw.pending_lanes(names))
        if len(pairs) < (batch_min_runs() if min_runs is None else min_runs):
            return 0
        tasks = [sw.profiler.lane_task(spec) for sw, spec in pairs]
        profiles = profile_benchmarks_batched(tasks)
        for (sw, spec), profile in zip(pairs, profiles):
            sw.adopt_profile(spec, profile)
        return len(pairs)

    def profile_many(
        self,
        names: tuple[str, ...] = BENCHMARK_NAMES,
        *,
        workers: int | None = None,
    ) -> dict[str, BenchmarkProfile]:
        """Profile several benchmarks, fanning out across processes.

        With ``workers <= 1`` this is just :meth:`profile` in a loop on
        the shared profiler.  With more workers, benchmarks that miss
        every cache are profiled in child processes on fresh profilers;
        because each profile is built from fresh machine state seeded
        only by ``(spec.seed, profiler seed)``, the results are
        bit-identical to the serial path.  The parent stores the
        returned profiles into the persistent cache.
        """
        workers = self.workers if workers is None else workers
        specs = [benchmark(name) if isinstance(name, str) else name for name in names]
        report = RunReport()
        # Uncached mipsy runs past the lockstep breakeven go through the
        # batched SoA engine in one pass (bit-identical to the loop).
        SoftWatt.prefetch_profiles([self], specs)
        if workers <= 1:
            profiles = {spec.name: self.profile(spec) for spec in specs}
            return self._attach_report(profiles, report)

        # Deliberately lazy: workers <= 1 never touches the pool machinery.
        from repro.parallel import (  # noqa: PLC0415
            ProfileBenchmarkTask,
            profile_benchmarks,
        )

        pending: list[BenchmarkSpec] = []
        for spec in specs:
            cached = self._profiles.get(spec.name)
            if cached is not None and cached.spec == spec:
                continue
            if self.cache is not None:
                profile = self.cache.load_profile(
                    self._profile_key(spec), spec=spec, config=self.config
                )
                if profile is not None:
                    self._profiles[spec.name] = profile
                    continue
            pending.append(spec)
        profiler = self.profiler
        tasks = [
            ProfileBenchmarkTask(
                spec=spec,
                config=self.config,
                cpu_model=self.cpu_model,
                window_instructions=profiler.window_instructions,
                startup_chunks=profiler.startup_chunks,
                steady_chunks=profiler.steady_chunks,
                seed=self.seed,
            )
            for spec in pending
        ]
        results = profile_benchmarks(
            tasks, workers=workers, report=report, **self._supervision_kwargs()
        )
        for spec, profile in zip(pending, results):
            if profile is None:  # best-effort casualty, recorded in report
                continue
            self._profiles[spec.name] = profile
            if self.cache is not None:
                self.cache.store_profile(self._profile_key(spec), profile)
        profiles = {
            spec.name: self._profiles[spec.name]
            for spec in specs
            if spec.name in self._profiles
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
            warmup=6,
            seed=self.seed,
        )

    def service_profiles(
        self,
        services: tuple[str, ...] = KERNEL_SERVICES,
        *,
        invocations: int = 60,
        workers: int | None = None,
    ) -> dict[str, ServiceInvocationProfile]:
        """Per-invocation energy statistics for the kernel services.

        Consults the persistent cache per service, and fans the cache
        misses out over ``workers`` processes; each service is measured
        on fresh machine state, so the fan-out is bit-identical to the
        serial loop.
        """
        workers = self.workers if workers is None else workers
        report = RunReport()
        profiles: dict[str, ServiceInvocationProfile] = {}
        pending: list[str] = []
        for service in services:
            cached = None
            if self.cache is not None:
                cached = self.cache.load_service(
                    self._service_key(service, invocations)
                )
            if cached is not None:
                profiles[service] = cached
            else:
                pending.append(service)
        if workers <= 1:
            for service in pending:
                profiles[service] = self.profiler.profile_service(
                    service, self.model, invocations=invocations
                )
        else:
            # Deliberately lazy: workers <= 1 never touches the pool
            # machinery.
            from repro.parallel import (  # noqa: PLC0415
                ProfileServiceTask,
                profile_services,
            )

            tasks = [
                ProfileServiceTask(
                    service=service,
                    config=self.config,
                    cpu_model=self.cpu_model,
                    invocations=invocations,
                    warmup=6,
                    seed=self.seed,
                )
                for service in pending
            ]
            results = profile_services(
                tasks, workers=workers, report=report,
                **self._supervision_kwargs(),
            )
            for service, profile in zip(pending, results):
                if profile is not None:
                    profiles[service] = profile
        if self.cache is not None:
            for service in pending:
                if service in profiles:
                    self.cache.store_service(
                        self._service_key(service, invocations),
                        profiles[service],
                    )
        return self._attach_report(
            {
                service: profiles[service]
                for service in services
                if service in profiles
            },
            report,
        )

    def _cached_service_profiles(self) -> dict[str, ServiceInvocationProfile]:
        """Service profiles used by every timeline run (computed once)."""
        if self._service_profiles is None:
            self._service_profiles = self.service_profiles(invocations=30)
        return self._service_profiles

    # ------------------------------------------------------------------
    # Checkpoints (Section 3.1 methodology)
    # ------------------------------------------------------------------

    def save_checkpoint(self, path) -> None:
        """Persist every cached profile to ``path`` (JSON).

        Mirrors the paper's checkpoint step: the expensive detailed
        simulation runs once; later sessions ``load_checkpoint`` and
        sweep disk policies or report formats instantly.
        """
        save_checkpoint(
            path,
            profiles=self._profiles,
            service_profiles=self._service_profiles,
            cpu_model=self.cpu_model,
        )

    def load_checkpoint(self, path) -> None:
        """Load profiles saved by :meth:`save_checkpoint` into the cache."""
        profiles, services, cpu_model = load_checkpoint(path, config=self.config)
        if cpu_model != self.cpu_model:
            raise CheckpointError(
                f"checkpoint was taken with cpu_model={cpu_model!r}, this "
                f"instance uses {self.cpu_model!r}"
            )
        self._profiles.update(profiles)
        if services:
            self._service_profiles = services

    # ------------------------------------------------------------------
    # Validation (Section 2)
    # ------------------------------------------------------------------

    def validate_max_power(self) -> float:
        """The R10000 maximum-power validation (~25.3 W)."""
        return self.model.max_power_w()
