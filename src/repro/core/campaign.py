"""Invalidation-tiered sweep campaigns.

The point of a complete-machine power simulator is design-space
exploration (Section 1), but a naive sweep pays for a full detailed
simulation at every point even when the swept parameter cannot change
the counters.  This engine classifies each design point by what its
changes *invalidate* and dispatches to the cheapest sufficient tier:

* **Tier L (ledger)** — power/technology parameters (supply voltage,
  calibration, feature size).  The detailed simulators never read
  them, so the cached base timeline is re-priced through the
  :class:`~repro.power.registry.PowerRegistry` under a fresh
  :class:`~repro.power.processor.ProcessorPowerModel`.  No
  re-simulation; milliseconds per point.
* **Tier T (timeline)** — disk-policy and timeline-only parameters
  (spin-down threshold, clock frequency).  :meth:`SoftWatt.run` at the
  point's configuration replays the base instance's detailed profile
  and kernel-service profiles.
* **Tier S (structural)** — anything else (cache geometry, window
  size, issue width...).  Full detailed simulation, optionally fanned
  out across processes under the :mod:`repro.resilience` supervisor
  with the persistent profile cache warm across points.

Every tier is bit-identical to running the full pipeline at that
point — the cheaper tiers only skip work whose inputs are provably
unchanged (pinned by ``tests/test_campaign.py`` against the golden
energies).  The tier classification table lives in
:data:`LEDGER_LEAVES` / :data:`TIMELINE_LEAVES` and is documented in
DESIGN.md §9.

Below the structural tier sit the sub-detailed *fidelity rungs* of
:class:`~repro.config.system.FidelityTier` (``tier="atomic"``, see
:data:`TIER_NAMES` and DESIGN.md §11): the point still re-simulates,
but on a cheaper CPU execution tier, trading bounded counter error for
an order-of-magnitude sweep speedup.  Unlike the
invalidation tiers these are approximations; the chosen fidelity is
recorded per point in :attr:`SweepResult.fidelities` and noted in the
:class:`~repro.resilience.runreport.RunReport`, and it rides inside
each point's config so profile-cache keys keep sub-detailed results
out of detailed caches.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import itertools
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.config.diskcfg import DiskPowerPolicy, disk_configuration
from repro.config.system import CacheConfig, FidelityTier, SystemConfig
from repro.core.report import BenchmarkResult
from repro.core.softwatt import SoftWatt, share_timeline_services
from repro.core.timeline import disk_power_series
from repro.kernel.modes import ExecutionMode
from repro.parallel import parallel_map
from repro.power.processor import ProcessorPowerModel
from repro.resilience.faults import FaultPlan
from repro.resilience.runreport import RunReport
from repro.stats.postprocess import compute_power_trace

if TYPE_CHECKING:
    from repro.power.ledger import EnergyLedger
    from repro.stats.source import CounterSource


class Tier(enum.IntEnum):
    """How much of the pipeline a design point invalidates.

    Ordered: a point's tier is the maximum over its changed leaves, and
    forcing a sweep *below* its required tier is an error (it would
    silently reuse stale state).
    """

    LEDGER = 0
    TIMELINE = 1
    STRUCTURAL = 2


#: CLI/user-facing tier names (``full`` re-simulates everything).
TIER_BY_NAME: dict[str, Tier] = {
    "ledger": Tier.LEDGER,
    "timeline": Tier.TIMELINE,
    "full": Tier.STRUCTURAL,
}

#: Every name ``tier=`` accepts: the invalidation tiers, then each
#: sub-detailed fidelity rung, which maps to ``Tier.STRUCTURAL`` on that
#: cheaper CPU execution tier.
TIER_NAMES: tuple[str, ...] = (
    *TIER_BY_NAME,
    *(rung.value for rung in FidelityTier if rung is not FidelityTier.DETAILED),
)

#: Config leaves (dot-paths into :class:`SystemConfig`) consumed only
#: by the power models: changing them re-prices cached counters.
LEDGER_LEAVES: frozenset[str] = frozenset({
    "technology.vdd",
    "technology.feature_size_um",
    "technology.calibration",
})

#: Config leaves consumed by the timeline replay but not by the
#: detailed simulators (which are cycle-level, not wall-clock-level).
TIMELINE_LEAVES: frozenset[str] = frozenset({
    "technology.clock_hz",
})


def changed_leaves(base: SystemConfig, other: SystemConfig) -> list[str]:
    """Dot-paths of the scalar config leaves that differ.

    Recurses through nested dataclasses (``core``, ``l1d``,
    ``technology``...), so a replaced sub-config reports only the
    fields that actually changed.
    """
    changed: list[str] = []

    def walk(a, b, prefix: str) -> None:
        for field in dataclasses.fields(a):
            va = getattr(a, field.name)
            vb = getattr(b, field.name)
            path = prefix + field.name
            if dataclasses.is_dataclass(va) and type(va) is type(vb):
                walk(va, vb, path + ".")
            elif va != vb:
                changed.append(path)

    walk(base, other, "")
    return changed


def classify(
    base: SystemConfig,
    config: SystemConfig,
    *,
    policy_changed: bool = False,
) -> Tier:
    """The cheapest tier that fully reflects ``config`` vs ``base``."""
    tier = Tier.TIMELINE if policy_changed else Tier.LEDGER
    for leaf in changed_leaves(base, config):
        if leaf in LEDGER_LEAVES:
            continue
        if leaf in TIMELINE_LEAVES:
            tier = max(tier, Tier.TIMELINE)
        else:
            return Tier.STRUCTURAL
    return tier


# ---------------------------------------------------------------------------
# Sweep results
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One design point's results."""

    value: object
    energy_j: float
    duration_s: float
    average_power_w: float
    peak_power_w: float
    budget_shares: dict[str, float]
    kernel_share_pct: float = 0.0
    """Kernel mode's share of cycles at this point."""
    component_energy_j: dict[str, float] = dataclasses.field(default_factory=dict)
    """Per-PowerComponent joules (the full-run ledger, disk included)."""

    @property
    def energy_delay_product(self) -> float:
        """EDP at this design point."""
        return self.energy_j * self.duration_s


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """A full sweep (one parameter, or a grid of several)."""

    parameter: str
    benchmark: str
    points: list[SweepPoint]
    tiers: tuple[str, ...]
    """Per-point tier names (``LEDGER``/``TIMELINE``/``STRUCTURAL``),
    parallel to ``points``."""
    fidelities: tuple[str, ...]
    """Per-point execution fidelity (a :class:`FidelityTier` value),
    parallel to ``points``."""
    report: RunReport
    """Supervisor report of every stage the sweep ran."""

    def best_by_energy(self) -> SweepPoint:
        """The design point with the lowest total energy."""
        return min(self.points, key=lambda point: point.energy_j)

    def best_by_edp(self) -> SweepPoint:
        """The design point with the lowest EDP."""
        return min(self.points, key=lambda point: point.energy_delay_product)

    def to_dict(self) -> dict:
        """JSON-ready form (the serve ``/sweep`` response body)."""
        return {
            "parameter": self.parameter,
            "benchmark": self.benchmark,
            "tiers": list(self.tiers),
            "fidelities": list(self.fidelities),
            "points": [
                {
                    "value": point.value,
                    "energy_j": point.energy_j,
                    "duration_s": point.duration_s,
                    "average_power_w": point.average_power_w,
                    "peak_power_w": point.peak_power_w,
                    "energy_delay_product": point.energy_delay_product,
                    "kernel_share_pct": point.kernel_share_pct,
                    "budget_shares": dict(point.budget_shares),
                }
                for point in self.points
            ],
            "run_report": self.report.to_dict(),
        }

    def format(self) -> str:
        """A compact table of the sweep."""
        lines = [f"sweep of {self.parameter} on {self.benchmark}:"]
        lines.append(f"  {'value':>10s} {'energy J':>9s} {'dur s':>7s} "
                     f"{'avg W':>6s} {'EDP Js':>8s}")
        for point in self.points:
            lines.append(
                f"  {str(point.value):>10s} {point.energy_j:9.1f} "
                f"{point.duration_s:7.2f} {point.average_power_w:6.2f} "
                f"{point.energy_delay_product:8.1f}")
        return "\n".join(lines)


ConfigTransform = Callable[[SystemConfig, object], SystemConfig]


def point_from_result(value, result: BenchmarkResult) -> SweepPoint:
    """Condense one :class:`BenchmarkResult` into a :class:`SweepPoint`."""
    modes = result.mode_breakdown()
    ledger = result.ledger
    return SweepPoint(
        value=value,
        energy_j=result.total_energy_j,
        duration_s=result.timeline.duration_s,
        average_power_w=result.average_power_w,
        peak_power_w=result.peak_power_w,
        budget_shares=result.power_budget_shares(),
        kernel_share_pct=modes[ExecutionMode.KERNEL].cycles_pct,
        component_energy_j=ledger.components,
    )


def _structural_point(item, *, benchmark: str, idle_policy: str) -> SweepPoint:
    """Simulate one ``(SoftWatt, PlannedPoint)`` end to end (a fan-out
    task); the point's SoftWatt carries its shared service profiles."""
    softwatt, planned = item
    result = softwatt.run(benchmark, disk=planned.policy, idle_policy=idle_policy)
    return point_from_result(planned.value, result)


def _scale_cache(cache: CacheConfig, size_bytes: int) -> CacheConfig:
    return dataclasses.replace(cache, size_bytes=size_bytes)


def _with_core(config: SystemConfig, **core) -> SystemConfig:
    return dataclasses.replace(
        config, core=dataclasses.replace(config.core, **core))


def _with_technology(config: SystemConfig, **technology) -> SystemConfig:
    return dataclasses.replace(
        config,
        technology=dataclasses.replace(config.technology, **technology))


#: Built-in parameter transforms: name -> transform.
PARAMETERS: dict[str, ConfigTransform] = {
    "l1_size": lambda config, value: dataclasses.replace(
        config,
        l1i=_scale_cache(config.l1i, value),
        l1d=_scale_cache(config.l1d, value),
    ),
    "l2_size": lambda config, value: dataclasses.replace(
        config, l2=_scale_cache(config.l2, value)),
    "window_size": lambda config, value: _with_core(config, window_size=value),
    "issue_width": lambda config, value: _with_core(
        config, fetch_width=value, decode_width=value,
        issue_width=value, commit_width=value),
    "tlb_entries": lambda config, value: dataclasses.replace(
        config, tlb=dataclasses.replace(config.tlb, entries=value)),
    # Power/timeline-tier parameters (no re-simulation needed).
    "vdd": lambda config, value: _with_technology(config, vdd=value),
    "calibration": lambda config, value: _with_technology(
        config, calibration=value),
    "clock_hz": lambda config, value: _with_technology(
        config, clock_hz=value),
}

#: The disk-policy axis: swept via per-point policies, not the config.
SPINDOWN_PARAMETER = "spindown_threshold_s"


def _spindown_policy(threshold: float) -> DiskPowerPolicy:
    return DiskPowerPolicy(name=f"sweep-{threshold:g}s",
                           spindown_threshold_s=threshold)


def _resolve_transform(
    parameter: str, transform: ConfigTransform | None
) -> ConfigTransform | None:
    """The config transform for an axis (None = disk-policy axis)."""
    if transform is not None or parameter == SPINDOWN_PARAMETER:
        return transform
    if parameter not in PARAMETERS:
        raise ValueError(
            f"unknown parameter {parameter!r}; built-ins: "
            f"{sorted(PARAMETERS) + [SPINDOWN_PARAMETER]}")
    return PARAMETERS[parameter]


@dataclasses.dataclass(frozen=True)
class PlannedPoint:
    """One design point, classified and ready to dispatch."""

    value: object
    label: str
    config: SystemConfig
    policy: DiskPowerPolicy
    tier: Tier

    @property
    def fidelity(self) -> str:
        """The CPU execution tier behind the point's counters (a
        :class:`FidelityTier` value): the cheap tiers reuse the base
        profile, so they report the base's rung."""
        return self.config.fidelity.tier.value


class SweepCampaign:
    """A sweep session over one base machine and benchmark.

    Holds the shared state the cheap tiers reuse — the base SoftWatt
    instance, its detailed profile, and its base-policy timeline — and
    dispatches each planned point to its tier.  ``tier`` forces every
    point through a named tier (``"full"`` reproduces the legacy
    re-simulate-everything sweep); forcing *below* a point's required
    tier raises ``ValueError``.
    """

    def __init__(
        self,
        *,
        base_config: SystemConfig | None = None,
        benchmark: str = "jess",
        disk: DiskPowerPolicy | int = 2,
        cpu_model: str = "mxs",
        window_instructions: int = 15_000,
        sample_interval_s: float = 0.1,
        seed: int = 1,
        idle_policy: str = "busywait",
        workers: int = 1,
        cache_dir=None,
        use_cache: bool = True,
        tier: Tier | str | None = None,
        task_timeout: float | None = None,
        retries: int = 2,
        best_effort: bool = False,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.base_config = (
            base_config if base_config is not None else SystemConfig.table1()
        ).validate()
        self.benchmark = benchmark
        self.base_policy = (
            disk_configuration(disk) if isinstance(disk, int) else disk
        )
        self.cpu_model = cpu_model
        self.window_instructions = window_instructions
        self.sample_interval_s = sample_interval_s
        self.seed = seed
        self.idle_policy = idle_policy
        self.workers = workers
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.fidelity = FidelityTier.DETAILED
        if isinstance(tier, str):
            if tier not in TIER_NAMES:
                raise ValueError(
                    f"unknown tier {tier!r}; choose from {list(TIER_NAMES)}")
            if tier in TIER_BY_NAME:
                tier = TIER_BY_NAME[tier]
            else:
                # Fidelity rung: structural everywhere, on the cheaper
                # execution tier.
                self.fidelity = FidelityTier(tier)
                tier = Tier.STRUCTURAL
        self.forced_tier = tier
        self.task_timeout = task_timeout
        self.retries = retries
        self.best_effort = best_effort
        self.fault_plan = fault_plan
        self._base_softwatt: SoftWatt | None = None
        self._base_result: BenchmarkResult | None = None
        self._base_disk_series: list[float] | None = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _classified(self, value, label, config, policy) -> PlannedPoint:
        policy_changed = policy != self.base_policy
        tier = classify(self.base_config, config, policy_changed=policy_changed)
        if self.forced_tier is not None:
            if self.forced_tier < tier:
                raise ValueError(
                    f"point {label} requires tier {tier.name} but "
                    f"{self.forced_tier.name} was forced; a lower tier "
                    f"would reuse stale simulation state")
            tier = self.forced_tier
        if (
            tier is Tier.STRUCTURAL
            and self.fidelity is not FidelityTier.DETAILED
        ):
            # Fidelity is applied *after* classification so the
            # tier decision (which diffs config leaves against the
            # base) never sees the fidelity sub-config, and only
            # points that actually re-simulate are downgraded.  The
            # fidelity travels inside the point's config, so the
            # point's SoftWatt honours it at any worker count, and
            # profile-cache keys (built from the full config) keep
            # sub-detailed results out of detailed caches.
            config = config.with_fidelity(self.fidelity).validate()
        return PlannedPoint(
            value=value, label=label, config=config, policy=policy, tier=tier,
        )

    def plan(
        self,
        parameter: str,
        values: Sequence,
        *,
        transform: ConfigTransform | None = None,
    ) -> list[PlannedPoint]:
        """Classify every value of a one-parameter sweep: a one-axis
        grid whose point values are the bare values, not 1-tuples."""
        plan = self.plan_grid(
            {parameter: values},
            transforms=None if transform is None else {parameter: transform},
        )
        return [
            dataclasses.replace(planned, value=planned.value[0])
            for planned in plan
        ]

    def plan_grid(
        self,
        axes: Mapping[str, Sequence],
        *,
        transforms: Mapping[str, ConfigTransform] | None = None,
    ) -> list[PlannedPoint]:
        """Classify the cartesian product of several axes."""
        if not axes:
            raise ValueError("need at least one axis to sweep")
        transforms = transforms or {}
        resolved = {
            name: _resolve_transform(name, transforms.get(name))
            for name in axes
        }
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        plan: list[PlannedPoint] = []
        for combo in itertools.product(*axes.values()):
            config = self.base_config
            policy = self.base_policy
            for name, value in zip(axes, combo):
                transform = resolved[name]
                if transform is None:
                    policy = _spindown_policy(value)
                else:
                    config = transform(config, value)
            config = config.validate()
            label = ",".join(
                f"{name}={value}" for name, value in zip(axes, combo)
            )
            plan.append(self._classified(combo, label, config, policy))
        return plan

    # ------------------------------------------------------------------
    # Shared base state (computed once, reused by the cheap tiers)
    # ------------------------------------------------------------------

    def _softwatt(self, config: SystemConfig, **settings) -> SoftWatt:
        """A SoftWatt at ``config`` with the campaign's simulation
        settings; ``settings`` forwards worker and supervision options."""
        return SoftWatt(
            config=config,
            cpu_model=self.cpu_model,
            window_instructions=self.window_instructions,
            sample_interval_s=self.sample_interval_s,
            seed=self.seed,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            **settings,
        )

    def _base(self) -> SoftWatt:
        """The lazily-built base-configuration SoftWatt, supervised like
        the rest of the sweep."""
        if self._base_softwatt is None:
            self._base_softwatt = self._softwatt(
                self.base_config,
                workers=self.workers,
                **self._supervision_kwargs(),
            )
        return self._base_softwatt

    def _base_run(self) -> BenchmarkResult:
        if self._base_result is None:
            self._base_result = self._base().run(
                self.benchmark,
                disk=self.base_policy,
                idle_policy=self.idle_policy,
            )
        return self._base_result

    def _base_series(self) -> list[float]:
        if self._base_disk_series is None:
            timeline = self._base_run().timeline
            self._base_disk_series = disk_power_series(
                timeline.disk, timeline.log
            )
        return self._base_disk_series

    # ------------------------------------------------------------------
    # Tier evaluators
    # ------------------------------------------------------------------

    def _ledger_point(self, planned: PlannedPoint) -> SweepPoint:
        """Re-price the cached base timeline under a fresh power model."""
        base = self._base_run()
        if planned.config == self.base_config:
            model = self._base().model
        else:
            model = ProcessorPowerModel(planned.config)
        trace = compute_power_trace(
            base.timeline.log, model, disk_power_w=self._base_series()
        )
        result = BenchmarkResult(
            name=base.name,
            cpu_model=self.cpu_model,
            disk_policy_name=planned.policy.name,
            timeline=base.timeline,
            trace=trace,
            model=model,
        )
        return point_from_result(planned.value, result)

    def _timeline_point(self, planned: PlannedPoint) -> SweepPoint:
        """:meth:`SoftWatt.run` at the point's configuration over the
        base instance's detailed profile and kernel-service profiles
        (which no timeline leaf changes)."""
        base = softwatt = self._base()
        if planned.config != self.base_config:
            softwatt = self._softwatt(planned.config)
            softwatt._profiles[self.benchmark] = base.profile(self.benchmark)
            softwatt._service_profiles = base._cached_service_profiles()
        result = softwatt.run(
            self.benchmark, disk=planned.policy, idle_policy=self.idle_policy
        )
        return point_from_result(planned.value, result)

    def _supervision_kwargs(self) -> dict:
        return {
            "task_timeout": self.task_timeout,
            "retries": self.retries,
            "best_effort": self.best_effort,
            "fault_plan": self.fault_plan,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_plan(
        self, plan: Sequence[PlannedPoint], *, report: RunReport | None = None
    ) -> list[SweepPoint]:
        """Evaluate a plan, fanning structural points out when asked.

        Results keep plan order.  Structural points on the same
        simulated machine share one kernel-service characterisation,
        then run in one supervised fan-out, each on its own
        :class:`SoftWatt`, which runs at one worker inside the fan-out.
        The cheap tiers then run on the base instance, whose stages are
        folded into ``report`` once, by the sweep that ran them.  Under
        ``best_effort`` a structural point whose simulation failed is
        dropped (and recorded in ``report``) instead of aborting the
        sweep.
        """
        report = report if report is not None else RunReport()
        points: list[SweepPoint | None] = [None] * len(plan)
        structural = [
            (index, planned)
            for index, planned in enumerate(plan)
            if planned.tier is Tier.STRUCTURAL
        ]
        if structural:
            softwatts = [self._softwatt(planned.config) for _, planned in structural]
            machines = share_timeline_services(
                softwatts,
                workers=self.workers,
                report=report,
                **self._supervision_kwargs(),
            )
            report.add_note(
                f"{machines} service characterisations for "
                f"{len(softwatts)} structural points"
            )
            swept = parallel_map(
                functools.partial(
                    _structural_point,
                    benchmark=self.benchmark,
                    idle_policy=self.idle_policy,
                ),
                [(softwatt, planned) for softwatt, (_, planned)
                 in zip(softwatts, structural)],
                workers=self.workers,
                labels=[planned.label for _, planned in structural],
                report=report,
                **self._supervision_kwargs(),
            )
            for (index, _), point in zip(structural, swept):
                points[index] = point
        try:
            for index, planned in enumerate(plan):
                if planned.tier is Tier.TIMELINE:
                    points[index] = self._timeline_point(planned)
                elif planned.tier is Tier.LEDGER:
                    points[index] = self._ledger_point(planned)
        finally:
            if self._base_softwatt is not None:
                report.merge(self._base_softwatt.run_report)
                self._base_softwatt.run_report = RunReport()
        return [point for point in points if point is not None]

    def run(
        self,
        parameter: str,
        values: Sequence,
        *,
        transform: ConfigTransform | None = None,
    ) -> SweepResult:
        """Sweep one parameter over ``values``."""
        return self._sweep(
            parameter, self.plan(parameter, values, transform=transform)
        )

    def run_grid(
        self,
        axes: Mapping[str, Sequence],
        *,
        transforms: Mapping[str, ConfigTransform] | None = None,
    ) -> SweepResult:
        """Sweep the cartesian product of several axes.

        Point values are tuples in axis order; the result's
        ``parameter`` is the comma-joined axis names.
        """
        return self._sweep(
            ",".join(axes), self.plan_grid(axes, transforms=transforms)
        )

    def _sweep(self, parameter: str, plan: list[PlannedPoint]) -> SweepResult:
        report = RunReport()
        downgraded = collections.Counter(
            planned.fidelity for planned in plan
            if planned.fidelity != FidelityTier.DETAILED
        )
        for fidelity, count in downgraded.items():
            report.add_note(
                f"{count}/{len(plan)} point(s) simulated at {fidelity} fidelity"
            )
        points = self.run_plan(plan, report=report)
        return SweepResult(
            parameter=parameter,
            benchmark=self.benchmark,
            points=points,
            tiers=tuple(planned.tier.name for planned in plan),
            fidelities=tuple(planned.fidelity for planned in plan),
            report=report,
        )


def sweep_source(
    source: "CounterSource",
    parameter: str,
    values: Sequence,
    *,
    base_config: SystemConfig | None = None,
    transform: ConfigTransform | None = None,
) -> list[tuple[object, "EnergyLedger"]]:
    """Re-price one counter source across ledger-tier parameter values.

    ``source`` is any :class:`~repro.stats.source.CounterSource` — most
    usefully an :class:`~repro.ingest.pricing.IngestedRun` of external
    perf-style measurements, which by construction *cannot* be
    re-simulated.  Each value builds a fresh
    :class:`~repro.power.processor.ProcessorPowerModel` and evaluates
    the registry over the unchanged counters: the campaign engine's
    tier-L path applied to counters that never came from a simulator.
    Milliseconds per point.

    Only ledger-tier parameters apply (``vdd``, ``calibration``,
    feature size — :data:`LEDGER_LEAVES`): a value whose config change
    would invalidate the counters themselves raises ``ValueError``
    naming the offending leaves, because there is no simulator behind
    an external source to regenerate them.
    """
    if not values:
        raise ValueError("need at least one value to sweep")
    base = (
        base_config if base_config is not None else SystemConfig.table1()
    ).validate()
    transform = _resolve_transform(parameter, transform)
    if transform is None:
        raise ValueError(
            f"{parameter} changes the disk policy, which requires tier "
            f"{Tier.TIMELINE.name}; an external counter source has no "
            f"timeline to replay")
    points: list[tuple[object, "EnergyLedger"]] = []
    for value in values:
        config = transform(base, value).validate()
        tier = classify(base, config)
        if tier is not Tier.LEDGER:
            offending = [
                leaf for leaf in changed_leaves(base, config)
                if leaf not in LEDGER_LEAVES
            ]
            raise ValueError(
                f"{parameter}={value} changes {', '.join(offending)}, "
                f"which requires tier {tier.name}; an external counter "
                f"source cannot be re-simulated, so only ledger-tier "
                f"parameters ({', '.join(sorted(LEDGER_LEAVES))}) apply")
        model = ProcessorPowerModel(config)
        points.append((value, model.price(source)))
    return points

