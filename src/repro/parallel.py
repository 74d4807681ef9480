"""Process-pool fan-out for the detailed profiling stage.

Profiling is embarrassingly parallel: each benchmark (and each kernel
service) is profiled on a *fresh* machine state whose seeds derive only
from the benchmark spec and the profiler seed, so results are
independent of profiling order and of which process performed the work.
This module exploits that: :func:`parallel_map` fans tasks out over a
``fork`` process pool, and the task dataclasses below carry everything
a child needs to rebuild a :class:`~repro.core.profiles.Profiler` and
produce a bit-identical result.

``workers <= 1`` (the default everywhere) never touches
``multiprocessing``.  The fan-out itself runs under the
:mod:`repro.resilience` supervisor: per-task timeouts, bounded retries,
and broken-pool recovery that requeues only the unfinished tasks —
every deviation from the clean path is recorded in a
:class:`~repro.resilience.runreport.RunReport` and logged through
:func:`repro.stats.simlog.log_degradation`, never swallowed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence, TypeVar

from repro.config.system import SystemConfig
from repro.core.profiles import (
    BenchmarkProfile,
    Profiler,
    ServiceInvocationProfile,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.runreport import RunReport
from repro.resilience.supervisor import SupervisorPolicy, supervised_map
from repro.workloads.specjvm98 import BenchmarkSpec

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    workers: int = 1,
    task_timeout: float | None = None,
    retries: int = 2,
    best_effort: bool = False,
    labels: Sequence[str] | None = None,
    fault_plan: FaultPlan | None = None,
    report: RunReport | None = None,
) -> list[_R]:
    """``[fn(item) for item in items]``, fanned out over ``workers``.

    Order of results matches the order of ``items`` regardless of
    completion order, so callers can zip them back deterministically.
    Execution is supervised (see :mod:`repro.resilience.supervisor`):
    a broken pool requeues only unfinished tasks, a task exceeding
    ``task_timeout`` seconds is retried up to ``retries`` times, and a
    platform without ``fork`` degrades to the serial path with a logged
    degradation instead of a silent full re-run.  Pass ``report`` to
    accumulate the run's :class:`RunReport`; with ``best_effort`` a
    task that exhausts its retries yields ``None`` instead of raising
    :class:`~repro.resilience.supervisor.TaskExecutionError`.
    """
    policy = SupervisorPolicy(
        task_timeout_s=task_timeout,
        retries=retries,
        best_effort=best_effort,
    )
    results, run_report = supervised_map(
        fn,
        items,
        workers=workers,
        policy=policy,
        labels=labels,
        fault_plan=fault_plan,
    )
    if report is not None:
        report.merge(run_report)
    return results


# ---------------------------------------------------------------------------
# Picklable profiling tasks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ProfileBenchmarkTask:
    """Everything a child process needs to profile one benchmark."""

    spec: BenchmarkSpec
    config: SystemConfig
    cpu_model: str
    window_instructions: int
    startup_chunks: int
    steady_chunks: int
    seed: int


@dataclasses.dataclass(frozen=True)
class ProfileServiceTask:
    """Everything a child process needs to profile one kernel service."""

    service: str
    config: SystemConfig
    cpu_model: str
    invocations: int
    warmup: int
    seed: int


def _make_profiler(task: ProfileBenchmarkTask | ProfileServiceTask, **kwargs) -> Profiler:
    return Profiler(
        task.config,
        cpu_model=task.cpu_model,
        seed=task.seed,
        **kwargs,
    )


def run_profile_benchmark_task(task: ProfileBenchmarkTask) -> BenchmarkProfile:
    """Profile one benchmark on a fresh profiler (child-process entry)."""
    profiler = _make_profiler(
        task,
        window_instructions=task.window_instructions,
        startup_chunks=task.startup_chunks,
        steady_chunks=task.steady_chunks,
    )
    return profiler.profile_benchmark(task.spec)


def run_profile_service_task(task: ProfileServiceTask) -> ServiceInvocationProfile:
    """Profile one kernel service on a fresh profiler (child-process entry)."""
    profiler = _make_profiler(task)
    return profiler.profile_service(
        task.service,
        invocations=task.invocations,
        warmup=task.warmup,
    )


@dataclasses.dataclass(frozen=True)
class SweepPointTask:
    """Everything a child process needs to evaluate one design point.

    Used by the campaign engine's structural tier: the child rebuilds a
    fresh :class:`~repro.core.softwatt.SoftWatt` (hitting the shared
    persistent profile cache when one is configured) and returns the
    condensed :class:`~repro.core.campaign.SweepPoint`, which is small
    and picklable — full results stay in the child.  The kernel-service
    profiles the campaign characterised for this point's machine ride
    along, so the child does not re-measure them.
    """

    value: object
    config: SystemConfig
    policy: object
    benchmark: str
    cpu_model: str
    window_instructions: int
    sample_interval_s: float
    seed: int
    idle_policy: str
    cache_dir: object
    use_cache: bool
    service_profiles: dict[str, ServiceInvocationProfile] | None = None


def run_sweep_point_task(task: SweepPointTask):
    """Simulate one design point end to end (child-process entry)."""
    # Imported lazily: campaign imports this module for the fan-out.
    from repro.core.campaign import point_from_result  # noqa: PLC0415
    from repro.core.softwatt import SoftWatt  # noqa: PLC0415

    softwatt = SoftWatt(
        config=task.config,
        cpu_model=task.cpu_model,
        window_instructions=task.window_instructions,
        sample_interval_s=task.sample_interval_s,
        seed=task.seed,
        cache_dir=task.cache_dir,
        use_cache=task.use_cache,
    )
    softwatt._service_profiles = task.service_profiles
    result = softwatt.run(
        task.benchmark, disk=task.policy, idle_policy=task.idle_policy
    )
    return point_from_result(task.value, result)


def sweep_points(
    tasks: Iterable[SweepPointTask], *, workers: int = 1, **supervision
) -> list:
    """Evaluate many design points, fanning out when ``workers > 1``.

    ``supervision`` forwards to :func:`parallel_map` (``task_timeout``,
    ``retries``, ``best_effort``, ``fault_plan``, ``report``,
    ``labels``).
    """
    tasks = list(tasks)
    supervision.setdefault(
        "labels", [f"{task.benchmark}:{task.value}" for task in tasks]
    )
    return parallel_map(
        run_sweep_point_task, tasks, workers=workers, **supervision
    )


def profile_benchmarks(
    tasks: Iterable[ProfileBenchmarkTask], *, workers: int = 1, **supervision
) -> list[BenchmarkProfile]:
    """Profile many benchmarks, fanning out when ``workers > 1``.

    ``supervision`` forwards to :func:`parallel_map` (``task_timeout``,
    ``retries``, ``best_effort``, ``fault_plan``, ``report``).
    """
    tasks = list(tasks)
    supervision.setdefault("labels", [task.spec.name for task in tasks])
    return parallel_map(
        run_profile_benchmark_task, tasks, workers=workers, **supervision
    )


def profile_services(
    tasks: Iterable[ProfileServiceTask], *, workers: int = 1, **supervision
) -> list[ServiceInvocationProfile]:
    """Profile many kernel services, fanning out when ``workers > 1``.

    ``supervision`` forwards to :func:`parallel_map` (``task_timeout``,
    ``retries``, ``best_effort``, ``fault_plan``, ``report``).
    """
    tasks = list(tasks)
    supervision.setdefault("labels", [task.service for task in tasks])
    return parallel_map(
        run_profile_service_task, tasks, workers=workers, **supervision
    )
