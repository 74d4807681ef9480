"""The one fan-out every profiling and sweep stage goes through.

Profiling is embarrassingly parallel: each benchmark (and each kernel
service) is profiled on a *fresh* machine state whose seeds derive only
from the benchmark spec and the profiler seed, so results are
independent of profiling order and of which process performed the work.
:func:`parallel_map` runs a stage's tasks under the
:mod:`repro.resilience` supervisor at every worker count: in-process
for ``workers <= 1``, over a ``fork`` pool otherwise.  A task is a
picklable callable plus its item.  Either way it gets bounded retries,
best-effort skipping and fault injection, and every deviation from the
clean path is recorded in a :class:`~repro.resilience.runreport.RunReport`.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.resilience.faults import FaultPlan
from repro.resilience.runreport import RunReport
from repro.resilience.supervisor import SupervisorPolicy, supervised_map

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
    ``task_timeout`` seconds (pool mode only) is retried up to
    ``retries`` times, and a platform without ``fork`` degrades to
    in-process execution with a logged degradation.  Pass ``report`` to
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
