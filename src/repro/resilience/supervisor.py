"""A supervising executor for the profiling fan-out.

``pool.map`` is the wrong primitive for long simulation campaigns: one
crashed worker throws away every completed profile, a hung task stalls
the whole suite forever, and a failed pool silently re-runs *all* work
serially.  :func:`supervised_map` replaces it with a small supervisor
loop built on individually tracked futures:

* **Per-task wall-clock timeouts.**  A task that exceeds
  ``task_timeout_s`` is abandoned, its (possibly stuck) worker pool is
  replaced, and the task is retried.  In-flight victims of the restart
  are requeued without being charged an attempt.
* **Bounded retries.**  Each task gets ``retries + 1`` attempts, each
  started immediately after the last one failed.
* **``BrokenProcessPool`` recovery.**  When a worker dies, completed
  results are kept, only the unfinished tasks are requeued into a fresh
  pool, and after :data:`MAX_POOL_REBUILDS` rebuilds the supervisor
  degrades to serial execution for the remainder — never re-running a
  task that already produced a result.
* **A structured record.**  Every outcome lands in a
  :class:`~repro.resilience.runreport.RunReport`; every degradation is
  also routed through :func:`repro.stats.simlog.log_degradation` so it
  is visible, not silent.

Tasks must be independent and idempotent (true of the profiling tasks:
each builds fresh machine state from its spec and seed), which is what
makes retries and requeues bit-identical to a clean run.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from repro.resilience.faults import FaultPlan
from repro.resilience.runreport import (
    STATUS_FAILED,
    STATUS_OK,
    RunReport,
    TaskRecord,
)
from repro.stats.simlog import log_degradation

_T = TypeVar("_T")
_R = TypeVar("_R")

_UNSET = object()

MAX_POOL_REBUILDS = 2
"""Pool replacements (crash or timeout) before degrading to serial."""


class TaskExecutionError(RuntimeError):
    """A task exhausted its retries (raised unless ``best_effort``).

    ``results`` holds every task's result in input order, ``None`` for
    the failed ones, so a caller can keep the work that did finish; the
    last failed task's exception is the ``__cause__``.
    """

    def __init__(self, message: str, report: RunReport, results: list) -> None:
        super().__init__(message)
        self.report = report
        self.results = results


class SupervisionInterrupted(KeyboardInterrupt):
    """Ctrl-C arrived mid-supervision; ``report`` holds the partial
    outcome so callers (the CLI) can summarise what completed."""

    def __init__(self, report: RunReport) -> None:
        super().__init__()
        self.report = report


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs governing retries, timeouts, and degradation."""

    task_timeout_s: float | None = None
    """Wall-clock budget per task attempt (pool mode only; a serial
    in-process task cannot be interrupted, so a serial run records a
    ``timeout-unenforced`` degradation instead).  None disables
    timeouts."""

    retries: int = 2
    """Re-executions allowed per task after its first attempt."""

    best_effort: bool = False
    """When True, exhausted tasks yield ``None`` results instead of
    raising :class:`TaskExecutionError`."""

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task timeout must be positive (or None)")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


def _invoke(fn, item, fault_plan, index, attempt):
    """Child-process task entry: inject planned faults, then run."""
    if fault_plan is not None:
        fault_plan.apply(index, attempt, in_child=True)
    return fn(item)


class _Supervision:
    """Mutable state of one :func:`supervised_map` run."""

    def __init__(
        self,
        fn: Callable,
        items: list,
        labels: list[str],
        policy: SupervisorPolicy,
        fault_plan: FaultPlan | None,
    ) -> None:
        self.fn = fn
        self.items = items
        self.labels = labels
        self.policy = policy
        self.fault_plan = fault_plan
        self.report = RunReport()
        self.results: list = [_UNSET] * len(items)
        self.attempts = [0] * len(items)
        self.pending: collections.deque[int] = collections.deque(range(len(items)))
        self.cause: BaseException | None = None
        """The last failed task's exception."""

    # -- bookkeeping ----------------------------------------------------

    def degrade(self, kind: str, detail: str) -> None:
        self.report.add_degradation(kind, detail)
        log_degradation(f"{kind}: {detail}")

    def _complete(self, index: int, value, duration_s: float) -> None:
        self.results[index] = value
        self.report.record_task(
            TaskRecord(
                index=index,
                label=self.labels[index],
                status=STATUS_OK,
                attempts=self.attempts[index],
                duration_s=duration_s,
            )
        )

    def _fail(
        self, index: int, error: str, duration_s: float, cause: BaseException
    ) -> None:
        self.cause = cause
        self.report.record_task(
            TaskRecord(
                index=index,
                label=self.labels[index],
                status=STATUS_FAILED,
                attempts=self.attempts[index],
                duration_s=duration_s,
                error=error,
            )
        )
        self.degrade(
            "task-failed",
            f"task {self.labels[index]} failed after "
            f"{self.attempts[index]} attempt(s): {error}",
        )

    def _retry_or_fail(
        self, index: int, error: str, duration_s: float, cause: BaseException
    ) -> None:
        if self.attempts[index] >= self.policy.max_attempts:
            self._fail(index, error, duration_s, cause)
        else:
            self.pending.append(index)

    def dispatch(self, runner, *args) -> None:
        """Run an execution strategy, converting Ctrl-C into
        :class:`SupervisionInterrupted` carrying the partial report."""
        try:
            runner(*args)
        except KeyboardInterrupt:
            self.report.tasks.sort(key=lambda task: task.index)
            self.degrade(
                "interrupted",
                f"interrupted by user with {len(self.report.completed)} of "
                f"{len(self.items)} task(s) completed",
            )
            raise SupervisionInterrupted(self.report) from None

    # -- serial execution ----------------------------------------------

    def run_serial(self, indices) -> None:
        for index in indices:
            while True:
                self.attempts[index] += 1
                start = time.monotonic()
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply(
                            index, self.attempts[index], in_child=False
                        )
                    value = self.fn(self.items[index])
                except Exception as error:  # noqa: BLE001 - retried/reported
                    elapsed = time.monotonic() - start
                    if self.attempts[index] >= self.policy.max_attempts:
                        self._fail(
                            index, f"{type(error).__name__}: {error}", elapsed,
                            error,
                        )
                        break
                else:
                    self._complete(index, value, time.monotonic() - start)
                    break

    # -- pool execution -------------------------------------------------

    def run_pool(self, context, workers: int) -> None:
        rebuilds = 0
        while self.pending:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(self.pending)), mp_context=context
            )
            try:
                rebuild_needed = self._drain(pool, workers)
            finally:
                self._shutdown(pool)
            if not rebuild_needed:
                return
            rebuilds += 1
            if rebuilds > MAX_POOL_REBUILDS:
                remaining = list(self.pending)
                self.pending.clear()
                self.report.serial_fallback = True
                self.degrade(
                    "serial-fallback",
                    f"worker pool replaced {rebuilds} time(s); finishing "
                    f"{len(remaining)} task(s) serially",
                )
                self.run_serial(remaining)
                return

    def _drain(self, pool, workers: int) -> bool:
        """Feed the pool until done; True means the pool must be replaced."""
        timeout = self.policy.task_timeout_s
        running: dict = {}  # future -> (index, submitted_at)
        while self.pending or running:
            # Keep at most ``workers`` futures outstanding so a queued
            # task never starts its wall clock before a worker is free.
            while self.pending and len(running) < workers:
                index = self.pending.popleft()
                self.attempts[index] += 1
                try:
                    future = pool.submit(
                        _invoke,
                        self.fn,
                        self.items[index],
                        self.fault_plan,
                        index,
                        self.attempts[index],
                    )
                except BrokenProcessPool:
                    self.attempts[index] -= 1
                    self.pending.appendleft(index)
                    self._handle_pool_break(running)
                    return True
                running[future] = (index, time.monotonic())

            wait_s = None
            if timeout is not None:
                oldest = min(at for _, at in running.values())
                wait_s = max(0.0, oldest + timeout - time.monotonic())
            done, _ = wait(
                list(running), timeout=wait_s, return_when=FIRST_COMPLETED
            )

            broken = False
            for future in done:
                index, submitted_at = running.pop(future)
                elapsed = time.monotonic() - submitted_at
                try:
                    value = future.result()
                except BrokenProcessPool as error:
                    broken = True
                    self._retry_or_fail(
                        index, "worker process crashed", elapsed, error
                    )
                except Exception as error:  # noqa: BLE001 - retried/reported
                    self._retry_or_fail(
                        index, f"{type(error).__name__}: {error}", elapsed, error
                    )
                else:
                    self._complete(index, value, elapsed)
            if broken:
                self._handle_pool_break(running)
                return True
            if done:
                continue

            # wait() timed out: at least one running task blew its budget.
            now = time.monotonic()
            expired = [
                (future, index, at)
                for future, (index, at) in running.items()
                if now - at >= timeout - 1e-3
            ]
            if not expired:
                continue
            for future, index, at in expired:
                running.pop(future)
                self.degrade(
                    "task-timeout",
                    f"task {self.labels[index]} exceeded {timeout:g}s "
                    f"(attempt {self.attempts[index]}); restarting worker pool",
                )
                message = f"timed out after {timeout:g}s"
                self._retry_or_fail(index, message, now - at, TimeoutError(message))
            # The expired tasks' workers may be stuck; replace the pool.
            # In-flight victims get their attempt refunded.
            for future, (index, at) in running.items():
                self.attempts[index] -= 1
                self.pending.appendleft(index)
            self.report.pool_restarts += 1
            return True
        return False

    def _handle_pool_break(self, running: dict) -> None:
        """Harvest what survived a broken pool and requeue the rest."""
        for future, (index, submitted_at) in running.items():
            elapsed = time.monotonic() - submitted_at
            try:
                # A future that completed before the break still holds
                # its result; a dead one raises BrokenProcessPool (or a
                # cancellation/timeout error) and is requeued.
                value = future.result(timeout=0)
            except Exception as error:  # noqa: BLE001
                self._retry_or_fail(
                    index, "worker process crashed", elapsed, error
                )
            else:
                self._complete(index, value, elapsed)
        running.clear()
        self.report.pool_breaks += 1
        self.degrade(
            "pool-broken",
            f"worker pool broke; requeued {len(self.pending)} unfinished "
            f"task(s), {len(self.report.completed)} completed result(s) kept",
        )

    @staticmethod
    def _shutdown(pool) -> None:
        processes = dict(getattr(pool, "_processes", None) or {})
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - teardown must not mask results
            pass
        for process in processes.values():
            # Reclaim workers that a timed-out task left stuck; idle
            # workers of a healthy pool are already exiting.
            try:
                process.terminate()
            except Exception:  # noqa: BLE001
                pass

    # -- completion -----------------------------------------------------

    def finish(self) -> tuple[list, RunReport]:
        self.report.tasks.sort(key=lambda task: task.index)
        results = [None if r is _UNSET else r for r in self.results]
        failed = self.report.failed
        if failed and not self.policy.best_effort:
            names = ", ".join(task.label for task in failed)
            raise TaskExecutionError(
                f"{len(failed)} task(s) failed after retries: {names}",
                self.report,
                results,
            ) from self.cause
        return results, self.report


def supervised_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    workers: int = 1,
    policy: SupervisorPolicy | None = None,
    labels: Sequence[str] | None = None,
    fault_plan: FaultPlan | None = None,
    use_pool: bool | None = None,
) -> tuple[list[_R | None], RunReport]:
    """``[fn(item) for item in items]`` under supervision.

    Returns ``(results, report)`` with results in input order.  Failed
    tasks raise :class:`TaskExecutionError` unless
    ``policy.best_effort``, in which case their slots hold ``None``.
    ``use_pool`` forces (True) or forbids (False) the process pool; by
    default the pool is used when ``workers > 1``.  A lone task runs
    in-process unless it has a timeout, which only a pool can enforce.
    """
    items = list(items)
    policy = policy if policy is not None else SupervisorPolicy()
    if labels is None:
        label_list = [f"task-{i}" for i in range(len(items))]
    else:
        label_list = [str(label) for label in labels]
        if len(label_list) != len(items):
            raise ValueError(
                f"{len(label_list)} labels for {len(items)} items"
            )
    # Oversubscribing a small host loses outright (context switches on
    # a 1-core machine make the parallel suite *slower* than serial),
    # so the effective pool size is capped at the core count; the
    # report records what was actually used.  The pool-vs-serial choice
    # still follows the *requested* count, so asking for workers keeps
    # process isolation even on a single core.
    requested = max(1, workers)
    workers = min(requested, os.cpu_count() or 1, max(1, len(items)))
    state = _Supervision(fn, items, label_list, policy, fault_plan)
    pool_wanted = (requested > 1) if use_pool is None else use_pool
    if not pool_wanted or (len(items) <= 1 and policy.task_timeout_s is None):
        state.report.effective_workers = 1
        if items and policy.task_timeout_s is not None:
            state.degrade(
                "timeout-unenforced",
                f"task timeout of {policy.task_timeout_s:g}s not enforced: "
                f"{len(items)} task(s) ran in-process, which only a worker "
                f"pool can interrupt",
            )
        state.dispatch(state.run_serial, range(len(items)))
        return state.finish()
    try:
        # Deliberately lazy: the serial path never initialises
        # multiprocessing state.
        import multiprocessing  # noqa: PLC0415

        context = multiprocessing.get_context("fork")
    except (ImportError, ValueError, OSError) as error:
        state.report.serial_fallback = True
        state.report.effective_workers = 1
        state.degrade(
            "pool-unavailable",
            f"cannot create fork worker pool ({type(error).__name__}: "
            f"{error}); running {len(items)} task(s) serially",
        )
        state.dispatch(state.run_serial, range(len(items)))
        return state.finish()
    state.report.effective_workers = workers
    state.dispatch(state.run_pool, context, workers)
    return state.finish()
