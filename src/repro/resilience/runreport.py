"""Structured outcome reporting for supervised simulation runs.

A suite result is only meaningful if the user can tell *how* it was
produced: which tasks ran cleanly, which were retried, whether the
worker pool broke and had to be rebuilt, and whether the supervisor
degraded to serial execution.  :class:`RunReport` is that record — one
:class:`TaskRecord` per task plus a list of :class:`Degradation`
events — and it travels with the results:
:meth:`~repro.core.softwatt.SoftWatt.run_suite` and
:meth:`~repro.core.softwatt.SoftWatt.profile_many` return mappings that
carry the report of the run that produced them, and the CLI turns a
degraded report into a non-zero exit code under ``--strict``.
"""

from __future__ import annotations

import dataclasses

STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclasses.dataclass
class TaskRecord:
    """Final outcome of one supervised task."""

    index: int
    label: str
    status: str
    attempts: int
    duration_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclasses.dataclass(frozen=True)
class Degradation:
    """One event where the run deviated from the clean fast path."""

    kind: str
    """Stable machine-readable category: ``pool-broken``,
    ``pool-unavailable``, ``task-timeout``, ``timeout-unenforced``,
    ``serial-fallback``, ``task-failed``, ``cache-quarantine``,
    ``service-missing``."""

    detail: str
    """Human-readable description of what happened."""

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclasses.dataclass
class RunReport:
    """Everything the supervisor observed while executing one task set."""

    tasks: list[TaskRecord] = dataclasses.field(default_factory=list)
    degradations: list[Degradation] = dataclasses.field(default_factory=list)
    pool_breaks: int = 0
    pool_restarts: int = 0
    serial_fallback: bool = False
    effective_workers: int = 0
    """Worker count actually used after capping at ``os.cpu_count()``
    (0 until a supervised stage has run)."""
    notes: list[str] = dataclasses.field(default_factory=list)
    """Non-degrading annotations about how the run was produced (e.g.
    which fidelity tier simulated the structural points)."""

    # -- recording ------------------------------------------------------

    def record_task(self, record: TaskRecord) -> None:
        self.tasks.append(record)

    def add_degradation(self, kind: str, detail: str) -> Degradation:
        event = Degradation(kind=kind, detail=detail)
        self.degradations.append(event)
        return event

    def add_note(self, note: str) -> None:
        """Record a non-degrading annotation (never affects ``ok``)."""
        self.notes.append(note)

    def merge(self, other: "RunReport") -> None:
        """Fold another report into this one (e.g. per-call into session)."""
        self.tasks.extend(other.tasks)
        self.degradations.extend(other.degradations)
        self.pool_breaks += other.pool_breaks
        self.pool_restarts += other.pool_restarts
        self.serial_fallback = self.serial_fallback or other.serial_fallback
        self.effective_workers = max(
            self.effective_workers, other.effective_workers
        )
        self.notes.extend(other.notes)

    # -- queries --------------------------------------------------------

    @property
    def completed(self) -> list[TaskRecord]:
        return [task for task in self.tasks if task.ok]

    @property
    def failed(self) -> list[TaskRecord]:
        return [task for task in self.tasks if not task.ok]

    @property
    def retried(self) -> list[TaskRecord]:
        return [task for task in self.tasks if task.attempts > 1]

    @property
    def degraded(self) -> bool:
        """True when anything at all deviated from the clean fast path."""
        return bool(self.degradations) or bool(self.failed)

    @property
    def ok(self) -> bool:
        return not self.degraded

    # -- rendering ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable view (for exports and debugging)."""
        return {
            "tasks": [dataclasses.asdict(task) for task in self.tasks],
            "degradations": [dataclasses.asdict(d) for d in self.degradations],
            "pool_breaks": self.pool_breaks,
            "pool_restarts": self.pool_restarts,
            "serial_fallback": self.serial_fallback,
            "effective_workers": self.effective_workers,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        """Multi-line human summary, suitable for the CLI."""
        lines = [
            f"run report: {len(self.completed)}/{len(self.tasks)} tasks ok, "
            f"{len(self.retried)} retried, {len(self.failed)} failed, "
            f"{len(self.degradations)} degradation(s)"
        ]
        for event in self.degradations:
            lines.append(f"  {event}")
        for task in self.failed:
            lines.append(
                f"  FAILED {task.label}: {task.error} "
                f"(after {task.attempts} attempt(s))"
            )
        return "\n".join(lines)


class ReportedMapping(dict):
    """A plain dict of results that also carries its :class:`RunReport`.

    Subclassing ``dict`` keeps every existing consumer working (lookups,
    iteration, ``set(results)``) while letting callers who care reach
    ``results.report``.
    """

    def __init__(self, data: dict, report: RunReport) -> None:
        super().__init__(data)
        self.report = report
