"""Deterministic fault injection for the simulation supervisor.

Recovery code that only runs when hardware misbehaves is recovery code
that never runs in CI.  A :class:`FaultPlan` makes every failure mode
the supervisor handles *injectable at a controlled point*:

* ``crash`` — the worker process dies abruptly (``os._exit``), which
  the parent observes as a ``BrokenProcessPool``;
* ``hang`` — the task sleeps past its wall-clock timeout;
* ``error`` — the task raises :class:`InjectedFault`.

Faults trigger purely as a function of ``(task index, attempt)``, so a
plan is reproducible across runs and picklable into child processes.
The module also ships the file-level helpers (:func:`corrupt_file`,
:func:`truncate_file`) used to exercise the profile-cache quarantine
and checkpoint error paths with deterministic, seeded damage.

The same plans double as the regression rig proving recovered runs stay
bit-identical to clean runs (see ``tests/test_resilience.py``).
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

CRASH = "crash"
HANG = "hang"
ERROR = "error"
_KINDS = (CRASH, HANG, ERROR)

_CRASH_EXIT_CODE = 87
"""Arbitrary but recognisable status for injected worker deaths."""


class InjectedFault(RuntimeError):
    """Raised by an ``error`` fault (and by ``crash`` faults in-process,
    where killing the interpreter would take the supervisor down too)."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire on task ``index`` while ``attempt <= attempts``."""

    kind: str
    index: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {_KINDS}")
        if self.index < 0:
            raise ValueError("fault index must be non-negative")
        if self.attempts < 1:
            raise ValueError("fault must trigger on at least one attempt")

    def triggers(self, index: int, attempt: int) -> bool:
        """True when this spec fires for 1-based ``attempt`` of task ``index``."""
        return index == self.index and attempt <= self.attempts


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan is a pure function of ``(index, attempt)`` — no clocks, no
    randomness at decision time — so the same plan against the same task
    list reproduces the same failure sequence every run.
    """

    specs: tuple[FaultSpec, ...] = ()
    hang_seconds: float = 30.0

    # -- construction helpers ------------------------------------------

    @classmethod
    def crash_at(cls, index: int, *, attempts: int = 1, **kwargs) -> "FaultPlan":
        return cls(specs=(FaultSpec(CRASH, index, attempts),), **kwargs)

    @classmethod
    def hang_at(cls, index: int, *, attempts: int = 1, **kwargs) -> "FaultPlan":
        return cls(specs=(FaultSpec(HANG, index, attempts),), **kwargs)

    @classmethod
    def error_at(cls, index: int, *, attempts: int = 1, **kwargs) -> "FaultPlan":
        return cls(specs=(FaultSpec(ERROR, index, attempts),), **kwargs)

    @classmethod
    def parse(cls, text: str, *, hang_seconds: float = 30.0) -> "FaultPlan":
        """Parse ``"crash@1,hang@2x3"`` → specs (``xN`` = first N attempts).

        This is the CLI surface (``repro ... --fault-plan``): it lets a
        recovery path be reproduced from a shell one-liner.
        """
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, _, where = part.partition("@")
                index_text, _, attempts_text = where.partition("x")
                specs.append(
                    FaultSpec(
                        kind=kind,
                        index=int(index_text),
                        attempts=int(attempts_text) if attempts_text else 1,
                    )
                )
            except ValueError as error:
                raise ValueError(
                    f"bad fault spec {part!r} (expected KIND@INDEX[xATTEMPTS]): "
                    f"{error}"
                ) from error
        return cls(specs=tuple(specs), hang_seconds=hang_seconds)

    # -- evaluation -----------------------------------------------------

    def action(self, index: int, attempt: int) -> str | None:
        """The fault kind to inject for this (task, attempt), or None."""
        for spec in self.specs:
            if spec.triggers(index, attempt):
                return spec.kind
        return None

    def apply(self, index: int, attempt: int, *, in_child: bool) -> None:
        """Inject the planned fault, if any, at a task's entry point.

        ``in_child`` distinguishes a pool worker (where a crash kills
        the process, surfacing as ``BrokenProcessPool`` in the parent)
        from in-process execution (where it raises instead — the
        supervisor must survive its own fault injection).
        """
        action = self.action(index, attempt)
        if action is None:
            return
        if action == HANG:
            time.sleep(self.hang_seconds)
        elif action == CRASH and in_child:
            os._exit(_CRASH_EXIT_CODE)
        else:
            raise InjectedFault(
                f"injected {action} fault at task {index} attempt {attempt}"
            )


# ---------------------------------------------------------------------------
# Server-side fault injection (repro serve)
# ---------------------------------------------------------------------------

SLOW_REQUEST = "slow-request"
POOL_KILL = "pool-kill"
QUEUE_FLOOD = "queue-flood"
_SERVE_KINDS = (SLOW_REQUEST, POOL_KILL, QUEUE_FLOOD)

_SERVE_ALIASES = {
    "slow": SLOW_REQUEST,
    "kill": POOL_KILL,
    "flood": QUEUE_FLOOD,
}


@dataclasses.dataclass(frozen=True)
class ServeFaultSpec:
    """One planned server-side fault: fire for ``span`` consecutive
    request ordinals starting at ``index``."""

    kind: str
    index: int
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _SERVE_KINDS:
            raise ValueError(
                f"unknown serve fault kind {self.kind!r}; "
                f"use one of {_SERVE_KINDS}"
            )
        if self.index < 0:
            raise ValueError("serve fault index must be non-negative")
        if self.span < 1:
            raise ValueError("serve fault must cover at least one request")

    def triggers(self, index: int) -> bool:
        """True when this spec fires for request ordinal ``index``."""
        return self.index <= index < self.index + self.span


@dataclasses.dataclass(frozen=True)
class ServeFaultPlan:
    """A deterministic schedule of faults for the estimation server.

    Mirrors :class:`FaultPlan`, but keyed by the server's monotonically
    increasing *request ordinal* (assigned at admission of each POST)
    instead of (task, attempt), so a serving failure sequence is a pure
    function of request arrival order:

    * ``slow-request`` — the guarded execution sleeps
      ``slow_seconds`` (a slow structural point: exercises request
      deadlines and, because the sleep holds the engine's instance
      lock, admission-queue backpressure);
    * ``pool-kill`` — the detailed-tier execution dies (exercises the
      circuit breaker and the fidelity degradation ladder);
    * ``queue-flood`` — the admission gate reports itself full
      (exercises 429 + Retry-After handling in clients).
    """

    specs: tuple[ServeFaultSpec, ...] = ()
    slow_seconds: float = 2.0

    @classmethod
    def parse(cls, text: str, *, slow_seconds: float = 2.0) -> "ServeFaultPlan":
        """Parse ``"slow@2x3,kill@5"`` → specs (``xN`` = N consecutive
        requests; kinds accept the short aliases slow/kill/flood).

        This is the CLI surface (``repro serve --serve-fault-plan``).
        """
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, _, where = part.partition("@")
                index_text, _, span_text = where.partition("x")
                specs.append(
                    ServeFaultSpec(
                        kind=_SERVE_ALIASES.get(kind, kind),
                        index=int(index_text),
                        span=int(span_text) if span_text else 1,
                    )
                )
            except ValueError as error:
                raise ValueError(
                    f"bad serve fault spec {part!r} (expected "
                    f"KIND@INDEX[xSPAN]): {error}"
                ) from error
        return cls(specs=tuple(specs), slow_seconds=slow_seconds)

    def action(self, index: int) -> str | None:
        """The fault kind to inject for request ordinal ``index``, or
        None (negative ordinals — e.g. warm-up traffic — never fault)."""
        if index < 0:
            return None
        for spec in self.specs:
            if spec.triggers(index):
                return spec.kind
        return None


# ---------------------------------------------------------------------------
# File-damage helpers (cache quarantine / checkpoint recovery rigs)
# ---------------------------------------------------------------------------

def corrupt_file(path, *, seed: int = 0, nbytes: int = 24) -> None:
    """Overwrite the head of ``path`` with seeded garbage bytes.

    The damage is a pure function of ``seed``, so a corruption-recovery
    test fails reproducibly or not at all.
    """
    garbage = bytes(random.Random(seed).randrange(256) for _ in range(nbytes))
    with open(path, "r+b") as handle:
        handle.write(garbage)


def truncate_file(path, *, keep_bytes: int = 32) -> None:
    """Truncate ``path`` to its first ``keep_bytes`` bytes (a torn write)."""
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
