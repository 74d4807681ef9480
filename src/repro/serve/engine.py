"""The serving engine: resident SoftWatt state behind a resilience policy.

One :class:`EstimationEngine` owns the long-lived simulation state the
one-shot CLI pays for on every invocation — warm :class:`SoftWatt`
instances (detailed plus each degraded fidelity rung), their priced
service profiles, and the shared persistent :class:`ProfileCache` —
and answers :class:`EstimateRequest` objects under three policies:

* **deadlines** — each request carries a remaining-time budget that is
  propagated down into ``SoftWatt.task_timeout`` (and from there into
  ``SupervisorPolicy.task_timeout_s``) so a slow structural point
  cannot wedge the worker pool past what the caller will wait for;
* **circuit breaking** — consecutive failures or deadline breaches of
  the detailed tier open a :class:`CircuitBreaker`, after which
  requests skip straight to the degradation ladder
  (``sampled`` → ``atomic``) without paying a doomed detailed attempt;
* **graceful degradation** — every answer states what it is: the
  response carries ``fidelity_used``, a ``degraded`` flag, the breaker
  snapshot, and the serialized :class:`RunReport`.  When even the
  cheapest rung fails, the engine serves the last good ledger for the
  same (benchmark, cpu_model, disk, idle_policy) marked ``stale``.

Crucially, a degraded answer is *bit-identical* to running the same
fidelity rung offline: degradation only selects which rung executes,
never how it executes (the rung's SoftWatt instance is constructed
exactly as ``SoftWatt(fidelity=rung)`` would be).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.config.system import FidelityTier
from repro.core.campaign import SweepCampaign
from repro.core.report import BenchmarkResult
from repro.core.softwatt import SoftWatt
from repro.resilience.faults import (
    POOL_KILL,
    QUEUE_FLOOD,
    SLOW_REQUEST,
    InjectedFault,
    ServeFaultPlan,
)
from repro.serve.breaker import CircuitBreaker
from repro.workloads.specjvm98 import BENCHMARK_NAMES

LEDGER_ONLY = "ledger"
_LADDER = tuple(tier.value for tier in reversed(FidelityTier))
"""Fidelity rungs from the most to the least expensive."""

_SHARED_FIELDS = {
    "benchmark": str,
    "disk": int,
    "cpu_model": str,
    "deadline_s": (int, float),
}
"""Fields ``/run`` and ``/sweep`` share, with their JSON types."""

_RUN_FIELDS = {**_SHARED_FIELDS, "fidelity": str, "idle_policy": str}
_SWEEP_FIELDS = {**_SHARED_FIELDS, "parameter": str, "values": list, "tier": str}


class RequestError(ValueError):
    """A malformed request payload (maps to HTTP 400)."""


def _typed_fields(payload: object, types: dict) -> dict:
    """``payload`` as a JSON object whose fields all have their ``types``
    (``null`` passes; the value checks decide what it means)."""
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(payload) - set(types)
    if unknown:
        raise RequestError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    for name, value in payload.items():
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, types[name])
        ):
            raise RequestError(f"field {name!r} has the wrong type")
    return payload


def _shared_values(
    payload: dict, *, disk: int, benchmark: str | None = None
) -> dict:
    """Validated values of the fields ``/run`` and ``/sweep`` share; ``disk``
    and ``benchmark`` are the endpoint's defaults (``None``: must be named)."""
    benchmark = payload.get("benchmark", benchmark)
    if benchmark is None:
        raise RequestError("request must name a benchmark")
    if benchmark not in BENCHMARK_NAMES:
        raise RequestError(
            f"unknown benchmark {benchmark!r}; choose from "
            f"{', '.join(BENCHMARK_NAMES)}"
        )
    cpu_model = payload.get("cpu_model", "mxs")
    if cpu_model not in ("mxs", "mipsy"):
        raise RequestError("cpu_model must be 'mxs' or 'mipsy'")
    disk = payload.get("disk", disk)
    if disk is None or not 1 <= disk <= 4:
        raise RequestError("disk must be a configuration number 1-4")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None and not (
        math.isfinite(deadline_s) and deadline_s >= 0
    ):
        raise RequestError("deadline_s must be a finite non-negative number")
    return {
        "benchmark": benchmark,
        "cpu_model": cpu_model,
        "disk": disk,
        "deadline_s": None if deadline_s is None else float(deadline_s),
    }


@dataclass(frozen=True)
class EstimateRequest:
    """One validated estimation request."""

    benchmark: str
    disk: int = 1
    cpu_model: str = "mxs"
    fidelity: str = FidelityTier.DETAILED.value
    deadline_s: float | None = None
    idle_policy: str = "busywait"
    index: int = -1
    """Request ordinal assigned by the server at admission; -1 (warm-up
    and direct engine calls) never matches a fault spec."""

    @classmethod
    def from_payload(cls, payload: object, *, index: int = -1) -> "EstimateRequest":
        payload = _typed_fields(payload, _RUN_FIELDS)
        shared = _shared_values(payload, disk=1)
        fidelity = payload.get("fidelity", FidelityTier.DETAILED.value)
        if fidelity not in _LADDER:
            raise RequestError(f"fidelity must be one of {', '.join(_LADDER)}")
        idle_policy = payload.get("idle_policy", "busywait")
        if idle_policy not in ("busywait", "halt"):
            raise RequestError("idle_policy must be 'busywait' or 'halt'")
        return cls(
            **shared,
            fidelity=fidelity,
            idle_policy=idle_policy,
            index=index,
        )


@dataclass
class _Instance:
    """One resident SoftWatt plus the lock serialising access to it."""

    softwatt: SoftWatt
    lock: threading.Lock = field(default_factory=threading.Lock)


def _result_payload(result: BenchmarkResult) -> dict:
    return {
        "benchmark": result.name,
        "cpu_model": result.cpu_model,
        "disk_policy": result.disk_policy_name,
        "total_energy_j": result.total_energy_j,
        "disk_energy_j": result.disk_energy_j,
        "duration_s": result.timeline.duration_s,
        "average_power_w": result.average_power_w,
        "peak_power_w": result.peak_power_w,
        "energy_delay_product": result.energy_delay_product,
        "budget_w": result.power_budget(),
        "budget_shares": result.power_budget_shares(),
    }


class EstimationEngine:
    """Resident estimation state + the degradation policy around it."""

    def __init__(
        self,
        *,
        window_instructions: int = 40_000,
        seed: int = 1,
        workers: int = 1,
        cache_dir=None,
        use_cache: bool = True,
        breaker: CircuitBreaker | None = None,
        degrade_ladder: tuple[str, ...] = _LADDER[1:],
        default_deadline_s: float | None = None,
        retries: int = 2,
        fault_plan: ServeFaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        for rung in degrade_ladder:
            if rung not in _LADDER[1:]:
                raise ValueError(
                    f"degrade ladder rung {rung!r} must be a sub-detailed "
                    f"fidelity ({', '.join(_LADDER[1:])})"
                )
        self.window_instructions = window_instructions
        self.seed = seed
        self.workers = workers
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.degrade_ladder = tuple(degrade_ladder)
        self.default_deadline_s = default_deadline_s
        self.retries = retries
        self.fault_plan = fault_plan
        self._clock = clock
        self._sleep = sleep
        self._instances: dict[tuple[str, str], _Instance] = {}
        self._instances_lock = threading.Lock()
        self._sweep_lock = threading.Lock()
        self._last_good: dict[tuple, dict] = {}
        self._counters = {
            "requests": 0,
            "ok": 0,
            "degraded": 0,
            "stale": 0,
            "deadline_expired": 0,
            "failed": 0,
        }
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Resident instances
    # ------------------------------------------------------------------

    def _instance(self, cpu_model: str, fidelity: str) -> _Instance:
        key = (cpu_model, fidelity)
        with self._instances_lock:
            instance = self._instances.get(key)
            if instance is None:
                instance = _Instance(
                    SoftWatt(
                        cpu_model=cpu_model,
                        window_instructions=self.window_instructions,
                        seed=self.seed,
                        workers=self.workers,
                        cache_dir=self.cache_dir,
                        use_cache=self.use_cache,
                        retries=self.retries,
                        fidelity=fidelity,
                    )
                )
                self._instances[key] = instance
            return instance

    def warm(self, benchmarks=("jess",), *, cpu_model: str = "mxs") -> int:
        """Pre-simulate benchmarks so first requests are warm; returns
        the number of benchmarks primed."""
        count = 0
        for name in benchmarks:
            reply = self.estimate({"benchmark": name, "cpu_model": cpu_model})
            if reply["status"] == 200:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._counters_lock:
            self._counters[key] += 1

    def _fault_action(self, index: int) -> str | None:
        if self.fault_plan is None:
            return None
        return self.fault_plan.action(index)

    def flood_injected(self, index: int) -> bool:
        """True when a ``queue-flood`` fault is planned for this request
        (the admission gate then behaves as if it were full)."""
        return self._fault_action(index) == QUEUE_FLOOD

    def _deadline_for(self, request: EstimateRequest) -> float | None:
        if request.deadline_s is not None:
            return request.deadline_s
        return self.default_deadline_s

    def _execute(
        self,
        request: EstimateRequest,
        fidelity: str,
        remaining_s: float | None,
    ) -> BenchmarkResult:
        """Run one rung under the instance lock, deadline propagated."""
        instance = self._instance(request.cpu_model, fidelity)
        action = self._fault_action(request.index)
        with instance.lock:
            softwatt = instance.softwatt
            previous_timeout = softwatt.task_timeout
            if remaining_s is not None:
                softwatt.task_timeout = (
                    remaining_s
                    if previous_timeout is None
                    else min(previous_timeout, remaining_s)
                )
            try:
                # Faults fire while the lock is held: a slow request
                # therefore also queues everyone behind it (the
                # backpressure the admission gate exists to bound), and
                # a pool-kill takes down exactly the guarded tier.
                if action == SLOW_REQUEST:
                    self._sleep(self.fault_plan.slow_seconds)
                if action == POOL_KILL and fidelity == FidelityTier.DETAILED:
                    raise InjectedFault(
                        f"injected pool-kill at request {request.index}"
                    )
                return softwatt.run(
                    request.benchmark,
                    disk=request.disk,
                    idle_policy=request.idle_policy,
                )
            finally:
                softwatt.task_timeout = previous_timeout

    def estimate(
        self,
        payload: object,
        *,
        index: int = -1,
        started: float | None = None,
    ) -> dict:
        """Answer one estimation request; never raises for request-level
        failures — the reply dict carries ``status`` (HTTP semantics),
        ``error`` or ``result``, and the degradation record.

        ``started`` is the clock reading the request's deadline budget
        runs from; the single-flight scheduler passes arrival time so
        time before execution counts against the deadline too.
        """
        self._count("requests")
        try:
            request = (
                payload
                if isinstance(payload, EstimateRequest)
                else EstimateRequest.from_payload(payload, index=index)
            )
        except RequestError as error:
            self._count("failed")
            return {"status": 400, "error": str(error)}
        if started is None:
            started = self._clock()
        deadline_s = self._deadline_for(request)

        rungs = [request.fidelity]
        for rung in self.degrade_ladder:
            if _LADDER.index(rung) > _LADDER.index(request.fidelity):
                rungs.append(rung)
        degradations: list[dict] = []
        wants_detailed = request.fidelity == FidelityTier.DETAILED
        if wants_detailed and not self.breaker.allow():
            rungs = rungs[1:]
            degradations.append(
                {
                    "kind": "breaker-open",
                    "detail": "detailed tier skipped: circuit breaker open",
                }
            )

        attempts = 0
        for rung in rungs:
            remaining = (
                None
                if deadline_s is None
                else deadline_s - (self._clock() - started)
            )
            if remaining is not None and remaining <= 0:
                self._count("deadline_expired")
                if wants_detailed and attempts > 0:
                    # The expensive rung burned the whole budget: that
                    # is a deadline breach the breaker must see.
                    self.breaker.record_failure()
                return self._reply(
                    request,
                    status=504,
                    error=f"deadline of {deadline_s:g}s expired",
                    degradations=degradations,
                    attempts=attempts,
                    started=started,
                )
            attempts += 1
            guarded = rung == FidelityTier.DETAILED
            try:
                result = self._execute(request, rung, remaining)
            except Exception as error:  # noqa: BLE001 - degraded + reported
                if guarded:
                    self.breaker.record_failure()
                degradations.append(
                    {
                        "kind": "rung-failed",
                        "detail": f"{rung} rung failed: "
                        f"{type(error).__name__}: {error}",
                    }
                )
                continue
            elapsed = self._clock() - started
            deadline_exceeded = deadline_s is not None and elapsed > deadline_s
            if guarded:
                if deadline_exceeded:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            return self._success(
                request,
                result,
                fidelity_used=rung,
                degradations=degradations,
                attempts=attempts,
                started=started,
                deadline_exceeded=deadline_exceeded,
            )

        # Every rung failed: fall back to the last good ledger.
        stale_key = (
            request.benchmark,
            request.cpu_model,
            request.disk,
            request.idle_policy,
        )
        last_good = self._last_good.get(stale_key)
        if last_good is not None:
            degradations.append(
                {
                    "kind": "ledger-only",
                    "detail": "serving last good ledger; every fidelity "
                    "rung failed",
                }
            )
            self._count("ok")
            self._count("degraded")
            self._count("stale")
            return self._reply(
                request,
                status=200,
                result=dict(last_good),
                fidelity_used=LEDGER_ONLY,
                degraded=True,
                stale=True,
                degradations=degradations,
                attempts=attempts,
                started=started,
            )
        return self._reply(
            request,
            status=503,
            error="estimation unavailable: every fidelity rung failed "
            "and no prior answer is cached",
            degradations=degradations,
            attempts=attempts,
            started=started,
        )

    def deadline_expired_reply(
        self,
        request: EstimateRequest,
        *,
        started: float | None = None,
    ) -> dict:
        """A 504 for a request whose budget expired before it executed
        (a coalesced follower timing out while its leader still runs)."""
        self._count("requests")
        self._count("deadline_expired")
        deadline_s = self._deadline_for(request)
        return self._reply(
            request,
            status=504,
            error=f"deadline of {deadline_s:g}s expired",
            degradations=[],
            attempts=0,
            started=started,
        )

    def _success(
        self,
        request: EstimateRequest,
        result: BenchmarkResult,
        *,
        fidelity_used: str,
        degradations: list[dict],
        attempts: int,
        started: float,
        deadline_exceeded: bool,
    ) -> dict:
        payload = _result_payload(result)
        self._last_good[
            (request.benchmark, request.cpu_model, request.disk,
             request.idle_policy)
        ] = payload
        degraded = fidelity_used != request.fidelity
        self._count("ok")
        if degraded:
            self._count("degraded")
        return self._reply(
            request,
            status=200,
            result=payload,
            fidelity_used=fidelity_used,
            degraded=degraded,
            stale=False,
            degradations=degradations,
            attempts=attempts,
            started=started,
            deadline_exceeded=deadline_exceeded,
        )

    def _reply(
        self,
        request: EstimateRequest,
        *,
        status: int,
        result: dict | None = None,
        error: str | None = None,
        fidelity_used: str | None = None,
        degraded: bool = False,
        stale: bool = False,
        degradations: list[dict] | None = None,
        attempts: int = 0,
        started: float | None = None,
        deadline_exceeded: bool = False,
    ) -> dict:
        if status >= 400:
            self._count("failed")
        reply = {
            "status": status,
            "request": {
                "benchmark": request.benchmark,
                "disk": request.disk,
                "cpu_model": request.cpu_model,
                "fidelity": request.fidelity,
                "deadline_s": request.deadline_s,
                "idle_policy": request.idle_policy,
            },
            "fidelity_used": fidelity_used,
            "degraded": degraded,
            "stale": stale,
            "deadline_exceeded": deadline_exceeded,
            "attempts": attempts,
            "elapsed_s": (
                None if started is None else self._clock() - started
            ),
            "breaker": self.breaker.snapshot(),
            "run_report": {"degradations": degradations or []},
        }
        if result is not None:
            reply["result"] = result
        if error is not None:
            reply["error"] = error
        return reply

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def sweep(self, payload: object, *, index: int = -1) -> dict:
        """Answer a sweep request (tier-routed, shares the warm cache).

        Sweeps are serialized under one lock — they are batch work; the
        admission gate, not concurrency, is their backpressure.
        """
        self._count("requests")
        try:
            payload = _typed_fields(payload, _SWEEP_FIELDS)
            shared = _shared_values(payload, disk=2, benchmark="jess")
            parameter = payload.get("parameter")
            values = payload.get("values")
            if parameter is None or values is None:
                raise RequestError(
                    "sweep needs 'parameter' (string) and 'values' (list)"
                )
            if not all(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
                for value in values
            ):
                raise RequestError("sweep values must be finite numbers")
        except RequestError as error:
            self._count("failed")
            return {"status": 400, "error": str(error)}
        deadline_s = shared["deadline_s"]
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        started = self._clock()
        with self._sweep_lock:
            remaining = (
                None
                if deadline_s is None
                else deadline_s - (self._clock() - started)
            )
            if remaining is not None and remaining <= 0:
                self._count("deadline_expired")
                self._count("failed")
                return {
                    "status": 504,
                    "error": f"deadline of {deadline_s:g}s expired",
                }
            try:
                result = SweepCampaign(
                    benchmark=shared["benchmark"],
                    disk=shared["disk"],
                    cpu_model=shared["cpu_model"],
                    window_instructions=self.window_instructions,
                    seed=self.seed,
                    workers=self.workers,
                    cache_dir=self.cache_dir,
                    use_cache=self.use_cache,
                    tier=payload.get("tier"),
                    task_timeout=remaining,
                    retries=self.retries,
                ).run(parameter, values)
            except ValueError as error:
                self._count("failed")
                return {"status": 400, "error": str(error)}
            except Exception as error:  # noqa: BLE001 - reported as 500
                self._count("failed")
                return {
                    "status": 500,
                    "error": f"{type(error).__name__}: {error}",
                }
        self._count("ok")
        return {
            "status": 200,
            "sweep": result.to_dict(),
            "elapsed_s": self._clock() - started,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict | None:
        """Aggregated persistent-cache counters across resident
        instances (one shared directory, per-instance stat objects)."""
        with self._instances_lock:
            instances = list(self._instances.values())
        stats = [
            inst.softwatt.cache.stats.as_dict()
            for inst in instances
            if inst.softwatt.cache is not None
        ]
        if not stats:
            return None
        totals = {key: 0 for key in stats[0]}
        for entry in stats:
            for key, value in entry.items():
                totals[key] += value
        return totals

    def stats(self) -> dict:
        with self._counters_lock:
            counters = dict(self._counters)
        return {
            "counters": counters,
            "breaker": self.breaker.snapshot(),
            "cache": self.cache_stats(),
            "resident_instances": sorted(
                "/".join(key) for key in self._instances
            ),
        }
