"""Single-flight deduplication for the estimation server.

Identical in-flight requests — same ``(benchmark, disk, cpu_model,
fidelity, deadline_s, idle_policy)``; seed and window are
engine-global — share one computation.  The first arrival becomes the
*leader* and runs :meth:`EstimationEngine.estimate` on its own handler
thread; later arrivals become *followers* parked on the leader's
completion event.  Every participant of a shared flight receives a
bit-identical copy of the one reply with ``coalesced: true``; a
follower whose own deadline expires first gets a per-item 504 without
disturbing the flight.

Failure stays per-item: an invalid payload 400s alone, an expired
deadline 504s alone (time spent waiting on a flight counts against the
budget), and a breaker-tripped detailed tier degrades each request down
the fidelity ladder inside :meth:`~EstimationEngine.estimate`.
Deduplication only changes *how many times* a reply is computed, so
every coalesced response is bit-identical to the same request served
alone.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.serve.engine import (
    EstimateRequest,
    EstimationEngine,
    RequestError,
)

log = logging.getLogger("repro.serve")

_FLIGHT_GRACE_S = 1.0
"""Extra wait a deadline-bound follower grants past its budget before
giving up on the flight — covers clock skew between the follower's
timeout and the engine's own 504 for the leader."""


@dataclass
class _Flight:
    """One deduplicated unit of work: a leader plus any followers."""

    key: tuple
    event: threading.Event = field(default_factory=threading.Event)
    reply: dict | None = None
    followers: int = 0
    shared: bool = False


class _Ticket(NamedTuple):
    """One request's seat on a flight."""

    flight: _Flight
    request: EstimateRequest
    arrival: float
    leader: bool


def _flight_key(request: EstimateRequest) -> tuple:
    return (
        request.benchmark,
        request.disk,
        request.cpu_model,
        request.fidelity,
        request.deadline_s,
        request.idle_policy,
    )


class BatchScheduler:
    """Single-flight deduplication between the HTTP handlers and
    :class:`EstimationEngine`; starts no threads of its own."""

    def __init__(
        self,
        engine: EstimationEngine,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self._clock = clock
        self._lock = threading.Lock()
        self._flights: dict[tuple, _Flight] = {}
        self._submitted = 0
        self._hits = 0
        self._misses = 0
        self._coalesced = 0

    def submit(self, payload: object, *, index: int = -1) -> dict:
        """Answer one request, sharing an identical in-flight one's
        reply.  Same contract as ``engine.estimate`` plus the
        ``coalesced`` marker on shared flights."""
        return self.submit_many([payload], index=index)[0]

    def submit_many(self, payloads: list, *, index: int = -1) -> list[dict]:
        """Answer several requests; failures are per-item.

        Every item joins or opens its flight before any flight runs, so
        identical items of one ``/estimate/batch`` payload share a
        flight with each other, not just with other connections.
        """
        joined = [self._join(payload, index=index) for payload in payloads]
        for entry in joined:
            if isinstance(entry, _Ticket) and entry.leader:
                self._lead(entry)
        return [
            self._await(entry) if isinstance(entry, _Ticket) else entry
            for entry in joined
        ]

    def _join(self, payload: object, *, index: int) -> _Ticket | dict:
        """Join an in-flight twin or open a new flight; returns an
        immediate reply dict for an invalid payload."""
        try:
            request = (
                payload
                if isinstance(payload, EstimateRequest)
                else EstimateRequest.from_payload(payload, index=index)
            )
        except RequestError:
            # Re-validate through the engine so the 400 is counted and
            # shaped exactly like every other engine reply.
            return self.engine.estimate(payload)
        key = _flight_key(request)
        arrival = self._clock()
        with self._lock:
            self._submitted += 1
            flight = self._flights.get(key)
            if flight is not None:
                flight.followers += 1
                self._hits += 1
                return _Ticket(flight, request, arrival, False)
            self._misses += 1
            flight = self._flights[key] = _Flight(key=key)
        return _Ticket(flight, request, arrival, True)

    def _lead(self, ticket: _Ticket) -> None:
        """Run the flight on the calling thread and release its
        followers.  The request's own deadline is enforced inside the
        engine, counted from arrival."""
        flight = ticket.flight
        try:
            reply = self.engine.estimate(ticket.request, started=ticket.arrival)
        except Exception:  # noqa: BLE001 - followers must never hang
            log.exception("estimation of %s failed", ticket.request.benchmark)
            reply = {"status": 500, "error": "internal estimation failure"}
        with self._lock:
            self._flights.pop(flight.key, None)
            flight.shared = flight.followers > 0
            self._coalesced += flight.followers
        flight.reply = reply
        flight.event.set()

    def _await(self, ticket: _Ticket) -> dict:
        flight, request = ticket.flight, ticket.request
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.engine.default_deadline_s
        )
        if ticket.leader or deadline_s is None:
            flight.event.wait()
        else:
            remaining = deadline_s - (self._clock() - ticket.arrival)
            if not flight.event.wait(timeout=remaining + _FLIGHT_GRACE_S):
                return self.engine.deadline_expired_reply(
                    request, started=ticket.arrival
                )
        reply = dict(flight.reply)
        reply["coalesced"] = flight.shared
        return reply

    def snapshot(self) -> dict:
        with self._lock:
            attempts = self._hits + self._misses
            return {
                "submitted": self._submitted,
                "coalesced": self._coalesced,
                "single_flight": {
                    "hits": self._hits,
                    "misses": self._misses,
                    "hit_rate": (
                        self._hits / attempts if attempts else 0.0
                    ),
                },
            }
