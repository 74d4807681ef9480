"""Estimation-as-a-service: the resident SoftWatt daemon.

``engine`` answers estimation requests from warm simulator state under
deadlines, a circuit breaker, and a fidelity-degradation ladder;
``batching`` shares one computation among identical in-flight
requests (single-flight deduplication); ``server`` is the stdlib HTTP shell
adding admission control, health endpoints, and graceful drain;
``breaker`` is the reusable circuit breaker; ``client`` is the
matching stdlib client (keep-alive, batch endpoint, pipelining).
Started via ``repro serve`` (see DESIGN.md §13–14).
"""

from repro.serve.batching import BatchScheduler
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import Reply, ServeClient
from repro.serve.engine import (
    EstimateRequest,
    EstimationEngine,
    RequestError,
)
from repro.serve.server import (
    AdmissionGate,
    EstimationHTTPServer,
    UnixEstimationHTTPServer,
    serve_forever,
)

__all__ = [
    "AdmissionGate",
    "BatchScheduler",
    "CircuitBreaker",
    "EstimateRequest",
    "EstimationEngine",
    "EstimationHTTPServer",
    "Reply",
    "RequestError",
    "ServeClient",
    "UnixEstimationHTTPServer",
    "serve_forever",
]
