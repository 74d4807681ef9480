"""The HTTP front-end: admission control, health, and graceful drain.

Stdlib-only (``http.server`` / ``socketserver``).  The server is a
thin, robust shell around :class:`EstimationEngine`:

* **Admission gate.**  At most ``queue_depth`` POST requests are in
  flight; request ``N+1`` is rejected immediately with ``429`` and a
  ``Retry-After`` header instead of queueing unboundedly (backpressure,
  not OOM).  GET endpoints bypass the gate so health checks always
  answer.
* **Request ordinals.**  Every POST is assigned a monotonically
  increasing ordinal *before* the gate check, so a
  :class:`~repro.resilience.faults.ServeFaultPlan` keyed on arrival
  order is deterministic regardless of thread scheduling.
* **Graceful drain.**  SIGTERM/SIGINT (wired in the CLI) call
  :meth:`begin_drain`: the listener stops accepting, ``/readyz`` flips
  to 503 so load balancers steer away, in-flight requests run to
  completion (handler threads are joined, not abandoned), cache stats
  are flushed to the log, and the process exits 0.

A Unix-domain-socket variant (``repro serve --socket``) serves the
same handler for single-host callers.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

from repro.serve.batching import BatchScheduler
from repro.serve.engine import EstimationEngine

log = logging.getLogger("repro.serve")

MAX_BODY_BYTES = 1 << 20
"""Reject request bodies past 1 MiB before reading them."""

MAX_BATCH_ITEMS = 256
"""Cap on the number of items in one ``/estimate/batch`` payload."""


class AdmissionGate:
    """A bounded in-flight counter: admission control without a queue.

    ``try_enter`` either admits (incrementing the in-flight count) or
    refuses; refused callers get a 429 and retry later.  There is
    deliberately no waiting room — a waiting room is just an unbounded
    queue with extra steps.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("admission limit must be at least 1")
        self.limit = limit
        self._lock = threading.Lock()
        self._in_flight = 0
        self.admitted = 0
        self.rejected = 0
        self.peak_in_flight = 0

    def try_enter(self) -> bool:
        with self._lock:
            if self._in_flight >= self.limit:
                self.rejected += 1
                return False
            self._in_flight += 1
            self.admitted += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            return True

    def leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def force_reject(self) -> None:
        """Count a rejection decided outside the limit check (the
        queue-flood fault injection)."""
        with self._lock:
            self.rejected += 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "limit": self.limit,
                "in_flight": self._in_flight,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "peak_in_flight": self.peak_in_flight,
            }


class EstimationHandler(BaseHTTPRequestHandler):
    """Routes: GET /healthz /readyz /stats; POST /run /sweep
    /estimate/batch."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    timeout = 60.0  # idle keep-alive cap; also bounds drain worst-case

    # -- plumbing -------------------------------------------------------

    def handle(self) -> None:
        # As BaseHTTPRequestHandler.handle, but a draining server stops
        # the keep-alive loop between requests instead of parking in
        # readline() waiting for a next request that must not come.
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            if self.server.draining.is_set():
                break
            self.handle_one_request()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("%s %s", self.address_string(), format % args)

    def address_string(self) -> str:
        # AF_UNIX peers have no (host, port) pair.
        try:
            return super().address_string()
        except (TypeError, IndexError):
            return "unix-socket"

    def _send_json(self, status: int, payload: dict, *, headers=()) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # a 0.9 reply is the bare body
            return
        # end_headers() would write the headers on their own and the
        # body after them; the body joins the header buffer instead, so
        # the whole reply leaves in one write (no body segment held back
        # by Nagle until the peer's delayed ACK).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _body_length(self) -> int | None:
        """The declared body length, or None when the Content-Length
        header is not an integer (the body's end is then unknown, so
        the connection closes after the reply)."""
        try:
            return int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return None

    def _read_body(self, length: int) -> object:
        if length <= 0:
            raise ValueError("request must carry a JSON body")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return json.loads(self.rfile.read(length))

    def _discard_body(self, length: int) -> None:
        """Consume an unread request body so a rejected POST leaves the
        keep-alive connection parseable for the next request."""
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)
        elif length > MAX_BODY_BYTES:
            self.close_connection = True

    # -- GET: health + introspection ------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server: EstimationHTTPServer = self.server
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/readyz":
            if server.draining.is_set():
                self._send_json(503, {"status": "draining"})
            else:
                self._send_json(200, {"status": "ready"})
        elif self.path == "/stats":
            stats = server.engine.stats()
            stats["admission"] = server.gate.snapshot()
            stats["draining"] = server.draining.is_set()
            stats["batching"] = server.scheduler.snapshot()
            self._send_json(200, stats)
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    # -- POST: estimation -----------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        server: EstimationHTTPServer = self.server
        length = self._body_length()
        if length is None:
            self._send_json(400, {"error": "Content-Length must be an integer"})
            return
        if self.path not in ("/run", "/sweep", "/estimate/batch"):
            self._discard_body(length)
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        index = server.next_ordinal()
        if server.draining.is_set():
            self._discard_body(length)
            self._send_json(503, {"error": "server is draining"})
            return
        flooded = server.engine.flood_injected(index)
        if flooded:
            server.gate.force_reject()
        if flooded or not server.gate.try_enter():
            self._discard_body(length)
            self._send_json(
                429,
                {
                    "error": "admission queue full",
                    "retry_after_s": server.retry_after_s,
                },
                headers=(("Retry-After", f"{server.retry_after_s:g}"),),
            )
            return
        try:
            try:
                payload = self._read_body(length)
            except (ValueError, json.JSONDecodeError) as error:
                self._send_json(400, {"error": str(error)})
                return
            if self.path == "/run":
                reply = server.scheduler.submit(payload, index=index)
            elif self.path == "/estimate/batch":
                reply = self._estimate_batch(server, payload, index)
            else:
                reply = server.engine.sweep(payload, index=index)
            self._send_json(reply["status"], reply)
        except Exception:  # noqa: BLE001 - a handler crash must not kill the server
            log.exception("request %d failed", index)
            try:
                self._send_json(500, {"error": "internal server error"})
            except OSError:
                pass  # client already gone
        finally:
            server.gate.leave()

    @staticmethod
    def _estimate_batch(
        server: "EstimationHTTPServer", payload: object, index: int
    ) -> dict:
        """One HTTP request carrying many estimation items; failures
        are per-item (each entry in ``items`` has its own status)."""
        if not isinstance(payload, list):
            return {
                "status": 400,
                "error": "batch body must be a JSON array of requests",
            }
        if not payload:
            return {"status": 400, "error": "batch body must not be empty"}
        if len(payload) > MAX_BATCH_ITEMS:
            return {
                "status": 400,
                "error": f"batch exceeds {MAX_BATCH_ITEMS} items",
            }
        items = server.scheduler.submit_many(payload, index=index)
        return {"status": 200, "count": len(items), "items": items}


class EstimationHTTPServer(ThreadingHTTPServer):
    """TCP server: threaded handlers that are *joined* on close, so a
    drain returns every in-flight response before the process exits."""

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    request_queue_size = 128  # listen backlog; admission happens per
    # request above, so a connect burst must not be reset at the socket

    def __init__(
        self,
        address,
        engine: EstimationEngine,
        *,
        queue_depth: int = 4,
        retry_after_s: float = 2.0,
    ) -> None:
        super().__init__(address, EstimationHandler)
        self.engine = engine
        self.scheduler = BatchScheduler(engine)
        self.gate = AdmissionGate(queue_depth)
        self.retry_after_s = retry_after_s
        self.draining = threading.Event()
        self._ordinal = -1
        self._ordinal_lock = threading.Lock()
        self._connections: dict[int, socket.socket] = {}
        self._connections_lock = threading.Lock()

    def get_request(self):
        connection, address = super().get_request()
        if self.address_family != socket.AF_UNIX:
            # Replies are one write each, so nothing is gained by
            # Nagle's coalescing; only TCP sockets accept the option.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection, address

    def next_ordinal(self) -> int:
        with self._ordinal_lock:
            self._ordinal += 1
            return self._ordinal

    def finish_request(self, request, client_address) -> None:
        # Track live connections so a drain can nudge idle keep-alive
        # handlers (parked in readline()) awake; without this,
        # server_close() would join their threads forever.
        with self._connections_lock:
            self._connections[id(request)] = request
        try:
            super().finish_request(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.pop(id(request), None)

    def begin_drain(self) -> None:
        """Stop accepting; in-flight requests finish.  Idempotent, and
        safe to call from a signal handler (shutdown() must run on a
        thread other than the serve_forever() thread)."""
        if self.draining.is_set():
            return
        self.draining.set()
        threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self) -> None:
        self.shutdown()  # returns once the accept loop has stopped
        # Shut down the *read* side of every tracked connection: idle
        # keep-alive handlers see EOF and exit; in-flight handlers have
        # already read their request and can still write the response.
        with self._connections_lock:
            connections = list(self._connections.values())
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closing

    def drain_summary(self) -> dict:
        return {
            "admission": self.gate.snapshot(),
            "cache": self.engine.cache_stats(),
            "counters": self.engine.stats()["counters"],
            "batching": self.scheduler.snapshot(),
        }


class UnixEstimationHTTPServer(EstimationHTTPServer):
    """The same server bound to a Unix domain socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # HTTPServer.server_bind unpacks (host, port) from getsockname,
        # which a path-typed AF_UNIX name cannot satisfy.
        socketserver.TCPServer.server_bind(self)
        self.server_name = str(self.server_address)
        self.server_port = 0


def serve_forever(server: EstimationHTTPServer) -> dict:
    """Run until drained; returns the drain summary (logged too)."""
    try:
        server.serve_forever()
    finally:
        server.server_close()  # joins in-flight handler threads
    summary = server.drain_summary()
    log.info("drained: %s", json.dumps(summary, sort_keys=True))
    return summary
