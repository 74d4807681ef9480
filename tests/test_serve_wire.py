"""One pricing per result and one write per reply.

A warm answer prices its whole log once: the serve payload and a sweep
point read the ledger the result keeps.  Each reply leaves the server
in a single write on both transports, so keep-alive callers never wait
on a body held back behind the headers, and the next request on the
connection still parses.
"""

import json
import socket
import threading

import pytest

from repro.core.campaign import point_from_result
from repro.core.softwatt import SoftWatt
from repro.core.timeline import TimelineResult
from repro.resilience.faults import ServeFaultPlan
from repro.serve import (
    EstimationEngine,
    EstimationHTTPServer,
    UnixEstimationHTTPServer,
    serve_forever,
)
from repro.serve.engine import _result_payload
from repro.serve.server import EstimationHandler

WINDOW = 2000
SEED = 1


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wire-cache")


@pytest.fixture(scope="module")
def softwatt(cache_dir):
    return SoftWatt(window_instructions=WINDOW, seed=SEED, cache_dir=cache_dir)


@pytest.fixture
def ledger_calls(monkeypatch):
    """Counts whole-log pricings (``TimelineResult.energy_ledger``)."""
    calls = []
    original = TimelineResult.energy_ledger

    def counted(self, model):
        calls.append(self)
        return original(self, model)

    monkeypatch.setattr(TimelineResult, "energy_ledger", counted)
    return calls


class TestOneLedgerPerResult:
    def test_payload_prices_the_log_once(self, softwatt, ledger_calls):
        result = softwatt.run("jess", disk=2)
        payload = _result_payload(result)
        assert len(ledger_calls) == 1
        uncached = result.timeline.energy_ledger(result.model)
        assert payload["total_energy_j"] == uncached.total_j
        seconds = result.timeline.duration_s
        assert payload["budget_w"] == uncached.category_power_w(seconds)
        assert payload["average_power_w"] == uncached.total_j / seconds
        assert payload["energy_delay_product"] == uncached.total_j * seconds

    def test_sweep_point_prices_the_log_once(self, softwatt, ledger_calls):
        result = softwatt.run("jess", disk=3)
        point = point_from_result(1.0, result)
        assert len(ledger_calls) == 1
        uncached = result.timeline.energy_ledger(result.model)
        assert point.energy_j == uncached.total_j
        assert point.component_energy_j == uncached.components

    def test_kept_ledger_is_the_priced_ledger(self, softwatt):
        result = softwatt.run("jess", disk=2)
        assert result.energy_ledger() is result.energy_ledger()
        assert result.ledger is result.energy_ledger()
        assert result.ledger == result.timeline.energy_ledger(result.model)


# ---------------------------------------------------------------------------
# One write per reply
# ---------------------------------------------------------------------------


class _Wire:
    """Every write each handler made, per connection."""

    def __init__(self) -> None:
        self.connections: list[list[bytes]] = []
        self.nodelay: list[int | None] = []
        self.lock = threading.Lock()


class _CountingWriter:
    def __init__(self, inner, writes: list) -> None:
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(monkeypatch):
    record = _Wire()
    original = EstimationHandler.setup

    def setup(self):
        original(self)
        writes: list[bytes] = []
        try:
            nodelay = self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        except OSError:
            nodelay = None  # AF_UNIX has no TCP options
        with record.lock:
            record.connections.append(writes)
            record.nodelay.append(nodelay)
        self.wfile = _CountingWriter(self.wfile, writes)

    monkeypatch.setattr(EstimationHandler, "setup", setup)
    return record


def _read_reply(reader) -> tuple[int, dict, bytes]:
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _assert_one_write_each(writes: list[bytes], replies: list) -> None:
    assert len(writes) == len(replies)
    for write, (status, headers, body) in zip(writes, replies):
        assert write.startswith(f"HTTP/1.1 {status} ".encode())
        assert write.endswith(b"\r\n\r\n" + body)
        assert int(headers["content-length"]) == len(body)


def _keep_alive_session(connect) -> list:
    """200, 404 and 429 on one keep-alive connection, then a health
    check that must still parse; a bad Content-Length on a second
    connection answers 400 and closes it."""
    replies = []
    with connect() as conn:
        reader = conn.makefile("rb")
        for request in (
            _post("/run", {"benchmark": "jess"}),        # ordinal 0: 200
            _post("/nonsense", {"benchmark": "jess"}),   # 404, body discarded
            _post("/run", {"benchmark": "jess"}),        # ordinal 1: flood, 429
            b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
        ):
            conn.sendall(request)
            replies.append(_read_reply(reader))
    with connect() as conn:
        conn.sendall(
            b"POST /run HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: ten\r\n\r\n"
        )
        reader = conn.makefile("rb")
        replies.append(_read_reply(reader))
        assert reader.read() == b""  # the server closed the connection
    return replies


def _check_session(wire: _Wire, replies: list) -> None:
    statuses = [status for status, _, _ in replies]
    assert statuses == [200, 404, 429, 200, 400]
    run, _, flooded, health, bad_length = replies
    assert json.loads(run[2])["result"]["benchmark"] == "jess"
    assert flooded[1]["retry-after"] == "1.5"
    assert json.loads(health[2]) == {"status": "ok"}
    assert b"must be an integer" in bad_length[2]
    assert len(wire.connections) == 2
    _assert_one_write_each(wire.connections[0], replies[:4])
    _assert_one_write_each(wire.connections[1], replies[4:])


def _engine(cache_dir) -> EstimationEngine:
    return EstimationEngine(
        window_instructions=WINDOW, seed=SEED, cache_dir=cache_dir,
        fault_plan=ServeFaultPlan.parse("flood@1"),
    )


def _serve(server):
    thread = threading.Thread(target=serve_forever, args=(server,))
    thread.start()
    return thread


def _stop(server, thread) -> None:
    server.begin_drain()
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestOneWritePerReply:
    def test_tcp(self, cache_dir, wire):
        server = EstimationHTTPServer(
            ("127.0.0.1", 0), _engine(cache_dir), queue_depth=2,
            retry_after_s=1.5,
        )
        port = server.server_address[1]
        thread = _serve(server)
        try:
            replies = _keep_alive_session(
                lambda: socket.create_connection(("127.0.0.1", port), timeout=30)
            )
        finally:
            _stop(server, thread)
        _check_session(wire, replies)
        assert all(wire.nodelay), "accepted TCP sockets set TCP_NODELAY"

    def test_unix_socket(self, cache_dir, wire, tmp_path):
        path = str(tmp_path / "repro.sock")
        server = UnixEstimationHTTPServer(
            path, _engine(cache_dir), queue_depth=2, retry_after_s=1.5
        )
        thread = _serve(server)

        def connect():
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30)
            sock.connect(path)
            return sock

        try:
            replies = _keep_alive_session(connect)
        finally:
            _stop(server, thread)
        _check_session(wire, replies)
        assert wire.nodelay == [None, None]
