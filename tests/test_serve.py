"""Tests for the estimation server (`repro serve`).

The deterministic :class:`ServeFaultPlan` harness drives every
degradation path — pool-kill opening the circuit breaker, slow
requests breaching deadlines, queue floods tripping admission control,
drain completing in-flight work — and the central acceptance check:
a degraded answer is *bit-identical* to the same fidelity rung run
offline.
"""

import socket
import threading
import time

import pytest

from repro.core.softwatt import SoftWatt
from repro.resilience.faults import ServeFaultPlan, ServeFaultSpec
from repro.serve import (
    AdmissionGate,
    CircuitBreaker,
    EstimateRequest,
    EstimationEngine,
    EstimationHTTPServer,
    RequestError,
    ServeClient,
    UnixEstimationHTTPServer,
    serve_forever,
)

WINDOW = 2000
SEED = 1


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One persistent cache shared by every engine in this module, so
    each fidelity rung pays its cold simulation exactly once."""
    return tmp_path_factory.mktemp("serve-cache")


@pytest.fixture(scope="module")
def offline(cache_dir):
    """Ground truth: each fidelity rung run directly, no server."""
    results = {}
    for rung in ("detailed", "sampled", "atomic"):
        sw = SoftWatt(
            window_instructions=WINDOW,
            seed=SEED,
            cache_dir=cache_dir,
            fidelity=None if rung == "detailed" else rung,
        )
        results[rung] = sw.run("jess").total_energy_j
    return results


def make_engine(cache_dir, **overrides):
    params = dict(
        window_instructions=WINDOW, seed=SEED, cache_dir=cache_dir
    )
    params.update(overrides)
    return EstimationEngine(**params)


class TestServeFaultPlan:
    def test_parse_with_aliases_and_spans(self):
        plan = ServeFaultPlan.parse("slow@2x3, kill@5, flood@0")
        assert plan.specs == (
            ServeFaultSpec("slow-request", 2, span=3),
            ServeFaultSpec("pool-kill", 5),
            ServeFaultSpec("queue-flood", 0),
        )
        assert plan.action(0) == "queue-flood"
        assert plan.action(2) == plan.action(4) == "slow-request"
        assert plan.action(5) == "pool-kill"
        assert plan.action(1) is None and plan.action(6) is None

    def test_negative_ordinals_never_fault(self):
        plan = ServeFaultPlan.parse("kill@0x100")
        assert plan.action(-1) is None  # warm-up traffic

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="serve fault"):
            ServeFaultPlan.parse("slow@x")
        with pytest.raises(ValueError, match="unknown serve fault kind"):
            ServeFaultPlan.parse("explode@1")
        with pytest.raises(ValueError):
            ServeFaultSpec("slow-request", 0, span=0)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=10.0, clock=lambda: now[0]
        )
        assert breaker.allow() and breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"  # 1 of 2
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 1
        assert not breaker.allow()
        now[0] = 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # everyone else still degrades
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2
        now[0] = 9.0  # cooldown restarted at t=5
        assert breaker.state == "open"
        now[0] = 10.0
        assert breaker.state == "half-open"

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two in a row
        snapshot = breaker.snapshot()
        assert snapshot["consecutive_failures"] == 1
        assert snapshot["opens"] == 0


class TestEstimateRequest:
    def test_validates_fields(self):
        request = EstimateRequest.from_payload(
            {"benchmark": "jess", "disk": 3, "fidelity": "sampled",
             "deadline_s": 2.5}
        )
        assert request.disk == 3 and request.deadline_s == 2.5

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"benchmark": "nope"},
        {"benchmark": "jess", "surprise": 1},
        {"benchmark": "jess", "disk": 9},
        {"benchmark": "jess", "disk": True},
        {"benchmark": "jess", "disk": None},
        {"benchmark": "jess", "fidelity": "ledger"},
        {"benchmark": "jess", "cpu_model": "gem5"},
        {"benchmark": "jess", "deadline_s": -1},
        {"benchmark": "jess", "deadline_s": float("nan")},
        {"benchmark": "jess", "deadline_s": float("inf")},
        {"benchmark": "jess", "idle_policy": "nap"},
    ])
    def test_rejects_bad_payloads(self, payload):
        with pytest.raises(RequestError):
            EstimateRequest.from_payload(payload)

    def test_engine_maps_request_error_to_400(self, cache_dir):
        reply = make_engine(cache_dir).estimate({"benchmark": "nope"})
        assert reply["status"] == 400 and "unknown benchmark" in reply["error"]

    def test_null_disk_is_400_not_500(self, cache_dir):
        reply = make_engine(cache_dir).estimate({"benchmark": "jess", "disk": None})
        assert reply["status"] == 400 and "disk" in reply["error"]


class TestDegradation:
    def test_pool_kill_degrades_bit_identical_to_offline_rung(
        self, cache_dir, offline
    ):
        """The acceptance criterion: under injected pool-kill the
        breaker opens and degraded answers equal the same fidelity rung
        run offline, bit for bit."""
        now = [0.0]
        engine = make_engine(
            cache_dir,
            breaker=CircuitBreaker(
                failure_threshold=2, cooldown_s=30.0, clock=lambda: now[0]
            ),
            fault_plan=ServeFaultPlan.parse("kill@0x2"),
        )
        # Request 0: detailed dies, ladder answers at sampled.
        reply = engine.estimate({"benchmark": "jess"}, index=0)
        assert reply["status"] == 200
        assert reply["fidelity_used"] == "sampled" and reply["degraded"]
        assert reply["result"]["total_energy_j"] == offline["sampled"]
        kinds = [d["kind"] for d in reply["run_report"]["degradations"]]
        assert kinds == ["rung-failed"]
        assert engine.breaker.state == "closed"  # 1 of 2 failures

        # Request 1: second kill opens the breaker.
        reply = engine.estimate({"benchmark": "jess"}, index=1)
        assert reply["fidelity_used"] == "sampled"
        assert engine.breaker.state == "open"

        # Request 2: breaker open -> no detailed attempt, still the
        # exact offline sampled answer.
        reply = engine.estimate({"benchmark": "jess"}, index=2)
        assert reply["status"] == 200 and reply["degraded"]
        assert reply["result"]["total_energy_j"] == offline["sampled"]
        kinds = [d["kind"] for d in reply["run_report"]["degradations"]]
        assert kinds == ["breaker-open"]

        # Cooldown elapses: the half-open probe succeeds (the fault
        # plan is exhausted), the breaker closes, answers are detailed
        # again — and equal the offline detailed run.
        now[0] = 31.0
        reply = engine.estimate({"benchmark": "jess"}, index=5)
        assert reply["fidelity_used"] == "detailed"
        assert not reply["degraded"]
        assert reply["result"]["total_energy_j"] == offline["detailed"]
        assert engine.breaker.state == "closed"

    def test_explicit_sub_detailed_fidelity_is_not_degraded(
        self, cache_dir, offline
    ):
        engine = make_engine(cache_dir)
        reply = engine.estimate({"benchmark": "jess", "fidelity": "atomic"})
        assert reply["status"] == 200
        assert reply["fidelity_used"] == "atomic"
        assert not reply["degraded"]  # the caller asked for this rung
        assert reply["result"]["total_energy_j"] == offline["atomic"]

    def test_expired_deadline_is_504(self, cache_dir):
        engine = make_engine(cache_dir)
        reply = engine.estimate({"benchmark": "jess", "deadline_s": 0})
        assert reply["status"] == 504 and "deadline" in reply["error"]

    def test_deadline_breach_on_detailed_tier_trips_breaker(self, cache_dir):
        engine = make_engine(
            cache_dir,
            breaker=CircuitBreaker(failure_threshold=1),
            fault_plan=ServeFaultPlan.parse("slow@0", slow_seconds=0.2),
        )
        engine.warm(("jess",))
        reply = engine.estimate(
            {"benchmark": "jess", "deadline_s": 0.05}, index=0
        )
        # The work finished, so the answer is served — flagged — but
        # the breach counts as a breaker failure.
        assert reply["status"] == 200 and reply["deadline_exceeded"]
        assert engine.breaker.state == "open"

    def test_deadline_propagates_into_task_timeout(self, cache_dir):
        engine = make_engine(cache_dir)
        instance = engine._instance("mxs", "detailed")
        seen = []
        original = instance.softwatt.run

        def spy(*args, **kwargs):
            seen.append(instance.softwatt.task_timeout)
            return original(*args, **kwargs)

        instance.softwatt.run = spy
        engine.estimate({"benchmark": "jess", "deadline_s": 60.0})
        instance.softwatt.run = original
        assert len(seen) == 1
        assert seen[0] is not None and 0 < seen[0] <= 60.0
        assert instance.softwatt.task_timeout is None  # restored

    def test_ledger_fallback_serves_last_good_marked_stale(self, cache_dir):
        engine = make_engine(
            cache_dir,
            degrade_ladder=(),
            breaker=CircuitBreaker(failure_threshold=100),
            fault_plan=ServeFaultPlan.parse("kill@1x10"),
        )
        good = engine.estimate({"benchmark": "jess"}, index=0)
        assert good["status"] == 200
        reply = engine.estimate({"benchmark": "jess"}, index=1)
        assert reply["status"] == 200
        assert reply["fidelity_used"] == "ledger"
        assert reply["degraded"] and reply["stale"]
        assert (reply["result"]["total_energy_j"]
                == good["result"]["total_energy_j"])

    def test_unavailable_when_nothing_cached(self, cache_dir):
        engine = make_engine(
            cache_dir,
            degrade_ladder=(),
            breaker=CircuitBreaker(failure_threshold=100),
            fault_plan=ServeFaultPlan.parse("kill@0x10"),
        )
        reply = engine.estimate({"benchmark": "jess"}, index=0)
        assert reply["status"] == 503

    def test_rejects_detailed_rung_in_ladder(self, cache_dir):
        with pytest.raises(ValueError, match="sub-detailed"):
            make_engine(cache_dir, degrade_ladder=("detailed",))

    def test_sweep_endpoint_reuses_warm_state(self, cache_dir):
        engine = make_engine(cache_dir)
        reply = engine.sweep({"parameter": "vdd", "values": [3.0, 3.3]})
        assert reply["status"] == 200
        points = reply["sweep"]["points"]
        assert len(points) == 2
        assert points[0]["energy_j"] < points[1]["energy_j"]
        assert reply["sweep"]["tiers"] == ["LEDGER", "LEDGER"]
        bad = engine.sweep({"parameter": "nonsense", "values": [1]})
        assert bad["status"] == 400

    @pytest.mark.parametrize(
        "parameter, value",
        [("l1_size", 16384), ("vdd", 3.0), ("spindown_threshold_s", 2.0)],
    )
    def test_sweep_deadline_at_one_worker_is_reported(self, parameter, value):
        # One worker runs every stage in-process, where the deadline
        # cannot interrupt it: the reply must say so on every tier,
        # also when only the base run simulates (a cold one, so its
        # kernel services are characterised under the deadline).
        engine = make_engine(None, use_cache=False)
        reply = engine.sweep(
            {"parameter": parameter, "values": [value], "deadline_s": 600}
        )
        assert reply["status"] == 200
        kinds = [
            event["kind"]
            for event in reply["sweep"]["run_report"]["degradations"]
        ]
        assert "timeout-unenforced" in kinds


class TestSweepValidation:
    """/sweep checks the fields it shares with /run exactly as /run
    does: every malformed body is a counted 400, never a raise, a 500
    or a 504."""

    @pytest.mark.parametrize("fields", [
        {"deadline_s": "x"},
        {"deadline_s": -1},
        {"deadline_s": float("nan")},
        {"deadline_s": float("inf")},
        {"disk": "x"},
        {"disk": 9},
        {"benchmark": ["x"]},
        {"benchmark": "nope"},
        {"cpu_model": "gem5"},
        {"tier": "bogus"},
        {"tier": 3},
        {"values": [float("nan")]},
        {"values": ["x"]},
        {"values": [None]},
    ])
    def test_malformed_sweep_is_400(self, cache_dir, fields):
        engine = make_engine(cache_dir)
        reply = engine.sweep({"parameter": "vdd", "values": [3.0], **fields})
        assert reply["status"] == 400, reply
        assert engine.stats()["counters"]["failed"] == 1


class TestAdmissionGate:
    def test_bounded_admission(self):
        gate = AdmissionGate(limit=2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        assert gate.rejected == 1
        gate.leave()
        assert gate.try_enter()
        assert gate.snapshot()["peak_in_flight"] == 2

    def test_rejects_silly_limit(self):
        with pytest.raises(ValueError):
            AdmissionGate(limit=0)


class _RunningServer:
    """A server on an OS-assigned port plus its serve thread."""

    def __init__(self, engine, **kwargs):
        self.server = EstimationHTTPServer(
            ("127.0.0.1", 0), engine, **kwargs
        )
        self.port = self.server.server_address[1]
        self.summary = None

        def run():
            self.summary = serve_forever(self.server)

        self.thread = threading.Thread(target=run)
        self.thread.start()

    def stop(self):
        self.server.begin_drain()
        self.thread.join(timeout=60)
        assert not self.thread.is_alive()


class TestHTTPServer:
    def test_health_run_and_stats(self, cache_dir, offline):
        engine = make_engine(cache_dir)
        running = _RunningServer(engine, queue_depth=2)
        try:
            with ServeClient(port=running.port) as client:
                assert client.healthz().status == 200
                assert client.readyz().status == 200
                reply = client.run("jess")
                assert reply.status == 200
                assert (reply.payload["result"]["total_energy_j"]
                        == offline["detailed"])
                stats = client.stats()
                assert stats.status == 200
                assert stats.payload["counters"]["ok"] == 1
                assert stats.payload["admission"]["admitted"] == 1
                assert client.get("/nonsense").status == 404
                assert client.post("/run", {"benchmark": "nope"}).status == 400
                null_disk = client.post("/run", {"benchmark": "jess", "disk": None})
                assert null_disk.status == 400
                assert "disk" in null_disk.payload["error"]
                # json.dumps writes NaN as the bare literal the server's
                # json.loads accepts; validation must still refuse it.
                nan_deadline = client.post(
                    "/run", {"benchmark": "jess", "deadline_s": float("nan")}
                )
                assert nan_deadline.status == 400
                for fields in ({"deadline_s": "x"}, {"disk": "x"},
                               {"benchmark": ["x"]}, {"deadline_s": -1}):
                    bad_sweep = client.post(
                        "/sweep", {"parameter": "vdd", "values": [3.0], **fields}
                    )
                    assert bad_sweep.status == 400, (fields, bad_sweep.payload)
        finally:
            running.stop()

    @pytest.mark.parametrize("path", ["/nonsense", "/run"])
    def test_non_numeric_content_length_is_400(self, cache_dir, path):
        # The 404 route discards the body before replying, so it has to
        # read the length too; a malformed one must not drop the
        # connection without a reply.
        running = _RunningServer(make_engine(cache_dir), queue_depth=2)
        try:
            with socket.create_connection(
                ("127.0.0.1", running.port), timeout=10
            ) as conn:
                conn.sendall(
                    f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
                    "Content-Length: ten\r\n\r\n".encode()
                )
                response = conn.makefile("rb").read()
        finally:
            running.stop()
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"must be an integer" in response

    def test_queue_flood_rejected_with_retry_after(self, cache_dir):
        engine = make_engine(
            cache_dir, fault_plan=ServeFaultPlan.parse("flood@1x2")
        )
        running = _RunningServer(engine, queue_depth=4, retry_after_s=1.5)
        try:
            with ServeClient(port=running.port) as client:
                assert client.run("jess").status == 200       # ordinal 0
                flooded = client.run("jess")                  # ordinal 1
                assert flooded.status == 429
                assert flooded.headers["Retry-After"] == "1.5"
                assert flooded.payload["retry_after_s"] == 1.5
                assert client.run("jess").status == 429       # ordinal 2
                assert client.run("jess").status == 200       # ordinal 3
                stats = client.stats()
                assert stats.payload["admission"]["rejected"] == 2
        finally:
            running.stop()

    def test_admission_gate_full_is_429(self, cache_dir):
        engine = make_engine(
            cache_dir,
            fault_plan=ServeFaultPlan.parse("slow@0", slow_seconds=1.0),
        )
        engine.warm(("jess",))
        running = _RunningServer(engine, queue_depth=1)
        started = threading.Event()
        outcome = {}

        def occupant():
            with ServeClient(port=running.port, timeout_s=30) as client:
                started.set()
                outcome["slow"] = client.run("jess")          # ordinal 0

        try:
            blocker = threading.Thread(target=occupant)
            blocker.start()
            started.wait(timeout=10)
            # Probe only once the slow request holds the gate (the
            # injected fault keeps it there for a full second).
            deadline = time.monotonic() + 10
            while (running.server.gate.in_flight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert running.server.gate.in_flight >= 1
            with ServeClient(port=running.port, timeout_s=30) as client:
                reply = client.run("jess")
                assert reply.status == 429
            blocker.join(timeout=30)
            assert outcome["slow"].status == 200
        finally:
            running.stop()

    def test_drain_finishes_in_flight_and_reports(self, cache_dir):
        engine = make_engine(
            cache_dir,
            fault_plan=ServeFaultPlan.parse("slow@0", slow_seconds=0.6),
        )
        engine.warm(("jess",))
        running = _RunningServer(engine, queue_depth=2)
        dispatched = threading.Event()
        outcome = {}

        def in_flight():
            with ServeClient(port=running.port, timeout_s=30) as client:
                dispatched.set()
                outcome["reply"] = client.run("jess")

        worker = threading.Thread(target=in_flight)
        worker.start()
        dispatched.wait(timeout=10)
        # Drain only once the slow request actually occupies the gate,
        # so "drain completes in-flight work" is what is exercised.
        deadline = time.monotonic() + 10
        while (running.server.gate.in_flight < 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert running.server.gate.in_flight >= 1
        running.server.begin_drain()
        running.thread.join(timeout=60)
        worker.join(timeout=30)
        # The in-flight request got its full answer, not a reset.
        assert outcome["reply"].status == 200
        assert running.summary is not None
        assert running.summary["counters"]["ok"] >= 2  # warm + in-flight
        # New work is refused during/after drain at the HTTP layer.
        assert running.server.draining.is_set()

    def test_unix_socket_serves_same_api(self, cache_dir, tmp_path):
        path = str(tmp_path / "repro.sock")
        engine = make_engine(cache_dir)
        server = UnixEstimationHTTPServer(path, engine, queue_depth=2)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        try:
            with ServeClient(socket_path=path) as client:
                assert client.healthz().status == 200
                assert client.run("jess").status == 200
        finally:
            server.begin_drain()
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestServeClient:
    def test_requires_exactly_one_address(self):
        with pytest.raises(ValueError):
            ServeClient()
        with pytest.raises(ValueError):
            ServeClient(port=1, socket_path="/tmp/x")
