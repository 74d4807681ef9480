"""Tests for single-flight serving (`serve/batching.py`), the batch
endpoint and the pipelining client.

The acceptance invariants: single-flight collapses identical
concurrent requests to exactly one simulation whose reply every
participant receives bit-identically; a solo request runs on its own
thread; failure is per-item (400 for the one invalid item, 504 for the
one expired deadline) and never stalls or fails the rest of the batch.
"""

import json
import threading

import pytest

from repro.serve import (
    BatchScheduler,
    EstimationEngine,
    EstimationHTTPServer,
    ServeClient,
    serve_forever,
)

WINDOW = 2000
SEED = 1


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-batch-cache")


@pytest.fixture(scope="module")
def offline(cache_dir):
    """Ground truth: the same requests served with no scheduler at all."""
    engine = EstimationEngine(
        window_instructions=WINDOW, seed=SEED, cache_dir=cache_dir
    )
    replies = {}
    for name in ("jess", "db", "javac", "mtrt"):
        replies[name] = engine.estimate(
            {"benchmark": name, "cpu_model": "mipsy"}
        )
        assert replies[name]["status"] == 200
    return replies


def make_engine(cache_dir=None, **overrides):
    params = dict(window_instructions=WINDOW, seed=SEED)
    if cache_dir is None:
        params["use_cache"] = False
    else:
        params["cache_dir"] = cache_dir
    params.update(overrides)
    return EstimationEngine(**params)


def submit_concurrently(scheduler, payloads):
    replies = [None] * len(payloads)

    def fire(i):
        replies[i] = scheduler.submit(dict(payloads[i]), index=i)

    threads = [
        threading.Thread(target=fire, args=(i,))
        for i in range(len(payloads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


class TestSingleFlight:
    def test_identical_requests_share_one_simulation(self):
        engine = make_engine()
        # Spy on the resident instance so the simulation count is
        # observable: exactly one SoftWatt.run must happen.
        instance = engine._instance("mipsy", "detailed")
        simulations = []
        real_run = instance.softwatt.run

        def counting_run(*args, **kwargs):
            simulations.append(args)
            return real_run(*args, **kwargs)

        instance.softwatt.run = counting_run
        scheduler = BatchScheduler(engine)
        payload = {"benchmark": "db", "cpu_model": "mipsy"}
        replies = submit_concurrently(scheduler, [payload] * 8)
        assert all(reply["status"] == 200 for reply in replies)
        assert all(reply["coalesced"] is True for reply in replies)
        # Bit-identical bodies: every participant got a copy of the
        # one reply, down to elapsed_s and the breaker snapshot.
        bodies = {json.dumps(reply, sort_keys=True) for reply in replies}
        assert len(bodies) == 1
        # Exactly one underlying simulation for the eight requests,
        # and its RunReport (shared bit-identically by every reply)
        # shows a clean run.
        assert len(simulations) == 1
        assert all(
            reply["run_report"] == {"degradations": []} for reply in replies
        )
        assert engine.stats()["counters"]["requests"] == 1
        snapshot = scheduler.snapshot()
        assert snapshot["coalesced"] == 7
        assert snapshot["single_flight"]["hits"] == 7
        assert snapshot["single_flight"]["misses"] == 1
        assert snapshot["single_flight"]["hit_rate"] == pytest.approx(7 / 8)

    def test_solo_requests_are_not_marked_coalesced(self):
        engine = make_engine()
        scheduler = BatchScheduler(engine)
        reply = scheduler.submit({"benchmark": "jess", "fidelity": "atomic"})
        assert reply["status"] == 200
        assert reply["coalesced"] is False

    def test_solo_submit_runs_on_the_calling_thread(self):
        engine = make_engine()
        threads_before = threading.active_count()
        scheduler = BatchScheduler(engine)
        assert threading.active_count() == threads_before
        callers = []
        real_estimate = engine.estimate

        def recording_estimate(*args, **kwargs):
            callers.append(threading.current_thread())
            return real_estimate(*args, **kwargs)

        engine.estimate = recording_estimate
        reply = scheduler.submit({"benchmark": "jess", "fidelity": "atomic"})
        assert reply["status"] == 200
        assert callers == [threading.current_thread()]


class TestBatchedExecution:
    def test_per_item_deadline_expiry_does_not_stall_batch(self):
        engine = make_engine()
        scheduler = BatchScheduler(engine)
        replies = submit_concurrently(
            scheduler,
            [
                {"benchmark": "jess", "fidelity": "atomic"},
                {
                    "benchmark": "db",
                    "fidelity": "atomic",
                    "deadline_s": 0.0,
                },
            ],
        )
        assert replies[0]["status"] == 200
        assert replies[1]["status"] == 504
        assert "deadline" in replies[1]["error"]

    def test_invalid_item_fails_alone(self):
        engine = make_engine()
        scheduler = BatchScheduler(engine)
        replies = scheduler.submit_many(
            [
                {"benchmark": "jess", "fidelity": "atomic"},
                {"benchmark": "not-a-benchmark"},
                {"benchmark": "jess", "bogus_field": 1},
            ]
        )
        assert [r["status"] for r in replies] == [200, 400, 400]


class _RunningServer:
    def __init__(self, engine, **kwargs):
        self.server = EstimationHTTPServer(("127.0.0.1", 0), engine, **kwargs)
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


class TestBatchEndpoint:
    def test_batch_mixed_items_per_item_status(self, cache_dir, offline):
        engine = make_engine(cache_dir)
        running = _RunningServer(engine, queue_depth=8)
        try:
            with ServeClient(port=running.port) as client:
                reply = client.run_batch(
                    [
                        {"benchmark": "jess", "cpu_model": "mipsy"},
                        {"benchmark": "nope"},
                        {"benchmark": "db", "deadline_s": 0.0},
                    ]
                )
                assert reply.status == 200
                items = reply.payload["items"]
                assert [item["status"] for item in items] == [200, 400, 504]
                assert items[0]["result"] == offline["jess"]["result"]
                stats = client.stats()
                assert "batching" in stats.payload
                assert stats.payload["batching"]["submitted"] >= 2
        finally:
            running.stop()

    def test_batch_rejects_non_list_and_oversize(self, cache_dir):
        engine = make_engine(cache_dir)
        running = _RunningServer(engine, queue_depth=8)
        try:
            with ServeClient(port=running.port) as client:
                assert client.run_batch([]).status == 400
                reply = client.post("/estimate/batch", {"benchmark": "jess"})
                assert reply.status == 400
                oversize = [{"benchmark": "jess"}] * 257
                assert client.run_batch(oversize).status == 400
        finally:
            running.stop()

    def test_identical_items_coalesce_across_connections(self, cache_dir):
        engine = make_engine(cache_dir)
        running = _RunningServer(engine, queue_depth=64)
        try:
            bodies = [None] * 6

            def fire(i):
                with ServeClient(port=running.port) as client:
                    bodies[i] = client.run("javac", cpu_model="mipsy")

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(reply.status == 200 for reply in bodies)
            distinct = {
                json.dumps(reply.payload["result"], sort_keys=True)
                for reply in bodies
            }
            assert len(distinct) == 1
        finally:
            running.stop()


class TestPipelinedClient:
    def test_pipelined_requests_share_one_connection(self, cache_dir):
        engine = make_engine(cache_dir)
        running = _RunningServer(engine, queue_depth=8)
        try:
            with ServeClient(port=running.port) as client:
                replies = client.run_pipelined(
                    [
                        {"benchmark": "jess"},
                        {"benchmark": "nope"},
                        {"benchmark": "jess", "fidelity": "atomic"},
                    ]
                )
                assert [reply.status for reply in replies] == [200, 400, 200]
                assert replies[0].payload["result"]["benchmark"] == "jess"
        finally:
            running.stop()

    def test_pipeline_surfaces_per_item_errors(self, cache_dir):
        # A server that dies mid-pipeline yields status-0 error replies
        # for the unanswered tail, not an exception.
        engine = make_engine(cache_dir)
        running = _RunningServer(engine, queue_depth=8)
        try:
            client = ServeClient(port=running.port, timeout_s=10)
            replies = client.pipeline([])
            assert replies == []
        finally:
            running.stop()
        # Server is gone: every pipelined request must come back as an
        # error Reply rather than raising.
        dead = ServeClient(port=running.port, timeout_s=2)
        replies = dead.run_pipelined([{"benchmark": "jess"}] * 3)
        assert len(replies) == 3
        assert all(reply.status == 0 for reply in replies)
