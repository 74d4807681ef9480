#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` as a real subprocess.

Exercises the full service lifecycle the way an operator sees it:

1. launch ``python -m repro serve --port 0`` with a deterministic
   server-side fault plan (two slow requests to occupy the admission
   gate, one slow request to be in flight during drain),
2. probe ``/healthz`` and ``/readyz``,
3. send a cold ``POST /run`` then a warm one (the warm one must be
   bit-identical and much faster is *not* asserted — single-core CI
   boxes make timing assertions flaky; identity is the contract),
4. flood the admission gate while two injected-slow requests hold it
   and assert the overflow is rejected with ``429`` + ``Retry-After``,
5. start one more injected-slow request, send SIGTERM mid-flight, and
   assert the in-flight request still gets its 200 before the process
   exits 0 with a drain summary,
6. (second server, deep queue) fire 32+ concurrent estimation requests
   — mixed identical and distinct — through ``POST /estimate/batch``,
   SIGTERM while they are in flight, and assert every admitted batch
   still answers with per-item statuses, identical items return
   identical results, and the drain exits 0.

Exit code 0 on success; 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import ServeClient  # noqa: E402

WINDOW = 3000
SLOW_S = 1.5
# Ordinals: 0 cold, 1 warm, 2-3 slow (occupy the depth-2 gate),
# 4-5 flood probes, 6 slow (in flight across SIGTERM).
FAULT_PLAN = "slow@2x2,slow@6"


def fail(message: str, server: subprocess.Popen | None = None) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    if server is not None and server.poll() is None:
        server.kill()
        server.wait()
    return 1


def launch(extra_args: list[str]) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--window", str(WINDOW), "--no-cache",
        *extra_args,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH"))
        if p
    )
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )


def main() -> int:
    server = launch([
        "--queue-depth", "2",
        "--serve-fault-plan", FAULT_PLAN,
        "--slow-seconds", str(SLOW_S),
    ])
    lines: list[str] = []

    def read_line(timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if line:
                lines.append(line.rstrip())
                print(f"  server| {lines[-1]}")
                return lines[-1]
            if server.poll() is not None:
                break
            time.sleep(0.01)
        return ""

    port = None
    while port is None:
        line = read_line()
        if not line:
            return fail("server exited before announcing its port", server)
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))

    # Drain the server's stdout in the background so it never blocks on
    # a full pipe, while keeping every line for the final assertions.
    def pump() -> None:
        for line in server.stdout:
            lines.append(line.rstrip())
            print(f"  server| {lines[-1]}")

    pump_thread = threading.Thread(target=pump, daemon=True)
    pump_thread.start()

    client = ServeClient(port=port, timeout_s=120.0)
    if not client.healthz().ok:
        return fail("/healthz not ok", server)
    if not client.readyz().ok:
        return fail("/readyz not ok before drain", server)
    print("health + ready: ok")

    cold = client.run("jess")  # ordinal 0
    if not cold.ok or cold.payload["degraded"]:
        return fail(f"cold run failed: {cold.status} {cold.payload}", server)
    warm = client.run("jess")  # ordinal 1
    if not warm.ok or warm.payload["degraded"]:
        return fail(f"warm run failed: {warm.status} {warm.payload}", server)
    cold_j = cold.payload["result"]["total_energy_j"]
    warm_j = warm.payload["result"]["total_energy_j"]
    if cold_j != warm_j:
        return fail(f"warm energy {warm_j} != cold {cold_j}", server)
    print(f"cold + warm run: ok ({cold_j:.4f} J, bit-identical)")

    # Two injected-slow requests (ordinals 2, 3) fill the depth-2 gate.
    slow_replies: dict[int, object] = {}

    def slow_request(slot: int) -> None:
        with ServeClient(port=port, timeout_s=120.0) as own:
            slow_replies[slot] = own.run("jess")

    occupants = [
        threading.Thread(target=slow_request, args=(slot,))
        for slot in (0, 1)
    ]
    for thread in occupants:
        thread.start()
    # Wait until both hold the gate (in_flight == 2), then flood.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        stats = client.stats()
        if stats.ok and stats.payload["admission"]["in_flight"] >= 2:
            break
        time.sleep(0.02)
    else:
        return fail("slow occupants never filled the admission gate", server)

    rejected = 0
    for _ in range(2):  # ordinals 4, 5
        reply = client.run("jess")
        if reply.status == 429 and "Retry-After" in reply.headers:
            rejected += 1
        else:
            return fail(
                f"expected 429 with Retry-After while the gate is full, "
                f"got {reply.status} {reply.headers}",
                server,
            )
    print(f"admission flood: ok ({rejected} rejected with 429 + Retry-After)")
    for thread in occupants:
        thread.join(timeout=60)
    for slot in (0, 1):
        reply = slow_replies.get(slot)
        if reply is None or not reply.ok:
            return fail(f"slow occupant {slot} did not complete: {reply}",
                        server)

    # One more injected-slow request (ordinal 6), then SIGTERM while it
    # is in flight: drain must return its 200 before the process exits.
    final = threading.Thread(target=slow_request, args=(2,))
    final.start()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        stats = client.stats()
        if stats.ok and stats.payload["admission"]["in_flight"] >= 1:
            break
        time.sleep(0.02)
    else:
        return fail("final slow request never entered the gate", server)
    server.send_signal(signal.SIGTERM)
    final.join(timeout=120)
    reply = slow_replies.get(2)
    if reply is None or not reply.ok:
        return fail(f"in-flight request dropped during drain: {reply}", server)
    print("drain: ok (in-flight request answered 200 after SIGTERM)")

    code = server.wait(timeout=120)
    pump_thread.join(timeout=10)
    client.close()
    if code != 0:
        return fail(f"server exited {code}, expected 0", server)
    transcript = "\n".join(lines)
    if "draining" not in transcript or "drained:" not in transcript:
        return fail("drain summary missing from server output", server)
    print("serve smoke (faults + drain): PASS")
    return batch_smoke()


def batch_smoke() -> int:
    """Phase 6: concurrent batch-endpoint traffic across a drain."""
    server = launch(["--queue-depth", "64"])
    lines: list[str] = []

    port = None
    while port is None:
        line = server.stdout.readline()
        if not line:
            return fail("batch server exited before announcing its port",
                        server)
        lines.append(line.rstrip())
        print(f"  server| {lines[-1]}")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))

    def pump() -> None:
        for line in server.stdout:
            lines.append(line.rstrip())
            print(f"  server| {lines[-1]}")

    pump_thread = threading.Thread(target=pump, daemon=True)
    pump_thread.start()

    # 8 connections x 4-item batches = 32 concurrent estimation
    # requests: half identical (jess, coalescable by single-flight),
    # half distinct across benchmarks and fidelities.
    distinct = [
        {"benchmark": name, "fidelity": "atomic"}
        for name in ("db", "javac", "mtrt", "compress", "jack", "jess")
    ]
    batches = []
    for index in range(8):
        items = [
            {"benchmark": "jess"},
            {"benchmark": "jess"},
            distinct[index % len(distinct)],
            distinct[(index + 1) % len(distinct)],
        ]
        batches.append(items)
    replies: dict[int, object] = {}

    def post_batch(slot: int) -> None:
        with ServeClient(port=port, timeout_s=300.0) as own:
            replies[slot] = own.run_batch(batches[slot])

    threads = [
        threading.Thread(target=post_batch, args=(slot,))
        for slot in range(len(batches))
    ]
    for thread in threads:
        thread.start()

    # SIGTERM while the batches are in flight: every admitted batch
    # must still be answered in full before the process exits 0.
    probe = ServeClient(port=port, timeout_s=30.0)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        stats = probe.stats()
        if stats.ok and stats.payload["admission"]["in_flight"] >= 1:
            break
        time.sleep(0.02)
    else:
        return fail("batch requests never entered the gate", server)
    probe.close()
    server.send_signal(signal.SIGTERM)
    for thread in threads:
        thread.join(timeout=300)

    jess_results = set()
    total_items = 0
    for slot in range(len(batches)):
        reply = replies.get(slot)
        if reply is None or reply.status != 200:
            return fail(f"batch {slot} failed across drain: {reply}", server)
        items = reply.payload["items"]
        if len(items) != len(batches[slot]):
            return fail(f"batch {slot} returned {len(items)} items, "
                        f"expected {len(batches[slot])}", server)
        for item, sent in zip(items, batches[slot]):
            total_items += 1
            if item["status"] != 200:
                return fail(f"batch {slot} item {sent} -> {item['status']}: "
                            f"{item.get('error')}", server)
            if sent == {"benchmark": "jess"}:
                jess_results.add(
                    repr(sorted(item["result"].items()))
                )
    if len(jess_results) != 1:
        return fail(f"identical jess items returned "
                    f"{len(jess_results)} distinct results", server)
    print(f"batch flood: ok ({total_items} items over {len(batches)} "
          f"connections, identical items bit-identical)")

    code = server.wait(timeout=300)
    pump_thread.join(timeout=10)
    if code != 0:
        return fail(f"batch server exited {code}, expected 0", server)
    transcript = "\n".join(lines)
    if "batching:" not in transcript:
        return fail("batching summary missing from drain output", server)
    print("serve smoke (batch endpoint + drain): PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
