"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench

Runs every workload at ``--smoke`` size (tiny windows, one or two
repetitions), checks BENCHMARK.json against its schema and limits,
feeds each workload's check a corrupted output, and pins the tracer's
self-time and coverage arithmetic.  The smoke runs go two at a time, so
do not measure anything on the same host meanwhile.
"""

from __future__ import annotations

import concurrent.futures
import json
import re
import subprocess
import sys
import threading

import pytest

import common
import compare
import run
import tracer as tracing

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


TRACED = ("sweep_structural", "serve_warm")


def run_bench(workload: str, trace: int, tmp_path) -> tuple[int, str, dict]:
    out = tmp_path / f"{workload}-trace{trace}.json"
    process = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--smoke", "--trace", str(trace),
         "--out", str(out), "--trace-dir", str(tmp_path)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    record = json.loads(out.read_text()) if out.exists() else {}
    return process.returncode, process.stdout, record


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload untraced, and the two with cross-process tracing
    traced, two runs at a time; keyed by (workload, trace)."""
    tmp_path = tmp_path_factory.mktemp("smoke")
    runs = [(workload, 0) for workload in common.WORKLOADS]
    runs += [(workload, 1) for workload in TRACED]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = {run: pool.submit(run_bench, *run, tmp_path) for run in runs}
    results = {run: future.result() for run, future in futures.items()}
    results["dir"] = tmp_path
    return results


def printed_metrics(stdout: str) -> dict[str, str]:
    """``name value unit`` lines of a run's output."""
    lines = stdout.strip().splitlines()
    return {
        parts[0]: parts[2]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 3
    }


# ---------------------------------------------------------------------------
# Smoke runs and the output format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(smoke, workload):
    code, stdout, record = smoke[workload, 0]
    assert code == 0, stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    printed = printed_metrics(stdout)
    for metric in SPEC["end_to_end"]:
        value = last["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] == printed[metric["name"]]
        assert value["value"] > 0, metric["name"]
    assert set(last["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    provenance = record["provenance"]
    for field in ("git_commit", "seed", "nproc", "python", "platform", "sizes"):
        assert provenance[field] is not None


@pytest.mark.parametrize("workload", TRACED)
def test_traced_smoke_run_reports_layers_and_writes_a_trace(smoke, workload):
    code, stdout, record = smoke[workload, 1]
    assert code == 0, stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    printed = printed_metrics(stdout)
    for metric in SPEC["per_layer"]:
        assert last["metrics"][metric["name"]]["unit"] == printed[metric["name"]]
    assert last["metrics"]["coverage"]["value"] >= tracing.COVERAGE_FLOOR
    trace = json.loads((smoke["dir"] / f"{workload}.trace.json").read_text())
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans and all(event["dur"] >= 0 for event in spans)
    if workload == "sweep_structural":
        # The fork-pool workers' spans were flushed and merged.
        assert last["metrics"]["campaign.worker_busy_share"]["value"] > 0
        assert last["metrics"]["profiles.service_ms"]["value"] > 0
    else:
        assert last["metrics"]["serve.estimate_ms"]["value"] > 0
        assert {event["name"] for event in spans} >= {"serve.handler", "client.request"}


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in common.BENCH_DIR.glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((common.ROOT / "BENCHMARK.json").read_text())
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite_cold", "--seed", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


# ---------------------------------------------------------------------------
# BENCHMARK.json: schema and limits
# ---------------------------------------------------------------------------


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((common.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_per_layer_metric_is_computed():
    layers = {name: [1, 1, 1, 1] for name in ("op", "cpu", "mem")}
    computed = set(tracing.layer_metrics(layers, ops=1, root="op"))
    computed |= {"trace_overhead", "serve.handler_ms", "serve.wire_ms",
                 "serve.coalesced_share", "model.instructions", "model.cycles",
                 "model.l1d_misses", "model.l2_misses", "model.tlb_misses",
                 "model.table2_error_pp"}
    assert {metric["name"] for metric in SPEC["per_layer"]} == computed


# ---------------------------------------------------------------------------
# Each workload's check fails on a corrupted output
# ---------------------------------------------------------------------------


def suite_reps():
    first = {"jess": [10.0, 2.0, 3.0], "db": [11.0, 2.5, 3.5]}
    invariants = {"model": {"instructions": 5}, "table2_energy_error_pp": 7.0}
    return [
        {"digests": ["a"], "first": dict(first), "invariants": dict(invariants)}
        for _ in range(2)
    ]


def test_suite_check_catches_corruption():
    size = {"benchmarks": ("jess", "db")}
    assert run.check_suite(suite_reps(), size) == []
    reps = suite_reps()
    reps[1]["digests"] = ["b"]
    assert run.check_suite(reps, size)
    reps = suite_reps()
    del reps[1]["first"]["db"]
    assert run.check_suite(reps, size)
    reps = suite_reps()
    reps[1]["invariants"] = {"model": {"instructions": 6}}
    assert run.check_suite(reps, size)


def sweep_reps(tier):
    point = {"value": [8192, 48], "energy_j": 1.5}
    first = {"tiers": [tier, tier], "points": [dict(point), {"value": [1, 2]}]}
    return [
        {"digests": ["a", "b"], "first": first,
         "reference": {"index": 0, "point": dict(point)}},
        {"digests": ["a"], "first": first},
    ]


@pytest.mark.parametrize("tier", ["STRUCTURAL", "LEDGER"])
def test_sweep_checks_catch_corruption(tier):
    assert run.check_sweep(sweep_reps(tier), tier) == []
    reps = sweep_reps(tier)
    reps[0]["reference"]["point"]["energy_j"] = 1.5000000001
    assert run.check_sweep(reps, tier)
    reps = sweep_reps(tier)
    reps[1]["digests"] = ["z"]
    assert run.check_sweep(reps, tier)
    reps = sweep_reps(tier)
    del reps[0]["reference"]
    assert run.check_sweep(reps, tier)
    other = "LEDGER" if tier == "STRUCTURAL" else "STRUCTURAL"
    assert run.check_sweep(sweep_reps(other), tier)


def reprice_reps():
    first = [[3.3, {"l1i": 1.0}], [2.9, {"l1i": 0.8}]]
    reference = {"index": 1, "point": [2.9, {"l1i": 0.8}],
                 "direct": {"l1i": 1.0}, "ingested": {"l1i": 1.0}}
    return [{"digests": ["a"], "first": first, "reference": reference},
            {"digests": ["a"], "first": first}]


def test_reprice_check_catches_corruption():
    assert run.check_reprice(reprice_reps()) == []
    reps = reprice_reps()
    reps[0]["reference"]["ingested"] = {"l1i": 1.0000001}
    assert run.check_reprice(reps)
    reps = reprice_reps()
    reps[0]["reference"]["point"] = [2.9, {"l1i": 0.7}]
    assert run.check_reprice(reps)


def serve_samples():
    payload = {"request": {"benchmark": "jess", "disk": 1}, "degraded": False,
               "stale": False, "result": {"total_energy_j": 5.0}}
    return [run.Sample(index, 0, 1, 200, dict(payload), 0) for index in range(3)]


def test_serve_check_catches_corruption():
    offline = [({"total_energy_j": 5.0}, {"total_energy_j": 5.0})]
    assert run.check_serve(serve_samples(), [], offline) == []
    samples = serve_samples()
    samples[1] = samples[1]._replace(status=503)
    assert run.check_serve(samples, [], offline)
    samples = serve_samples()
    samples[2].payload["degraded"] = True
    assert run.check_serve(samples, [], offline)
    samples = serve_samples()
    samples[2].payload["result"] = {"total_energy_j": 5.5}
    assert run.check_serve(samples, [], offline)
    wrong = [({"total_energy_j": 5.0}, {"total_energy_j": 4.0})]
    assert run.check_serve(serve_samples(), [], wrong)
    assert run.check_serve(serve_samples(), ["warm-up jess/mxs: status 500"], offline)


# ---------------------------------------------------------------------------
# Tracer arithmetic
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def fake_clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "clock", fake)
    return fake


def test_self_time_subtracts_children_and_wrapper_cost(fake_clock):
    tracer = tracing.Tracer()
    tracer.cost = {"call": (1, 2), "iter": (0, 0)}

    def inner():
        fake_clock.advance(20)

    def outer():
        fake_clock.advance(10)
        wrapped_inner()
        fake_clock.advance(5)

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("op", outer)()
    layers = tracer.snapshot()["layers"]
    # inner: 20 ns raw, 1 ns of it is the wrapper's.
    assert layers["inner"] == [19, 19, 1, 0]
    # outer: 35 ns raw; inner covers 20 + its 2 ns outside cost.
    assert layers["op"][0] == 35 - 22 - 1
    assert layers["op"][1] == 35 - 1 - (1 + 2)
    assert tracing.coverage(layers, "op") == pytest.approx(1 - 12 / 31)


def test_adopted_span_counts_as_a_child_across_threads(fake_clock):
    tracer = tracing.Tracer()
    tracer.cost = {"call": (0, 0), "iter": (0, 0)}
    key = lambda args, kwargs: kwargs["index"]  # noqa: E731
    estimate = tracer.publish(key, "estimate", lambda *, index: fake_clock.advance(30))

    def submit(*, index):
        fake_clock.advance(4)
        worker = threading.Thread(target=estimate, kwargs={"index": index})
        worker.start()
        worker.join()
        fake_clock.advance(6)

    tracer.wrap("handler", lambda: tracer.adopting(key, "queue", submit)(index=7))()
    layers = tracer.snapshot()["layers"]
    assert layers["estimate"][0] == 30
    assert layers["queue"][0] == 10
    assert layers["handler"][:2] == [0, 40]
    assert tracing.coverage(layers, "handler") == 1.0


def test_timed_iterator_counts_every_next(fake_clock):
    tracer = tracing.Tracer()
    tracer.cost = {"call": (0, 0), "iter": (0, 0)}
    assert list(tracer.timed_iterator("isa", iter([1, 2, 3]))) == [1, 2, 3]
    assert tracer.snapshot()["layers"]["isa"][2] == 4  # three items + StopIteration


def test_calibration_and_layer_metrics():
    tracer = tracing.Tracer()
    cost = tracer.calibrate(calls=2000, rounds=2)
    assert all(inside >= 0 and outside >= 0 for inside, outside in cost.values())
    layers = {
        "op": [100, 1000, 2, 0],
        "cpu": [400, 400, 10, 5000],
        "isa.stream": [100, 100, 10, 0],
        "mem": [0, 0, 30, 0],
        "profiles.service": [50, 600, 2, 0],
        "campaign.fanout": [900, 1000, 1, 0],
        "campaign.task": [0, 1500, 4, 0],
    }
    metrics = tracing.layer_metrics(layers, ops=2, root="op", workers=2)
    assert metrics["cpu.self_ms"] == 400 / 2 / 1e6
    assert metrics["profiles.service_ms"] == 600 / 2 / 1e6  # inclusive
    assert metrics["cpu.sim_ips"] == pytest.approx(5000 / 500e-9)
    assert metrics["mem.calls"] == 15
    assert metrics["campaign.worker_busy_share"] == 0.75
    assert metrics["coverage"] == 0.9
    assert tracing.trace_overhead([1.0, 1.0], [1.5, 1.25, 1.5]) == 0.5


def test_chrome_trace_shape():
    dump = {"pid": 7, "label": "x", "layers": {},
            "events": [["cpu", 2000, 5000, "op", 0, 1], ["op", 1000, 9000, None, 0, 1]]}
    trace = tracing.chrome_trace([dump])
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in spans] == [("cpu", 1.0, 3.0),
                                                               ("op", 0.0, 8.0)]
    assert spans[0]["args"] == {"parent": "op", "op": 0}


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------


def result_file(tmp_path, name, values, *, seed=1, digest="d", correct=True):
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    record = {
        "workload": "reprice", "correct": correct, "attempted": 10, "failed": 0,
        "metrics": metrics, "invariants": {"outputs_sha256": digest},
        "provenance": {"trace": False, "seed": seed, "smoke": False},
    }
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_passes_within_bounds_and_fails_beyond(tmp_path):
    side_a = [result_file(tmp_path, f"a{i}.json", {"items_per_s": 100.0 + i}, seed=i)
              for i in range(3)]
    same = [result_file(tmp_path, f"b{i}.json", {"items_per_s": 101.0 + i}, seed=i)
            for i in range(3)]
    assert compare.main([*side_a, "--", *same]) == 0
    slower = [result_file(tmp_path, f"c{i}.json", {"items_per_s": 50.0}, seed=i)
              for i in range(3)]
    assert compare.main([*side_a, "--", *slower]) == 1
    changed = [result_file(tmp_path, f"d{i}.json", {"items_per_s": 101.0}, seed=i,
                           digest="other") for i in range(3)]
    assert compare.main([*side_a, "--", *changed]) == 1
